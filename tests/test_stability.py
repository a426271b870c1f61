import tracemalloc

import numpy as np
import pytest

from chronident import (
    ClockParams,
    EnsembleParams,
    MeasurementRecord,
    acov_grid,
    acov_variance,
    analytic_acov,
    assemble_ensemble,
    clock_avar,
    log_spaced_grid,
    simulate_ensemble,
)
from chronident.stability import (
    _BLOCK,
    TauGrid,
    _second_difference_grams,
    write_acov_csv,
)
from conftest import random_params


def _acov(record, i, j, m):
    """acov_grid's estimate for channels i <= j (1-based) at m steps."""
    est = acov_grid(record, TauGrid(m_values=np.array([m]), Ts=record.Ts))
    return float(est.sigma2[est.pairs.index((i, j)), 0])


class TestEmpiricalAcov:
    def test_constant_channel_is_zero(self):
        record = MeasurementRecord(Ts=2.0, Z=np.full((1, 101), 3.7))
        assert _acov(record, 1, 1, 5) == 0.0

    def test_exact_ramp_is_zero(self):
        # a + b k with dyadic coefficients: second differences vanish exactly
        k = np.arange(201, dtype=float)
        record = MeasurementRecord(Ts=1.0, Z=(0.25 + 0.5 * k)[None, :])
        assert _acov(record, 1, 1, 7) == 0.0

    def test_generic_ramp_near_zero(self):
        k = np.arange(501, dtype=float)
        record = MeasurementRecord(Ts=5.0, Z=(1.3e-9 + 2.7e-10 * k)[None, :])
        assert abs(_acov(record, 1, 1, 10)) < 1e-40

    def test_white_pm_expectation(self):
        # measurement white noise r11 contributes 3 r11 / tau^2
        r11 = 9e-35
        rng = np.random.default_rng(31)
        n_steps = 100_000
        z = np.sqrt(r11) * rng.standard_normal((1, n_steps + 1))
        record = MeasurementRecord(Ts=5.0, Z=z)
        est = _acov(record, 1, 1, 1)
        expected = 3.0 * r11 / 5.0**2
        np.testing.assert_allclose(expected, 1.08e-35)
        std = np.sqrt(acov_variance(est, n_steps, 1))
        assert abs(est - expected) <= 3.0 * std

    def test_scale_equivariance(self, maser_model):
        _, record = simulate_ensemble(maser_model, 1000, seed=8)
        scaled = MeasurementRecord(
            Ts=record.Ts, Z=record.Z * np.array([3.0, 1.0, 1.0])[:, None]
        )
        np.testing.assert_allclose(
            _acov(scaled, 1, 2, 4), 3.0 * _acov(record, 1, 2, 4)
        )
        np.testing.assert_allclose(
            _acov(scaled, 1, 1, 4), 9.0 * _acov(record, 1, 1, 4)
        )

    def test_offset_and_ramp_immunity(self, maser_model):
        _, record = simulate_ensemble(maser_model, 1000, seed=9)
        k = np.arange(record.Z.shape[1], dtype=float)
        shifted = MeasurementRecord(Ts=record.Ts, Z=record.Z + (1e-7 + 1e-10 * k))
        for m in (1, 5, 50):
            np.testing.assert_allclose(
                _acov(shifted, 1, 1, m),
                _acov(record, 1, 1, m),
                rtol=1e-9,
            )

    def test_white_fm_consistency_bias(self):
        # averaging 100 independent estimates: bias below 2 percent
        q1 = 2e-27
        params = EnsembleParams(
            clocks=(ClockParams(0.0, 0.0), ClockParams(q1, 0.0)), R=np.zeros((1, 1))
        )
        model = assemble_ensemble(params, 5.0)
        n_steps = 20_000
        for m in (1, 8, 32):
            estimates = [
                _acov(
                    simulate_ensemble(model, n_steps, seed=1000 + r, keep_states=False)[1],
                    1,
                    1,
                    m,
                )
                for r in range(100)
            ]
            tau = m * 5.0
            assert abs(np.mean(estimates) - q1 / tau) / (q1 / tau) < 0.02

    def test_m_out_of_range(self, maser_model):
        _, record = simulate_ensemble(maser_model, 100, seed=0)
        with pytest.raises(ValueError):
            _acov(record, 1, 1, 51)
        with pytest.raises(ValueError):
            _acov(record, 1, 1, 0)


class TestAnalyticAcov:
    def test_channel_avar_reference(self, maser_params):
        # term-by-term evaluation for channel (1,1) at tau = 1000 s
        tau = 1000.0
        expected = (
            (1e-27 + 1.5e-27) / tau
            + (1e-36 + 2e-35) * tau / 3.0
            + 3.0 * 9e-35 / tau**2
            + (8e-21) ** 2 * tau**2 / 2.0
        )
        got = analytic_acov(maser_params, 1, 1, tau)
        np.testing.assert_allclose(got, expected, rtol=0.0)
        np.testing.assert_allclose(got, 2.5070e-30, rtol=1e-4)

    def test_cross_acov_reference(self, maser_params):
        tau = 100.0
        expected = (
            1e-27 / tau
            + 1e-36 * tau / 3.0
            + 3.0 * 6e-35 / tau**2
            + (8e-21) * (7.5e-21) * tau**2 / 2.0
        )
        got = analytic_acov(maser_params, 1, 2, tau)
        np.testing.assert_allclose(got, expected, rtol=0.0)
        np.testing.assert_allclose(got, 1.0000036e-29, rtol=1e-6)

    def test_zero_params_zero_curve(self):
        params = EnsembleParams(
            clocks=(ClockParams(0.0, 0.0), ClockParams(0.0, 0.0), ClockParams(0.0, 0.0)),
            R=np.zeros((2, 2)),
        )
        for tau in (1.0, 10.0, 1e6):
            assert analytic_acov(params, 1, 2, tau) == 0.0
            assert analytic_acov(params, 2, 2, tau) == 0.0

    def test_matches_empirical_in_expectation(self, maser_params, maser_model):
        # Monte-Carlo mean of the estimator against the closed form
        m = 4
        tau = m * 5.0
        runs = [
            _acov(
                simulate_ensemble(maser_model, 4000, seed=500 + r, keep_states=False)[1],
                1,
                1,
                m,
            )
            for r in range(60)
        ]
        expected = analytic_acov(maser_params, 1, 1, tau)
        assert abs(np.mean(runs) - expected) / expected < 0.05

    def test_invalid_arguments(self, maser_params):
        with pytest.raises(ValueError):
            analytic_acov(maser_params, 1, 1, 0.0)
        with pytest.raises(ValueError):
            analytic_acov(maser_params, 0, 1, 5.0)


class TestAcovVariance:
    def test_reference_value(self):
        var = acov_variance(2.5e-30, 6_312_000, 200)
        np.testing.assert_allclose(var, 2.0 * 2.5e-30 / (6_312_000 / 200))
        np.testing.assert_allclose(var, 1.584e-34, rtol=1e-3)

    def test_zero_estimate_gets_positive_floor(self):
        assert acov_variance(0.0, 1000, 10) > 0.0

    def test_negative_cross_estimate_uses_magnitude(self):
        var = acov_variance(-1e-36, 1000, 10)
        assert var == acov_variance(1e-36, 1000, 10)
        assert var > 0.0

    def test_m_too_large(self):
        with pytest.raises(ValueError):
            acov_variance(1.0, 100, 51)


class TestTauGrid:
    def test_year_scale_grid(self):
        grid = log_spaced_grid(20, 3_150_000, 5.0)
        assert len(grid) == 20
        assert grid.m_values[0] == 1
        assert grid.m_values[-1] == 3_150_000
        assert not grid.truncated
        assert np.all(np.diff(grid.m_values) > 0)

    def test_two_point_grid(self):
        grid = log_spaced_grid(2, 4, 1.0)
        np.testing.assert_array_equal(grid.m_values, [1, 4])

    def test_powers_of_two(self):
        grid = log_spaced_grid(5, 16, 1.0)
        np.testing.assert_array_equal(grid.m_values, [1, 2, 4, 8, 16])

    def test_truncation_flag(self):
        grid = log_spaced_grid(10, 4, 1.0)
        assert grid.truncated
        assert len(grid) < 10

    def test_taus(self):
        grid = log_spaced_grid(3, 100, 5.0)
        np.testing.assert_array_equal(grid.taus, grid.m_values * 5.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            log_spaced_grid(1, 100, 1.0)
        with pytest.raises(ValueError):
            TauGrid(m_values=np.array([3, 2]), Ts=1.0)


class TestAcovGrid:
    def test_pair_count_and_order(self, maser_model):
        _, record = simulate_ensemble(maser_model, 20_000, seed=13)
        grid = log_spaced_grid(20, 10_000, 5.0)
        est = acov_grid(record, grid)
        assert est.pairs == ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
        assert est.sigma2.shape == (6, len(grid))
        assert est.sigma2.size == 6 * len(grid)
        assert np.all(est.var > 0.0)

    def test_blocked_kernel_matches_one_shot_gram(self, maser_model):
        # several blocks with a partial last one; the largest m leaves 2 columns
        n_steps = 3 * _BLOCK + 1001
        grid = TauGrid(m_values=np.array([1, 7, 1000, _BLOCK, n_steps // 2]), Ts=5.0)
        rng = np.random.default_rng(22)
        models = [
            assemble_ensemble(random_params(rng, 2, balanced=False), 5.0),
            maser_model,
            assemble_ensemble(random_params(rng, 6, balanced=False), 5.0),
        ]
        for model in models:
            _, record = simulate_ensemble(model, n_steps, seed=22, keep_states=False)
            est = acov_grid(record, grid)
            grams = _second_difference_grams(record.Z, grid.m_values)
            Z = record.Z
            for p, m in enumerate(grid.m_values):
                assert np.array_equal(grams[p], grams[p].T)
                D = Z[:, 2 * m :] - 2.0 * Z[:, m:-m] + Z[:, : -2 * m]
                D_gram = D @ D.T
                assert np.max(np.abs(grams[p] - D_gram)) <= 1e-12 * np.max(np.abs(D_gram))
                G = D_gram / (2.0 * (m * 5.0) ** 2 * (n_steps - 2 * m + 1))
                ref = np.array([G[i - 1, j - 1] for i, j in est.pairs])
                assert np.max(np.abs(est.sigma2[:, p] - ref)) <= 1e-12 * np.max(np.abs(G))

    def test_variances_follow_scalar_formula(self, maser_model):
        _, record = simulate_ensemble(maser_model, 5000, seed=23, keep_states=False)
        grid = log_spaced_grid(6, 2500, 5.0)
        est = acov_grid(record, grid)
        for row in range(len(est.pairs)):
            for p, m in enumerate(grid.m_values):
                expected = acov_variance(float(est.sigma2[row, p]), 5000, int(m))
                assert est.var[row, p] == expected

    def test_peak_memory_below_record_size(self, maser_model):
        # no full-length second-difference temporaries
        _, record = simulate_ensemble(maser_model, 200_000, seed=24, keep_states=False)
        grid = log_spaced_grid(20, 100_000, 5.0)
        tracemalloc.start()
        try:
            acov_grid(record, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < record.Z.nbytes

    def test_two_clock_single_pair(self):
        params = EnsembleParams(
            clocks=(ClockParams(1e-27, 0.0), ClockParams(1e-27, 0.0)),
            R=np.zeros((1, 1)),
        )
        model = assemble_ensemble(params, 5.0)
        _, record = simulate_ensemble(model, 1000, seed=15)
        est = acov_grid(record, log_spaced_grid(4, 50, 5.0))
        assert est.pairs == ((1, 1),)

    def test_cross_acov_positive_at_large_tau(self, maser_model):
        # common pivot noise plus drift products dominate the cross terms
        _, record = simulate_ensemble(maser_model, 200_000, seed=16)
        est = acov_grid(record, log_spaced_grid(10, 100_000, 5.0))
        row_12 = est.pairs.index((1, 2))
        assert est.sigma2[row_12, -1] > 0.0
        assert est.sigma2[row_12, -2] > 0.0

    def test_grid_exceeding_record_rejected(self, maser_model):
        _, record = simulate_ensemble(maser_model, 100, seed=0)
        with pytest.raises(ValueError):
            acov_grid(record, log_spaced_grid(4, 51, 5.0))


class TestClockAvar:
    def test_matches_analytic_for_isolated_clock(self):
        # a clock with a noiseless pivot has channel AVAR equal to its own AVAR
        params = EnsembleParams(
            clocks=(ClockParams(0.0, 0.0, 0.0), ClockParams(3e-27, 2e-35, 5e-21)),
            R=np.zeros((1, 1)),
        )
        for tau in (5.0, 1e3, 1e6):
            np.testing.assert_allclose(
                clock_avar(3e-27, 2e-35, 5e-21, tau), analytic_acov(params, 1, 1, tau)
            )


class TestAcovCsv:
    def test_export_row_count_and_values(self, tmp_path, maser_model):
        _, record = simulate_ensemble(maser_model, 20_000, seed=18)
        grid = log_spaced_grid(20, 10_000, 5.0)
        est = acov_grid(record, grid)
        path = tmp_path / "acov.csv"
        write_acov_csv(est, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "tau_s,pair_i,pair_j,sigma2,var_sigma2"
        assert len(lines) - 1 == 6 * len(grid)
        first = lines[1].split(",")
        assert float(first[0]) == grid.taus[0]
        assert (int(first[1]), int(first[2])) == (1, 1)
        np.testing.assert_allclose(float(first[3]), est.sigma2[0, 0])
