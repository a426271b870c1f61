import tracemalloc

import numpy as np
import pytest

from chronident import (
    ClockParams,
    EnsembleParams,
    MeasurementRecord,
    acov_grid,
    analytic_acov,
    assemble_ensemble,
    clock_avar,
    default_grid,
    log_spaced_grid,
    simulate_ensemble,
)
from chronident.stability import (
    _BLOCK,
    _WIDTH,
    TauGrid,
    _second_difference_grams,
    write_acov_csv,
)
from chronident.errors import UnidentifiableError
from chronident.model import upper_triangle_indices
from chronident.numerics import wishart_variance
from conftest import gapped_record, random_params


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
        std = np.sqrt(wishart_variance(np.array([[est]]), 1 / n_steps))[0, 0]
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
        # one AVAR: chi-square variance 2 sigma^4 / nu with nu = N/m
        var = wishart_variance(np.array([[2.5e-30]]), 200 / 6_312_000)[0, 0]
        np.testing.assert_allclose(var, 2.0 * (2.5e-30) ** 2 * 200 / 6_312_000)
        np.testing.assert_allclose(var, 3.961e-64, rtol=1e-3)

    def test_zero_estimate_gets_positive_floor(self):
        assert wishart_variance(np.zeros((1, 1)), 10 / 1000)[0, 0] > 0.0

    def test_negative_cross_estimate_uses_magnitude(self):
        # vech rows (1,1), (1,2), (2,2) of one 2 x 2 ACOV matrix
        vech = np.array([[2e-36], [-1e-36], [3e-36]])
        var = wishart_variance(vech, 10 / 1000)
        assert np.array_equal(var, wishart_variance(np.abs(vech), 10 / 1000))
        assert var[1, 0] > 0.0


class TestTauGrid:
    def test_year_scale_grid(self):
        grid = log_spaced_grid(20, 3_150_000, 5.0)
        assert len(grid) == 20
        assert grid.m_values[0] == 1
        assert grid.m_values[-1] == 3_150_000
        assert np.all(np.diff(grid.m_values) > 0)

    def test_two_point_grid(self):
        grid = log_spaced_grid(2, 4, 1.0)
        np.testing.assert_array_equal(grid.m_values, [1, 4])

    def test_powers_of_two(self):
        grid = log_spaced_grid(5, 16, 1.0)
        np.testing.assert_array_equal(grid.m_values, [1, 2, 4, 8, 16])

    def test_truncation_flag(self):
        # rounding merges neighbours: ten requested factors in [1, 4]
        grid = log_spaced_grid(10, 4, 1.0)
        np.testing.assert_array_equal(grid.m_values, [1, 2, 3, 4])

    def test_taus(self):
        grid = log_spaced_grid(3, 100, 5.0)
        np.testing.assert_array_equal(grid.taus, grid.m_values * 5.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            log_spaced_grid(1, 100, 1.0)
        with pytest.raises(ValueError):
            TauGrid(m_values=np.array([3, 2]), Ts=1.0)

    def test_default_grid(self):
        # 20 factors up to N // 2 unless given; estimate, avar and
        # montecarlo all take their grid from here
        default = default_grid(20_001, 5.0)
        np.testing.assert_array_equal(default.m_values, log_spaced_grid(20, 10_000, 5.0).m_values)
        assert default.Ts == 5.0
        given = default_grid(20_001, 5.0, ell=5, m_max=16)
        np.testing.assert_array_equal(given.m_values, [1, 2, 4, 8, 16])
        with pytest.raises(ValueError, match="record too short"):
            default_grid(1, 5.0)

    def test_default_grid_takes_integral_values_only(self):
        # a whole number given as a float or as text is taken; a fraction
        # is rejected instead of truncated
        given = default_grid(20_001, 5.0, ell=5.0, m_max="16")
        np.testing.assert_array_equal(given.m_values, [1, 2, 4, 8, 16])
        with pytest.raises(ValueError, match="ell must be an integer, got 15.7"):
            default_grid(20_001, 5.0, ell=15.7)
        with pytest.raises(ValueError, match="m_max must be an integer, got 1000.9"):
            default_grid(20_001, 5.0, m_max=1000.9)


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
        # at m = 1 exactly one block of _WIDTH columns, one block and a
        # one-column tail, and one block and a partial one; the largest m
        # leaves 1 or 2 columns
        rng = np.random.default_rng(22)
        models = [
            assemble_ensemble(random_params(rng, 2, balanced=False), 5.0),
            maser_model,
            assemble_ensemble(random_params(rng, 6, balanced=False), 5.0),
        ]
        for n_steps in (_WIDTH + 1, _WIDTH + 2, 3 * _BLOCK + 1001):
            grid = TauGrid(m_values=np.unique([1, 7, 1000, _BLOCK, n_steps // 2]), Ts=5.0)
            for model in models:
                _, record = simulate_ensemble(model, n_steps, seed=22, keep_states=False)
                est = acov_grid(record, grid)
                sums, counts = _second_difference_grams(record.Z, grid.m_values)
                assert counts is None
                assert sums.shape == (len(est.pairs), len(grid))
                rows, cols = upper_triangle_indices(record.n_z)
                Z = record.Z
                for p, m in enumerate(grid.m_values):
                    D = Z[:, 2 * m :] - 2.0 * Z[:, m:-m] + Z[:, : -2 * m]
                    D_gram = D @ D.T
                    error = np.max(np.abs(sums[:, p] - D_gram[rows, cols]))
                    assert error <= 1e-12 * np.max(np.abs(D_gram))
                    G = D_gram / (2.0 * (m * 5.0) ** 2 * (n_steps - 2 * m + 1))
                    ref = np.array([G[i - 1, j - 1] for i, j in est.pairs])
                    assert np.max(np.abs(est.sigma2[:, p] - ref)) <= 1e-12 * np.max(np.abs(G))

    def test_block_outer_order_bit_identical_to_m_outer(self, maser_model):
        # each pair row adds its blocks in the same order whichever loop is
        # outside, one product vector per superdiagonal and block; m values
        # below, at and above _WIDTH, the last leaving a partial block
        n_steps = 2 * _WIDTH + 777
        m_values = TauGrid(
            m_values=np.array([1, 3, 50, _BLOCK, _WIDTH - 1, _WIDTH, _WIDTH + 5, n_steps // 2]),
            Ts=5.0,
        ).m_values
        _, record = simulate_ensemble(maser_model, n_steps, seed=25, keep_states=False)
        Z = record.Z
        n_z = Z.shape[0]
        row_of = {pair: k for k, pair in enumerate(zip(*upper_triangle_indices(n_z)))}
        reference = np.zeros((len(row_of), len(m_values)))
        for p, m in enumerate(m_values):
            count = Z.shape[1] - 2 * m
            for start in range(0, count, _WIDTH):
                width = min(_WIDTH, count - start)
                twice = Z[:, start + m : start + m + width] * 2.0
                db = Z[:, start + 2 * m : start + 2 * m + width] - twice
                db += Z[:, start : start + width]
                for s in range(n_z):
                    products = np.einsum("ik,ik->i", db[: n_z - s], db[s:])
                    for i, value in enumerate(products):
                        reference[row_of[i, i + s], p] += value
        sums, _ = _second_difference_grams(Z, m_values)
        assert np.array_equal(sums, reference)

    def test_variances_follow_scalar_formula(self, maser_model):
        # Wishart form (s_ii s_jj + s_ij^2) m/N, the scalar 2 s^2 m/N on the diagonal
        _, record = simulate_ensemble(maser_model, 5000, seed=23, keep_states=False)
        grid = log_spaced_grid(6, 2500, 5.0)
        est = acov_grid(record, grid)
        row_of = {pair: row for row, pair in enumerate(est.pairs)}
        for row, (i, j) in enumerate(est.pairs):
            for p, m in enumerate(grid.m_values):
                s_ii, s_jj, s_ij = (est.sigma2[row_of[k], p] for k in [(i, i), (j, j), (i, j)])
                expected = (s_ii * s_jj + s_ij**2) * (m / 5000) + 1e-100
                np.testing.assert_allclose(est.var[row, p], expected, rtol=1e-15)
                if i == j:
                    assert est.var[row, p] == wishart_variance(np.array([[s_ii]]), m / 5000)[0, 0]

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


class TestMaskedAcov:
    def test_all_true_mask_is_bit_identical(self, maser_model):
        _, record = simulate_ensemble(maser_model, 2 * _BLOCK + 301, seed=26, keep_states=False)
        grid = log_spaced_grid(12, record.n_steps // 2, 5.0)
        plain = acov_grid(record, grid)
        masked = acov_grid(
            MeasurementRecord(Ts=5.0, Z=record.Z, valid=np.ones(record.Z.shape, dtype=bool)), grid
        )
        assert plain.counts is None
        assert np.array_equal(masked.sigma2, plain.sigma2)
        assert np.array_equal(masked.var, plain.var)
        expected = record.n_steps - 2 * grid.m_values + 1
        assert np.array_equal(masked.counts, np.broadcast_to(expected, masked.counts.shape))

    def test_matches_valid_column_reference(self, maser_model):
        # per pair, only the columns whose three samples are valid on both
        # channels; the channels' masks differ
        _, record = simulate_ensemble(maser_model, _BLOCK + 5000, seed=27, keep_states=False)
        rng = np.random.default_rng(27)
        valid = rng.random(record.Z.shape) > 0.02
        valid[1, 300:900] = False
        Z = record.Z.copy()
        Z[~valid] = 1e-3  # garbage where masked
        masked = MeasurementRecord(Ts=5.0, Z=Z, valid=valid)
        grid = TauGrid(m_values=np.array([1, 4, 37, 600, 5000]), Ts=5.0)
        est = acov_grid(masked, grid)
        n = record.n_steps
        for p, m in enumerate(grid.m_values):
            D = record.Z[:, 2 * m :] - 2.0 * record.Z[:, m:-m] + record.Z[:, : -2 * m]
            ok = valid[:, 2 * m :] & valid[:, m:-m] & valid[:, : -2 * m]
            for row, (i, j) in enumerate(est.pairs):
                both = ok[i - 1] & ok[j - 1]
                count = np.count_nonzero(both)
                ref = np.sum(D[i - 1, both] * D[j - 1, both]) / (2.0 * (m * 5.0) ** 2 * count)
                assert est.counts[row, p] == count
                np.testing.assert_allclose(est.sigma2[row, p], ref, rtol=1e-12)
                # nu scaled by the valid share of the N - 2m + 1 columns
                s_ii, s_jj = (est.sigma2[est.pairs.index((k, k)), p] for k in (i, j))
                var = (s_ii * s_jj + est.sigma2[row, p] ** 2) * m / n * (n - 2 * m + 1) / count
                np.testing.assert_allclose(est.var[row, p], var + 1e-100, rtol=1e-12)

    def test_gapped_record_close_to_clean(self, maser_model):
        _, record = simulate_ensemble(maser_model, 100_000, seed=28, keep_states=False)
        gapped = gapped_record(record, np.random.default_rng(28), 60, 50)
        grid = log_spaced_grid(10, 10_000, 5.0)
        clean, est = acov_grid(record, grid), acov_grid(gapped, grid)
        assert np.all(np.abs(est.sigma2 - clean.sigma2) < 3.0 * np.sqrt(est.var))

    def test_averaging_time_without_valid_column_dropped(self):
        Z = np.random.default_rng(29).normal(size=(2, 101))
        valid = np.ones(Z.shape, dtype=bool)
        valid[1, 50] = False  # the one column at m = 50 needs samples 0, 50, 100
        record = MeasurementRecord(Ts=1.0, Z=Z, valid=valid)
        est = acov_grid(record, TauGrid(m_values=np.array([1, 7, 50]), Ts=1.0))
        assert est.dropped_m == (50,)
        assert np.array_equal(est.grid.m_values, [1, 7])
        kept = acov_grid(record, TauGrid(m_values=np.array([1, 7]), Ts=1.0))
        assert np.array_equal(est.sigma2, kept.sigma2)
        assert np.array_equal(est.var, kept.var)
        assert np.array_equal(est.counts, kept.counts)
        assert kept.dropped_m == ()

    def test_no_averaging_time_left_unidentifiable(self):
        Z = np.random.default_rng(29).normal(size=(2, 101))
        valid = np.ones(Z.shape, dtype=bool)
        valid[1, 50] = False
        record = MeasurementRecord(Ts=1.0, Z=Z, valid=valid)
        with pytest.raises(UnidentifiableError, match="no averaging time"):
            acov_grid(record, TauGrid(m_values=np.array([50]), Ts=1.0))

    def test_mostly_valid_blocks_match_reference(self, maser_model):
        # masked samples in a few blocks only: the all-valid blocks take the
        # fast path, and the result is that of the valid-column formula
        _, record = simulate_ensemble(maser_model, 4 * _BLOCK + 17, seed=30, keep_states=False)
        valid = np.ones(record.Z.shape, dtype=bool)
        valid[0, [5, 2 * _BLOCK + 100]] = False
        valid[2, 3 * _BLOCK + 1] = False
        grid = log_spaced_grid(12, record.n_steps // 2, 5.0)
        est = acov_grid(MeasurementRecord(Ts=5.0, Z=record.Z, valid=valid), grid)
        for p, m in enumerate(grid.m_values):
            ok = valid[:, 2 * m :] & valid[:, m:-m] & valid[:, : -2 * m]
            D = (record.Z[:, 2 * m :] - 2.0 * record.Z[:, m:-m] + record.Z[:, : -2 * m]) * ok
            for row, (i, j) in enumerate(est.pairs):
                count = np.count_nonzero(ok[i - 1] & ok[j - 1])
                assert est.counts[row, p] == count
                ref = D[i - 1] @ D[j - 1] / (2.0 * (m * 5.0) ** 2 * count)
                np.testing.assert_allclose(est.sigma2[row, p], ref, rtol=1e-12)

    def test_peak_memory_below_record_size(self, maser_model):
        _, record = simulate_ensemble(maser_model, 200_000, seed=24, keep_states=False)
        valid = np.ones(record.Z.shape, dtype=bool)
        valid[:, 1000:1100] = False
        masked = MeasurementRecord(Ts=5.0, Z=record.Z, valid=valid)
        grid = log_spaced_grid(20, 100_000, 5.0)
        tracemalloc.start()
        try:
            acov_grid(masked, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < record.Z.nbytes


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
