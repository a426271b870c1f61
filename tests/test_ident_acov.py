import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from chronident import (
    ClockParams,
    EnsembleParams,
    MeasurementRecord,
    analytic_acov,
    assemble_ensemble,
    build_regression,
    derive_run_seed,
    estimate_acov_method,
    estimate_mdm,
    load_ensemble_config,
    pack_theta,
    recover_drifts,
    remove_outliers,
    simulate_ensemble,
    solve_theta_a,
    theta_a_from_params,
)
from chronident.errors import UnidentifiableError
from chronident.ident_acov import fit_drifts
from chronident.model import (
    clamp_negative_variances,
    upper_to_symmetric,
    upper_triangle_pairs,
)
from chronident.numerics import wishart_fit, wishart_variance
from chronident.stability import (
    _BLOCK,
    AcovEstimate,
    acov_grid,
    log_spaced_grid,
)

from conftest import gapped_record, quantised_record, random_params


def analytic_estimate(params, grid, n_steps):
    """AcovEstimate filled from the closed-form ACOV (noise-free oracle)."""
    pairs = upper_triangle_pairs(params.n_z)
    sigma2 = np.array(
        [[analytic_acov(params, i, j, tau) for tau in grid.taus] for (i, j) in pairs]
    )
    scale = np.broadcast_to(grid.m_values / n_steps, sigma2.shape)
    return AcovEstimate(grid=grid, pairs=tuple(pairs), sigma2=sigma2, scale=scale)


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
YEAR_GRID = log_spaced_grid(20, 3_150_000, 5.0)
YEAR_STEPS = 6_312_000


def drift_floor(params, n_steps, ts):
    """Relative drift error set by random-walk FM alone, sqrt((q2_1 + q2_i)/T)/|delta_i|."""
    q2 = np.array([c.q2 for c in params.clocks])
    delta = params.drifts()[1:] - params.clocks[0].d
    return np.sqrt((q2[0] + q2[1:]) / (n_steps * ts)) / np.abs(delta)


@pytest.fixture(scope="module")
def quick_study():
    """200 runs of the quick scenario: (params, N, Ts, thetas, reported se) of
    ACOV, then thetas and reported se of MDM at 100 s."""
    params, ts, extras = load_ensemble_config(SCENARIOS / "ahm_four_clock_quick.json")
    n_steps = int(extras["n_steps"])
    model = assemble_ensemble(params, ts)
    thetas, ses, mdm_thetas, mdm_ses = [], [], [], []
    for run in range(200):
        _, record = simulate_ensemble(model, n_steps, derive_run_seed(7, run), keep_states=False)
        report = estimate_acov_method(record, ell=extras["estimation"]["ell"])
        thetas.append(report.theta)
        ses.append(report.diagnostics["se"])
        report = estimate_mdm(record, ts_target_s=100.0)
        mdm_thetas.append(report.theta)
        mdm_ses.append(report.diagnostics["se"])
    return (
        params, n_steps, ts, np.array(thetas), np.array(ses),
        np.array(mdm_thetas), np.array(mdm_ses),
    )


class TestThetaA:
    def test_layout_round_trip(self, maser_params):
        ta = theta_a_from_params(maser_params)
        assert ta.shape == (20,)
        np.testing.assert_array_equal(ta[:4], [1e-27, 1.5e-27, 5e-27, 7e-27])
        np.testing.assert_array_equal(ta[4:8], [1e-36, 2e-35, 1.5e-35, 2.5e-35])
        np.testing.assert_array_equal(upper_to_symmetric(ta[8:14], 3), maser_params.R)
        delta = np.array([8e-21, 7.5e-21, 3e-21])
        np.testing.assert_allclose(upper_to_symmetric(ta[14:], 3), np.outer(delta, delta))

    def test_names_match_layout(self):
        # every variance-like entry is clamped, and named by its position
        x = -np.ones(20)
        names = clamp_negative_variances(x, np.ones(20), 4)
        assert names == (
            [f"q1_clk{i}" for i in range(1, 5)]
            + [f"q2_clk{i}" for i in range(1, 5)]
            + ["r_11", "r_22", "r_33", "f_11", "f_22", "f_33"]
        )
        positive = x > 0.0
        assert positive[[8, 11, 13, 14, 17, 19]].all()  # r_11, r_22, r_33, f_11, ...
        assert not positive[[9, 10, 12, 15, 16, 18]].any()  # r_12, r_13, r_23, f_12, ...


class TestBuildRegression:
    def test_year_scale_dimensions(self, maser_params):
        est = analytic_estimate(maser_params, YEAR_GRID, YEAR_STEPS)
        assert build_regression(est, 4).shape == (120, 20)
        assert est.sigma2.shape == (6, 20)
        assert est.scale.shape == (6, 20)

    def test_stacked_exactness(self, maser_params):
        # analytic ACOVs satisfy z_a = Phi theta_a to machine precision
        est = analytic_estimate(maser_params, YEAR_GRID, YEAR_STEPS)
        Phi = build_regression(est, 4)
        ta = theta_a_from_params(maser_params)
        z_a = est.sigma2.ravel()
        rel = np.linalg.norm(z_a - Phi @ ta) / np.linalg.norm(z_a)
        assert rel <= 1e-12

    def test_single_avar_row_pattern(self):
        params = EnsembleParams(
            clocks=(ClockParams(1.0, 2.0), ClockParams(3.0, 4.0)), R=np.array([[0.5]])
        )
        grid = log_spaced_grid(2, 2, 1.0)  # m = 1, 2
        est = analytic_estimate(params, grid, 100)
        Phi = build_regression(est, 2)
        tau = grid.taus[0]
        # columns: q1^(1), q1^(2), q2^(1), q2^(2), r_11, f_11
        np.testing.assert_allclose(
            Phi[0],
            [1 / tau, 1 / tau, tau / 3, tau / 3, 3 / tau**2, tau**2 / 2],
        )

    def test_mismatched_channel_count_rejected(self, maser_params):
        est = analytic_estimate(maser_params, YEAR_GRID, YEAR_STEPS)
        with pytest.raises(ValueError):
            build_regression(est, 5)


class TestSolveThetaA:
    def test_exact_recovery_balanced(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            params = random_params(rng, int(rng.integers(3, 6)))
            grid = log_spaced_grid(12, 4096, 1.0)
            ta_hat, diag = solve_theta_a(analytic_estimate(params, grid, 10_000), params.n)
            ta_true = theta_a_from_params(params)
            err = np.abs(ta_hat - ta_true) / np.abs(ta_true).max()
            assert err.max() < 1e-10
            assert diag["clamped"] == []

    def test_exact_recovery_maser_scale(self, maser_params):
        # r components sit at the float64 representation floor (see ledger)
        ta_hat, _ = solve_theta_a(analytic_estimate(maser_params, YEAR_GRID, YEAR_STEPS), 4)
        ta_true = theta_a_from_params(maser_params)
        rel = np.abs(ta_hat - ta_true) / np.abs(ta_true)
        r_entries = range(8, 14)  # [q1 x 4, q2 x 4, r upper, f upper]
        for k, e in enumerate(rel):
            limit = 1e-7 if k in r_entries else 1e-8
            assert e < limit, f"theta_a[{k}]: {e:.2e}"

    def test_solution_independent_of_row_and_column_order(self, maser_model):
        # the smallest parameters sit near the rounding floor of the ACOVs;
        # the fit's refinement step keeps the answer from depending on the
        # order of the clocks (channel-pair rows, parameter columns) and of
        # the averaging times (rows within each pair). Over these 30 orders x
        # moves by at most 5.7e-14 relative with the step; without it, by up
        # to 1.6e-12, and by more than the bound in 27 of them
        _, record = simulate_ensemble(maser_model, 630_000, seed=1000, keep_states=False)
        acov = acov_grid(record, log_spaced_grid(20, 315_000, 5.0))
        Phi = build_regression(acov, 4)
        x0, _ = wishart_fit(Phi, acov.sigma2, acov.scale, 4)
        pairs = upper_triangle_pairs(3)
        ell = len(acov.grid)
        rng = np.random.default_rng(7)
        for order in itertools.permutations(range(3)):
            # channel c takes the old channel order[c]
            old = [tuple(sorted((order[i - 1] + 1, order[j - 1] + 1))) for i, j in pairs]
            rows = [pairs.index(p) for p in old]
            cols = [0, *(1 + c for c in order), 4, *(5 + c for c in order)]
            cols += [8 + r for r in rows] + [14 + r for r in rows]
            for _ in range(5):
                taus = rng.permutation(ell)
                design = Phi.reshape(len(pairs), ell, -1)[:, taus].reshape(Phi.shape)
                sample, scale = acov.sigma2[rows][:, taus], acov.scale[rows][:, taus]
                x, _ = wishart_fit(design, sample, scale, 4)
                assert np.max(np.abs(x - x0[cols]) / np.abs(x0[cols])) < 3e-13

    def test_too_few_taus_unidentifiable(self, maser_params):
        grid = log_spaced_grid(2, 100, 5.0)
        with pytest.raises(UnidentifiableError):
            solve_theta_a(analytic_estimate(maser_params, grid, 1000), 4)

    def test_two_clock_split_unidentifiable(self):
        # with a single channel the pivot/non-pivot noise split is not
        # identifiable: the q1 (and q2) regressor columns coincide
        params = EnsembleParams(
            clocks=(ClockParams(1.0, 1.0), ClockParams(2.0, 0.5)), R=np.array([[0.3]])
        )
        grid = log_spaced_grid(8, 256, 1.0)
        with pytest.raises(UnidentifiableError) as exc_info:
            solve_theta_a(analytic_estimate(params, grid, 1000), 2)
        assert exc_info.value.null_directions.shape[0] >= 1

    def test_negative_variance_entry_clamped(self, maser_params):
        est = analytic_estimate(maser_params, YEAR_GRID, YEAR_STEPS)
        ta_true = theta_a_from_params(maser_params)
        bad = ta_true.copy()
        bad[8] = -bad[8]  # flip r_11 negative
        est_bad = replace(est, sigma2=(build_regression(est, 4) @ bad).reshape(est.sigma2.shape))
        ta_hat, diag = solve_theta_a(est_bad, 4)
        assert "r_11" in diag["clamped"]
        assert ta_hat[8] > 0.0

    def test_single_run_estimate_quality(self, maser_model, maser_params):
        _, record = simulate_ensemble(maser_model, 200_000, seed=1, keep_states=False)
        grid = log_spaced_grid(20, 100_000, 5.0)
        ta_hat, _ = solve_theta_a(acov_grid(record, grid), 4)
        assert abs(ta_hat[1] - 1.5e-27) / 1.5e-27 < 0.15

    def test_optimality_beats_truth_on_data(self, maser_model, maser_params):
        # the solved parameters cannot have a larger weighted residual than
        # the true ones on the same noisy system, under the second solve's
        # weights (the Wishart variance of the first solve's clamped fit)
        _, record = simulate_ensemble(maser_model, 50_000, seed=2, keep_states=False)
        acov = acov_grid(record, log_spaced_grid(15, 20_000, 5.0))
        Phi = build_regression(acov, 4)
        ta_hat, diag = solve_theta_a(acov, 4)
        z_a = acov.sigma2.ravel()

        def lstsq_pass(w):
            # independent of the fit: lstsq on the column-scaled sqrt(w) system
            B = np.sqrt(w)[:, None] * Phi
            col = np.linalg.norm(B, axis=0)
            x = np.linalg.lstsq(B / col, np.sqrt(w) * z_a, rcond=None)[0] / col
            return x, np.sqrt(np.diag(np.linalg.inv((B / col).T @ (B / col)))) / col

        first, first_se = lstsq_pass(1.0 / acov.var.ravel())
        clamp_negative_variances(first, first_se, 4)
        fitted = (Phi @ first).reshape(acov.sigma2.shape)
        w = 1.0 / wishart_variance(fitted, acov.scale).ravel()
        second, _ = lstsq_pass(w)
        resid = np.linalg.norm(np.sqrt(w) * (z_a - Phi @ second))
        np.testing.assert_allclose(diag["residual"], resid, rtol=1e-10)
        resid_truth = np.linalg.norm(np.sqrt(w) * (z_a - Phi @ theta_a_from_params(maser_params)))
        assert diag["residual"] <= resid_truth + 1e-12

    def test_clock_permutation_equivariance(self, maser_params):
        # permuting clocks 2..n permutes the corresponding channel blocks
        perm = [0, 3, 1, 2]  # clock order 1, 4, 2, 3
        clocks = tuple(maser_params.clocks[i] for i in perm)
        chan_perm = [p - 1 for p in perm[1:]]  # channel indices of old layout
        R_perm = maser_params.R[np.ix_(chan_perm, chan_perm)]
        permuted = EnsembleParams(clocks=clocks, R=R_perm)

        grid = log_spaced_grid(12, 65_536, 5.0)
        ta_orig, _ = solve_theta_a(analytic_estimate(maser_params, grid, 200_000), 4)
        ta_perm, _ = solve_theta_a(analytic_estimate(permuted, grid, 200_000), 4)
        np.testing.assert_allclose(
            ta_perm[1:4],
            ta_orig[1:4][chan_perm],
            rtol=1e-8,
        )
        np.testing.assert_allclose(
            upper_to_symmetric(ta_perm[8:14], 3),
            upper_to_symmetric(ta_orig[8:14], 3)[np.ix_(chan_perm, chan_perm)],
            rtol=1e-5,
        )


class TestRecoverDrifts:
    F_REF = np.array(
        [
            [6.4e-41, 6.0e-41, 2.4e-41],
            [6.0e-41, 5.625e-41, 2.25e-41],
            [2.4e-41, 2.25e-41, 9e-42],
        ]
    )

    def test_exact_rank_one_recovery(self):
        d, info = recover_drifts(self.F_REF, d1=0.0, sign_hint=np.ones(3))
        np.testing.assert_allclose(d, [8e-21, 7.5e-21, 3e-21], rtol=1e-10)
        assert not info["degenerate"]

    def test_eigen_oracle_agrees(self):
        # independent check: leading eigenpair of the exact rank-1 matrix
        eigvals, eigvecs = np.linalg.eigh(self.F_REF)
        delta = np.sqrt(eigvals[-1]) * eigvecs[:, -1]
        if delta.sum() < 0:
            delta = -delta
        np.testing.assert_allclose(delta, [8e-21, 7.5e-21, 3e-21], rtol=1e-8)

    def test_zero_matrix_degenerate(self):
        d, info = recover_drifts(np.zeros((3, 3)), d1=1e-21)
        np.testing.assert_array_equal(d, np.full(3, 1e-21))
        assert info["degenerate"]

    def test_sign_hint_flips_solution(self):
        d_pos, _ = recover_drifts(self.F_REF, d1=0.0, sign_hint=np.ones(3))
        d_neg, _ = recover_drifts(self.F_REF, d1=0.0, sign_hint=-np.ones(3))
        np.testing.assert_allclose(d_neg, -d_pos)

    def test_perturbed_recovery_within_two_percent(self):
        rng = np.random.default_rng(42)
        true = np.array([8e-21, 7.5e-21, 3e-21])
        for _ in range(10):
            noise = 1.0 + 0.01 * rng.uniform(-1.0, 1.0, self.F_REF.shape)
            noise = 0.5 * (noise + noise.T)
            d, _ = recover_drifts(self.F_REF * noise, d1=0.0, sign_hint=np.ones(3))
            assert np.all(np.abs(d - true) / true < 0.02)

    def test_pivot_offset_added(self):
        d, _ = recover_drifts(self.F_REF, d1=2e-21, sign_hint=np.ones(3))
        np.testing.assert_allclose(d, np.array([8e-21, 7.5e-21, 3e-21]) + 2e-21, rtol=1e-9)

    def test_local_optimality_spot_check(self):
        rng = np.random.default_rng(43)
        F = self.F_REF * (1.0 + 0.05 * rng.standard_normal(self.F_REF.shape))
        F = 0.5 * (F + F.T)
        d, _ = recover_drifts(F, d1=0.0, sign_hint=np.ones(3))
        best = np.linalg.norm(F - np.outer(d, d))
        scale = np.linalg.norm(d)
        for _ in range(100):
            v = d + scale * 0.1 * rng.standard_normal(3)
            assert best <= np.linalg.norm(F - np.outer(v, v)) + 1e-30


class TestEstimateAcovMethod:
    def test_reduced_scale_report(self, maser_model, maser_params):
        _, record = simulate_ensemble(maser_model, 200_000, seed=1, keep_states=False)
        report = estimate_acov_method(record, ell=20)
        assert report.method == "acov"
        assert report.theta.shape == (18,)
        assert len(report.params.clocks) == 4
        q1 = np.array([c.q1 for c in report.params.clocks])
        true_q1 = np.array([c.q1 for c in maser_params.clocks])
        assert np.all(np.abs(q1 - true_q1) / true_q1 < 0.15)
        assert set(report.diagnostics) == {
            "residual", "cond", "clamped", "se", "rank", "ell", "m_max",
        }
        assert report.diagnostics["ell"] == 20

    def test_deterministic_report(self, maser_model):
        _, record = simulate_ensemble(maser_model, 20_000, seed=4, keep_states=False)
        rep1 = estimate_acov_method(record, ell=12)
        rep2 = estimate_acov_method(record, ell=12)
        assert rep1.to_json_dict() == rep2.to_json_dict()

    def test_fit_drifts_recovers_noise_free_delta(self):
        # noise-free drifts only, long enough to span three einsum blocks
        model = assemble_ensemble(
            EnsembleParams(
                clocks=(
                    ClockParams(0.0, 0.0, 1e-21),
                    ClockParams(0.0, 0.0, 6e-21),
                    ClockParams(0.0, 0.0, -2e-21),
                ),
                R=np.zeros((2, 2)),
            ),
            5.0,
        )
        _, record = simulate_ensemble(model, 2 * _BLOCK + 123, seed=0, keep_states=False)
        np.testing.assert_allclose(fit_drifts(record), [5e-21, -3e-21], rtol=1e-9)

    def test_fit_drifts_adds_pivot_drift(self, maser_model):
        # equals a one-shot least-squares quadratic fit, plus d1
        _, record = simulate_ensemble(maser_model, 2 * _BLOCK + 123, seed=25, keep_states=False)
        t = record.Ts * np.arange(record.Z.shape[1])
        reference = np.array([2.0 * np.polyfit(t, z, 2)[0] for z in record.Z])
        np.testing.assert_allclose(fit_drifts(record, d1=2e-21), reference + 2e-21, rtol=1e-9)

    def test_fit_drifts_masked_equals_valid_sample_fit(self, maser_model):
        # garbage in the masked samples; each channel fitted over its own
        # valid samples, across three einsum blocks
        _, record = simulate_ensemble(maser_model, 2 * _BLOCK + 123, seed=26, keep_states=False)
        rng = np.random.default_rng(26)
        valid = rng.random(record.Z.shape) > 0.05
        valid[0, 5000:9000] = False
        Z = np.where(valid, record.Z, 1e-3)
        masked = MeasurementRecord(Ts=record.Ts, Z=Z, valid=valid)
        t = record.Ts * np.arange(record.Z.shape[1])
        reference = np.array([2.0 * np.polyfit(t[ok], z[ok], 2)[0] for z, ok in zip(Z, valid)])
        np.testing.assert_allclose(fit_drifts(masked, d1=1e-21), reference + 1e-21, rtol=1e-9)
        every = MeasurementRecord(Ts=record.Ts, Z=record.Z, valid=np.ones_like(valid))
        np.testing.assert_allclose(fit_drifts(every), fit_drifts(record), rtol=1e-9)

    def test_fit_drifts_needs_three_valid_samples(self):
        valid = np.zeros((2, 50), dtype=bool)
        valid[:, [3, 20, 40]] = True
        valid[1, 40] = False
        record = MeasurementRecord(Ts=1.0, Z=np.zeros((2, 50)), valid=valid)
        with pytest.raises(UnidentifiableError, match="channel 2 has 2 valid samples"):
            fit_drifts(record)

    def test_drifts_near_truth_at_630k_seed_1000(self):
        # the fault that factorised drifts behind a clamped f_ii showed:
        # 3.8e-27, 2.7e-27 and 1.3e-15 against 8e-21, 7.5e-21 and 3e-21
        params, ts, _ = load_ensemble_config(SCENARIOS / "ahm_four_clock.json")
        _, record = simulate_ensemble(
            assemble_ensemble(params, ts), 630_000, seed=1000, keep_states=False
        )
        report = estimate_acov_method(record, ell=20)
        error = np.abs(report.params.drifts()[1:] - params.drifts()[1:])
        delta = np.abs(params.drifts()[1:] - params.drifts()[0])
        assert np.all(error <= 3.0 * drift_floor(params, 630_000, ts) * delta), error

    def test_picosecond_measurement_noise_identified(self):
        # at the maser scenario's R, about 0.01 fs rms, no estimate can tell
        # a right R from a wrong one; at R x 1e10 (about 1 ps rms) ACOV
        # recovers each r_ii to a few parts in 1e3 at N = 631 200
        params, ts, extras = load_ensemble_config(SCENARIOS / "ahm_four_clock_ps.json")
        model = assemble_ensemble(params, ts)
        q1 = np.array([clk.q1 for clk in params.clocks])
        for run in range(3):
            seed = derive_run_seed(extras["seed"], run)
            _, record = simulate_ensemble(model, extras["n_steps"], seed, keep_states=False)
            report = estimate_acov_method(record, ell=extras["estimation"]["ell"])
            r_error = np.diag(report.params.R) / np.diag(params.R) - 1.0
            q1_error = np.array([clk.q1 for clk in report.params.clocks]) / q1 - 1.0
            assert np.abs(r_error).max() <= 0.02, (seed, r_error)
            assert np.abs(q1_error).max() <= 0.15, (seed, q1_error)

    def test_record_too_short_rejected(self, maser_model):
        _, record = simulate_ensemble(maser_model, 1, seed=0)
        with pytest.raises(ValueError):
            estimate_acov_method(record)

    def test_two_clock_record_unidentifiable(self):
        params = EnsembleParams(
            clocks=(ClockParams(1e-27, 1e-35), ClockParams(1e-27, 1e-35)),
            R=np.array([[1e-35]]),
        )
        model = assemble_ensemble(params, 5.0)
        _, record = simulate_ensemble(model, 2000, seed=3)
        with pytest.raises(UnidentifiableError):
            estimate_acov_method(record, ell=10)

    def test_masked_rank_error_names_mask_and_dropped_grid(self, maser_model):
        # channel 1 masked on samples 6..1994 leaves 2 of the grid's 19
        # averaging factors; the error names the mask and the dropped ones
        _, record = simulate_ensemble(maser_model, 2000, seed=3, keep_states=False)
        valid = np.ones(record.Z.shape, dtype=bool)
        valid[0, 6:1995] = False
        masked = MeasurementRecord(Ts=5.0, Z=record.Z, valid=valid)
        with pytest.raises(UnidentifiableError, match="got 2; ") as err:
            estimate_acov_method(masked)
        message = str(err.value)
        assert "valid fractions 0.006/1.000/1.000 per channel" in message
        assert "m = 3, 4, 6, 9, 13, 18, 26, 38, 55, 78, 113, 162, 234, 336, 483, 695, 1000 " in message

    def test_masked_rank_error_keeps_null_directions(self, maser_model):
        # quantised phase: the filter masks every nonzero second difference
        # and the fit loses rank; the directions are those of the fit itself
        _, record = simulate_ensemble(maser_model, 2000, seed=3, keep_states=False)
        masked, _ = remove_outliers(quantised_record(record), k=5.0)
        acov = acov_grid(masked, log_spaced_grid(20, 1000, 5.0))
        with pytest.raises(UnidentifiableError) as fit_err:
            solve_theta_a(acov, 4)
        with pytest.raises(UnidentifiableError, match="valid fractions") as err:
            estimate_acov_method(masked)
        assert str(err.value).startswith(f"{fit_err.value}; ")
        assert str(err.value).endswith("drops the averaging factors m = 1000 of the grid")
        assert err.value.null_directions.shape == (8, 20)
        np.testing.assert_array_equal(err.value.null_directions, fit_err.value.null_directions)


class TestExactPipelineInvariant:
    def test_full_pipeline_on_exact_data_balanced(self):
        # exact z_a through solve + drift factorisation, scale-balanced
        rng = np.random.default_rng(44)
        for _ in range(5):
            n = int(rng.integers(3, 6))
            params = random_params(rng, n)
            grid = log_spaced_grid(12, 4096, 1.0)
            ta_hat, _ = solve_theta_a(analytic_estimate(params, grid, 10_000), n)
            delta_true = params.drifts()[1:] - params.clocks[0].d
            d_hat, _ = recover_drifts(
                upper_to_symmetric(ta_hat[n * (n + 3) // 2 :], n - 1),
                d1=params.clocks[0].d,
                sign_hint=np.sign(delta_true),
            )
            theta_hat = np.concatenate([ta_hat[: 2 * n], [params.clocks[0].d], d_hat])
            theta_true = np.concatenate(
                [
                    [c.q1 for c in params.clocks],
                    [c.q2 for c in params.clocks],
                    params.drifts(),
                ]
            )
            scale = np.abs(theta_true).max()
            assert np.abs(theta_hat - theta_true).max() / scale < 1e-8

    def test_full_pipeline_on_exact_data_maser(self, maser_params):
        ta_hat, _ = solve_theta_a(analytic_estimate(maser_params, YEAR_GRID, YEAR_STEPS), 4)
        d_hat, _ = recover_drifts(
            upper_to_symmetric(ta_hat[14:], 3), d1=0.0, sign_hint=np.ones(3)
        )
        np.testing.assert_allclose(d_hat, [8e-21, 7.5e-21, 3e-21], rtol=1e-8)
        np.testing.assert_allclose(
            ta_hat[:4], [1e-27, 1.5e-27, 5e-27, 7e-27], rtol=1e-8
        )
        np.testing.assert_allclose(
            ta_hat[4:8], [1e-36, 2e-35, 1.5e-35, 2.5e-35], rtol=1e-8
        )


class TestGappedRecord:
    def test_gapped_record_matches_clean(self, maser_params, maser_model):
        # 60 all-channel gaps of 50 samples with a 1e-6 s jump inside each:
        # ACOV q1 stays within 3 reported se of the clean record's (the jump
        # moves it by about 1e6 se when the mask is ignored), and MDM keeps
        # the windows clear of the gaps; the gap over the middle sample drops
        # the largest averaging time from the ACOV grid
        _, record = simulate_ensemble(maser_model, 100_000, seed=3, keep_states=False)
        gapped = gapped_record(record, np.random.default_rng(3), 60, 50)
        clean, est = estimate_acov_method(record), estimate_acov_method(gapped)
        assert est.diagnostics["dropped_m"] == [50_000]
        n = maser_params.n
        se = est.diagnostics["se"][:n]
        assert np.all(np.abs(est.theta[:n] - clean.theta[:n]) < 3.0 * se)
        np.testing.assert_allclose(est.diagnostics["valid_fraction"], 0.97, rtol=1e-5)
        clean_mdm, mdm = (estimate_mdm(r, ts_target_s=100.0) for r in (record, gapped))
        assert np.all(np.isfinite(mdm.theta))
        np.testing.assert_allclose(mdm.theta[1:n], clean_mdm.theta[1:n], rtol=0.25)
        assert "valid_fraction" in mdm.diagnostics


class TestQuickScaleCalibration:
    def test_q1_standard_errors_match_spread(self, quick_study):
        _, _, _, thetas, ses, _, _ = quick_study
        ratio = np.median(ses[:, :4], axis=0) / thetas[:, :4].std(axis=0, ddof=1)
        assert np.all((ratio >= 0.5) & (ratio <= 2.0)), ratio

    def test_mdm_q1_standard_errors_match_spread(self, quick_study):
        # MDM's se from its one-block Wishart fit, in ACOV's band
        _, _, _, _, _, thetas, ses = quick_study
        ratio = np.median(ses[:, :4], axis=0) / thetas[:, :4].std(axis=0, ddof=1)
        assert np.all((ratio >= 0.5) & (ratio <= 2.0)), ratio

    def test_drift_rms_near_random_walk_floor(self, quick_study):
        params, n_steps, ts, thetas, _, _, _ = quick_study
        truth = pack_theta(params)
        n = params.n
        drifts = thetas[:, 2 * n + 1 : 3 * n]
        delta = np.abs(truth[2 * n + 1 : 3 * n] - truth[2 * n])
        rel_rms = np.sqrt(np.mean((drifts - truth[2 * n + 1 : 3 * n]) ** 2, axis=0)) / delta
        assert np.all(rel_rms <= 2.0 * drift_floor(params, n_steps, ts)), rel_rms
