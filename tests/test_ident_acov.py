import numpy as np
import pytest

from chronident import (
    ClockParams,
    EnsembleParams,
    analytic_acov,
    assemble_ensemble,
    build_regression,
    estimate_acov_method,
    recover_drifts,
    simulate_ensemble,
    solve_theta_a,
    theta_a_from_params,
    weighted_least_squares,
)
from chronident.errors import UnidentifiableError
from chronident.ident_acov import drift_sign_hint
from chronident.model import (
    clamp_negative_variances,
    upper_to_symmetric,
    upper_triangle_pairs,
)
from chronident.stability import (
    AcovEstimate,
    acov_grid,
    acov_variance,
    log_spaced_grid,
)

from conftest import random_params


def analytic_estimate(params, grid, n_steps):
    """AcovEstimate filled from the closed-form ACOV (noise-free oracle)."""
    pairs = upper_triangle_pairs(params.n_z)
    sigma2 = np.array(
        [[analytic_acov(params, i, j, tau) for tau in grid.taus] for (i, j) in pairs]
    )
    var = np.array(
        [
            [acov_variance(s, n_steps, int(m)) for s, m in zip(row, grid.m_values)]
            for row in sigma2
        ]
    )
    return AcovEstimate(grid=grid, pairs=tuple(pairs), sigma2=sigma2, var=var, n_steps=n_steps)


YEAR_GRID = log_spaced_grid(20, 3_150_000, 5.0)
YEAR_STEPS = 6_312_000


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
        system = build_regression(est, 4)
        assert system.Phi.shape == (120, 20)
        assert system.z_a.shape == (120,)
        assert system.w.shape == (120,)

    def test_stacked_exactness(self, maser_params):
        # analytic ACOVs satisfy z_a = Phi theta_a to machine precision
        est = analytic_estimate(maser_params, YEAR_GRID, YEAR_STEPS)
        system = build_regression(est, 4)
        ta = theta_a_from_params(maser_params)
        rel = np.linalg.norm(system.z_a - system.Phi @ ta) / np.linalg.norm(
            system.z_a
        )
        assert rel <= 1e-12

    def test_single_avar_row_pattern(self):
        params = EnsembleParams(
            clocks=(ClockParams(1.0, 2.0), ClockParams(3.0, 4.0)), R=np.array([[0.5]])
        )
        grid = log_spaced_grid(2, 2, 1.0)  # m = 1, 2
        est = analytic_estimate(params, grid, 100)
        system = build_regression(est, 2)
        tau = grid.taus[0]
        # columns: q1^(1), q1^(2), q2^(1), q2^(2), r_11, f_11
        np.testing.assert_allclose(
            system.Phi[0],
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
            system = build_regression(analytic_estimate(params, grid, 10_000), params.n)
            ta_hat, diag = solve_theta_a(system)
            ta_true = theta_a_from_params(params)
            err = np.abs(ta_hat - ta_true) / np.abs(ta_true).max()
            assert err.max() < 1e-10
            assert diag["clamped"] == []

    def test_exact_recovery_maser_scale(self, maser_params):
        # r components sit at the float64 representation floor (see ledger)
        system = build_regression(
            analytic_estimate(maser_params, YEAR_GRID, YEAR_STEPS), 4
        )
        ta_hat, _ = solve_theta_a(system)
        ta_true = theta_a_from_params(maser_params)
        rel = np.abs(ta_hat - ta_true) / np.abs(ta_true)
        r_entries = range(8, 14)  # [q1 x 4, q2 x 4, r upper, f upper]
        for k, e in enumerate(rel):
            limit = 1e-7 if k in r_entries else 1e-8
            assert e < limit, f"theta_a[{k}]: {e:.2e}"

    def test_solution_independent_of_row_and_column_order(self, maser_model):
        # the smallest parameters sit near the rounding floor of z_a; the
        # kernel's refinement step keeps the answer from depending on the
        # order in which rows and columns are stacked
        _, record = simulate_ensemble(maser_model, 630_000, seed=1000, keep_states=False)
        system = build_regression(acov_grid(record, log_spaced_grid(20, 315_000, 5.0)), 4)
        x0, _ = weighted_least_squares(system.Phi, system.z_a, system.w)
        rng = np.random.default_rng(7)
        for _ in range(20):
            rows = rng.permutation(system.Phi.shape[0])
            cols = rng.permutation(system.Phi.shape[1])
            x_perm, _ = weighted_least_squares(
                system.Phi[rows][:, cols], system.z_a[rows], system.w[rows]
            )
            x = np.empty_like(x_perm)
            x[cols] = x_perm
            assert np.max(np.abs(x - x0) / np.abs(x0)) < 1e-12

    def test_too_few_taus_unidentifiable(self, maser_params):
        grid = log_spaced_grid(2, 100, 5.0)
        system = build_regression(analytic_estimate(maser_params, grid, 1000), 4)
        with pytest.raises(UnidentifiableError):
            solve_theta_a(system)

    def test_two_clock_split_unidentifiable(self):
        # with a single channel the pivot/non-pivot noise split is not
        # identifiable: the q1 (and q2) regressor columns coincide
        params = EnsembleParams(
            clocks=(ClockParams(1.0, 1.0), ClockParams(2.0, 0.5)), R=np.array([[0.3]])
        )
        grid = log_spaced_grid(8, 256, 1.0)
        system = build_regression(analytic_estimate(params, grid, 1000), 2)
        with pytest.raises(UnidentifiableError) as exc_info:
            solve_theta_a(system)
        assert exc_info.value.null_directions.shape[0] >= 1

    def test_negative_variance_entry_clamped(self, maser_params):
        system = build_regression(
            analytic_estimate(maser_params, YEAR_GRID, YEAR_STEPS), 4
        )
        ta_true = theta_a_from_params(maser_params)
        bad = ta_true.copy()
        bad[8] = -bad[8]  # flip r_11 negative
        system_bad = type(system)(
            z_a=system.Phi @ bad, Phi=system.Phi, w=system.w, taus=system.taus, n=4
        )
        ta_hat, diag = solve_theta_a(system_bad)
        assert "r_11" in diag["clamped"]
        assert ta_hat[8] > 0.0

    def test_single_run_estimate_quality(self, maser_model, maser_params):
        _, record = simulate_ensemble(maser_model, 200_000, seed=1, keep_states=False)
        grid = log_spaced_grid(20, 100_000, 5.0)
        system = build_regression(acov_grid(record, grid), 4)
        ta_hat, _ = solve_theta_a(system)
        assert abs(ta_hat[1] - 1.5e-27) / 1.5e-27 < 0.15

    def test_optimality_beats_truth_on_data(self, maser_model, maser_params):
        # the solved parameters cannot have a larger weighted residual than
        # the true ones on the same noisy system
        _, record = simulate_ensemble(maser_model, 50_000, seed=2, keep_states=False)
        system = build_regression(acov_grid(record, log_spaced_grid(15, 20_000, 5.0)), 4)
        ta_hat, diag = solve_theta_a(system)
        sqrt_w = np.sqrt(system.w)
        resid_truth = np.linalg.norm(
            sqrt_w * (system.z_a - system.Phi @ theta_a_from_params(maser_params))
        )
        assert diag["residual"] <= resid_truth + 1e-12

    def test_clock_permutation_equivariance(self, maser_params):
        # permuting clocks 2..n permutes the corresponding channel blocks
        perm = [0, 3, 1, 2]  # clock order 1, 4, 2, 3
        clocks = tuple(maser_params.clocks[i] for i in perm)
        chan_perm = [p - 1 for p in perm[1:]]  # channel indices of old layout
        R_perm = maser_params.R[np.ix_(chan_perm, chan_perm)]
        permuted = EnsembleParams(clocks=clocks, R=R_perm)

        grid = log_spaced_grid(12, 65_536, 5.0)
        sys_orig = build_regression(analytic_estimate(maser_params, grid, 200_000), 4)
        sys_perm = build_regression(analytic_estimate(permuted, grid, 200_000), 4)
        ta_orig, _ = solve_theta_a(sys_orig)
        ta_perm, _ = solve_theta_a(sys_perm)
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
            "residual", "cond", "clamped", "se", "rank", "drift_iterations",
            "drift_degenerate", "ell", "m_max",
        }
        assert report.diagnostics["ell"] == 20

    def test_deterministic_report(self, maser_model):
        _, record = simulate_ensemble(maser_model, 20_000, seed=4, keep_states=False)
        rep1 = estimate_acov_method(record, ell=12)
        rep2 = estimate_acov_method(record, ell=12)
        assert rep1.to_json_dict() == rep2.to_json_dict()

    def test_drift_sign_hint_estimates_delta(self):
        model = assemble_ensemble(
            EnsembleParams(
                clocks=(ClockParams(0.0, 0.0, 0.0), ClockParams(0.0, 0.0, 6e-21)),
                R=np.zeros((1, 1)),
            ),
            5.0,
        )
        _, record = simulate_ensemble(model, 100, seed=0)
        hint = drift_sign_hint(record)
        np.testing.assert_allclose(hint, [6e-21 * 25.0], rtol=1e-9)

    def test_drift_sign_hint_is_mean_second_difference(self, maser_model):
        _, record = simulate_ensemble(maser_model, 20_000, seed=25, keep_states=False)
        Z = record.Z
        explicit = (Z[:, 2:] - 2.0 * Z[:, 1:-1] + Z[:, :-2]).mean(axis=1)
        np.testing.assert_allclose(drift_sign_hint(record), explicit, rtol=1e-9)

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


class TestExactPipelineInvariant:
    def test_full_pipeline_on_exact_data_balanced(self):
        # exact z_a through solve + drift factorisation, scale-balanced
        rng = np.random.default_rng(44)
        for _ in range(5):
            n = int(rng.integers(3, 6))
            params = random_params(rng, n)
            grid = log_spaced_grid(12, 4096, 1.0)
            system = build_regression(analytic_estimate(params, grid, 10_000), n)
            ta_hat, _ = solve_theta_a(system)
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
        system = build_regression(
            analytic_estimate(maser_params, YEAR_GRID, YEAR_STEPS), 4
        )
        ta_hat, _ = solve_theta_a(system)
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
