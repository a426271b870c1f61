import numpy as np
import pytest

from chronident import (
    ClockParams,
    EnsembleParams,
    assemble_ensemble,
    build_mdm_system,
    clock_noise_cov,
    compute_residues,
    ensemble_structure,
    estimate_drifts_mdm,
    estimate_mdm,
    estimate_theta_alpha,
    simulate_ensemble,
    theta_alpha_from_params,
)
from chronident.errors import NoResidueError, UnidentifiableError
from chronident.ident_mdm import (
    residue_mean_from_drifts,
    residue_second_moment_from_cov,
    solve_drifts_from_mean,
    solve_theta_alpha_from_moment,
)

from conftest import random_params


class TestBuildSystem:
    def test_reference_dimensions(self):
        system = build_mdm_system(4, 5000.0, 5)
        assert system.O.shape == (15, 8)
        assert np.linalg.matrix_rank(system.O) == 6
        assert system.Am.shape == (9, 15)
        assert system.A.shape == (9, 47)
        assert system.theta_map.shape == (81, 14)
        assert np.linalg.matrix_rank(system.theta_map) == 14

    def test_annihilation_property(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            L = int(rng.integers(3, 8))
            ts = float(rng.uniform(0.5, 100.0))
            system = build_mdm_system(n, ts, L)
            rel = np.linalg.norm(system.Am @ system.O) / np.linalg.norm(system.O)
            assert rel <= 1e-10
            # common pivot phase and frequency are unobservable
            assert np.linalg.matrix_rank(system.O) == 2 * (n - 1)
            assert system.n_residue == L * (n - 1) - 2 * (n - 1)

    def test_no_residue_for_minimal_window(self):
        with pytest.raises(NoResidueError):
            build_mdm_system(2, 1.0, 2)
        with pytest.raises(NoResidueError):
            build_mdm_system(4, 1.0, 2)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            build_mdm_system(3, 1.0, 1)

    def test_kronecker_identity(self):
        # (A e) kron (A e) = (A kron A)(e kron e) for the residue map
        system = build_mdm_system(3, 2.0, 4)
        A = system.A
        rng = np.random.default_rng(51)
        A_kron = np.kron(A, A)
        for _ in range(5):
            e = rng.normal(size=A.shape[1])
            lhs = np.kron(A @ e, A @ e)
            rhs = A_kron @ np.kron(e, e)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(lhs)

    def test_theta_map_matches_explicit_kron(self):
        # column i equals (A kron A) vec(blockdiag(I kron B_Q, I kron B_R))
        # for the basis pair (B_Q, B_R) of parameter i
        for n, ts, L in ((3, 2.0, 4), (4, 5000.0, 5)):
            system = build_mdm_system(n, ts, L)
            n_z, n_x = n - 1, 2 * n
            pairs = []
            for unit in (clock_noise_cov(1.0, 0.0, ts), clock_noise_cov(0.0, 1.0, ts)):
                for i in range(n):
                    B_Q = np.zeros((n_x, n_x))
                    B_Q[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = unit
                    pairs.append((B_Q, np.zeros((n_z, n_z))))
            for i, j in zip(*np.triu_indices(n_z)):
                B_R = np.zeros((n_z, n_z))
                B_R[i, j] = B_R[j, i] = 1.0
                pairs.append((np.zeros((n_x, n_x)), B_R))
            assert system.theta_map.shape[1] == len(pairs)
            A_kron = np.kron(system.A, system.A)
            for col, (B_Q, B_R) in enumerate(pairs):
                block = np.zeros((system.A.shape[1], system.A.shape[1]))
                block[: (L - 1) * n_x, : (L - 1) * n_x] = np.kron(np.eye(L - 1), B_Q)
                block[(L - 1) * n_x :, (L - 1) * n_x :] = np.kron(np.eye(L), B_R)
                expected = A_kron @ block.reshape(-1, order="F")
                if ts == 2.0:
                    np.testing.assert_allclose(system.theta_map[:, col], expected, atol=1e-12)
                else:
                    # the q2 columns scale with ts^3: compare within each column
                    err = np.abs(system.theta_map[:, col] - expected).max()
                    assert err <= 1e-13 * np.abs(expected).max(), (n, col)

    def test_maps_match_model_moments(self):
        # theta_map and drift_map reproduce the model's own residue moments
        rng = np.random.default_rng(65)
        for n in (2, 3, 4, 5):
            for L, ts in ((3, 0.7), (4, 5.0), (5, 100.0), (7, 5000.0)):
                params = random_params(rng, n)
                model = assemble_ensemble(params, ts)
                system = build_mdm_system(n, ts, L)
                moment = residue_second_moment_from_cov(system, model.Q, model.R)
                mapped = system.theta_map @ theta_alpha_from_params(params)
                assert np.abs(mapped - moment).max() <= 1e-12 * np.abs(moment).max()
                n_w = (L - 1) * 2 * n
                mean = system.A[:, :n_w] @ np.tile(model.mu, L - 1)
                mapped = system.drift_map @ params.drifts()
                assert np.abs(mapped - mean).max() <= 1e-12 * np.abs(mean).max()

    def test_built_from_model_map(self):
        # the structure-only constructor is the one assemble_ensemble uses
        rng = np.random.default_rng(64)
        for n, ts in ((2, 1.0), (4, 5.0), (5, 5000.0)):
            model = assemble_ensemble(random_params(rng, n), ts)
            F, H = ensemble_structure(n, ts)
            np.testing.assert_array_equal(F, model.F)
            np.testing.assert_array_equal(H, model.H)
        with pytest.raises(ValueError):
            ensemble_structure(1, 1.0)


class TestComputeResidues:
    def test_state_annihilation_noiseless(self):
        # noise-free, drift-free evolution from a random initial state
        params = EnsembleParams(
            clocks=tuple(ClockParams(0.0, 0.0, 0.0) for _ in range(4)),
            R=np.zeros((3, 3)),
        )
        model = assemble_ensemble(params, 1000.0)
        system = build_mdm_system(model.n, model.Ts, 5)
        rng = np.random.default_rng(53)
        x0 = rng.normal(scale=1e-6, size=8)
        _, record = simulate_ensemble(model, 200, seed=0, x0=x0)
        residues = compute_residues(record, system)
        scale = np.abs(record.Z).max()
        assert np.abs(residues).max() <= 1e-10 * scale

    def test_residue_count(self, maser_model):
        system = build_mdm_system(4, 5.0, 5)
        _, record = simulate_ensemble(maser_model, 100, seed=1)
        residues = compute_residues(record, system)
        assert residues.shape == (system.n_residue, 100 - 5 + 2)

    def test_measurement_noise_covariance(self):
        # with Q = 0, d = 0 the residue covariance is Am (I kron R) Am^T
        rng = np.random.default_rng(54)
        root = rng.normal(size=(2, 2))
        R = root @ root.T + np.eye(2)
        params = EnsembleParams(
            clocks=tuple(ClockParams(0.0, 0.0, 0.0) for _ in range(3)), R=R
        )
        model = assemble_ensemble(params, 1.0)
        system = build_mdm_system(model.n, model.Ts, 4)
        _, record = simulate_ensemble(model, 100_000, seed=55)
        residues = compute_residues(record, system)
        sample_cov = np.cov(residues, ddof=1)
        expected = system.Am @ np.kron(np.eye(4), R) @ system.Am.T
        err = np.linalg.norm(sample_cov - expected) / np.linalg.norm(expected)
        assert err < 0.05

    def test_record_shorter_than_window_rejected(self):
        system = build_mdm_system(4, 1.0, 5)
        record_z = np.zeros((3, 4))
        from chronident import MeasurementRecord

        with pytest.raises(ValueError):
            compute_residues(MeasurementRecord(Ts=1.0, Z=record_z), system)

    def test_channel_count_mismatch_rejected(self, maser_model):
        system = build_mdm_system(3, 5.0, 5)
        _, record = simulate_ensemble(maser_model, 50, seed=0)
        with pytest.raises(ValueError):
            compute_residues(record, system)


class TestDriftEstimation:
    def test_exact_mean_recovers_maser_drifts(self, maser_params):
        system = build_mdm_system(4, 5000.0, 5)
        mean = residue_mean_from_drifts(system, maser_params.drifts())
        d_hat, _ = solve_drifts_from_mean(mean, system, d1=0.0)
        np.testing.assert_allclose(d_hat, [8e-21, 7.5e-21, 3e-21], rtol=1e-12)

    def test_exact_mean_with_nonzero_pivot(self):
        rng = np.random.default_rng(56)
        system = build_mdm_system(4, 100.0, 5)
        drifts = rng.normal(size=4)
        mean = residue_mean_from_drifts(system, drifts)
        d_hat, _ = solve_drifts_from_mean(mean, system, d1=drifts[0])
        np.testing.assert_allclose(d_hat, drifts[1:], rtol=1e-10)

    def test_zero_drift_estimates_near_zero(self):
        params = EnsembleParams(
            clocks=tuple(ClockParams(1.0, 0.5, 0.0) for _ in range(3)),
            R=0.1 * np.eye(2),
        )
        model = assemble_ensemble(params, 1.0)
        system = build_mdm_system(model.n, model.Ts, 5)
        _, record = simulate_ensemble(model, 20_000, seed=57)
        residues = compute_residues(record, system)
        d_hat, _ = estimate_drifts_mdm(residues, system, d1=0.0)
        # rough standard error of the residue mean, ignoring overlap correlation
        count = residues.shape[1]
        se_mean = residues.std(axis=1, ddof=1) / np.sqrt(count)
        import numpy.linalg as la

        map_pinv = la.pinv(system.drift_map[:, 1:])
        se_d = np.sqrt((map_pinv**2) @ se_mean**2)
        assert np.all(np.abs(d_hat) <= 5.0 * se_d * np.sqrt(system.L))

    def test_two_clock_drift_identified(self):
        # the drift (unlike the noise split) is identifiable for n = 2
        system = build_mdm_system(2, 10.0, 4)
        mean = residue_mean_from_drifts(system, np.array([0.0, 0.3]))
        d_hat, _ = solve_drifts_from_mean(mean, system, d1=0.0)
        np.testing.assert_allclose(d_hat, [0.3], rtol=1e-12)


class TestThetaAlphaEstimation:
    def test_exact_moment_round_trip_balanced(self):
        rng = np.random.default_rng(58)
        for _ in range(5):
            n = int(rng.integers(3, 6))
            params = random_params(rng, n)
            ts = float(rng.uniform(1.0, 10.0))
            model = assemble_ensemble(params, ts)
            system = build_mdm_system(model.n, model.Ts, 5)
            moment = residue_second_moment_from_cov(system, model.Q, model.R)
            theta_hat, diag = solve_theta_alpha_from_moment(moment, system)
            theta_true = theta_alpha_from_params(params)
            rel = np.abs(theta_hat - theta_true) / np.abs(theta_true)
            assert rel.max() < 1e-10
            assert diag["clamped"] == []

    def test_exact_moment_maser_scale_q_components(self, maser_params):
        # r components are representation-limited at this scale (see ledger)
        model = assemble_ensemble(maser_params, 5000.0)
        system = build_mdm_system(model.n, model.Ts, 5)
        moment = residue_second_moment_from_cov(system, model.Q, model.R)
        theta_hat, _ = solve_theta_alpha_from_moment(moment, system)
        theta_true = theta_alpha_from_params(maser_params)
        rel = np.abs(theta_hat - theta_true) / np.abs(theta_true)
        assert rel[:8].max() < 1e-10  # q1, q2 of all four clocks
        assert rel[8:].max() < 1e-2  # r entries

    def test_white_measurement_noise_toy(self):
        # Q = 0, R = sigma^2 I: the moment stage recovers the r entries
        sigma2 = 0.25
        params = EnsembleParams(
            clocks=tuple(ClockParams(0.0, 0.0, 0.0) for _ in range(3)),
            R=sigma2 * np.eye(2),
        )
        model = assemble_ensemble(params, 1.0)
        system = build_mdm_system(model.n, model.Ts, 5)
        _, record = simulate_ensemble(model, 100_000, seed=59)
        residues = compute_residues(record, system)
        theta_hat, diag = estimate_theta_alpha(
            residues, np.zeros(2), system, d1=0.0
        )
        r11_index = 6  # theta_alpha = [q1 x 3, q2 x 3, r_11, r_12, r_22]
        r11 = theta_hat[r11_index]
        se = diag["se_approx"][r11_index]
        # the reported se ignores the serial correlation of overlapping
        # residues; windows overlap over 2L-1 lags
        inflation = np.sqrt(2 * system.L - 1)
        assert abs(r11 - sigma2) <= 3.0 * se * inflation

    def test_rank_deficient_two_clock_split(self):
        # the pivot/non-pivot covariance signatures coincide for n = 2
        system = build_mdm_system(2, 1.0, 4)
        moment = np.zeros(system.n_residue**2)
        with pytest.raises(UnidentifiableError, match="increase"):
            solve_theta_alpha_from_moment(moment, system)

    def test_negative_entries_clamped(self):
        system = build_mdm_system(3, 1.0, 5)
        # [q1 x 3, q2 x 3, r_11, r_12, r_22] with a negative q1 for the pivot
        theta_bad = np.array([-0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0])
        moment = system.theta_map @ theta_bad
        theta_hat, diag = solve_theta_alpha_from_moment(moment, system)
        assert "q1_clk1" in diag["clamped"]
        assert theta_hat[0] > 0.0


class TestEstimateMdm:
    def test_end_to_end_report(self, maser_model):
        _, record = simulate_ensemble(maser_model, 40_000, seed=60, keep_states=False)
        report = estimate_mdm(record, L=5, ts_target_s=250.0)
        assert report.method == "mdm"
        assert report.theta.shape == (18,)
        diag = report.diagnostics
        assert set(diag) == {
            "residual", "cond", "clamped", "se_approx", "drift_residual",
            "drift_cond", "L", "ts_target_s", "n_residue_dim",
        }
        assert diag["L"] == 5
        assert diag["ts_target_s"] == 250.0
        assert diag["n_residue_dim"] == 9

    def test_deterministic_report(self, maser_model):
        _, record = simulate_ensemble(maser_model, 20_000, seed=61, keep_states=False)
        rep1 = estimate_mdm(record, L=5, ts_target_s=100.0)
        rep2 = estimate_mdm(record, L=5, ts_target_s=100.0)
        assert rep1.to_json_dict() == rep2.to_json_dict()

    def test_non_multiple_resampling_rejected(self, maser_model):
        _, record = simulate_ensemble(maser_model, 100, seed=0)
        with pytest.raises(ValueError, match="multiple"):
            estimate_mdm(record, L=3, ts_target_s=7.5)

    def test_two_clock_pipeline_unidentifiable(self):
        # drifts are identifiable for n=2 but the noise split is not, so the
        # full pipeline raises regardless of L
        params = EnsembleParams(
            clocks=(ClockParams(1e-27, 1e-35), ClockParams(1e-27, 1e-35)),
            R=np.array([[1e-35]]),
        )
        model = assemble_ensemble(params, 5.0)
        _, record = simulate_ensemble(model, 5000, seed=62)
        with pytest.raises(UnidentifiableError):
            estimate_mdm(record, L=4, ts_target_s=5.0)

    def test_invalid_config(self, maser_model):
        _, record = simulate_ensemble(maser_model, 100, seed=0)
        with pytest.raises(ValueError):
            estimate_mdm(record, L=1, ts_target_s=5.0)
        with pytest.raises(ValueError):
            estimate_mdm(record, L=5, ts_target_s=0.0)
        with pytest.raises(ValueError):
            estimate_mdm(record, L=5, ts_target_s=np.inf)

    def test_consistency_error_shrinks_with_record_length(self):
        # median absolute error decreases over 4x and 16x longer records
        rng = np.random.default_rng(63)
        params = random_params(rng, 3)
        model = assemble_ensemble(params, 1.0)
        true_q1 = params.clocks[1].q1
        medians = []
        for n_steps in (2000, 8000, 32_000):
            errors = []
            for run in range(11):
                _, record = simulate_ensemble(
                    model, n_steps, seed=7000 + run, keep_states=False
                )
                report = estimate_mdm(record, L=5, ts_target_s=1.0)
                errors.append(abs(report.params.clocks[1].q1 - true_q1))
            medians.append(np.median(errors))
        assert medians[1] < medians[0]
        assert medians[2] < medians[1]
