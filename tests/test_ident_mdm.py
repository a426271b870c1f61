import re

import numpy as np
import pytest

from chronident import (
    ClockParams,
    EnsembleParams,
    MeasurementRecord,
    assemble_ensemble,
    build_mdm_system,
    clock_drift_mean,
    clock_noise_cov,
    compute_residues,
    ensemble_structure,
    estimate_mdm,
    estimate_theta_alpha,
    simulate_ensemble,
    theta_alpha_from_params,
)
from chronident.errors import NoResidueError, UnidentifiableError
from chronident.numerics import wishart_fit

from conftest import drifting_record, noiseless_record, random_params, reference_observation


def reference_stencil(L, n_z):
    """Am = B kron I_{n_z}, B the (L-2) x L band of (1, -2, 1) rows."""
    return np.kron(np.diff(np.eye(L), 2, axis=0), np.eye(n_z))


def reference_residue_map(system):
    """A = Am [Gamma, I]: the residues Am Z_k as a map of the window's
    noises E_k = [W_k; V_k], with Gamma the stacked H F^(r-1-c) blocks
    that carry state-noise step c into measurement r."""
    n, L, n_z = system.n, system.L, system.n_z
    F, H = ensemble_structure(n, system.Ts)
    n_x = 2 * n
    Gamma = np.zeros((L * n_z, (L - 1) * n_x))
    for r in range(1, L):
        for c in range(r):
            Gamma[r * n_z : (r + 1) * n_z, c * n_x : (c + 1) * n_x] = (
                H @ np.linalg.matrix_power(F, r - 1 - c)
            )
    return reference_stencil(L, n_z) @ np.hstack([Gamma, np.eye(L * n_z)])


def reference_drift_map(system):
    """The (n_residue, n) map of d^(1..n) to the residue mean: A's
    state-noise part applied to each clock's drift mean."""
    n_w = (system.L - 1) * 2 * system.n
    A = reference_residue_map(system)[:, :n_w]
    return A.reshape(-1, system.L - 1, system.n, 2).sum(axis=1) @ clock_drift_mean(1.0, system.Ts)


def noise_block(system, Q, R):
    """blockdiag(I_{L-1} kron Q, I_L kron R), the covariance of E_k."""
    L, n_w = system.L, (system.L - 1) * Q.shape[0]
    block = np.zeros((n_w + L * R.shape[0],) * 2)
    block[:n_w, :n_w] = np.kron(np.eye(L - 1), Q)
    block[n_w:, n_w:] = np.kron(np.eye(L), R)
    return block


# (n, ts, L) for the closed-form maps: two and five clocks, L = 3 to 7
MAP_CASES = (
    (2, 1.0, 4), (2, 3.0, 3), (3, 2.0, 4), (3, 5.0, 5),
    (4, 5000.0, 5), (4, 100.0, 6), (5, 7.0, 7), (5, 0.7, 3),
)


class TestBuildSystem:
    def test_reference_dimensions(self):
        system = build_mdm_system(4, 5000.0, 5)
        O = reference_observation(4, 5000.0, 5)
        assert O.shape == (15, 8)
        assert np.linalg.matrix_rank(O) == 6
        assert system.n_residue == reference_stencil(5, 3).shape[0] == 9
        assert system.theta_map.shape == (45, 14)
        assert np.linalg.matrix_rank(system.theta_map) == 14

    def test_annihilation_property(self):
        # the stencil annihilates O, and compute_residues leaves nothing of
        # a noiseless record's state
        rng = np.random.default_rng(50)
        for seed in range(10):
            n = int(rng.integers(2, 6))
            L = int(rng.integers(3, 8))
            ts = float(rng.uniform(0.5, 100.0))
            system = build_mdm_system(n, ts, L)
            O = reference_observation(n, ts, L)
            rel = np.linalg.norm(reference_stencil(L, n - 1) @ O) / np.linalg.norm(O)
            assert rel <= 1e-10
            # common pivot phase and frequency are unobservable
            assert np.linalg.matrix_rank(O) == 2 * (n - 1)
            assert system.n_residue == L * (n - 1) - 2 * (n - 1)
            record = noiseless_record(n, ts, 3 * L, seed)
            residues = compute_residues(record, system)
            assert residues.shape == (system.n_residue, 2 * L + 2)
            assert np.abs(residues).max() <= 1e-10 * np.abs(record.Z).max()

    def test_no_residue_for_minimal_window(self):
        with pytest.raises(NoResidueError):
            build_mdm_system(2, 1.0, 2)
        with pytest.raises(NoResidueError):
            build_mdm_system(4, 1.0, 2)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            build_mdm_system(3, 1.0, 1)

    def test_system_is_cached_and_read_only(self):
        system = build_mdm_system(4, 100.0, 5)
        assert build_mdm_system(4, 100.0, 5) is system
        with pytest.raises(ValueError, match="read-only"):
            system.theta_map[0, 0] = 1.0

    def test_kronecker_identity(self):
        # (A e) kron (A e) = (A kron A)(e kron e) for the residue map
        A = reference_residue_map(build_mdm_system(3, 2.0, 4))
        rng = np.random.default_rng(51)
        A_kron = np.kron(A, A)
        for _ in range(5):
            e = rng.normal(size=A.shape[1])
            lhs = np.kron(A @ e, A @ e)
            rhs = A_kron @ np.kron(e, e)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(lhs)

    def test_theta_map_matches_explicit_kron(self):
        # column i holds the vech rows (a, b), a <= b, of
        # (A kron A) vec(blockdiag(I kron B_Q, I kron B_R)) for the basis
        # pair (B_Q, B_R) of parameter i
        for n, ts, L in MAP_CASES:
            system = build_mdm_system(n, ts, L)
            A = reference_residue_map(system)
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
            A_kron = np.kron(A, A)
            a, b = np.triu_indices(system.n_residue)
            vech_rows = a + b * system.n_residue
            for col, (B_Q, B_R) in enumerate(pairs):
                block = noise_block(system, B_Q, B_R)
                expected = (A_kron @ block.reshape(-1, order="F"))[vech_rows]
                # the q2 columns scale with ts^3: compare within each column
                err = np.abs(system.theta_map[:, col] - expected).max()
                assert err <= 1e-13 * np.abs(expected).max(), (n, ts, L, col)

    def test_closed_form_maps_match_reference(self):
        # the residues of a noiseless record drifting by each unit drift, and
        # theta_map's moments, against A's state-noise mean and
        # A blockdiag(...) A^T
        rng = np.random.default_rng(66)
        for n, ts, L in MAP_CASES:
            system = build_mdm_system(n, ts, L)
            A = reference_residue_map(system)
            expected = reference_drift_map(system)
            for e, column in zip(np.eye(n), expected.T):
                residues = compute_residues(drifting_record(e, ts, 3 * L, seed=n), system)
                err = np.abs(residues - column[:, None]).max()
                assert err <= 1e-12 * np.abs(column).max(), (n, ts, L)
            params = random_params(rng, n)
            model = assemble_ensemble(params, ts)
            expected = (A @ noise_block(system, model.Q, model.R) @ A.T)[
                np.triu_indices(system.n_residue)
            ]
            moment = system.theta_map @ theta_alpha_from_params(params)
            assert np.abs(moment - expected).max() <= 1e-13 * np.abs(expected).max(), (n, ts, L)

    def test_stencil_spans_svd_left_null_space(self):
        # the second-difference rows span the same space as the orthonormal
        # left null space of O from its SVD
        for n, L in ((4, 5), (3, 5), (4, 6), (4, 4)):
            system = build_mdm_system(n, 5000.0, L)
            U, s, _ = np.linalg.svd(reference_observation(n, 5000.0, L))
            null = U[:, int(np.sum(s > 1e-10 * s[0])) :].T
            assert null.shape[0] == system.n_residue
            stacked = np.vstack([reference_stencil(L, n - 1), null])
            assert np.linalg.matrix_rank(stacked) == system.n_residue, (n, L)

    def test_maps_match_model_moments(self):
        # theta_map and the residues of a noiseless drifting record reproduce
        # the model's own residue moments, A blockdiag(...) A^T and A's mean
        # of mu
        rng = np.random.default_rng(65)
        for n in (2, 3, 4, 5):
            for L, ts in ((3, 0.7), (4, 5.0), (5, 100.0), (7, 5000.0)):
                params = random_params(rng, n)
                model = assemble_ensemble(params, ts)
                system = build_mdm_system(n, ts, L)
                A = reference_residue_map(system)
                moment = (A @ noise_block(system, model.Q, model.R) @ A.T)[
                    np.triu_indices(system.n_residue)
                ]
                mapped = system.theta_map @ theta_alpha_from_params(params)
                assert np.abs(mapped - moment).max() <= 1e-12 * np.abs(moment).max()
                n_w = (L - 1) * 2 * n
                mean = A[:, :n_w] @ np.tile(model.mu, L - 1)
                residues = compute_residues(drifting_record(params.drifts(), ts, 3 * L), system)
                assert np.abs(residues - mean[:, None]).max() <= 1e-12 * np.abs(mean).max()

    def test_built_from_model_map(self):
        # the model's F and H leave L n_z - rank(O) residue rows, and fewer
        # than two clocks are rejected as ensemble_structure rejects them
        for n, ts, L in ((2, 1.0, 4), (4, 5.0, 5), (5, 5000.0, 3)):
            O = reference_observation(n, ts, L)
            assert build_mdm_system(n, ts, L).n_residue == len(O) - np.linalg.matrix_rank(O)
        with pytest.raises(ValueError, match="an ensemble needs at least 2 clocks"):
            ensemble_structure(1, 1.0)
        with pytest.raises(ValueError, match="an ensemble needs at least 2 clocks"):
            build_mdm_system(1, 1.0, 5)


class TestComputeResidues:
    def test_state_annihilation_noiseless(self):
        # noise-free, drift-free evolution z_k = H F^k x0 from a random state
        record = noiseless_record(4, 1000.0, 200, 53)
        residues = compute_residues(record, build_mdm_system(4, 1000.0, 5))
        scale = np.abs(record.Z).max()
        assert np.abs(residues).max() <= 1e-10 * scale

    def test_strided_residues_match_sliced_record(self, maser_model):
        # at f = 1000 the windows come from every 1000th sample, offset 0,
        # exactly as from a record sliced to those samples beforehand
        _, record = simulate_ensemble(maser_model, 20_500, seed=3, keep_states=False)
        system = build_mdm_system(4, 5000.0, 5)
        sliced = MeasurementRecord(Ts=5000.0, Z=record.Z[:, ::1000].copy())
        residues = compute_residues(record, system)
        assert residues.shape == (system.n_residue, 21 - 5 + 1)
        assert residues.tobytes() == compute_residues(sliced, system).tobytes()

    def test_masked_windows_dropped(self, maser_model):
        # f = 10: the windows hold samples 10 r, ..., 10 (r + 4); an invalid
        # sample between them drops nothing, one at 10 q drops windows
        # q-4 .. q, whichever channel it is on
        _, record = simulate_ensemble(maser_model, 2000, seed=4, keep_states=False)
        system = build_mdm_system(4, 50.0, 5)
        Z = record.Z.copy()
        valid = np.ones(Z.shape, dtype=bool)
        Z[1, 305], Z[2, 700] = 1e-3, 1e-3
        valid[1, 305] = False  # not at the MDM period
        valid[2, 700] = False
        masked = MeasurementRecord(Ts=5.0, Z=Z, valid=valid)
        plain = compute_residues(MeasurementRecord(Ts=5.0, Z=Z), system)
        keep = np.ones(plain.shape[1], dtype=bool)
        keep[66:71] = False
        assert np.array_equal(compute_residues(masked, system), plain[:, keep])

    def test_no_valid_window_left(self, maser_model):
        _, record = simulate_ensemble(maser_model, 99, seed=5, keep_states=False)
        valid = np.ones(record.Z.shape, dtype=bool)
        valid[0, 40:60] = False  # every window of 5 samples at f = 10 holds sample 40 or 50
        masked = MeasurementRecord(Ts=5.0, Z=record.Z, valid=valid)
        with pytest.raises(NoResidueError, match="no window"):
            compute_residues(masked, build_mdm_system(4, 50.0, 5))

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
        Am = reference_stencil(4, 2)
        expected = Am @ np.kron(np.eye(4), R) @ Am.T
        err = np.linalg.norm(sample_cov - expected) / np.linalg.norm(expected)
        assert err < 0.05

    def test_record_shorter_than_window_rejected(self):
        system = build_mdm_system(4, 1.0, 5)
        record_z = np.zeros((3, 4))
        with pytest.raises(ValueError):
            compute_residues(MeasurementRecord(Ts=1.0, Z=record_z), system)

    def test_channel_count_mismatch_rejected(self, maser_model):
        system = build_mdm_system(3, 5.0, 5)
        _, record = simulate_ensemble(maser_model, 50, seed=0)
        with pytest.raises(ValueError):
            compute_residues(record, system)


# (n, ts, L) of MAP_CASES whose noise fit has full rank, as estimate_mdm needs
FULL_RANK_CASES = ((3, 5.0, 5), (4, 5000.0, 5), (4, 100.0, 6), (5, 7.0, 7))


class TestDriftEstimation:
    def test_exact_mean_recovers_maser_drifts(self, maser_params):
        record = drifting_record(maser_params.drifts(), 5000.0, 40)
        report = estimate_mdm(record, L=5, ts_target_s=5000.0)
        np.testing.assert_allclose(report.params.drifts()[1:], [8e-21, 7.5e-21, 3e-21], rtol=1e-12)

    def test_exact_mean_with_nonzero_pivot(self):
        rng = np.random.default_rng(56)
        drifts = rng.normal(size=4)
        record = drifting_record(drifts, 100.0, 40, seed=56)
        report = estimate_mdm(record, L=5, ts_target_s=100.0, d1=drifts[0])
        np.testing.assert_allclose(report.params.drifts(), drifts, rtol=1e-10)

    def test_zero_drift_estimates_near_zero(self):
        params = EnsembleParams(
            clocks=tuple(ClockParams(1.0, 0.5, 0.0) for _ in range(3)),
            R=0.1 * np.eye(2),
        )
        model = assemble_ensemble(params, 1.0)
        system = build_mdm_system(model.n, model.Ts, 5)
        _, record = simulate_ensemble(model, 20_000, seed=57)
        d_hat = estimate_mdm(record, L=5, ts_target_s=1.0).params.drifts()[1:]
        # rough standard error of the residue mean, ignoring overlap correlation
        residues = compute_residues(record, system)
        count = residues.shape[1]
        se_mean = residues.std(axis=1, ddof=1) / np.sqrt(count)
        map_pinv = np.linalg.pinv(reference_drift_map(system)[:, 1:])
        se_d = np.sqrt((map_pinv**2) @ se_mean**2)
        assert np.all(np.abs(d_hat) <= 5.0 * se_d * np.sqrt(system.L))

    @staticmethod
    def assert_matches_lstsq(record, L, ts_target_s, d1):
        report = estimate_mdm(record, L=L, ts_target_s=ts_target_s, d1=d1)
        system = build_mdm_system(record.n_z + 1, ts_target_s, L)
        mean = compute_residues(record, system).mean(axis=1)
        drift_map = reference_drift_map(system)
        rhs = mean - drift_map[:, 0] * d1
        x, *_ = np.linalg.lstsq(drift_map[:, 1:], rhs, rcond=None)
        d_hat = report.params.drifts()[1:]
        assert np.max(np.abs(d_hat - x)) <= 1e-13 * np.max(np.abs(x))
        residual = np.linalg.norm(rhs - drift_map[:, 1:] @ x)
        assert residual > 0.0
        drift_residual = report.diagnostics["drift_residual"]
        assert abs(drift_residual - residual) <= 1e-14 * np.linalg.norm(mean)

    @pytest.mark.parametrize("n, ts, L", FULL_RANK_CASES)
    def test_closed_form_matches_lstsq(self, n, ts, L):
        # the row average is the least-squares solution of the stacked map
        # for a noisy record's mean, which no drift vector explains exactly
        rng = np.random.default_rng(L * 10 + n)
        params = random_params(rng, n)
        _, record = simulate_ensemble(
            assemble_ensemble(params, ts), 100 * L, seed=L * 10 + n, keep_states=False
        )
        self.assert_matches_lstsq(record, L, ts, params.clocks[0].d)

    def test_closed_form_matches_lstsq_on_masked_record(self, maser_model):
        _, record = simulate_ensemble(maser_model, 40_000, seed=61, keep_states=False)
        valid = np.ones(record.Z.shape, dtype=bool)
        valid[1, 7000:12000] = False
        masked = MeasurementRecord(Ts=5.0, Z=record.Z, valid=valid)
        system = build_mdm_system(4, 250.0, 5)
        windows = compute_residues(masked, system).shape[1]
        assert windows < compute_residues(record, system).shape[1]
        self.assert_matches_lstsq(masked, 5, 250.0, 2e-21)


class TestThetaAlphaEstimation:
    def test_exact_moment_round_trip_balanced(self):
        rng = np.random.default_rng(58)
        for _ in range(5):
            n = int(rng.integers(3, 6))
            params = random_params(rng, n)
            ts = float(rng.uniform(1.0, 10.0))
            model = assemble_ensemble(params, ts)
            system = build_mdm_system(model.n, model.Ts, 5)
            theta_true = theta_alpha_from_params(params)
            moment = system.theta_map @ theta_true
            theta_hat, diag = wishart_fit(system.theta_map, moment, 1e-3, system.n)
            rel = np.abs(theta_hat - theta_true) / np.abs(theta_true)
            assert rel.max() < 1e-10
            assert diag["clamped"] == []

    def test_exact_moment_maser_scale_q_components(self, maser_params):
        # r components are representation-limited at this scale (see ledger)
        model = assemble_ensemble(maser_params, 5000.0)
        system = build_mdm_system(model.n, model.Ts, 5)
        theta_true = theta_alpha_from_params(maser_params)
        moment = system.theta_map @ theta_true
        theta_hat, _ = wishart_fit(system.theta_map, moment, 1e-3, system.n)
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
        theta_hat, diag = estimate_theta_alpha(residues, np.zeros(2), system)
        r11_index = 6  # theta_alpha = [q1 x 3, q2 x 3, r_11, r_12, r_22]
        r11 = theta_hat[r11_index]
        se = diag["se"][r11_index]
        assert abs(r11 - sigma2) <= 3.0 * se

    def test_rank_deficient_two_clock_split(self):
        # the pivot/non-pivot covariance signatures coincide for n = 2, so
        # no window helps and the hint asks for a third clock
        for L in (4, 5, 8):
            system = build_mdm_system(2, 1.0, L)
            residues = np.zeros((system.n_residue, 1000))
            with pytest.raises(UnidentifiableError, match="a third clock is needed") as err:
                estimate_theta_alpha(residues, np.zeros(system.n_z), system)
            assert "increase" not in str(err.value)

    def test_rank_deficient_short_window_three_clocks(self):
        # n = 3 is identifiable from L = 5 on, so a short window asks for more
        system = build_mdm_system(3, 1.0, 4)
        residues = np.zeros((system.n_residue, 1000))
        with pytest.raises(UnidentifiableError, match="increase the window L"):
            estimate_theta_alpha(residues, np.zeros(system.n_z), system)

    def test_negative_entries_clamped(self):
        system = build_mdm_system(3, 1.0, 5)
        # [q1 x 3, q2 x 3, r_11, r_12, r_22] with a negative q1 for the pivot
        theta_bad = np.array([-0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0])
        moment = system.theta_map @ theta_bad
        theta_hat, diag = wishart_fit(system.theta_map, moment, 1e-3, system.n)
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
            "residual", "cond", "rank", "se", "clamped", "drift_residual",
            "L", "ts_target_s", "n_residue_dim",
        }
        assert diag["L"] == 5
        assert diag["ts_target_s"] == 250.0
        assert diag["n_residue_dim"] == 9

    def test_masked_record_reports_valid_fraction(self, maser_model):
        _, record = simulate_ensemble(maser_model, 40_000, seed=60, keep_states=False)
        valid = np.ones(record.Z.shape, dtype=bool)
        valid[2, 1000:5000] = False
        masked = MeasurementRecord(Ts=5.0, Z=record.Z, valid=valid)
        diag = estimate_mdm(masked, L=5, ts_target_s=250.0).diagnostics
        np.testing.assert_array_equal(diag["valid_fraction"], [1.0, 1.0, 36_001 / 40_001])

    def test_deterministic_report(self, maser_model):
        _, record = simulate_ensemble(maser_model, 20_000, seed=61, keep_states=False)
        rep1 = estimate_mdm(record, L=5, ts_target_s=100.0)
        rep2 = estimate_mdm(record, L=5, ts_target_s=100.0)
        assert rep1.to_json_dict() == rep2.to_json_dict()

    def test_non_multiple_resampling_rejected(self, maser_model):
        _, record = simulate_ensemble(maser_model, 100, seed=0)
        with pytest.raises(ValueError, match="multiple"):
            estimate_mdm(record, L=3, ts_target_s=7.5)

    def test_record_shorter_than_window_at_target_rejected(self, maser_model):
        # 40 samples at 5 s hold 4 at 50 s, one fewer than L = 5; 41 hold 5
        _, record = simulate_ensemble(maser_model, 40, seed=0, keep_states=False)
        short = MeasurementRecord(Ts=5.0, Z=record.Z[:, :40])
        with pytest.raises(ValueError, match="need at least L=5"):
            estimate_mdm(short, L=5, ts_target_s=50.0)
        assert estimate_mdm(record, L=5, ts_target_s=50.0).method == "mdm"

    def test_drift_correction_of_moments(self):
        # drifts of 3 and -2 dominate the raw residue moments: without the
        # residue-mean correction the pivot q1 comes out 25x too large and
        # the others are clamped
        params = EnsembleParams(
            clocks=(
                ClockParams(1.0, 1e-4, 0.0),
                ClockParams(2.0, 2e-4, 3.0),
                ClockParams(1.5, 1e-4, -2.0),
            ),
            R=np.array([[0.5, 0.2], [0.2, 0.4]]),
        )
        model = assemble_ensemble(params, 1.0)
        for seed in range(3):
            _, record = simulate_ensemble(model, 20_000, seed=seed, keep_states=False)
            report = estimate_mdm(record, L=5, ts_target_s=1.0)
            q1 = [clk.q1 for clk in report.params.clocks]
            np.testing.assert_allclose(q1, [1.0, 2.0, 1.5], rtol=0.5)
            np.testing.assert_allclose(report.params.drifts(), [0.0, 3.0, -2.0], atol=1e-3)

    @pytest.mark.parametrize(
        "seed, L, ts_target_s", [(1, 5, 5000.0), (0, 5, 2500.0), (1, 7, 5000.0)]
    )
    def test_noise_estimates_do_not_depend_on_d1(self, maser_model, seed, L, ts_target_s):
        # the noise fit centres the residues on their own mean, so the pivot
        # drift moves the drifts alone; on these records a centring rebuilt
        # from d1 and the drifts moves q1, q2 or R by 2e-15 to 4e-15 relative
        _, record = simulate_ensemble(maser_model, 20_000, seed=seed, keep_states=False)
        reports = [
            estimate_mdm(record, L=L, ts_target_s=ts_target_s, d1=d1) for d1 in (0.0, 1e-22)
        ]
        noise = [
            np.concatenate([[(c.q1, c.q2) for c in rep.params.clocks], rep.params.R], axis=None)
            for rep in reports
        ]
        assert noise[0].tobytes() == noise[1].tobytes()
        assert reports[0].diagnostics["clamped"] == reports[1].diagnostics["clamped"]
        np.testing.assert_allclose(
            reports[1].params.drifts() - reports[0].params.drifts(), 1e-22, rtol=1e-6
        )

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

    @pytest.mark.parametrize(
        "L, ts_target_s, ts, message",
        [
            (10**6, 5.0, 5.0, "record has 101 samples at Ts=5.0, need at least L=1000000"),
            (5, 1e308, 5.0, "record has 1 samples at Ts=1e+308, need at least L=5"),
            (5, 1e308, 0.5, "MDM Ts=1e+308 over record Ts=0.5 overflows the stride"),
            (5, np.inf, 5.0, "MDM period ts_target_s must be finite and > 0, got inf"),
            (5, np.nan, 5.0, "MDM period ts_target_s must be finite and > 0, got nan"),
        ],
        ids=["huge_window", "huge_period", "overflowing_stride", "inf_period", "nan_period"],
    )
    def test_settings_checked_before_system_is_built(
        self, monkeypatch, maser_model, L, ts_target_s, ts, message
    ):
        # the record rejects these settings before the system is built, whose
        # moment map grows as L^2 and whose h^3 term overflows at 1e308 s
        def fail(*args):
            raise AssertionError("build_mdm_system called")

        monkeypatch.setattr("chronident.ident_mdm.build_mdm_system", fail)
        _, record = simulate_ensemble(maser_model, 100, seed=0, keep_states=False)
        record = MeasurementRecord(Ts=ts, Z=record.Z)
        with pytest.raises(ValueError, match=re.escape(message)):
            estimate_mdm(record, L=L, ts_target_s=ts_target_s)

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
