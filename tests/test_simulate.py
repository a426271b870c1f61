import tracemalloc

import numpy as np
import pytest

from chronident import (
    ClockParams,
    EnsembleParams,
    MeasurementRecord,
    assemble_ensemble,
    decimate,
    derive_run_seed,
    read_measurements_csv,
    remove_outliers,
    simulate_ensemble,
    write_measurements_csv,
)
from chronident.errors import ChannelUnusableError, InvalidCovarianceError
from chronident.model import EnsembleModel
from chronident.simulate import _CSV_BLOCK_ROWS, _MIX_BLOCK, _psd_factor


def _reference_simulation(model, n_steps, seed, x0):
    """One-shot formulation with fresh per-clock arrays (the reference)."""
    n = model.n
    rng = np.random.default_rng(seed)
    r_factor = _psd_factor(model.R)
    X = np.empty((2 * n, n_steps + 1))
    for i in range(n):
        q_factor = _psd_factor(model.Q[2 * i : 2 * i + 2, 2 * i : 2 * i + 2])
        w = model.mu[2 * i : 2 * i + 2, None] + q_factor @ rng.standard_normal((2, n_steps))
        x2 = np.empty(n_steps + 1)
        x2[0] = x0[2 * i + 1]
        np.cumsum(w[1], out=x2[1:])
        x2[1:] += x0[2 * i + 1]
        X[2 * i, 0] = x0[2 * i]
        np.cumsum(model.Ts * x2[:-1] + w[0], out=X[2 * i, 1:])
        X[2 * i, 1:] += x0[2 * i]
        X[2 * i + 1] = x2
    v = r_factor @ rng.standard_normal((model.n_z, n_steps + 1))
    return X, X[2::2] - X[0] + v


def _noise_free_model(n, ts, drifts=None):
    drifts = drifts if drifts is not None else [0.0] * n
    clocks = tuple(ClockParams(q1=0.0, q2=0.0, d=d) for d in drifts)
    params = EnsembleParams(clocks=clocks, R=np.zeros((n - 1, n - 1)))
    return assemble_ensemble(params, ts)


class TestSimulateEnsemble:
    def test_noiseless_zero_drift_gives_zero(self):
        model = _noise_free_model(3, 5.0)
        traj, record = simulate_ensemble(model, 50, seed=0)
        assert np.all(record.Z == 0.0)
        assert np.all(traj.X == 0.0)

    def test_pure_drift_quadratic_signature(self):
        # double integration of a constant drift: z_k = d (Ts k)^2 / 2
        model = _noise_free_model(2, 5.0, drifts=[0.0, 8e-21])
        _, record = simulate_ensemble(model, 200, seed=0)
        k = np.arange(201)
        expected = 8e-21 * (5.0 * k) ** 2 / 2.0
        np.testing.assert_allclose(record.Z[0], expected, rtol=1e-12, atol=1e-40)

    def test_reproducibility_bit_identical(self, maser_model):
        _, rec1 = simulate_ensemble(maser_model, 500, seed=42)
        _, rec2 = simulate_ensemble(maser_model, 500, seed=42)
        assert np.array_equal(rec1.Z, rec2.Z)
        _, rec3 = simulate_ensemble(maser_model, 500, seed=43)
        assert not np.array_equal(rec1.Z, rec3.Z)

    def test_measurement_only_path_matches_states_path(self, maser_model):
        traj, rec1 = simulate_ensemble(maser_model, 300, seed=9, keep_states=True)
        none_traj, rec2 = simulate_ensemble(maser_model, 300, seed=9, keep_states=False)
        assert none_traj is None
        assert np.array_equal(rec1.Z, rec2.Z)
        # measurements are differences of phase states plus noise
        assert traj.X.shape == (8, 301)

    @staticmethod
    def _assert_matches_reference(model, n_steps):
        # reused buffers and blocked mixing must not change a single draw or rounding
        assert np.any(model.mu != 0.0)
        x0 = np.array([1e-9, 2e-13, -3e-9, 1e-12, 5e-10, -4e-13, 2e-9, 7e-13])
        X_ref, Z_ref = _reference_simulation(model, n_steps, 21, x0)
        traj, rec = simulate_ensemble(model, n_steps, seed=21, x0=x0)
        none_traj, rec_lean = simulate_ensemble(
            model, n_steps, seed=21, x0=x0, keep_states=False
        )
        assert none_traj is None
        assert np.array_equal(traj.X, X_ref)
        assert np.array_equal(rec.Z, Z_ref)
        assert np.array_equal(rec_lean.Z, Z_ref)

    def test_bit_identical_to_reference_formulation(self, maser_model):
        self._assert_matches_reference(maser_model, 3000)

    def test_bit_identical_across_mix_blocks(self, maser_model):
        # three mixing blocks, the last one partial
        self._assert_matches_reference(maser_model, 2 * _MIX_BLOCK + 123)

    def test_peak_memory_of_lean_run(self, maser_model):
        # no full-length state-noise or measurement-noise array beside Z
        tracemalloc.start()
        try:
            _, record = simulate_ensemble(maser_model, 200_000, seed=25, keep_states=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.75 * record.Z.nbytes

    def test_state_noise_moments(self, maser_model):
        # reconstruct the noise samples w_k = x_{k+1} - F x_k and compare
        # their moments with mu and Q
        n_steps = 100_000
        traj, _ = simulate_ensemble(maser_model, n_steps, seed=11)
        w = traj.X[:, 1:] - maser_model.F @ traj.X[:, :-1]
        mean = w.mean(axis=1)
        se = np.sqrt(np.diag(maser_model.Q) / n_steps)
        assert np.all(np.abs(mean - maser_model.mu) <= 5.0 * se + 1e-300)
        cov = np.cov(w, ddof=1)
        err = np.linalg.norm(cov - maser_model.Q) / np.linalg.norm(maser_model.Q)
        assert err < 0.05

    def test_common_mode_phase_invariance(self, maser_model):
        x0 = np.zeros(8)
        offset = x0 + np.kron(np.ones(4), [1e-9, 0.0])
        _, rec1 = simulate_ensemble(maser_model, 400, seed=5, x0=x0)
        _, rec2 = simulate_ensemble(maser_model, 400, seed=5, x0=offset)
        np.testing.assert_allclose(rec1.Z, rec2.Z, rtol=0.0, atol=1e-22)

    def test_invalid_arguments(self, maser_model):
        with pytest.raises(ValueError):
            simulate_ensemble(maser_model, 0, seed=0)
        with pytest.raises(ValueError):
            simulate_ensemble(maser_model, 10, seed=0, x0=np.zeros(3))

    def test_indefinite_r_rejected(self):
        model = _noise_free_model(3, 1.0)
        bad = EnsembleModel(
            F=model.F,
            H=model.H,
            Q=model.Q,
            mu=model.mu,
            R=np.array([[1.0, 2.0], [2.0, 1.0]]),
            Ts=1.0,
            n=3,
        )
        with pytest.raises(InvalidCovarianceError):
            simulate_ensemble(bad, 10, seed=0)


class TestPsdFactor:
    def test_factor_reproduces_matrix(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            root = rng.normal(size=(3, 3))
            M = root @ root.T
            S = _psd_factor(M)
            np.testing.assert_allclose(S @ S.T, M, atol=1e-12 * np.trace(M))

    def test_semi_definite_clamped(self):
        M = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank 1
        S = _psd_factor(M)
        np.testing.assert_allclose(S @ S.T, M, atol=1e-12)

    def test_zero_matrix(self):
        S = _psd_factor(np.zeros((2, 2)))
        np.testing.assert_array_equal(S @ S.T, np.zeros((2, 2)))


class TestDecimate:
    @pytest.fixture()
    def record(self, maser_model):
        _, rec = simulate_ensemble(maser_model, 1200, seed=3)
        return rec

    def test_identity(self, record):
        out = decimate(record, 1)
        assert np.array_equal(out.Z, record.Z)
        assert out.Ts == record.Ts

    def test_period_and_indices(self, record):
        out = decimate(record, 1000)
        assert out.Ts == 5000.0
        assert out.Z.shape[1] == record.Z.shape[1] // 1000 + 1
        np.testing.assert_array_equal(out.Z, record.Z[:, ::1000])

    def test_composition(self, record):
        np.testing.assert_array_equal(
            decimate(decimate(record, 3), 4).Z, decimate(record, 12).Z
        )

    def test_invalid_factor(self, record):
        with pytest.raises(ValueError):
            decimate(record, 0)
        with pytest.raises(ValueError):
            decimate(record, record.Z.shape[1] + 1)


class TestRemoveOutliers:
    def test_clean_record_low_false_positive_rate(self):
        rng = np.random.default_rng(21)
        z = rng.normal(0.0, 1e-17, (20, 10_001))
        record = MeasurementRecord(Ts=5.0, Z=z)
        _, report = remove_outliers(record, k=5.0)
        total_samples = z.size
        assert report.total / total_samples < 1e-3

    def test_injected_spike_detected_and_interpolated(self):
        rng = np.random.default_rng(22)
        z = rng.normal(0.0, 1e-17, (1, 2001))
        clean_value = z[0, 100]
        z[0, 100] += 1e-6
        record = MeasurementRecord(Ts=5.0, Z=z)
        cleaned, report = remove_outliers(record, k=5.0)
        assert 100 in report.flagged[0]
        assert abs(cleaned.Z[0, 100]) < 1e-15  # back at the noise level
        assert abs(cleaned.Z[0, 100] - clean_value) < 1e-15

    def test_minimal_record_processed(self):
        record = MeasurementRecord(Ts=1.0, Z=np.array([[0.0, 5.0, 1.0]]))
        cleaned, report = remove_outliers(record, k=5.0)
        assert report.total == 0
        assert np.array_equal(cleaned.Z, record.Z)

    def test_overflagged_channel_rejected(self):
        # with a sub-MAD threshold most Gaussian samples violate
        rng = np.random.default_rng(23)
        record = MeasurementRecord(Ts=1.0, Z=rng.normal(size=(1, 2000)))
        with pytest.raises(ChannelUnusableError):
            remove_outliers(record, k=0.2)

    def test_invalid_threshold(self):
        record = MeasurementRecord(Ts=1.0, Z=np.zeros((1, 10)))
        with pytest.raises(ValueError):
            remove_outliers(record, k=0.0)


class TestMeasurementCsv:
    def test_exact_round_trip(self, tmp_path, maser_model):
        _, record = simulate_ensemble(maser_model, 250, seed=17)
        path = tmp_path / "meas.csv"
        write_measurements_csv(record, path)
        back = read_measurements_csv(path)
        assert back.Ts == record.Ts
        assert np.array_equal(back.Z, record.Z)

    def test_bytes_match_savetxt_across_blocks(self, tmp_path, maser_model):
        n_steps = 2 * _CSV_BLOCK_ROWS + 100
        _, record = simulate_ensemble(maser_model, n_steps, seed=19, keep_states=False)
        path = tmp_path / "meas.csv"
        write_measurements_csv(record, path)
        ref = tmp_path / "ref.csv"
        t = np.arange(n_steps + 1) * record.Ts
        np.savetxt(
            ref,
            np.column_stack([t, record.Z.T]),
            fmt="%.17g",
            delimiter=",",
            header="t_s,z1,z2,z3",
            comments="",
        )
        assert path.read_bytes() == ref.read_bytes()

    def test_header_contract(self, tmp_path, maser_model):
        _, record = simulate_ensemble(maser_model, 5, seed=0)
        path = tmp_path / "meas.csv"
        write_measurements_csv(record, path)
        header = path.read_text().splitlines()[0]
        assert header == "t_s,z1,z2,z3"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,z1\n0,1\n1,2\n")
        with pytest.raises(ValueError, match="t_s"):
            read_measurements_csv(path)

    def test_nonuniform_spacing_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,z1\n0,1\n5,2\n11,3\n")
        with pytest.raises(ValueError, match="uniform"):
            read_measurements_csv(path)

    def test_too_short_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,z1\n0,1\n")
        with pytest.raises(ValueError):
            read_measurements_csv(path)


class TestRecordValidation:
    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            MeasurementRecord(Ts=1.0, Z=np.array([[0.0, np.nan]]))

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            MeasurementRecord(Ts=0.0, Z=np.zeros((1, 3)))

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError):
            MeasurementRecord(Ts=1.0, Z=np.zeros((1, 1)))

    def test_zero_channels_rejected(self):
        with pytest.raises(ValueError):
            MeasurementRecord(Ts=1.0, Z=np.zeros((0, 5)))


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        seeds = [derive_run_seed(123, i) for i in range(100)]
        assert seeds == [derive_run_seed(123, i) for i in range(100)]
        assert len(set(seeds)) == 100
        assert derive_run_seed(124, 0) != derive_run_seed(123, 0)
