import multiprocessing
import os
import tracemalloc
import warnings
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

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
from chronident import simulate as simulate_module
from chronident.errors import ChannelUnusableError, InvalidCovarianceError
from chronident.model import EnsembleModel
from chronident.simulate import (
    _CSV_BLOCK_ROWS,
    _MIX_BLOCK,
    _cut_body,
    _format_rows,
    _psd_factor,
)


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
        X, record = simulate_ensemble(model, 50, seed=0)
        assert np.all(record.Z == 0.0)
        assert np.all(X == 0.0)

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
        X, rec1 = simulate_ensemble(maser_model, 300, seed=9, keep_states=True)
        no_X, rec2 = simulate_ensemble(maser_model, 300, seed=9, keep_states=False)
        assert no_X is None
        assert np.array_equal(rec1.Z, rec2.Z)
        # measurements are differences of phase states plus noise
        assert X.shape == (8, 301)

    @staticmethod
    def _assert_matches_reference(model, n_steps):
        # reused buffers and blocked mixing must not change a single draw or rounding
        assert np.any(model.mu != 0.0)
        x0 = np.array([1e-9, 2e-13, -3e-9, 1e-12, 5e-10, -4e-13, 2e-9, 7e-13])
        X_ref, Z_ref = _reference_simulation(model, n_steps, 21, x0)
        X, rec = simulate_ensemble(model, n_steps, seed=21, x0=x0)
        no_X, rec_lean = simulate_ensemble(
            model, n_steps, seed=21, x0=x0, keep_states=False
        )
        assert no_X is None
        assert np.array_equal(X, X_ref)
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

    def test_peak_memory_of_states_run(self, maser_model):
        # the trajectories are written straight into X: no phase or frequency
        # buffer beside it and no assembly copy; a first short call keeps
        # one-time lazy imports out of the traced peak
        simulate_ensemble(maser_model, 10, seed=25)
        tracemalloc.start()
        try:
            _, record = simulate_ensemble(maser_model, 200_000, seed=25, keep_states=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.0 * record.Z.nbytes

    def test_state_noise_moments(self, maser_model):
        # reconstruct the noise samples w_k = x_{k+1} - F x_k and compare
        # their moments with mu and Q
        n_steps = 100_000
        X, _ = simulate_ensemble(maser_model, n_steps, seed=11)
        w = X[:, 1:] - maser_model.F @ X[:, :-1]
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


def _reference_remove_outliers(Z, k):
    """Per-channel formulation with fresh temporaries (the reference)."""
    n_samples = Z.shape[1]
    cleaned = Z.copy()
    flagged = []
    for z, out in zip(Z, cleaned):
        second = z[2:] - 2.0 * z[1:-1] + z[:-2]
        med = np.median(second)
        mad = np.median(np.abs(second - med))
        flags = np.flatnonzero(np.abs(second - med) > k * mad) + 1
        if len(flags):
            good = np.ones(n_samples, dtype=bool)
            good[flags] = False
            out[flags] = np.interp(flags, np.flatnonzero(good), z[good])
        flagged.append(flags)
    return cleaned, flagged


class TestRemoveOutliers:
    @pytest.mark.parametrize("n_samples", [4000, 4001])
    def test_matches_reference_formulation(self, maser_model, n_samples):
        # reused buffers and the interpolation over the neighbours of the
        # flagged runs only must not move a single flag or cleaned value; both
        # parities of the second-difference length (median of an even count
        # averages two values)
        _, record = simulate_ensemble(maser_model, n_samples - 1, seed=31, keep_states=False)
        Z = record.Z.copy()
        rng = np.random.default_rng(32)
        for c in range(Z.shape[0]):
            # the end samples, a run of adjacent spikes, and scattered ones
            spikes = np.concatenate(
                [[1, 500, 501, 502, n_samples - 2], rng.choice(n_samples, 12, replace=False)]
            )
            Z[c, spikes] += rng.choice([-1.0, 1.0], spikes.size) * 1e-9
        spiked = MeasurementRecord(Ts=record.Ts, Z=Z)
        cleaned, report = remove_outliers(spiked, k=5.0)
        ref_cleaned, ref_flagged = _reference_remove_outliers(Z, 5.0)
        assert all(len(f) >= 12 for f in ref_flagged)
        for flags, ref in zip(report.flagged, ref_flagged):
            assert np.array_equal(flags, ref)
        assert cleaned.Z.tobytes() == ref_cleaned.tobytes()

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
        with pytest.raises(ValueError):
            remove_outliers(record, k=float("nan"))


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
        # a NaN time fails the check as well
        path = tmp_path / "bad.csv"
        for body in ("0,1\n5,2\n11,3\n", "0,1\n5,2\n10,3\nnan,4\n20,5\n"):
            path.write_text("t_s,z1\n" + body)
            with pytest.raises(ValueError, match="uniform"):
                read_measurements_csv(path)

    def test_too_short_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,z1\n0,1\n")
        with pytest.raises(ValueError):
            read_measurements_csv(path)

    def test_peak_memory_of_one_cpu_read(self, tmp_path, monkeypatch, maser_model):
        # ranges are parsed one at a time into t and Z, the uniform-time
        # check works in one buffer, and a skipped blank or comment line is
        # closed up inside Z; a first small read keeps one-time lazy imports
        # out of the traced peak
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        _, record = simulate_ensemble(maser_model, 200_000, seed=27, keep_states=False)
        path = tmp_path / "meas.csv"
        write_measurements_csv(record, path)
        small = tmp_path / "small.csv"
        write_measurements_csv(decimate(record, 1000), small)
        read_measurements_csv(small)
        head, body = path.read_bytes().split(b"\n", 1)
        t_and_z = (record.n_z + 1) * record.Z.shape[1] * 8
        for text in (body, body + b"\n", b"# a comment line\n" + body):
            path.write_bytes(head + b"\n" + text)
            tracemalloc.start()
            try:
                back = read_measurements_csv(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert back.Z.tobytes() == record.Z.tobytes()
            assert peak < 1.5 * t_and_z, text[:20]


class TestSplitCsvCodec:
    """The pooled writer and reader against the serial ones, at small sizes.

    The block, task and part sizes are shrunk so that a record of a few
    hundred rows spans several tasks; os.sched_getaffinity decides the pool
    size, and the spy records every pool started.
    """

    # 128-row blocks: 421 rows give 4 tasks, the last partial
    N_ROWS = 3 * 128 + 37

    @pytest.fixture()
    def pools(self, monkeypatch):
        monkeypatch.setattr(simulate_module, "_CSV_BLOCK_ROWS", 128)
        monkeypatch.setattr(simulate_module, "_CSV_PART_BYTES", 4096)
        started = []
        real = simulate_module.ProcessPoolExecutor

        def spy(max_workers):
            started.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(simulate_module, "ProcessPoolExecutor", spy)
        return started

    @pytest.fixture()
    def record(self, maser_model):
        _, record = simulate_ensemble(maser_model, self.N_ROWS - 1, seed=33, keep_states=False)
        return record

    @staticmethod
    def _cpus(monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))

    @staticmethod
    def _read_error(path):
        with pytest.raises(ValueError) as err:
            read_measurements_csv(path)
        return str(err.value)

    @staticmethod
    def _assert_names_line(message, path, line):
        # "<path>: line <n>: <reason>", and the reason counts no loadtxt row
        assert message.startswith(f"{path}: line {line}: "), message
        assert " at row " not in message, message

    @staticmethod
    def _loadtxt_calls(monkeypatch):
        calls = []
        real = np.loadtxt

        def spy(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        return calls

    @staticmethod
    def _savetxt_bytes(tmp_path, record):
        ref = tmp_path / "ref.csv"
        t = np.arange(record.Z.shape[1]) * record.Ts
        np.savetxt(
            ref,
            np.column_stack([t, record.Z.T]),
            fmt="%.17g",
            delimiter=",",
            header="t_s,z1,z2,z3",
            comments="",
        )
        return ref.read_bytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_bytes_and_values_unchanged(self, tmp_path, monkeypatch, pools, record, cpus):
        self._cpus(monkeypatch, cpus)
        path = tmp_path / "meas.csv"
        write_measurements_csv(record, path)
        assert path.read_bytes() == self._savetxt_bytes(tmp_path, record)
        parts = _cut_body(path, len("t_s,z1,z2,z3\n"))
        assert len(parts) >= 2
        # ranges end at a newline, so a cut at the part size fell mid-line
        assert any(size < 4096 for _, size, _ in parts[:-1])
        back = read_measurements_csv(path)
        assert back.Ts == record.Ts
        assert back.Z.tobytes() == record.Z.tobytes()
        assert pools == ([2, 2] if cpus == 2 else [])
        assert multiprocessing.active_children() == []

    def test_without_sched_getaffinity_runs_serially(self, tmp_path, monkeypatch, pools, record):
        # macOS and Windows have no os.sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity")
        path = tmp_path / "meas.csv"
        write_measurements_csv(record, path)
        assert path.read_bytes() == self._savetxt_bytes(tmp_path, record)
        back = read_measurements_csv(path)
        assert back.Ts == record.Ts
        assert back.Z.tobytes() == record.Z.tobytes()
        assert pools == []
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "failure", ["build_not_implemented", "build_os_error", "submit_os_error", "broken_pool"]
    )
    def test_pool_failure_falls_back_to_serial(self, tmp_path, monkeypatch, pools, record, failure):
        # 32-row blocks and 4 kB parts: 14 write tasks and 8 read parts, so a
        # pool that fails on its seventh submission does so after three
        # results were taken
        monkeypatch.setattr(simulate_module, "_CSV_BLOCK_ROWS", 32)
        self._cpus(monkeypatch, 2)
        real = simulate_module.ProcessPoolExecutor

        class FailingPool:
            def __init__(self, max_workers):
                if failure == "build_not_implemented":
                    raise NotImplementedError("no working sem_open")
                if failure == "build_os_error":
                    raise OSError("no /dev/shm")
                self.pool = real(max_workers=max_workers)
                self.submits = 0

            def submit(self, fn, task):
                self.submits += 1
                if self.submits < 7:
                    return self.pool.submit(fn, task)
                if failure == "submit_os_error":
                    raise OSError("fork: resource temporarily unavailable")
                broken = Future()
                broken.set_exception(BrokenProcessPool("a worker died"))
                return broken

            def shutdown(self, cancel_futures):
                self.pool.shutdown(cancel_futures=cancel_futures)

        monkeypatch.setattr(simulate_module, "ProcessPoolExecutor", FailingPool)
        path = tmp_path / "meas.csv"
        write_measurements_csv(record, path)
        assert path.read_bytes() == self._savetxt_bytes(tmp_path, record)
        assert len(_cut_body(path, len("t_s,z1,z2,z3\n"))) > 7
        back = read_measurements_csv(path)
        assert back.Ts == record.Ts
        assert back.Z.tobytes() == record.Z.tobytes()
        assert multiprocessing.active_children() == []

    def test_at_most_two_tasks_per_worker_in_flight(self, monkeypatch, pools, record):
        self._cpus(monkeypatch, 2)
        submits = []
        spy = simulate_module.ProcessPoolExecutor

        def counting_pool(max_workers):
            pool = spy(max_workers)
            real_submit = pool.submit
            pool.submit = lambda fn, task: (submits.append(task[0]), real_submit(fn, task))[1]
            return pool

        monkeypatch.setattr(simulate_module, "ProcessPoolExecutor", counting_pool)
        zt = record.Z.T
        tasks = [(start, record.Ts, zt[start : start + 32]) for start in range(0, 421, 32)]
        pieces = []
        for taken, piece in enumerate(simulate_module._in_order(_format_rows, tasks)):
            assert len(submits) == min(taken + 4, len(tasks))
            pieces.append(piece)
        assert pieces == [_format_rows(task) for task in tasks]
        assert pools == [2]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "bad_row", ["1,2,3,4,5\n", "1,2,oops,4\n"], ids=["wrong_width", "not_a_number"]
    )
    def test_malformed_row_raises_serial_error(
        self, tmp_path, monkeypatch, pools, record, bad_row
    ):
        self._cpus(monkeypatch, 1)
        path = tmp_path / "bad.csv"
        write_measurements_csv(record, path)
        lines = path.read_text().splitlines(keepends=True)
        bad_line = len(lines) - 20 + 1  # in the last part, not the first
        lines.insert(bad_line - 1, bad_row)
        path.write_text("".join(lines))
        serial = self._read_error(path)
        self._assert_names_line(serial, path, bad_line)
        self._cpus(monkeypatch, 2)
        assert self._read_error(path) == serial
        assert pools == [2]
        assert multiprocessing.active_children() == []

    def test_rows_narrower_than_header_raise_serial_error(
        self, tmp_path, monkeypatch, pools, record
    ):
        # every part parses cleanly, but its width is not the header's
        self._cpus(monkeypatch, 1)
        path = tmp_path / "narrow.csv"
        write_measurements_csv(MeasurementRecord(Ts=record.Ts, Z=record.Z[:1]), path)
        path.write_text(path.read_text().replace("t_s,z1\n", "t_s,z1,z2,z3\n", 1))
        serial = self._read_error(path)
        assert "row width 2 != header width 4" in serial
        self._assert_names_line(serial, path, 2)
        self._cpus(monkeypatch, 2)
        assert self._read_error(path) == serial
        assert pools == [2]
        assert multiprocessing.active_children() == []

    def test_daemonic_process_formats_and_parses_alone(
        self, tmp_path, monkeypatch, pools, record
    ):
        # a multiprocessing.Pool worker is daemonic and may not start children
        self._cpus(monkeypatch, 2)
        path = tmp_path / "meas.csv"
        with multiprocessing.Pool(1) as outer:
            outer.apply(write_measurements_csv, (record, path))
            back = outer.apply(read_measurements_csv, (path,))
        assert back.Z.tobytes() == record.Z.tobytes()
        assert multiprocessing.active_children() == []

    def test_blank_and_comment_lines_read_as_serial(self, tmp_path, monkeypatch, pools, record):
        self._cpus(monkeypatch, 1)
        path = tmp_path / "odd.csv"
        write_measurements_csv(record, path)
        lines = path.read_text().splitlines(keepends=True)
        lines.insert(len(lines) - 30, "\n")
        lines.insert(len(lines) - 10, "# a comment line\n")
        path.write_text("".join(lines) + "\n")
        serial = read_measurements_csv(path)
        self._cpus(monkeypatch, 2)
        in_process = self._loadtxt_calls(monkeypatch)
        pooled = read_measurements_csv(path)
        assert pooled.Ts == serial.Ts == record.Ts
        assert pooled.Z.tobytes() == serial.Z.tobytes() == record.Z.tobytes()
        # the pool parsed every range once; nothing was parsed again here
        assert pools == [2]
        assert in_process == []
        assert multiprocessing.active_children() == []

    def test_one_cpu_parses_each_range_once(self, tmp_path, monkeypatch, pools, record):
        self._cpus(monkeypatch, 1)
        path = tmp_path / "meas.csv"
        write_measurements_csv(record, path)
        parts = _cut_body(path, len("t_s,z1,z2,z3\n"))
        assert len(parts) > 2
        tasks = []
        real = simulate_module._parse_part
        monkeypatch.setattr(
            simulate_module, "_parse_part", lambda task: (tasks.append(task), real(task))[1]
        )
        parsed = self._loadtxt_calls(monkeypatch)
        back = read_measurements_csv(path)
        assert back.Z.tobytes() == record.Z.tobytes()
        assert tasks == [(path, offset, size) for offset, size, _ in parts]
        assert len(parsed) == len(parts)
        assert pools == []

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("long_line", ["comment", "row"])
    def test_line_longer_than_a_range(self, tmp_path, monkeypatch, pools, record, cpus, long_line):
        self._cpus(monkeypatch, cpus)
        path = tmp_path / "long.csv"
        write_measurements_csv(record, path)
        lines = path.read_text().splitlines(keepends=True)
        if long_line == "comment":
            lines.insert(100, "# " + "x" * 10_000 + "\n")
        else:
            lines[100] = lines[100][:-1] + " " * 10_000 + "\n"
        path.write_text("".join(lines))
        parts = _cut_body(path, len(lines[0]))
        assert max(size for _, size, _ in parts) > 10_000
        assert sum(size for _, size, _ in parts) == path.stat().st_size - len(lines[0])
        assert sum(n for _, _, n in parts) == len(lines) - 1
        back = read_measurements_csv(path)
        assert back.Ts == record.Ts
        assert back.Z.tobytes() == record.Z.tobytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_crlf_file_reads_back(self, tmp_path, monkeypatch, pools, record, cpus):
        self._cpus(monkeypatch, cpus)
        path = tmp_path / "meas.csv"
        write_measurements_csv(record, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        back = read_measurements_csv(path)
        assert back.Ts == record.Ts
        assert back.Z.tobytes() == record.Z.tobytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_bare_cr_file_rejected(self, tmp_path, monkeypatch, pools, record, cpus):
        # a bare carriage return is not a line break
        self._cpus(monkeypatch, cpus)
        path = tmp_path / "mac.csv"
        write_measurements_csv(record, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
        assert str(path) in self._read_error(path)
        text = path.read_bytes().replace(b"\r", b"\n", 1)  # a valid header line
        path.write_bytes(text)
        self._assert_names_line(self._read_error(path), path, 2)

    def test_range_of_comment_lines_warns_nothing(self, tmp_path, monkeypatch, pools, record):
        self._cpus(monkeypatch, 1)
        path = tmp_path / "comments.csv"
        write_measurements_csv(record, path)
        lines = path.read_text().splitlines(keepends=True)
        lines[200:200] = ["\n", "# a comment line\n"] * 1000
        path.write_text("".join(lines))
        raw = path.read_bytes()
        parts = _cut_body(path, len(lines[0]))
        assert any(
            not raw[offset : offset + size].replace(b"# a comment line\n", b"").strip()
            for offset, size, _ in parts
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = read_measurements_csv(path)
        assert back.Z.tobytes() == record.Z.tobytes()


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
