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
    derive_run_seed,
    read_measurements_csv,
    remove_outliers,
    simulate_ensemble,
    write_measurements_csv,
)
from chronident import simulate as simulate_module
from chronident.errors import ChannelUnusableError, InvalidCovarianceError
from chronident.model import EnsembleModel, ensemble_structure
from chronident.simulate import (
    _BLOCK,
    _CSV_BLOCK_ROWS,
    _CSV_PART_BYTES,
    _GATHER,
    _cut_body,
    _format_rows,
    _median,
    _psd_factor,
)
from conftest import random_params


def _reference_simulation(model, n_steps, seed):
    """One-shot form of the simulator's superposition (the reference): whole
    rows of the same draws in the same order, with the same zero skips."""
    ts = model.Ts
    rng = np.random.default_rng(seed)
    X = np.zeros((2 * model.n, n_steps + 1))
    Z = np.zeros((model.n_z, n_steps + 1))
    for i in range(model.n):
        q_factor = _psd_factor(model.Q[2 * i : 2 * i + 2, 2 * i : 2 * i + 2])
        for r, g in enumerate(rng.standard_normal((2, n_steps))):
            f0, f1 = q_factor[:, r]
            m0, m1 = model.mu[2 * i : 2 * i + 2] if r else (0.0, 0.0)
            if not (f0 or f1 or m0 or m1):
                continue
            freq = np.cumsum(f1 * g + m1 if m1 else f1 * g)
            X[2 * i + 1, 1:] += freq
            before = ts * np.concatenate(([0.0], freq[:-1]))
            steps = ((f0 * g + m0 if m0 else f0 * g) if f0 else m0) + before
            if i == 0:
                Z[:, 1:] -= steps
            else:
                Z[i - 1, 1:] += steps
            X[2 * i, 1:] += steps
        if i:
            Z[i - 1] = np.cumsum(Z[i - 1])
        X[2 * i] = np.cumsum(X[2 * i])
    r_factor = _psd_factor(model.R)
    for j, v in enumerate(rng.standard_normal((model.n_z, n_steps + 1))):
        for c in np.flatnonzero(r_factor[:, j]):
            Z[c] += r_factor[c, j] * v
    return X, Z


def _mixing_reference(model, n_steps, seed):
    """The same draws mixed by each clock's and the noise's covariance factor
    in one product, the formulation of the previous release."""
    n = model.n
    rng = np.random.default_rng(seed)
    r_factor = _psd_factor(model.R)
    X = np.empty((2 * n, n_steps + 1))
    for i in range(n):
        q_factor = _psd_factor(model.Q[2 * i : 2 * i + 2, 2 * i : 2 * i + 2])
        w = model.mu[2 * i : 2 * i + 2, None] + q_factor @ rng.standard_normal((2, n_steps))
        x2 = np.zeros(n_steps + 1)
        np.cumsum(w[1], out=x2[1:])
        X[2 * i, 0] = 0.0
        np.cumsum(model.Ts * x2[:-1] + w[0], out=X[2 * i, 1:])
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
        # blocked draws, carried sums and reused buffers must not change a
        # single draw or rounding of the one-shot superposition, which in
        # turn equals the mixing formulation to rounding
        assert np.any(model.mu != 0.0)
        X_ref, Z_ref = _reference_simulation(model, n_steps, 21)
        X, rec = simulate_ensemble(model, n_steps, seed=21)
        no_X, rec_lean = simulate_ensemble(model, n_steps, seed=21, keep_states=False)
        assert no_X is None
        assert np.array_equal(X, X_ref)
        assert np.array_equal(rec.Z, Z_ref)
        assert np.array_equal(rec_lean.Z, Z_ref)
        _, Z_mixed = _mixing_reference(model, n_steps, 21)
        for Z in (rec.Z, rec_lean.Z):
            assert np.abs(Z - Z_mixed).max() <= 1e-12 * np.abs(Z_mixed).max()

    def test_bit_identical_to_reference_formulation(self, maser_model):
        self._assert_matches_reference(maser_model, 3000)

    def test_bit_identical_across_mix_blocks(self, maser_model, maser_params):
        # three blocks, the last one partial, at n = 4, 3 and 6
        three = EnsembleParams(clocks=maser_params.clocks[:3], R=maser_params.R[:2, :2])
        six = random_params(np.random.default_rng(6), 6, balanced=False)
        for model in (maser_model, assemble_ensemble(three, 5.0), assemble_ensemble(six, 5.0)):
            self._assert_matches_reference(model, 2 * _BLOCK + 123)

    @pytest.mark.parametrize("n_steps", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
    def test_bit_identical_at_block_edges(self, maser_model, n_steps):
        # the clocks' N-column and the noise's (N+1)-column streams end one
        # short of, at and one past a block edge (a last block of width 1)
        self._assert_matches_reference(maser_model, n_steps)

    def test_bit_identical_with_one_channel(self, maser_params):
        # n = 2: one channel, the pivot's steps and clock 1's on one row
        params = EnsembleParams(clocks=maser_params.clocks[:2], R=maser_params.R[:1, :1])
        self._assert_matches_reference(assemble_ensemble(params, 5.0), _BLOCK + 7)

    def test_bit_identical_with_singular_r(self, maser_params):
        # a singular PSD R is applied by its eigenfactor, not a Cholesky factor
        channel = np.array([3.0, 2.9, 3.1]) * 1e-17
        R = np.outer(channel, channel)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(R)
        params = EnsembleParams(clocks=maser_params.clocks, R=R)
        self._assert_matches_reference(assemble_ensemble(params, 5.0), _BLOCK + 7)

    @pytest.mark.parametrize("keep_states", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_draw_layout(self, n, keep_states):
        # with no clock noise or drift and R = I, Z is the measurement block
        # itself: the one drawn after one (2n, N) block of clock draws
        model = assemble_ensemble(
            EnsembleParams(clocks=(ClockParams(q1=0.0, q2=0.0, d=0.0),) * n, R=np.eye(n - 1)),
            5.0,
        )
        for n_steps in (5, _BLOCK + 3):
            rng = np.random.default_rng(14)
            rng.standard_normal((2 * n, n_steps))
            expected = rng.standard_normal((n - 1, n_steps + 1))
            _, record = simulate_ensemble(model, n_steps, seed=14, keep_states=keep_states)
            assert np.array_equal(record.Z, expected)

    def test_many_small_blocks(self, maser_model, monkeypatch):
        # carried sums over blocks of 7 columns, a last partial one included,
        # equal the default single block bit for bit
        _, lean = simulate_ensemble(maser_model, 3000, seed=15, keep_states=False)
        X, states = simulate_ensemble(maser_model, 3000, seed=15)
        monkeypatch.setattr(simulate_module, "_BLOCK", 7)
        _, small_lean = simulate_ensemble(maser_model, 3000, seed=15, keep_states=False)
        small_X, small_states = simulate_ensemble(maser_model, 3000, seed=15)
        assert np.array_equal(small_lean.Z, lean.Z)
        assert np.array_equal(small_states.Z, states.Z)
        assert np.array_equal(small_X, X)

    def test_peak_memory_of_lean_run(self, maser_model):
        # each row of draws is added to Z a block at a time as it is drawn:
        # Z and two block-sized buffers, no full-length row beside Z
        tracemalloc.start()
        try:
            _, record = simulate_ensemble(maser_model, 200_000, seed=25, keep_states=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.15 * record.Z.nbytes

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
        F, _ = ensemble_structure(maser_model.n, maser_model.Ts)
        w = X[:, 1:] - F @ X[:, :-1]
        mean = w.mean(axis=1)
        se = np.sqrt(np.diag(maser_model.Q) / n_steps)
        assert np.all(np.abs(mean - maser_model.mu) <= 5.0 * se + 1e-300)
        cov = np.cov(w, ddof=1)
        err = np.linalg.norm(cov - maser_model.Q) / np.linalg.norm(maser_model.Q)
        assert err < 0.05

    def test_invalid_arguments(self, maser_model):
        with pytest.raises(ValueError):
            simulate_ensemble(maser_model, 0, seed=0)

    def test_indefinite_r_rejected(self):
        model = _noise_free_model(3, 1.0)
        bad = EnsembleModel(
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


def _reference_remove_outliers(Z, k):
    """Per-channel formulation with fresh temporaries (the reference): the
    flags per channel and the mask with the flagged samples False."""
    valid = np.ones(Z.shape, dtype=bool)
    flagged = []
    for z, ok in zip(Z, valid):
        second = z[2:] - 2.0 * z[1:-1] + z[:-2]
        med = np.median(second)
        mad = np.median(np.abs(second - med))
        flags = np.flatnonzero(np.abs(second - med) > k * mad) + 1
        ok[flags] = False
        flagged.append(flags)
    return valid, flagged


def _blocks(x):
    """blocks() for _median: x, _BLOCK values at a time in one reused buffer."""
    buf = np.empty(_BLOCK)

    def blocks():
        for start in range(0, x.size, _BLOCK):
            out = buf[: min(_BLOCK, x.size - start)]
            out[:] = x[start : start + out.size]
            yield out

    return blocks


def _second_diff(z):
    return z[2:] - 2.0 * z[1:-1] + z[:-2]


def _selection_case(name, maser_model):
    rng = np.random.default_rng(41)
    # several blocks with a ragged last one, and more values than _GATHER
    n = _GATHER + 2 * _BLOCK + 7
    if name.startswith("length_"):
        return rng.normal(size=int(name[7:]))
    if name == "ragged_blocks":
        return rng.normal(size=n)
    if name == "ragged_blocks_even":
        return rng.normal(size=n + 1)
    if name == "integer_ties":
        return rng.integers(-3, 4, size=n).astype(float)
    if name == "two_values_split_evenly":
        # the two middle ranks are the last 0 and the first 1
        return rng.permutation(np.repeat([0.0, 1.0], n // 2 + 1))
    if name == "constant":
        return np.full(n, 2.5)
    if name == "quantised_phase":
        _, record = simulate_ensemble(maser_model, n + 1, seed=42, keep_states=False)
        z = record.Z[0]
        q = 6.0 * np.std(_second_diff(z))
        return _second_diff(np.round(z / q) * q)
    if name == "spikes":
        x = rng.normal(0.0, 1e-13, n)
        x[rng.choice(n, n // 50, replace=False)] = 1e-6
        return x
    if name == "negative_only":
        return -rng.exponential(size=n)
    if name == "wide_range":
        # keys on both sides of the sign bit, over the whole exponent range
        return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
    if name == "subnormal":
        x = rng.normal(0.0, 1e-310, n)
        x[rng.choice(n, n // 3, replace=False)] = 0.0
        return x
    # every stride-th value moved far to one side
    stride = n // _BLOCK
    x = rng.normal(size=n)
    x[::stride] += 100.0 if name == "biased_sample_high" else -100.0
    return x


SELECTION_CASES = [
    "length_1",
    "length_2",
    "length_3",
    "length_4",
    "length_5",
    "ragged_blocks",
    "ragged_blocks_even",
    "integer_ties",
    "two_values_split_evenly",
    "constant",
    "quantised_phase",
    "spikes",
    "biased_sample_high",
    "biased_sample_low",
    "negative_only",
    "wide_range",
    "subnormal",
]


class TestMedianSelection:
    @pytest.mark.parametrize("name", SELECTION_CASES)
    def test_median_and_mad_equal_numpy(self, maser_model, name):
        x = _selection_case(name, maser_model)
        med = _median(_blocks(x), x.size)
        assert med.tobytes() == np.median(x).tobytes()
        deviations = np.abs(x - med)
        mad = _median(_blocks(deviations), x.size)
        assert mad.tobytes() == np.median(deviations).tobytes()

    @pytest.mark.parametrize("name", SELECTION_CASES)
    def test_median_and_mad_equal_numpy_in_small_gathers(self, maser_model, monkeypatch, name):
        # with at most 8 candidates gathered, every 16-bit digit pass runs,
        # and ties reach the end with all 64 bits of the key fixed
        monkeypatch.setattr(simulate_module, "_GATHER", 8)
        self.test_median_and_mad_equal_numpy(maser_model, name)

    def test_quantised_phase_is_mostly_ties(self, maser_model):
        # the case is the hard one: most of the values are one tie
        x = _selection_case("quantised_phase", maser_model)
        assert np.unique(x, return_counts=True)[1].max() > x.size / 2


class TestRemoveOutliers:
    @pytest.mark.parametrize(
        "n_samples", [4000, 4001, 5 * _BLOCK + 1, 5 * _BLOCK + 2, 5 * _BLOCK + 3]
    )
    def test_matches_reference_formulation(self, maser_model, n_samples):
        # the blocked selection must not move a single flag, and the flagged
        # samples are masked in a record that shares the caller's Z; both
        # parities of the second-difference length (median of an even count
        # averages two values), gathered whole and selected from samples,
        # and second-difference lengths just below, at and just above a
        # multiple of _BLOCK
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
        masked, report = remove_outliers(spiked, k=5.0)
        ref_valid, ref_flagged = _reference_remove_outliers(Z, 5.0)
        assert all(len(f) >= 12 for f in ref_flagged)
        for flags, ref in zip(report.flagged, ref_flagged):
            assert np.array_equal(flags, ref)
        assert np.array_equal(masked.valid, ref_valid)
        assert masked.Z is spiked.Z
        assert spiked.valid is None

    def test_existing_mask_is_kept_and_not_modified(self):
        rng = np.random.default_rng(34)
        z = rng.normal(0.0, 1e-17, (2, 3001))
        z[1, 2000] += 1e-6
        gaps = np.ones(z.shape, dtype=bool)
        gaps[0, 100:150] = False
        record = MeasurementRecord(Ts=5.0, Z=z, valid=gaps)
        masked, report = remove_outliers(record, k=5.0)
        assert 2000 in report.flagged[1]
        expected = gaps.copy()
        for c, flags in enumerate(report.flagged):
            expected[c, flags] = False
        assert np.array_equal(masked.valid, expected)
        assert np.count_nonzero(~record.valid) == 50

    def test_peak_memory(self, maser_model):
        # the boolean mask (Z/8) and block-sized scratch: one full-length
        # second-difference row (Z/3 for three channels, 4.8 MB) could not
        # stay under the bound; a first short call keeps one-time lazy
        # imports out of the traced peak
        _, record = simulate_ensemble(maser_model, 600_000, seed=33, keep_states=False)
        remove_outliers(MeasurementRecord(Ts=record.Ts, Z=record.Z[:, :100]))
        tracemalloc.start()
        try:
            masked, _ = remove_outliers(record)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(masked.Z, record.Z)
        assert peak < masked.valid.nbytes + 16 * 8 * _BLOCK

    def test_clean_record_low_false_positive_rate(self):
        rng = np.random.default_rng(21)
        z = rng.normal(0.0, 1e-17, (20, 10_001))
        record = MeasurementRecord(Ts=5.0, Z=z)
        _, report = remove_outliers(record, k=5.0)
        total_samples = z.size
        assert report.total / total_samples < 1e-3

    def test_injected_spike_detected_and_masked(self):
        rng = np.random.default_rng(22)
        z = rng.normal(0.0, 1e-17, (1, 2001))
        z[0, 100] += 1e-6
        record = MeasurementRecord(Ts=5.0, Z=z)
        masked, report = remove_outliers(record, k=5.0)
        assert 100 in report.flagged[0]
        assert not masked.valid[0, 100]
        assert np.count_nonzero(~masked.valid) == report.total
        assert np.shares_memory(masked.Z, z)

    def test_minimal_record_processed(self):
        record = MeasurementRecord(Ts=1.0, Z=np.array([[0.0, 5.0, 1.0]]))
        masked, report = remove_outliers(record, k=5.0)
        assert report.total == 0
        assert np.array_equal(masked.Z, record.Z)
        assert masked.valid.all()

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

    @pytest.mark.xfail(
        raises=ValueError,
        strict=True,
        reason="ROADMAP item 5 (Readers): Ts taken from the first difference of "
        "epoch-scale times is off by its rounding, which builds up over the rows",
    )
    def test_epoch_time_column_read(self, tmp_path):
        # t_s = 1.7e9 + 0.1 k: each time is exact to %.17g, but the first
        # difference is 0.09999990463256836
        path = tmp_path / "epoch.csv"
        t = 1.7e9 + 0.1 * np.arange(2000)
        Z = np.random.default_rng(5).standard_normal((3, t.size))
        np.savetxt(
            path, np.column_stack([t, Z.T]), fmt="%.17g", delimiter=",",
            header="t_s,z1,z2,z3", comments="",
        )
        back = read_measurements_csv(path)
        assert back.Ts == pytest.approx(0.1)
        assert back.Z.tobytes() == Z.tobytes()

    def test_too_short_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,z1\n0,1\n")
        with pytest.raises(ValueError):
            read_measurements_csv(path)

    def test_peak_memory_of_one_cpu_read(self, tmp_path, monkeypatch, maser_model):
        # ranges are parsed one at a time into Z and their times checked as
        # they come, and a skipped blank or comment line is closed up inside
        # Z: a full-length time column (1.6 MB) could not stay under the
        # bound; a first small read keeps one-time lazy imports out of the
        # traced peak
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        _, record = simulate_ensemble(maser_model, 200_000, seed=27, keep_states=False)
        path = tmp_path / "meas.csv"
        write_measurements_csv(record, path)
        small = tmp_path / "small.csv"
        write_measurements_csv(MeasurementRecord(Ts=record.Ts, Z=record.Z[:, ::1000]), small)
        read_measurements_csv(small)
        head, body = path.read_bytes().split(b"\n", 1)
        for text in (body, body + b"\n", b"# a comment line\n" + body):
            path.write_bytes(head + b"\n" + text)
            tracemalloc.start()
            try:
                back = read_measurements_csv(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert back.Z.tobytes() == record.Z.tobytes()
            assert peak < record.Z.nbytes + 3 * _CSV_PART_BYTES, text[:20]


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
        for taken, piece in enumerate(simulate_module._in_order(_format_rows, tasks, 2)):
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

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("bad_time", ["step", "nan"])
    def test_time_violation_in_later_part(self, tmp_path, monkeypatch, pools, record, cpus, bad_time):
        # the times are checked part by part; a violation far from the first
        # part fails with the message of a whole-column check
        self._cpus(monkeypatch, cpus)
        path = tmp_path / "bad.csv"
        write_measurements_csv(record, path)
        lines = path.read_text().splitlines(keepends=True)
        row = lines[-20].split(",", 1)
        lines[-20] = ("nan" if bad_time == "nan" else repr(float(row[0]) + 1.0)) + "," + row[1]
        path.write_text("".join(lines))
        parts = _cut_body(path, len(lines[0]))
        assert sum(n for _, _, n in parts[:-1]) < len(lines) - 20  # in the last part
        message = self._read_error(path)
        assert message == f"{path}: time column is not uniformly spaced by {record.Ts}"

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_first_part_of_one_row(self, tmp_path, monkeypatch, pools, record, cpus):
        # parts of about one line: t0 comes from the first part and Ts from
        # the next row, past a comment and a blank line in parts of their own
        self._cpus(monkeypatch, cpus)
        path = tmp_path / "meas.csv"
        write_measurements_csv(record, path)
        lines = path.read_text().splitlines(keepends=True)
        monkeypatch.setattr(simulate_module, "_CSV_PART_BYTES", len(lines[1]) + 1)
        lines[2:2] = ["# a comment line\n", "\n"]
        path.write_text("".join(lines))
        # the first row alone, the comment and blank line, the second row
        parts = _cut_body(path, len(lines[0]))
        assert [n for _, _, n in parts[:3]] == [1, 2, 1]
        back = read_measurements_csv(path)
        assert back.Ts == record.Ts
        assert back.Z.tobytes() == record.Z.tobytes()
        # a third row off the step set by the first two still fails
        lines[5] = "16," + lines[5].split(",", 1)[1]
        path.write_text("".join(lines))
        message = self._read_error(path)
        assert message == f"{path}: time column is not uniformly spaced by {record.Ts}"

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_bad_row_in_later_part_wins_over_bad_time(self, tmp_path, monkeypatch, pools, record, cpus):
        # the time violation in the first part is raised only after every
        # part parsed, so the later malformed row is the error
        self._cpus(monkeypatch, cpus)
        path = tmp_path / "bad.csv"
        write_measurements_csv(record, path)
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = "1e9," + lines[3].split(",", 1)[1]
        bad_line = len(lines) - 20 + 1
        lines.insert(bad_line - 1, "1,2,oops,4\n")
        path.write_text("".join(lines))
        message = self._read_error(path)
        self._assert_names_line(message, path, bad_line)
        assert "uniform" not in message

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
        for channel, value in ((0, np.inf), (1, -np.inf)):
            Z = np.zeros((2, 4))
            Z[channel, 2] = value
            with pytest.raises(ValueError, match="non-finite"):
                MeasurementRecord(Ts=1.0, Z=Z)

    def test_finite_check_builds_no_mask(self):
        # a bool mask of Z alone would be Z.nbytes / 8
        Z = np.random.default_rng(3).standard_normal((3, 200_001))
        tracemalloc.start()
        try:
            MeasurementRecord(Ts=5.0, Z=Z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < Z.nbytes / 16

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            MeasurementRecord(Ts=0.0, Z=np.zeros((1, 3)))

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError):
            MeasurementRecord(Ts=1.0, Z=np.zeros((1, 1)))

    def test_zero_channels_rejected(self):
        with pytest.raises(ValueError):
            MeasurementRecord(Ts=1.0, Z=np.zeros((0, 5)))

    def test_mask_must_be_boolean_of_z_shape(self):
        Z = np.zeros((2, 5))
        for bad in (np.ones((2, 4), dtype=bool), np.ones((2, 5)), np.ones((1, 5), dtype=bool)):
            with pytest.raises(ValueError, match="valid"):
                MeasurementRecord(Ts=1.0, Z=Z, valid=bad)
        valid = np.ones((2, 5), dtype=bool)
        valid[1, :2] = False
        record = MeasurementRecord(Ts=1.0, Z=Z, valid=valid)
        assert record.valid is valid
        np.testing.assert_array_equal(record.valid_fraction, [1.0, 0.6])
        assert MeasurementRecord(Ts=1.0, Z=Z).valid_fraction is None


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        seeds = [derive_run_seed(123, i) for i in range(100)]
        assert seeds == [derive_run_seed(123, i) for i in range(100)]
        assert len(set(seeds)) == 100
        assert derive_run_seed(124, 0) != derive_run_seed(123, 0)
