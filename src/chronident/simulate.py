"""Trajectory simulation, measurement generation and log preprocessing.

The state recursion is evaluated per clock with cumulative sums (the
transition matrix is block diagonal with unit-triangular blocks), which is
what makes year-long records practical. The random draw order is fixed:
one (2, N) standard-normal block per clock in clock order, then one
(n_z, N+1) block for the measurement noise, so identical inputs always
produce bit-identical records. Each block of draws is mixed by its
covariance factor in place, _MIX_BLOCK columns per matrix product. The
blocked products equal the one-shot product bit for bit (the tests
compare them), and OpenBLAS runs a product that small on the calling
thread, so Monte-Carlo pool workers do not start BLAS threads of their
own on top of one another.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ChannelUnusableError, InvalidCovarianceError
from .model import EnsembleModel

__all__ = [
    "MeasurementRecord",
    "StateTrajectory",
    "OutlierReport",
    "simulate_ensemble",
    "decimate",
    "remove_outliers",
    "write_measurements_csv",
    "read_measurements_csv",
    "derive_run_seed",
]

# rows formatted per string operation when writing a measurement CSV
_CSV_BLOCK_ROWS = 8192

# columns of draws mixed per matrix product: well below the size at which
# OpenBLAS splits a product over threads
_MIX_BLOCK = 16_384


@dataclass(frozen=True)
class MeasurementRecord:
    """Differential phase measurements, one row per channel.

    Z has shape (n_z, N+1); column k is the measurement at time k*Ts.
    """

    Ts: float
    Z: np.ndarray
    origin: str = "unknown"

    def __post_init__(self):
        Z = np.asarray(self.Z, dtype=float)
        if Z.ndim != 2 or Z.shape[0] < 1:
            raise ValueError(f"Z must be 2-D (channels x samples), got shape {Z.shape}")
        if Z.shape[1] < 2:
            raise ValueError("a record needs at least 2 samples (N >= 1)")
        if self.Ts <= 0.0 or not np.isfinite(self.Ts):
            raise ValueError(f"Ts must be finite and > 0, got {self.Ts}")
        if not np.isfinite(Z).all():
            raise ValueError("measurements contain non-finite values")
        object.__setattr__(self, "Z", Z)

    @property
    def n_z(self) -> int:
        return self.Z.shape[0]

    @property
    def n_steps(self) -> int:
        """N, the number of transitions (samples minus one)."""
        return self.Z.shape[1] - 1


@dataclass(frozen=True)
class StateTrajectory:
    """True ensemble states of a synthetic run, shape (2n, N+1)."""

    X: np.ndarray


@dataclass(frozen=True)
class OutlierReport:
    """Flagged sample indices per channel and the threshold used."""

    flagged: tuple[np.ndarray, ...]
    threshold: float

    @property
    def total(self) -> int:
        return int(sum(len(f) for f in self.flagged))


def _psd_factor(M: np.ndarray, tol_rel: float = 1e-12) -> np.ndarray:
    """Symmetric factor S with S @ S.T = M for a (semi)definite matrix.

    Cholesky is used when M is positive definite; otherwise eigenvalues
    within -tol_rel*trace(M) of zero are clamped to zero and a symmetric
    eigenfactor is returned. Raises InvalidCovarianceError for eigenvalues
    below the tolerance.
    """
    M = 0.5 * (M + M.T)
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        pass
    eigvals, eigvecs = np.linalg.eigh(M)
    tol = tol_rel * max(float(np.trace(M)), 0.0) + np.finfo(float).tiny
    if eigvals.min() < -tol:
        raise InvalidCovarianceError(
            f"covariance has eigenvalue {eigvals.min():.3e} below tolerance -{tol:.3e}"
        )
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def _mixed_blocks(factor: np.ndarray, draws: np.ndarray):
    """Yield (start, block, factor @ block) over _MIX_BLOCK-column blocks of draws.

    The product lives in one buffer reused for every block, so the caller
    writes what it needs into the block before asking for the next one.
    """
    product = np.empty((factor.shape[0], min(_MIX_BLOCK, draws.shape[1])))
    for start in range(0, draws.shape[1], _MIX_BLOCK):
        block = draws[:, start : start + _MIX_BLOCK]
        yield start, block, np.matmul(factor, block, out=product[:, : block.shape[1]])


def _integrate_clocks(
    model: EnsembleModel,
    rng: np.random.Generator,
    x0: np.ndarray,
    phases: np.ndarray,
    freqs: np.ndarray | None,
) -> None:
    """Fill phases (and freqs, if given) with each clock's state trajectory.

    Clock i draws one (2, N) standard-normal block and turns it in place,
    block by block, into w = Q_i^(1/2) draws + mu_i. Frequency is the
    cumulative sum of w[1]; w[1] is then overwritten by the phase step
    x2 * Ts + w[0], whose cumulative sum is the phase. The draw and
    frequency buffers are released on return, before the measurement
    noise is drawn.
    """
    n_steps = phases.shape[1] - 1
    ts = model.Ts
    w = np.empty((2, n_steps))
    x2 = np.empty(n_steps + 1)
    for i in range(model.n):
        q_factor = _psd_factor(model.Q[2 * i : 2 * i + 2, 2 * i : 2 * i + 2])
        mu = model.mu[2 * i : 2 * i + 2, None]
        rng.standard_normal(out=w)
        for _, block, mixed in _mixed_blocks(q_factor, w):
            np.add(mixed, mu, out=block)
        x2[0] = x0[2 * i + 1]
        np.cumsum(w[1], out=x2[1:])
        x2[1:] += x0[2 * i + 1]
        phases[i, 0] = x0[2 * i]
        step = w[1]
        np.multiply(x2[:-1], ts, out=step)
        step += w[0]
        np.cumsum(step, out=phases[i, 1:])
        phases[i, 1:] += x0[2 * i]
        if freqs is not None:
            freqs[i] = x2


def simulate_ensemble(
    model: EnsembleModel,
    n_steps: int,
    seed: int,
    x0: np.ndarray | None = None,
    keep_states: bool = True,
) -> tuple[StateTrajectory | None, MeasurementRecord]:
    """Simulate states x_{k+1} = F x_k + w_k and measurements z_k = H x_k + v_k.

    w_k is Gaussian with mean model.mu and covariance model.Q (block
    diagonal), v_k is zero-mean Gaussian with covariance model.R. Each
    clock's draws are mixed into w_k in their own buffer, which is reused
    for every clock; the measurement noise is drawn straight into Z's
    buffer, mixed there by R's factor and has the phase differences added,
    block by block. No full-length noise array is kept beside Z. With
    ``keep_states=False`` no frequency states are kept and no state
    trajectory is assembled; the measurement stream is bit-identical
    either way.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    n = model.n
    n_z = model.n_z
    if x0 is None:
        x0 = np.zeros(2 * n)
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.size != 2 * n:
        raise ValueError(f"x0 has length {x0.size}, expected {2 * n}")

    ts = model.Ts
    rng = np.random.default_rng(seed)
    r_factor = _psd_factor(model.R)

    phases = np.empty((n, n_steps + 1))
    freqs = np.empty((n, n_steps + 1)) if keep_states else None
    _integrate_clocks(model, rng, x0, phases, freqs)

    Z = rng.standard_normal((n_z, n_steps + 1))
    for start, block, mixed in _mixed_blocks(r_factor, Z):
        stop = start + block.shape[1]
        np.subtract(phases[1:, start:stop], phases[0, start:stop], out=block)
        block += mixed

    traj = None
    if keep_states:
        X = np.empty((2 * n, n_steps + 1))
        X[0::2] = phases
        X[1::2] = freqs
        traj = StateTrajectory(X=X)
    record = MeasurementRecord(Ts=ts, Z=Z, origin=f"synthetic(seed={seed})")
    return traj, record


def decimate(record: MeasurementRecord, factor: int) -> MeasurementRecord:
    """Keep every factor-th sample starting at index 0; Ts scales by factor.

    Phase samples are point samples, so no averaging is applied.
    """
    if int(factor) != factor or factor < 1:
        raise ValueError(f"decimation factor must be a positive integer, got {factor}")
    factor = int(factor)
    if record.Z.shape[1] < factor:
        raise ValueError(
            f"record with {record.Z.shape[1]} samples cannot be decimated by {factor}"
        )
    return MeasurementRecord(
        Ts=record.Ts * factor, Z=record.Z[:, ::factor].copy(), origin=record.origin
    )


def remove_outliers(
    record: MeasurementRecord, k: float = 5.0
) -> tuple[MeasurementRecord, OutlierReport]:
    """Flag and interpolate spikes using second differences of each channel.

    Second differences remove drift and random-walk trends, so under the
    model they are stationary; a sample is flagged when the centred second
    difference deviates from the channel median by more than k MADs.
    Flagged samples are replaced by linear interpolation between the
    nearest unflagged neighbours.
    """
    if k <= 0.0:
        raise ValueError(f"threshold k must be > 0, got {k}")
    n_samples = record.Z.shape[1]
    cleaned = record.Z.copy()
    flagged_per_channel = []
    for c in range(record.n_z):
        z = record.Z[c]
        if n_samples < 3:
            flagged_per_channel.append(np.empty(0, dtype=int))
            continue
        second = z[2:] - 2.0 * z[1:-1] + z[:-2]
        med = np.median(second)
        mad = np.median(np.abs(second - med))
        # violating second difference at index p implicates its centre sample p+1
        flags = np.flatnonzero(np.abs(second - med) > k * mad) + 1
        if len(flags) > 0.5 * n_samples:
            raise ChannelUnusableError(
                f"channel {c + 1}: {len(flags)} of {n_samples} samples flagged"
            )
        if len(flags):
            good = np.ones(n_samples, dtype=bool)
            good[flags] = False
            cleaned[c, flags] = np.interp(
                flags, np.flatnonzero(good), z[good]
            )
        flagged_per_channel.append(flags)
    out = MeasurementRecord(Ts=record.Ts, Z=cleaned, origin=record.origin)
    return out, OutlierReport(flagged=tuple(flagged_per_channel), threshold=k)


def write_measurements_csv(record: MeasurementRecord, path: str | Path) -> None:
    """Write the record as CSV with header t_s,z1,...,z{n_z}.

    Values are printed with 17 significant digits so a write/read cycle
    reproduces the doubles exactly.
    """
    n_z = record.n_z
    n_samples = record.Z.shape[1]
    row_fmt = ",".join(["%.17g"] * (n_z + 1)) + "\n"
    block = np.empty((min(_CSV_BLOCK_ROWS, n_samples), n_z + 1))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t_s," + ",".join(f"z{i + 1}" for i in range(n_z)) + "\n")
        for start in range(0, n_samples, _CSV_BLOCK_ROWS):
            rows = min(_CSV_BLOCK_ROWS, n_samples - start)
            np.multiply(np.arange(start, start + rows), record.Ts, out=block[:rows, 0])
            block[:rows, 1:] = record.Z[:, start : start + rows].T
            fh.write(row_fmt * rows % tuple(block[:rows].ravel().tolist()))


def read_measurements_csv(path: str | Path) -> MeasurementRecord:
    """Read a measurement CSV written by write_measurements_csv.

    The time column must be strictly increasing and uniformly spaced
    (missing rows are not allowed); Ts is inferred from the spacing.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        columns = [c.strip() for c in header.split(",")]
        if not columns or columns[0] != "t_s":
            raise ValueError(f"{path}: first column must be 't_s', got header '{header}'")
        for idx, name in enumerate(columns[1:], start=1):
            if name != f"z{idx}":
                raise ValueError(f"{path}: expected column 'z{idx}', got '{name}'")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[0] < 2:
        raise ValueError(f"{path}: need at least 2 rows, got {data.shape[0]}")
    if data.shape[1] != len(columns):
        raise ValueError(f"{path}: row width {data.shape[1]} != header width {len(columns)}")
    t = data[:, 0]
    ts = t[1] - t[0]
    if ts <= 0.0:
        raise ValueError(f"{path}: time column is not strictly increasing")
    expected = t[0] + np.arange(t.size) * ts
    if np.max(np.abs(t - expected)) > 1e-6 * ts:
        raise ValueError(f"{path}: time column is not uniformly spaced by {ts}")
    return MeasurementRecord(Ts=ts, Z=data[:, 1:].T.copy(), origin=f"ingested({path})")


def derive_run_seed(master_seed: int, run_index: int) -> int:
    """Per-run substream seed for Monte-Carlo studies (stable hash)."""
    ss = np.random.SeedSequence([int(master_seed), int(run_index)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])
