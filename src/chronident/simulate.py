"""Trajectory simulation, measurement generation and log preprocessing.

The state recursion starts at x_0 = 0 and is evaluated per clock with
cumulative sums (the transition matrix is block diagonal with
unit-triangular blocks), which is what makes year-long records
practical. The random draw order is fixed: one (2, N) standard-normal
block per clock in clock order, then one (n_z, N+1) block for the
measurement noise, so identical inputs always produce bit-identical
records. Each block of draws is mixed by its covariance factor in place,
_MIX_BLOCK columns per matrix product. The blocked products equal the
one-shot product bit for bit (the tests compare them), and OpenBLAS runs
a product that small on the calling thread, so Monte-Carlo pool workers
do not start BLAS threads of their own on top of one another.

Measurement CSVs are formatted in row blocks and parsed in byte ranges
cut at newlines, on a process pool with one worker per available CPU, or
in this process on one CPU and where no pool can run; the file bytes and
the parsed doubles are the same either way.
"""

from __future__ import annotations

import io
import multiprocessing
import os
import warnings
from collections import deque
from collections.abc import Callable, Iterator
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ChannelUnusableError, InvalidCovarianceError
from .model import EnsembleModel

__all__ = [
    "MeasurementRecord",
    "OutlierReport",
    "simulate_ensemble",
    "remove_outliers",
    "write_measurements_csv",
    "read_measurements_csv",
    "derive_run_seed",
]

# rows formatted per string operation (one pool task) when writing a measurement CSV
_CSV_BLOCK_ROWS = 8192
# bytes of CSV body parsed per task when reading (cut at a newline)
_CSV_PART_BYTES = 1 << 20

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
class OutlierReport:
    """Flagged sample indices, one array per channel."""

    flagged: tuple[np.ndarray, ...]

    @property
    def total(self) -> int:
        return int(sum(len(f) for f in self.flagged))


def _psd_factor(M: np.ndarray) -> np.ndarray:
    """Symmetric factor S with S @ S.T = M for a (semi)definite matrix.

    Cholesky is used when M is positive definite; otherwise eigenvalues
    within -1e-12*trace(M) of zero are clamped to zero and a symmetric
    eigenfactor is returned. Raises InvalidCovarianceError for eigenvalues
    below the tolerance.
    """
    M = 0.5 * (M + M.T)
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        pass
    eigvals, eigvecs = np.linalg.eigh(M)
    tol = 1e-12 * max(float(np.trace(M)), 0.0) + np.finfo(float).tiny
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
    phases: np.ndarray,
    freqs: np.ndarray | None,
) -> None:
    """Fill phases (and freqs, if given) with each clock's trajectory from zero.

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
        x2[0] = 0.0
        np.cumsum(w[1], out=x2[1:])
        phases[i, 0] = 0.0
        step = w[1]
        np.multiply(x2[:-1], ts, out=step)
        step += w[0]
        np.cumsum(step, out=phases[i, 1:])
        if freqs is not None:
            freqs[i] = x2


def simulate_ensemble(
    model: EnsembleModel,
    n_steps: int,
    seed: int,
    keep_states: bool = True,
) -> tuple[np.ndarray | None, MeasurementRecord]:
    """Simulate x_{k+1} = F x_k + w_k from x_0 = 0 and z_k = H x_k + v_k.

    w_k is Gaussian with mean model.mu and covariance model.Q (block
    diagonal), v_k is zero-mean Gaussian with covariance model.R. Each
    clock's draws are mixed into w_k in their own buffer, which is reused
    for every clock; the measurement noise is drawn straight into Z's
    buffer, mixed there by R's factor and has the phase differences added,
    block by block. No full-length noise array is kept beside Z. Returns
    (X, record): X is the (2n, N+1) state array with ``keep_states=True``
    (its rows written straight in as the clocks are integrated) and None
    otherwise (only the phases are kept); Z is bit-identical either way.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    n = model.n
    n_z = model.n_z
    ts = model.Ts
    rng = np.random.default_rng(seed)
    r_factor = _psd_factor(model.R)

    if keep_states:
        X = np.empty((2 * n, n_steps + 1))
        phases, freqs = X[0::2], X[1::2]
    else:
        phases, freqs = np.empty((n, n_steps + 1)), None
    _integrate_clocks(model, rng, phases, freqs)

    Z = rng.standard_normal((n_z, n_steps + 1))
    for start, block, mixed in _mixed_blocks(r_factor, Z):
        stop = start + block.shape[1]
        np.subtract(phases[1:, start:stop], phases[0, start:stop], out=block)
        block += mixed

    return (X if keep_states else None), MeasurementRecord(Ts=ts, Z=Z)


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
    if not k > 0.0:
        raise ValueError(f"threshold k must be > 0, got {k}")
    n_samples = record.Z.shape[1]
    cleaned = record.Z.copy()
    flagged_per_channel = []
    # second differences and their absolute deviations, reused across channels
    second = np.empty(max(n_samples - 2, 0))
    dev = np.empty_like(second)
    for c in range(record.n_z):
        z = record.Z[c]
        if n_samples < 3:
            flagged_per_channel.append(np.empty(0, dtype=int))
            continue
        np.multiply(z[1:-1], 2.0, out=dev)
        np.subtract(z[2:], dev, out=second)
        second += z[:-2]
        # each median partitions a copy made in the other buffer
        dev[:] = second
        med = np.median(dev, overwrite_input=True)
        np.subtract(second, med, out=dev)
        np.abs(dev, out=dev)
        second[:] = dev
        mad = np.median(second, overwrite_input=True)
        # violating second difference at index p implicates its centre sample p+1
        flags = np.flatnonzero(dev > k * mad) + 1
        if len(flags) > 0.5 * n_samples:
            raise ChannelUnusableError(
                f"channel {c + 1}: {len(flags)} of {n_samples} samples flagged"
            )
        if len(flags):
            # samples 0 and N are never flagged, so every flagged run has an
            # unflagged neighbour on each side, and those neighbours are the
            # only nodes the interpolation between unflagged samples uses
            nodes = np.setdiff1d(np.union1d(flags - 1, flags + 1), flags)
            cleaned[c, flags] = np.interp(flags, nodes, z[nodes])
        flagged_per_channel.append(flags)
    return MeasurementRecord(Ts=record.Ts, Z=cleaned), OutlierReport(tuple(flagged_per_channel))


def _csv_workers(tasks: int) -> int:
    """Pool size for CSV work: one worker per available CPU, at most one per task.

    A daemonic process (a multiprocessing.Pool worker) may not start
    children, and a platform without os.sched_getaffinity (macOS, Windows)
    starts processes by spawning them, which needs the caller's main module
    to be guarded; both do the work themselves.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None or multiprocessing.current_process().daemon:
        return 1
    return min(len(affinity(0)), tasks)


def _in_order(func: Callable, tasks: list) -> Iterator:
    """Yield func(task) for each task in order, computed on a process pool.

    The pool has _csv_workers(len(tasks)) workers and at most two tasks per
    worker are in flight, so results wait in this process only until the
    consumer takes them. With one worker, or from the first task whose
    result the pool cannot deliver because it cannot be built or breaks,
    the tasks are computed in this process. An exception func raises
    reaches the consumer (an OSError once the task has run again here).
    """
    workers = _csv_workers(len(tasks))
    done = 0
    if workers > 1:
        pool = None
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
            ahead = deque()
            for task in tasks:
                if len(ahead) == 2 * workers:
                    yield ahead.popleft().result()
                    done += 1
                ahead.append(pool.submit(func, task))
            while ahead:
                yield ahead.popleft().result()
                done += 1
            return
        except (OSError, NotImplementedError, BrokenProcessPool):
            pass
        finally:
            # also when the consumer stops early: queued tasks are dropped
            if pool is not None:
                pool.shutdown(cancel_futures=True)
    yield from map(func, tasks[done:])


def _format_rows(task: tuple[int, float, np.ndarray]) -> str:
    """The CSV text of samples start, start+1, ... of one (start, Ts, zt) task.

    zt holds the samples' measurements, one row per sample; the time column
    is k*Ts for sample k.
    """
    start, ts, zt = task
    n_rows, n_z = zt.shape
    block = np.empty((n_rows, n_z + 1))
    np.multiply(np.arange(start, start + n_rows), ts, out=block[:, 0])
    block[:, 1:] = zt
    row_fmt = ",".join(["%.17g"] * (n_z + 1)) + "\n"
    return row_fmt * n_rows % tuple(block.ravel().tolist())


def write_measurements_csv(record: MeasurementRecord, path: str | Path) -> None:
    """Write the record as CSV with header t_s,z1,...,z{n_z}.

    Values are printed with 17 significant digits so a write/read cycle
    reproduces the doubles exactly; the bytes equal those of np.savetxt
    with fmt="%.17g". Blocks of _CSV_BLOCK_ROWS rows are formatted on a
    process pool with one worker per available CPU and written in order,
    with at most two blocks per worker formatted ahead of the file. With
    one CPU or a single block the blocks are formatted in this process, and
    so are the remaining blocks once a pool cannot start or breaks.
    """
    n_samples = record.Z.shape[1]
    tasks = [
        (start, record.Ts, record.Z[:, start : start + _CSV_BLOCK_ROWS].T)
        for start in range(0, n_samples, _CSV_BLOCK_ROWS)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t_s," + ",".join(f"z{i + 1}" for i in range(record.n_z)) + "\n")
        fh.writelines(_in_order(_format_rows, tasks))


def _cut_body(path: str | Path, offset: int) -> list[tuple[int, int, int]]:
    """Cut the file from byte offset on into ranges that end at a newline.

    A range holds at most _CSV_PART_BYTES bytes, or else one line longer
    than that; only the last range may lack the final newline. Returns
    (offset, size, lines) per range.
    """
    parts = []
    with open(path, "rb") as fh:
        fh.seek(offset)
        while chunk := fh.read(_CSV_PART_BYTES):
            size = chunk.rfind(b"\n") + 1
            if len(chunk) < _CSV_PART_BYTES:
                size = len(chunk)
            elif size == 0:
                chunk += fh.readline()
                size = len(chunk)
            # numpy counts bytes several times faster than bytes.count
            lines = int(np.count_nonzero(np.frombuffer(chunk, np.uint8, size) == ord("\n")))
            parts.append((offset, size, lines + (chunk[size - 1] != ord("\n"))))
            offset += size
            fh.seek(offset)
    return parts


def _read_range(path: str | Path, offset: int, size: int) -> bytes:
    with open(path, "rb") as fh:
        fh.seek(offset)
        return fh.read(size)


def _parse_part(task: tuple[str | Path, int, int]) -> np.ndarray:
    """Parse the rows of one (path, offset, size) byte range."""
    return _parse_rows(_read_range(*task))


def _parse_rows(raw: bytes) -> np.ndarray:
    """Parse CSV rows from bytes.

    A line ends at a newline only, as it does for _cut_body. Bytes that
    hold no rows (blank or comment lines only) give shape (0, 1).
    """
    with (
        io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="\n") as text,
        warnings.catch_warnings(),
    ):
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(text, delimiter=",", ndmin=2)


def _first_bad_line(raw: bytes, width: int) -> tuple[int, str]:
    """Index among raw's lines of the first one that fails to parse on its
    own or has another width than the header (a range that fails has one),
    and the reason, without loadtxt's row count."""
    for index, line in enumerate(raw.split(b"\n")):
        try:
            row = _parse_rows(line)
        except ValueError as err:
            return index, str(err).split(" at row ")[0]
        if len(row) and row.shape[1] != width:
            return index, f"row width {row.shape[1]} != header width {width}"
    raise AssertionError("every line parses on its own")


def read_measurements_csv(path: str | Path) -> MeasurementRecord:
    """Read a measurement CSV written by write_measurements_csv.

    The header must be t_s,z1,...,z{n_z}. The time column must be strictly
    increasing and uniformly spaced (missing rows are not allowed); Ts is
    inferred from the spacing. Blank and '#' comment lines are skipped.

    The body is cut into ranges of about _CSV_PART_BYTES that end at a
    newline, and the ranges are parsed on a process pool with one worker
    per available CPU, or in this process where there is one CPU or no
    pool can run; the parsed doubles are the same either way. Lines end
    at '\\n' or '\\r\\n'. A bare '\\r' is not a line break, so such a file
    is rejected. Any file that does not parse, has fewer than 2 rows, rows
    of another width than the header or a non-uniform time column (a NaN
    time included) raises ValueError; a range that fails is parsed again
    line by line, and the error names the path and its first bad file line.
    """
    with open(path, "rb") as fh:
        head = fh.readline()
    header = head.decode("utf-8").strip()
    columns = [c.strip() for c in header.split(",")]
    if columns[0] != "t_s":
        raise ValueError(f"{path}: first column must be 't_s', got header '{header}'")
    for idx, name in enumerate(columns[1:], start=1):
        if name != f"z{idx}":
            raise ValueError(f"{path}: expected column 'z{idx}', got '{name}'")
    width = len(columns)
    parts = _cut_body(path, len(head))
    t = np.empty(sum(n for _, _, n in parts))
    Z = np.empty((width - 1, t.size))
    rows, line = 0, 2  # the header is line 1
    parsed = _in_order(_parse_part, [(path, offset, size) for offset, size, _ in parts])
    try:
        for offset, size, n in parts:
            try:
                data = next(parsed)
                bad = len(data) and data.shape[1] != width
            except ValueError:
                bad = True
            if bad:
                index, reason = _first_bad_line(_read_range(path, offset, size), width)
                raise ValueError(f"{path}: line {line + index}: {reason}")
            line += n
            if len(data):
                t[rows : rows + len(data)] = data[:, 0]
                Z[:, rows : rows + len(data)] = data[:, 1:].T
                rows += len(data)
    finally:
        parsed.close()
    if rows < 2:
        raise ValueError(f"{path}: need at least 2 rows, got {rows}")
    t = t[:rows]
    ts = t[1] - t[0]
    # both checks are written so that a NaN fails them
    if not ts > 0.0:
        raise ValueError(f"{path}: time column is not strictly increasing")
    # |t - (t[0] + k*ts)| in one buffer, freed with t before Z is compacted
    dev = np.arange(rows, dtype=float)
    dev *= ts
    dev += t[0]
    np.subtract(t, dev, out=dev)
    np.abs(dev, out=dev)
    if not dev.max() <= 1e-6 * ts:
        raise ValueError(f"{path}: time column is not uniformly spaced by {ts}")
    del t, dev
    if rows < Z.shape[1]:
        # skipped lines leave a gap after each channel's rows: move the
        # channels down to close it, inside Z's own buffer
        flat = Z.reshape(-1)
        for c in range(1, width - 1):
            flat[c * rows : (c + 1) * rows] = Z[c, :rows]
        Z = flat[: (width - 1) * rows].reshape(width - 1, rows)
    return MeasurementRecord(Ts=ts, Z=Z)


def derive_run_seed(master_seed: int, run_index: int) -> int:
    """Per-run substream seed for Monte-Carlo studies (stable hash)."""
    ss = np.random.SeedSequence([int(master_seed), int(run_index)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])
