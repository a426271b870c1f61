"""Trajectory simulation, measurement generation and log preprocessing.

The state recursion starts at x_0 = 0 and is evaluated per clock with
cumulative sums (the transition matrix is block diagonal with
unit-triangular blocks), which is what makes year-long records
practical. The random draw order is fixed: one (2, N) standard-normal
block per clock in clock order, then one (n_z, N+1) block for the
measurement noise, each filled in C order, so identical inputs always
produce bit-identical records.

The model is linear in its noise, so each row of draws is added to the
record on its own, _BLOCK columns at a time as it is drawn: row r of
clock i, scaled by column r of the clock's covariance factor F (plus
the drift mean mu on r = 1), gives the phase steps F[0, r] n + Ts times
its frequency share, a cumulative sum of F[1, r] n carried from block to
block and shifted one step. Z's channels hold steps until their clock
is done (the pivot's steps are subtracted from every channel), then one
cumulative sum makes them phases; measurement row j adds R's factor
column S[:, j] times its draws. Carried sums equal one sum over the
whole row bit for bit (the tests compare them with a one-shot form),
and the values equal the mixing of the same draws in one matrix product
to rounding. No row is held or drawn twice: a run without states holds
Z and two block-sized buffers, a run with states X beside them.

A record may carry a boolean validity mask of Z's shape. remove_outliers
flags spikes from the second differences of each channel and returns a
record that shares the caller's Z and masks the flagged samples. Nothing
is interpolated: a filled-in sample would lack its white FM and bias the
AVAR low, while a masked one is left out of every estimate. The filter
holds the mask (Z/8 bytes) and block-sized scratch: each channel's median
and MAD come from a radix select per middle rank over second differences
formed _BLOCK columns at a time; each pass counts a 16-bit digit of
order-preserving integer keys, so ties count exactly and no row is formed.

Measurement CSVs are formatted in row blocks and parsed in byte ranges
cut at newlines, on a process pool with one worker per available CPU, or
in this process on one CPU and where no pool can run; the file bytes and
the parsed doubles are the same either way. The reader checks the time
column range by range as the ranges arrive and keeps only Z.
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

# rows formatted per string operation (one pool task) when writing a
# measurement CSV: the text in flight, up to two blocks per worker, stays
# small beside Z
_CSV_BLOCK_ROWS = 4096
# bytes of CSV body parsed per task when reading (cut at a newline)
_CSV_PART_BYTES = 1 << 20

# columns handled at a time by each blocked loop (the simulator, the
# outlier filter, acov_grid, the drift fit): block-sized buffers stay in
# cache, where full-length ones cost a page-faulted temporary per operation
_BLOCK = 16_384
# at most this many candidates of a median are gathered and partitioned
_GATHER = 4 * _BLOCK


@dataclass(frozen=True)
class MeasurementRecord:
    """Differential phase measurements, one row per channel.

    Z has shape (n_z, N+1); column k is the measurement at time k*Ts.
    ``valid`` is None (every sample valid) or a boolean mask of Z's shape;
    the estimators leave out every second difference, drift-fit sample and
    MDM window that holds a sample marked False. Z must be finite even
    where it is masked.
    """

    Ts: float
    Z: np.ndarray
    valid: np.ndarray | None = None

    def __post_init__(self):
        Z = np.asarray(self.Z, dtype=float)
        if Z.ndim != 2 or Z.shape[0] < 1:
            raise ValueError(f"Z must be 2-D (channels x samples), got shape {Z.shape}")
        if Z.shape[1] < 2:
            raise ValueError("a record needs at least 2 samples (N >= 1)")
        if self.Ts <= 0.0 or not np.isfinite(self.Ts):
            raise ValueError(f"Ts must be finite and > 0, got {self.Ts}")
        # min and max carry any NaN and reach any inf without a mask of Z
        if not (np.isfinite(Z.min()) and np.isfinite(Z.max())):
            raise ValueError("measurements contain non-finite values")
        object.__setattr__(self, "Z", Z)
        if self.valid is not None:
            valid = np.asarray(self.valid)
            if valid.dtype != bool or valid.shape != Z.shape:
                raise ValueError(
                    f"valid must be a boolean mask of shape {Z.shape}, "
                    f"got {valid.dtype} of shape {valid.shape}"
                )
            object.__setattr__(self, "valid", valid)

    @property
    def n_z(self) -> int:
        return self.Z.shape[0]

    @property
    def n_steps(self) -> int:
        """N, the number of transitions (samples minus one)."""
        return self.Z.shape[1] - 1

    @property
    def valid_fraction(self) -> np.ndarray | None:
        """Fraction of valid samples per channel, None without a mask."""
        if self.valid is None:
            return None
        return np.count_nonzero(self.valid, axis=1) / self.Z.shape[1]


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


def simulate_ensemble(
    model: EnsembleModel,
    n_steps: int,
    seed: int,
    keep_states: bool = True,
) -> tuple[np.ndarray | None, MeasurementRecord]:
    """Simulate x_{k+1} = F x_k + w_k from x_0 = 0 and z_k = H x_k + v_k.

    w_k is Gaussian with mean model.mu and covariance model.Q (block
    diagonal), v_k is zero-mean Gaussian with covariance model.R. The draw
    order is that of one (2, N) block per clock in clock order, then one
    (n_z, N+1) block for the measurement noise, each filled in C order:
    2nN + n_z(N+1) normals, each drawn once. Each row is drawn _BLOCK
    columns at a time and added to the record at once (see the module
    docstring), so no row of draws, noise or pivot phase is held or drawn
    again: a run holds Z, X with ``keep_states=True``, and two block-sized
    buffers. Returns (X, record): X is the (2n, N+1) state array with
    ``keep_states=True`` and None otherwise; Z is bit-identical either
    way, and equals the previous release's mixing of the same draws to
    rounding.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    ts = model.Ts
    rng = np.random.default_rng(seed)
    r_factor = _psd_factor(model.R)
    Z = np.zeros((model.n_z, n_steps + 1))
    X = np.zeros((2 * model.n, n_steps + 1)) if keep_states else None
    draws = np.empty(min(_BLOCK, n_steps + 1))
    sums = np.empty(draws.size + 1)

    for i in range(model.n):
        q_factor = _psd_factor(model.Q[2 * i : 2 * i + 2, 2 * i : 2 * i + 2])
        for r in range(2):
            f0, f1 = q_factor[:, r]
            m0, m1 = model.mu[2 * i : 2 * i + 2] if r else (0.0, 0.0)
            freq = 0.0  # this row's share of the frequency before the block
            for start in range(0, n_steps, _BLOCK):
                g = draws[: min(_BLOCK, n_steps - start)]
                rng.standard_normal(out=g)
                cols = slice(1 + start, 1 + start + g.size)
                # the row's frequency share before each step and after the last
                shares = sums[: g.size + 1]
                shares[0] = freq
                np.multiply(g, f1, out=shares[1:])
                shares[1:] += m1
                np.cumsum(shares, out=shares)
                freq = shares[-1]
                if X is not None:
                    X[2 * i + 1, cols] += shares[1:]
                before = shares[:-1]
                before *= ts
                # g = the phase steps: f0 * draw + m0 + Ts * frequency before
                g *= f0
                g += m0
                g += before
                if i == 0:
                    Z[:, cols] -= g
                else:
                    Z[i - 1, cols] += g
                if X is not None:
                    X[2 * i, cols] += g
        # clock i's steps are all in: they become phases by one running sum
        if i:
            np.cumsum(Z[i - 1], out=Z[i - 1])
        if X is not None:
            np.cumsum(X[2 * i], out=X[2 * i])

    for j in range(model.n_z):
        for start in range(0, n_steps + 1, _BLOCK):
            v = draws[: min(_BLOCK, n_steps + 1 - start)]
            rng.standard_normal(out=v)
            for c in np.flatnonzero(r_factor[:, j]):
                Z[c, start : start + v.size] += np.multiply(v, r_factor[c, j], out=sums[: v.size])

    return X, MeasurementRecord(Ts=model.Ts, Z=Z)


def _second_differences(
    z: np.ndarray, buf: np.ndarray, med: float | None = None
) -> Iterator[np.ndarray]:
    """Yield z's second differences (z[2:] - 2 z[1:-1]) + z[:-2], or with med
    given their absolute deviations from med, _BLOCK at a time in buf (each
    block overwrites the one before)."""
    count = z.size - 2
    for start in range(0, count, _BLOCK):
        out = buf[: min(_BLOCK, count - start)]
        zs = z[start : start + out.size + 2]
        np.multiply(zs[1:-1], 2.0, out=out)
        np.subtract(zs[2:], out, out=out)
        out += zs[:-2]
        if med is not None:
            out -= med
            np.abs(out, out=out)
        yield out


def _keys(b: np.ndarray) -> np.ndarray:
    """Order-preserving uint64 keys of float64 values: a positive value's
    sign bit is flipped, and every bit of a negative one."""
    bits = b.view(np.int64)
    flip = bits >> 63
    flip |= np.int64(-1 << 63)
    flip ^= bits
    return flip.view(np.uint64)


def _value(key: int) -> np.float64:
    """The float64 value of a _keys key."""
    bits = key ^ (1 << 63) if key >> 63 else key ^ ((1 << 64) - 1)
    return np.uint64(bits).view(np.float64)


def _select(blocks: Callable[[], Iterator[np.ndarray]], n: int, k: int) -> np.float64:
    """The value of rank k (-0.0 below +0.0) among the n values, none NaN,
    that blocks() yields (contiguous float64 arrays), holding O(_BLOCK) of them.

    A radix select on the values' _keys: rank k lies among the m
    candidates, the keys whose top ``fixed`` bits are ``prefix``'s. Each
    pass counts their next 16-bit digit, fixes the one that holds rank k
    and counts k from its first key. At most _GATHER candidates are
    gathered for np.partition to finish; once all 64 bits are fixed,
    every candidate is rank k's value, ties and all.
    """
    prefix, fixed, m = 0, 0, n

    def candidates(b: np.ndarray) -> np.ndarray:
        key = _keys(b)
        return key[key >> (64 - fixed) == prefix >> (64 - fixed)] if fixed else key

    while m > _GATHER and fixed < 64:
        shift = 48 - fixed
        counts = np.zeros(1 << 16, dtype=np.int64)
        for b in blocks():
            digits = candidates(b) >> shift
            digits &= 0xFFFF
            # in place: a bincount per block would add all 65 536 bins
            np.add.at(counts, digits.view(np.int64), 1)
        np.cumsum(counts, out=counts)
        digit = int(np.searchsorted(counts, k, side="right"))
        before = int(counts[digit - 1]) if digit else 0
        k, m = k - before, int(counts[digit]) - before
        prefix |= digit << shift
        fixed += 16
    if fixed < 64:
        gathered = np.concatenate([candidates(b) for b in blocks()])
        prefix = int(np.partition(gathered, k)[k])
    return _value(prefix)


def _median(blocks: Callable[[], Iterator[np.ndarray]], n: int) -> np.float64:
    """np.median of the n values blocks() yields, bit for bit but for a zero's
    sign: the middle rank, or for even n np.mean of the two middle ones."""
    k = (n - 1) // 2
    if n % 2:
        return _select(blocks, n, k)
    return np.mean([_select(blocks, n, k), _select(blocks, n, k + 1)])


def remove_outliers(
    record: MeasurementRecord, k: float = 5.0
) -> tuple[MeasurementRecord, OutlierReport]:
    """Flag spikes using second differences of each channel and mask them.

    Second differences remove drift and random-walk trends, so under the
    model they are stationary; a sample is flagged when the centred second
    difference deviates from the channel median by more than k MADs. The
    flags are taken from every sample, masked or not. Returns a record that
    shares record.Z (no copy) and whose mask is record's (all True without
    one) with the flagged samples set to False, and the flags per channel.

    The second differences are formed _BLOCK columns at a time, once per
    pass: the median and the MAD come from _median (a radix select per
    middle rank), and the flag comparison is written into the mask block
    by block. The filter holds the mask and O(_BLOCK) scratch, and its
    flags equal those of np.median over full-length rows.
    """
    if not k > 0.0:
        raise ValueError(f"threshold k must be > 0, got {k}")
    n_samples = record.Z.shape[1]
    valid = np.empty(record.Z.shape, dtype=bool)
    flagged_per_channel = []
    # one block buffer for every channel and pass
    buf = np.empty(min(_BLOCK, max(n_samples - 2, 0)))
    for c in range(record.n_z):
        z, row = record.Z[c], valid[c]
        flags = np.empty(0, dtype=int)
        if n_samples >= 3:
            med = _median(lambda: _second_differences(z, buf), n_samples - 2)
            mad = _median(lambda: _second_differences(z, buf, med), n_samples - 2)
            # violating second difference at index p implicates its centre
            # sample p+1; the comparison is written into the channel's mask
            # row block by block, and the row is set below
            start = 1
            for dev in _second_differences(z, buf, med):
                np.greater(dev, k * mad, out=row[start : start + dev.size])
                start += dev.size
            flags = np.flatnonzero(row[1:-1]) + 1
            if len(flags) > 0.5 * n_samples:
                raise ChannelUnusableError(
                    f"channel {c + 1}: {len(flags)} of {n_samples} samples flagged"
                )
        row[:] = True if record.valid is None else record.valid[c]
        row[flags] = False
        flagged_per_channel.append(flags)
    return (
        MeasurementRecord(Ts=record.Ts, Z=record.Z, valid=valid),
        OutlierReport(tuple(flagged_per_channel)),
    )


def _csv_workers(tasks: int) -> int:
    """Pool size for CSV work: one worker per available CPU, at most one per task.

    A platform without os.sched_getaffinity (macOS, Windows) starts
    processes by spawning them, which needs the caller's main module to be
    guarded, so there the work is done in this process.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    return 1 if affinity is None else min(len(affinity(0)), tasks)


def _in_order(func: Callable, tasks: list, workers: int) -> Iterator:
    """Yield func(task) for each task in order, computed on a process pool of size workers.

    At most two tasks per worker are in flight, so results wait in this
    process only until the consumer takes them. With one worker, in a
    daemonic process (a multiprocessing.Pool worker, which may not start
    children), or from the first task whose result the pool cannot
    deliver because it cannot be built or breaks, the tasks are computed
    in this process. An exception func raises reaches the consumer (an
    OSError once the task has run again here).
    """
    done = 0
    if workers > 1 and not multiprocessing.current_process().daemon:
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
        fh.writelines(_in_order(_format_rows, tasks, _csv_workers(len(tasks))))


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


def _time_deviation(t: np.ndarray, first: int, t0: float, ts: float) -> float:
    """The largest |t[i] - (t0 + (first + i)*ts)|, NaN if any is."""
    dev = np.arange(first, first + t.size, dtype=float)
    dev *= ts
    dev += t0
    np.subtract(t, dev, out=dev)
    np.abs(dev, out=dev)
    return dev.max()


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

    Each range's times are checked as it arrives against t0 + k*Ts, with
    t0 and Ts from the first two rows, so a read holds Z and a few ranges'
    worth of bytes and values, and no time column. A time violation is
    raised after the last range, so a row that does not parse wins over a
    bad time in an earlier range.
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
    Z = np.empty((width - 1, sum(n for _, _, n in parts)))
    rows, line = 0, 2  # the header is line 1
    # t0 and Ts come from the first two rows; worst is the largest
    # |t - (t0 + k*Ts)| so far, NaN once any is
    t0 = ts = None
    worst = 0.0
    tasks = [(path, offset, size) for offset, size, _ in parts]
    parsed = _in_order(_parse_part, tasks, _csv_workers(len(tasks)))
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
            if not len(data):
                continue
            t, first = data[:, 0], rows
            if ts is None:
                if t0 is not None:  # the part before held the first row alone
                    t, first = np.concatenate(([t0], t)), 0
                t0 = t[0]
                if t.size > 1:
                    ts = t[1] - t[0]
            if ts is not None and ts > 0.0:
                # the time violation is raised after the loop, so a later
                # row that does not parse still wins
                worst = np.maximum(worst, _time_deviation(t, first, t0, ts))
            Z[:, rows : rows + len(data)] = data[:, 1:].T
            rows += len(data)
    finally:
        parsed.close()
    if rows < 2:
        raise ValueError(f"{path}: need at least 2 rows, got {rows}")
    # both checks are written so that a NaN fails them
    if not ts > 0.0:
        raise ValueError(f"{path}: time column is not strictly increasing")
    if not worst <= 1e-6 * ts:
        raise ValueError(f"{path}: time column is not uniformly spaced by {ts}")
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
