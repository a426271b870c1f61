"""Empirical and analytic Allan (co)variance over a grid of averaging times.

The empirical estimator is the overlapping one: every available second
difference of length m contributes. For two channels i, j and tau = m*Ts,

    acov(i, j, m) = sum_k D_i[k] * D_j[k] / (2 tau^2 (N - 2m + 1)),
    D_c[k] = z_c[k+2m] - 2 z_c[k+m] + z_c[k],  k = 0 .. N-2m.

Second differences annihilate constants and ramps, so phase and frequency
offsets never leak into the estimates.

A record with a validity mask (gaps, or spikes masked by remove_outliers)
contributes only the second differences whose three samples are valid on
both channels: D_c[k] is zeroed wherever channel c is invalid at k, k+m or
k+2m, and the pair's count of valid columns C_ij(m) takes the place of
N - 2m + 1, both in the normalisation and in the degrees of freedom of
the variance (Sesia & Tavella, Metrologia 45 (2008) S134). An averaging
time at which some pair has no valid column is dropped from the grid.
Without a mask the estimates are those of the unmasked formula, bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import UnidentifiableError
from .model import EnsembleParams, as_float, upper_triangle_pairs
from .numerics import wishart_variance
from .simulate import _BLOCK, MeasurementRecord

__all__ = [
    "TauGrid",
    "AcovEstimate",
    "log_spaced_grid",
    "default_grid",
    "analytic_acov",
    "clock_avar",
    "acov_grid",
    "write_acov_csv",
]


@dataclass(frozen=True)
class TauGrid:
    """Averaging times tau = m * Ts for increasing integer m."""

    m_values: np.ndarray
    Ts: float

    def __post_init__(self):
        m = np.asarray(self.m_values, dtype=np.int64)
        if m.size == 0 or m[0] < 1 or np.any(np.diff(m) <= 0):
            raise ValueError("m_values must be increasing positive integers")
        object.__setattr__(self, "m_values", m)

    @property
    def taus(self) -> np.ndarray:
        return self.m_values * self.Ts

    def __len__(self) -> int:
        return len(self.m_values)


def log_spaced_grid(ell: int, m_max: int, ts: float) -> TauGrid:
    """ell log-evenly spaced integer averaging factors in [1, m_max].

    Rounding can merge neighbours; duplicates are dropped, so the grid may
    hold fewer than ell values.
    """
    if ell < 2:
        raise ValueError(f"ell must be >= 2, got {ell}")
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    raw = np.round(np.exp(np.linspace(0.0, np.log(m_max), ell)))
    m = np.unique(raw.astype(np.int64))
    return TauGrid(m_values=m, Ts=ts)


def integral(value, name: str) -> int:
    """``value`` (a number, or its text such as "5" or "5.0") as an int;
    a value with a fractional part raises ValueError instead of being
    truncated, as does one that is not a number."""
    number = as_float(value, name)
    if not number.is_integer():
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(number)


def default_grid(
    n_steps: int, ts: float, ell: int | None = None, m_max: int | None = None
) -> TauGrid:
    """The ACOV grid of a record of n_steps steps: ``log_spaced_grid`` of
    ell factors (20 when None) up to m_max (N // 2 when None)."""
    if m_max is None:
        if n_steps < 2:
            raise ValueError(f"record too short for ACOV estimation (N={n_steps})")
        m_max = n_steps // 2
    ell = 20 if ell is None else integral(ell, "ell")
    return log_spaced_grid(ell, integral(m_max, "m_max"), ts)


def analytic_acov(params: EnsembleParams, i: int, j: int, tau: float) -> float:
    """Model-implied Allan covariance of measurement channels i and j.

    Channel c compares clock c+1 against the pivot, so the pivot noise is
    common to every channel; for i == j this is the channel AVAR.
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    if not 1 <= i <= params.n_z or not 1 <= j <= params.n_z:
        raise ValueError(f"channel pair ({i}, {j}) out of range 1..{params.n_z}")
    pivot = params.clocks[0]
    di = params.clocks[i].d - pivot.d
    dj = params.clocks[j].d - pivot.d
    r = float(params.R[i - 1, j - 1])
    value = pivot.q1 / tau + pivot.q2 * tau / 3.0 + 3.0 * r / tau**2 + di * dj * tau**2 / 2.0
    if i == j:
        clk = params.clocks[i]
        value += clk.q1 / tau + clk.q2 * tau / 3.0
    return value


def clock_avar(q1: float, q2: float, d: float, tau):
    """Single-clock AVAR q1/tau + q2*tau/3 + d^2 tau^2/2 (vectorised in tau)."""
    tau = np.asarray(tau, dtype=float)
    return q1 / tau + q2 * tau / 3.0 + d**2 * tau**2 / 2.0


@dataclass(frozen=True)
class AcovEstimate:
    """ACOV estimates for all channel pairs over a tau grid.

    Rows of sigma2/var follow the row-major channel pairs of
    upper_triangle_pairs(n_z); columns follow grid.taus. ``scale`` holds
    1/nu of each estimate, m/N, and ``counts`` the valid second
    differences behind it, both in the same layout; for a masked record
    (``counts`` not None) nu is scaled by counts/(N - 2m + 1).
    ``dropped_m`` lists the requested averaging factors that some pair had
    no valid column for; they are not in ``grid``.
    """

    grid: TauGrid
    pairs: tuple[tuple[int, int], ...]
    sigma2: np.ndarray
    scale: np.ndarray
    counts: np.ndarray | None = None
    dropped_m: tuple[int, ...] = ()

    @property
    def var(self) -> np.ndarray:
        """Wishart variance (s_ii s_jj + s_ij^2)/nu of each estimate
        (``wishart_variance``), for one AVAR the chi-square 2 s^2/nu (NIST
        SP 1065); nu = N/m is the conservative random-walk choice."""
        return wishart_variance(self.sigma2, self.scale)


# columns of D_m formed and summed at a time: a quick record (N = 20 000)
# is then one block per m, while a wider block was slower at full scale
_WIDTH = 2 * _BLOCK


def _second_difference_grams(
    Z: np.ndarray, m_values, valid: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Unnormalised inner products D_m[i] . D_m[j], i <= j, as row-major
    channel-pair rows (those of upper_triangle_pairs) by m columns, and
    with a mask the per-pair counts of valid columns in the same layout
    (None without one).

    D_m[:, k] = (Z[:, k+2m] - 2 Z[:, k+m]) + Z[:, k] is formed _WIDTH
    columns at a time in one buffer shared by all m (2 Z[k+m] into it, then
    Z[k+2m] minus it, then plus Z[k]), so every element of D_m is the same
    double as in a one-shot evaluation; only the summation order of the
    inner products differs. The loop over blocks is the outer one, so a
    block of Z is read for every m while it is in cache; each product
    still adds its blocks in increasing order. A block adds only its
    n_z(n_z+1)/2 distinct products, one einsum per superdiagonal (row i
    against row i+s); they are put in row-major pair order once, at the
    end. With a mask, D_m[c, k] is set to zero (a masked copyto, half the
    time of a multiply by the bool block) unless w_c[k] = valid[c, k] &
    valid[c, k+m] & valid[c, k+2m], and each pair's valid columns are
    counted from w_i & w_j block by block (half the time of an einsum of w
    with itself); a block whose w is all True, as in a record with a few
    long gaps, adds its width to every count and is summed as it is. The
    products are summed by einsum's own loop, not by BLAS: OpenBLAS may
    split a block's syrk over threads of its own, and Monte-Carlo pool
    workers already occupy every core.
    """
    n_z, n_samples = Z.shape
    m_values = np.asarray(m_values).tolist()  # int arithmetic below, not numpy scalars
    # the distinct products by superdiagonal: s = 0 (the diagonal), then s = 1, ...
    sizes = np.arange(n_z, 0, -1)
    rows = np.concatenate([np.arange(size) for size in sizes])
    cols = rows + np.repeat(np.arange(n_z), sizes)
    ends = np.cumsum(sizes).tolist()
    d = np.empty((n_z, _WIDTH))
    products = np.empty(ends[-1])
    upper = np.zeros((len(m_values), ends[-1]))
    tally = None
    if valid is not None:
        ok = np.empty((n_z, _WIDTH), dtype=bool)
        bad = np.empty_like(ok)
        both = np.empty(_WIDTH, dtype=bool)
        tally = np.zeros_like(upper)
    for start in range(0, n_samples - 2 * m_values[0], _WIDTH):
        for p, m in enumerate(m_values):
            count = n_samples - 2 * m
            if start >= count:
                break  # m increases, so no later m reaches this block either
            width = min(_WIDTH, count - start)
            db = d[:, :width]
            np.multiply(Z[:, start + m : start + m + width], 2.0, out=db)
            np.subtract(Z[:, start + 2 * m : start + 2 * m + width], db, out=db)
            db += Z[:, start : start + width]
            if valid is not None:
                ob = ok[:, :width]
                np.logical_and(
                    valid[:, start : start + width], valid[:, start + m : start + m + width], out=ob
                )
                ob &= valid[:, start + 2 * m : start + 2 * m + width]
                if ob.all():
                    tally[p] += width
                else:
                    np.copyto(db, 0.0, where=np.logical_not(ob, out=bad[:, :width]))
                    for k, (i, j) in enumerate(zip(rows, cols)):
                        pair_ok = (
                            ob[i] if i == j else np.logical_and(ob[i], ob[j], out=both[:width])
                        )
                        tally[p, k] += np.count_nonzero(pair_ok)
            for s, end in enumerate(ends):
                np.einsum("ik,ik->i", db[: n_z - s], db[s:], out=products[end - n_z + s : end])
            upper[p] += products
    order = np.lexsort((cols, rows))
    return upper[:, order].T, None if tally is None else tally[:, order].T


def acov_grid(record: MeasurementRecord, grid: TauGrid) -> AcovEstimate:
    """Evaluate all n_z(n_z+1)/2 channel pairs on the grid, with variances.

    At each m the inner products of the second differences serve every
    pair. The kernel accumulates them over blocks of _WIDTH = 2 _BLOCK
    columns, n_z(n_z+1)/2 products per column, and hands them over as
    pair rows by m columns, which are normalised in one expression. The
    cost is O(len(grid) * n_z^2 * N) time with O(n_z * _WIDTH) extra
    memory, on the calling thread alone (no BLAS call), so process-pool
    workers start no BLAS threads to compete for their cores. A masked
    record uses only its valid second differences (module docstring); an
    m at which some pair has none is dropped from the grid and listed in
    ``dropped_m``, and UnidentifiableError is raised when no m is left.
    """
    n = record.n_steps
    if grid.m_values[-1] > n // 2:
        raise ValueError(
            f"grid m_max={grid.m_values[-1]} exceeds floor(N/2)={n // 2}"
        )
    if abs(grid.Ts - record.Ts) > 1e-9 * record.Ts:
        raise ValueError(f"grid Ts={grid.Ts} does not match record Ts={record.Ts}")
    sums, counts = _second_difference_grams(record.Z, grid.m_values, record.valid)
    dropped = ()
    if counts is not None and not counts.all():
        kept = counts.all(axis=0)
        if not kept.any():
            raise UnidentifiableError(
                "no averaging time of the grid has a valid second difference on every channel pair"
            )
        dropped = tuple(int(m) for m in grid.m_values[~kept])
        grid = TauGrid(m_values=grid.m_values[kept], Ts=grid.Ts)
        sums, counts = sums[:, kept], counts[:, kept]
    columns = n - 2 * grid.m_values + 1
    taus = grid.m_values * record.Ts
    sigma2 = sums / (2.0 * taus**2 * (columns if counts is None else counts))
    scale = np.broadcast_to(grid.m_values / n, sigma2.shape)
    if counts is not None:
        scale = scale * columns / counts
    return AcovEstimate(
        grid=grid,
        pairs=tuple(upper_triangle_pairs(record.n_z)),
        sigma2=sigma2,
        scale=scale,
        counts=counts,
        dropped_m=dropped,
    )


def write_acov_csv(est: AcovEstimate, path: str | Path) -> None:
    """Export as CSV with columns tau_s,pair_i,pair_j,sigma2,var_sigma2,
    pair by pair."""
    taus, pairs = est.grid.taus, np.asarray(est.pairs, dtype=float)
    columns = [np.tile(taus, len(pairs)), np.repeat(pairs, len(taus), axis=0)]
    table = np.column_stack(columns + [est.sigma2.ravel(), est.var.ravel()])
    header = "tau_s,pair_i,pair_j,sigma2,var_sigma2"
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")
