"""Empirical and analytic Allan (co)variance over a grid of averaging times.

The empirical estimator is the overlapping one: every available second
difference of length m contributes. For two channels i, j and tau = m*Ts,

    acov(i, j, m) = sum_k D_i[k] * D_j[k] / (2 tau^2 (N - 2m + 1)),
    D_c[k] = z_c[k+2m] - 2 z_c[k+m] + z_c[k],  k = 0 .. N-2m.

Second differences annihilate constants and ramps, so phase and frequency
offsets never leak into the estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import EnsembleParams, upper_triangle_pairs
from .simulate import MeasurementRecord

__all__ = [
    "TauGrid",
    "AcovEstimate",
    "log_spaced_grid",
    "analytic_acov",
    "clock_avar",
    "acov_variance",
    "acov_grid",
    "write_acov_csv",
]

# absolute floor so weights stay finite even for identically zero channels
_VAR_FLOOR_ABS = 1e-100

# columns of second differences formed at a time: (n_z, block) float64
# buffers stay in cache, where full-length ones cost a page-faulted
# temporary per array operation
_BLOCK = 16_384


@dataclass(frozen=True)
class TauGrid:
    """Averaging times tau = m * Ts for increasing integer m."""

    m_values: np.ndarray
    Ts: float
    truncated: bool = False

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

    Rounding can merge neighbours; duplicates are dropped and the grid is
    marked ``truncated`` when fewer than ell distinct values remain.
    """
    if ell < 2:
        raise ValueError(f"ell must be >= 2, got {ell}")
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    raw = np.round(np.exp(np.linspace(0.0, np.log(m_max), ell)))
    m = np.unique(raw.astype(np.int64))
    return TauGrid(m_values=m, Ts=ts, truncated=len(m) < ell)


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


def acov_variance(
    sigma2_hat: float | np.ndarray, n_steps: int, m: int
) -> float | np.ndarray:
    """Approximate variance of an ACOV estimate, 2|sigma2|/nu with nu = N/m.

    nu is the conservative random-walk choice of effective degrees of
    freedom. Cross covariances can be negative, hence the absolute value,
    and a strictly positive floor keeps downstream weights finite.
    Elementwise for an array of estimates at one m.
    """
    if n_steps < 2 * m:
        raise ValueError(f"need N >= 2m, got N={n_steps}, m={m}")
    nu = n_steps / m
    mag = np.abs(sigma2_hat)
    return np.maximum(2.0 * mag / nu, 1e-3 * mag / nu + _VAR_FLOOR_ABS)


@dataclass(frozen=True)
class AcovEstimate:
    """ACOV estimates for all channel pairs over a tau grid.

    Rows of sigma2/var follow the row-major channel pairs of
    upper_triangle_pairs(n_z); columns follow grid.taus.
    """

    grid: TauGrid
    pairs: tuple[tuple[int, int], ...]
    sigma2: np.ndarray
    var: np.ndarray
    n_steps: int


def _second_difference_grams(Z: np.ndarray, m_values) -> np.ndarray:
    """Unnormalised Gram matrices D_m @ D_m.T, one per m, shape (len, n_z, n_z).

    D_m[:, k] = (Z[:, k+2m] - 2 Z[:, k+m]) + Z[:, k] is formed _BLOCK
    columns at a time in two buffers shared by all m, so every element of
    D_m is the same double as in a one-shot evaluation; only the summation
    order of the inner products differs. Each block's products are summed
    by einsum's own loop, not by BLAS: OpenBLAS may split each block's
    syrk over threads of its own, and Monte-Carlo pool workers already
    occupy every core.
    """
    n_z = Z.shape[0]
    d = np.empty((n_z, _BLOCK))
    twice = np.empty((n_z, _BLOCK))
    grams = np.zeros((len(m_values), n_z, n_z))
    for G, m in zip(grams, m_values):
        count = Z.shape[1] - 2 * m
        for start in range(0, count, _BLOCK):
            width = min(_BLOCK, count - start)
            db = d[:, :width]
            tb = twice[:, :width]
            np.multiply(Z[:, start + m : start + m + width], 2.0, out=tb)
            np.subtract(Z[:, start + 2 * m : start + 2 * m + width], tb, out=db)
            db += Z[:, start : start + width]
            G += np.einsum("ik,jk->ij", db, db)
    return grams


def acov_grid(record: MeasurementRecord, grid: TauGrid) -> AcovEstimate:
    """Evaluate all n_z(n_z+1)/2 channel pairs on the grid, with variances.

    At each m one Gram matrix of the second differences serves every pair.
    It is accumulated over blocks of _BLOCK columns, so the cost is
    O(len(grid) * n_z * N) time with O(n_z * _BLOCK) extra memory, and it
    runs on the calling thread alone (no BLAS call), so process-pool
    workers start no BLAS threads to compete for their cores.
    """
    n = record.n_steps
    if grid.m_values[-1] > n // 2:
        raise ValueError(
            f"grid m_max={grid.m_values[-1]} exceeds floor(N/2)={n // 2}"
        )
    if abs(grid.Ts - record.Ts) > 1e-9 * record.Ts:
        raise ValueError(f"grid Ts={grid.Ts} does not match record Ts={record.Ts}")
    pairs = upper_triangle_pairs(record.n_z)
    rows, cols = np.triu_indices(record.n_z)
    sigma2 = np.empty((len(pairs), len(grid)))
    var = np.empty_like(sigma2)
    grams = _second_difference_grams(record.Z, grid.m_values)
    for p, (G, m) in enumerate(zip(grams, grid.m_values)):
        tau = m * record.Ts
        G /= 2.0 * tau**2 * (n - 2 * m + 1)
        sigma2[:, p] = G[rows, cols]
        var[:, p] = acov_variance(sigma2[:, p], n, int(m))
    return AcovEstimate(
        grid=grid, pairs=tuple(pairs), sigma2=sigma2, var=var, n_steps=n
    )


def write_acov_csv(est: AcovEstimate, path: str | Path) -> None:
    """Export as CSV with columns tau_s,pair_i,pair_j,sigma2,var_sigma2."""
    taus = est.grid.taus
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("tau_s,pair_i,pair_j,sigma2,var_sigma2\n")
        for row, (i, j) in enumerate(est.pairs):
            for p, tau in enumerate(taus):
                fh.write(
                    f"{tau:.17g},{i},{j},{est.sigma2[row, p]:.17g},{est.var[row, p]:.17g}\n"
                )
