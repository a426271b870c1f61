"""Shared numerical kernels.

The weighted least-squares kernel forms no normal equations: it scales
every column to unit norm before its one SVD, because the regressors mix
basis functions spanning many orders of magnitude in tau, and derives the
solution, standard errors and null directions from that one decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnidentifiableError
from .model import clamp_negative_variances

__all__ = [
    "LsDiagnostics",
    "weighted_least_squares",
    "wishart_variance",
    "wishart_fit",
]

# singular values below this fraction of the largest count as zero
_RCOND = 1e-12

# keeps the weights of an all-zero moment finite
_VAR_FLOOR_ABS = 1e-100


@dataclass
class LsDiagnostics:
    """Residual, conditioning and uncertainty of a least-squares solve.

    se              : sqrt(diag((A^T W A)^-1)); when rank deficient, taken
                      from the pseudo-inverse in column-scaled coordinates,
                      and inf everywhere when the rank is 0
    null_directions : unit rows spanning the right null space of W^{1/2} A
    """

    residual_norm: float
    condition_number: float
    rank: int
    se: np.ndarray
    null_directions: np.ndarray


def weighted_least_squares(
    A: np.ndarray,
    b: np.ndarray,
    w: np.ndarray,
) -> tuple[np.ndarray, LsDiagnostics]:
    """Minimize ||W^{1/2} (b - A x)||^2 with W = diag(w), w > 0.

    Solved via one SVD of W^{1/2} A with unit-norm columns (least norm in
    those scaled coordinates when rank deficient). The solution gets one
    refinement step on the same factors, with the residual formed in
    extended precision: at maser scale the smallest parameters sit at the
    rounding floor of b, and the step makes the answer independent of row
    and column order.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    w = np.asarray(w, dtype=float).ravel()
    if A.ndim != 2 or A.shape[0] != b.size:
        raise ValueError(f"incompatible shapes A {A.shape}, b {b.shape}")
    if w.size != b.size:
        raise ValueError(f"weight vector has length {w.size}, expected {b.size}")
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be positive and finite")

    sqrt_w = np.sqrt(w)
    B = A * sqrt_w[:, None]
    rhs = b * sqrt_w
    scale = np.linalg.norm(B, axis=0)
    scale[scale == 0.0] = 1.0
    Bs = B / scale

    # a wide system needs the full V for its null space
    U, s, Vt = np.linalg.svd(Bs, full_matrices=Bs.shape[0] < Bs.shape[1])
    rank = int(np.sum(s > _RCOND * s[0])) if s.size and s[0] > 0.0 else 0
    U_r, s_r, V_r = U[:, :rank], s[:rank], Vt[:rank]

    def solve(r: np.ndarray) -> np.ndarray:
        return V_r.T @ ((U_r.T @ r) / s_r)

    y = solve(rhs)
    ext = np.longdouble
    resid = rhs.astype(ext) - Bs.astype(ext) @ y.astype(ext)
    y = y + solve(resid.astype(float))
    x = y / scale

    if rank:
        se = np.sqrt(((V_r / s_r[:, None]) ** 2).sum(axis=0)) / scale
    else:
        se = np.full(A.shape[1], np.inf)
    null_rows = Vt[rank:] / scale
    null_rows /= np.linalg.norm(null_rows, axis=1, keepdims=True)

    cond = float(s[0] / s[rank - 1]) if rank > 0 else np.inf
    return x, LsDiagnostics(
        residual_norm=float(np.linalg.norm(rhs - B @ x)),
        condition_number=cond,
        rank=rank,
        se=se,
        null_directions=null_rows,
    )


def wishart_variance(sample: np.ndarray, scale) -> np.ndarray:
    """Wishart variance (s_ii s_jj + s_ij^2) * scale of sample covariances.

    ``sample`` holds the vech rows (row-major upper triangle, as
    ``upper_triangle_pairs``) of k x k sample covariance matrices, one
    column per matrix; ``scale`` is 1/nu of each entry, nu its degrees of
    freedom, and broadcasts to sample's shape. An absolute floor keeps the
    variance of an all-zero moment positive.
    """
    i, j = np.triu_indices((math.isqrt(8 * sample.shape[0] + 1) - 1) // 2)
    diag = sample[i == j]
    return (diag[i] * diag[j] + sample**2) * scale + _VAR_FLOOR_ABS


def wishart_fit(design: np.ndarray, sample: np.ndarray, scale, n: int) -> tuple[np.ndarray, dict]:
    """Fit linear moments design @ theta to sample covariances in two passes.

    ``sample`` and ``scale`` are laid out as in ``wishart_variance`` and
    ``design`` has one row per entry of ``sample.ravel()``; theta is laid
    out as ``clamp_negative_variances`` expects for n clocks. The first
    solve weights each entry by the inverse Wishart variance of the sample,
    the second by that of the fitted moments; after each solve negative
    variance-like entries are clamped. Returns theta and the second solve's
    ``residual``, ``cond``, ``rank``, ``se`` and ``clamped``. Below full
    column rank an UnidentifiableError carries the null directions.
    """
    sample = np.asarray(sample, dtype=float)
    moments = sample
    for _ in range(2):
        w = 1.0 / wishart_variance(moments, scale).ravel()
        x, diag = weighted_least_squares(design, sample.ravel(), w)
        if diag.rank < design.shape[1]:
            raise UnidentifiableError(
                f"rank {diag.rank} < {design.shape[1]} parameters; "
                f"{design.shape[1] - diag.rank} unidentifiable direction(s)",
                null_directions=diag.null_directions,
            )
        clamped = clamp_negative_variances(x, diag.se, n)
        moments = (design @ x).reshape(sample.shape)
    return x, {
        "residual": diag.residual_norm,
        "cond": diag.condition_number,
        "rank": diag.rank,
        "se": diag.se,
        "clamped": clamped,
    }
