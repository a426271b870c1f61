"""Shared numerical kernels.

All solvers go through orthogonal (SVD-based) decompositions; normal
equations are never formed. The weighted least-squares kernel scales every
column to unit norm before its one SVD, because the regressors mix basis
functions spanning many orders of magnitude in tau, and derives the
solution, standard errors and null directions from that one decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LsDiagnostics",
    "weighted_least_squares",
    "left_null_space",
]

# singular values below this fraction of the largest count as zero
_RCOND = 1e-12


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


def left_null_space(M: np.ndarray, tol_rel: float = 1e-10) -> np.ndarray:
    """Orthonormal rows spanning {v : v^T M = 0}.

    Rank is decided at ``tol_rel * sigma_max``. Returns an array of shape
    (rows(M) - rank, rows(M)); empty (0, rows) when M has full row rank.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise ValueError("M must be a nonempty 2-D array")
    U, s, _ = np.linalg.svd(M, full_matrices=True)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(s > tol_rel * s[0]))
    return U[:, rank:].T.copy()
