"""The two-pass Wishart fit that both identification methods share.

The fit forms no normal equations: it scales every column of the
weighted design to unit norm before its one SVD per pass, because the
regressors mix basis functions spanning many orders of magnitude in tau,
and takes the rank, solution, standard errors and null directions from
that one decomposition.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UnidentifiableError
from .model import clamp_negative_variances, upper_triangle_indices

__all__ = ["wishart_variance", "wishart_fit"]

# singular values below this fraction of the largest count as zero
_RCOND = 1e-12

# keeps the weights of an all-zero moment finite
_VAR_FLOOR_ABS = 1e-100


def wishart_variance(sample: np.ndarray, scale) -> np.ndarray:
    """Wishart variance (s_ii s_jj + s_ij^2) * scale of sample covariances.

    ``sample`` holds the vech rows (row-major upper triangle, as
    ``upper_triangle_pairs``) of k x k sample covariance matrices, one
    column per matrix; ``scale`` is 1/nu of each entry, nu its degrees of
    freedom, and broadcasts to sample's shape. An absolute floor keeps the
    variance of an all-zero moment positive.
    """
    i, j = upper_triangle_indices((math.isqrt(8 * sample.shape[0] + 1) - 1) // 2)
    diag = sample[i == j]
    return (diag[i] * diag[j] + sample**2) * scale + _VAR_FLOOR_ABS


def wishart_fit(design: np.ndarray, sample: np.ndarray, scale, n: int) -> tuple[np.ndarray, dict]:
    """Fit linear moments design @ theta to sample covariances in two passes.

    ``sample`` and ``scale`` are laid out as in ``wishart_variance`` and
    ``design`` has one row per entry of ``sample.ravel()``; theta is laid
    out as ``clamp_negative_variances`` expects for n clocks. The first
    pass weights each entry by the inverse Wishart variance w of the
    sample, the second by that of the fitted moments. Each pass minimises
    ||W^{1/2} (sample - design theta)|| with one refinement step on the
    same factors, its residual formed in extended precision: at maser
    scale the smallest parameters sit at the rounding floor of the sample,
    and the step makes the answer independent of row and column order.
    Negative variance-like entries are then clamped. Returns theta and the
    second pass's weighted ``residual`` (of the unclamped solution),
    ``cond``, ``rank``, ``se`` = sqrt(diag((A^T W A)^-1)) and ``clamped``.
    Below full column rank an UnidentifiableError carries the unit null
    directions of W^{1/2} design.
    """
    design = np.asarray(design, dtype=float)
    sample = np.asarray(sample, dtype=float)
    b = sample.ravel()
    if design.ndim != 2 or design.shape[0] != b.size:
        raise ValueError(f"incompatible shapes design {design.shape}, sample {sample.shape}")
    moments = sample
    for _ in range(2):
        sqrt_w = np.sqrt(1.0 / wishart_variance(moments, scale).ravel())
        B = design * sqrt_w[:, None]
        rhs = b * sqrt_w
        col = np.linalg.norm(B, axis=0)
        col[col == 0.0] = 1.0
        Bs = B / col
        # a wide design needs the full V for its null space
        U, s, Vt = np.linalg.svd(Bs, full_matrices=Bs.shape[0] < Bs.shape[1])
        rank = int(np.sum(s > _RCOND * s[0])) if s.size else 0
        if rank < design.shape[1]:
            null = Vt[rank:] / col
            raise UnidentifiableError(
                f"rank {rank} < {design.shape[1]} parameters; "
                f"{design.shape[1] - rank} unidentifiable direction(s)",
                null_directions=null / np.linalg.norm(null, axis=1, keepdims=True),
            )
        y = Vt.T @ ((U.T @ rhs) / s)
        ext = np.longdouble
        resid = rhs.astype(ext) - Bs.astype(ext) @ y.astype(ext)
        y = y + Vt.T @ ((U.T @ resid.astype(float)) / s)
        x = y / col
        se = np.sqrt(((Vt / s[:, None]) ** 2).sum(axis=0)) / col
        residual = float(np.linalg.norm(rhs - B @ x))
        clamped = clamp_negative_variances(x, se, n)
        moments = (design @ x).reshape(sample.shape)
    return x, {
        "residual": residual,
        "cond": float(s[0] / s[-1]),
        "rank": rank,
        "se": se,
        "clamped": clamped,
    }
