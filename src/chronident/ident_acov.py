"""Identification from Allan covariances (weighted least squares).

The analytic ACOV is linear in every parameter except the drifts, which
enter through pairwise products. Estimation is therefore split in two:

1. a weighted linear regression over the stacked ACOV estimates for the
   noise intensities, measurement covariances and the drift products
   f_ij = (d_{i+1} - d_1)(d_{j+1} - d_1);
2. a rank-one factorisation of the symmetric matrix of f estimates (its
   leading eigenpair) to recover the drifts themselves, with the pivot
   drift supplied by the caller.

The regression vector theta_a is [q1 x n, q2 x n, r upper, f upper], with
both upper triangles in the row-major order of ``upper_triangle_pairs``;
its first n(n+3)/2 entries are the MDM parameter vector theta_alpha.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnidentifiableError
from .model import (
    EnsembleParams,
    clamp_negative_variances,
    params_from_theta_alpha,
    symmetric_to_upper,
    theta_alpha_from_params,
    upper_to_symmetric,
    upper_triangle_pairs,
)
from .numerics import weighted_least_squares
from .report import EstimateReport
from .simulate import MeasurementRecord
from .stability import AcovEstimate, acov_grid, log_spaced_grid

__all__ = [
    "RegressionSystem",
    "theta_a_from_params",
    "build_regression",
    "solve_theta_a",
    "recover_drifts",
    "estimate_acov_method",
]


def theta_a_from_params(params: EnsembleParams) -> np.ndarray:
    """Pack true ensemble parameters into theta_a, [q1 x n, q2 x n, r upper, f upper]."""
    delta = params.drifts()[1:] - params.clocks[0].d
    f_upper = symmetric_to_upper(np.outer(delta, delta))
    return np.concatenate([theta_alpha_from_params(params), f_upper])


@dataclass(frozen=True)
class RegressionSystem:
    """Stacked regression z_a ~ Phi theta_a with diagonal weights w.

    Row blocks follow the channel pairs of ``upper_triangle_pairs``
    (row-major, as in AcovEstimate.pairs), each expanded over the tau grid.
    """

    z_a: np.ndarray
    Phi: np.ndarray
    w: np.ndarray
    taus: np.ndarray
    n: int


def build_regression(acov: AcovEstimate, n: int) -> RegressionSystem:
    """Assemble (z_a, Phi, W) from grid ACOV estimates for n clocks."""
    n_z = n - 1
    pairs = upper_triangle_pairs(n_z)
    if acov.pairs != tuple(pairs):
        raise ValueError(
            f"ACOV estimate covers {len(acov.pairs)} channel pairs, "
            f"expected {len(pairs)} for n_z={n_z}"
        )
    taus = acov.grid.taus
    ell = len(taus)
    Phi = np.zeros((len(pairs) * ell, n * (n + 1)))
    r_col = 2 * n
    f_col = r_col + len(pairs)
    white_fm = 1.0 / taus
    walk_fm = taus / 3.0

    for t, (i, j) in enumerate(pairs):
        rows = slice(t * ell, (t + 1) * ell)
        Phi[rows, 0] = white_fm
        Phi[rows, n] = walk_fm
        Phi[rows, r_col + t] = 3.0 / taus**2
        Phi[rows, f_col + t] = taus**2 / 2.0
        if i == j:
            Phi[rows, i] = white_fm
            Phi[rows, n + i] = walk_fm
    return RegressionSystem(
        z_a=acov.sigma2.ravel().copy(),
        Phi=Phi,
        w=1.0 / acov.var.ravel(),
        taus=taus.copy(),
        n=n,
    )


def solve_theta_a(system: RegressionSystem) -> tuple[np.ndarray, dict]:
    """Weighted least-squares solve for theta_a; returns (theta_a, diagnostics).

    Requires at least 4 distinct averaging times (the per-channel basis has
    4 functions of tau) and a full-column-rank regression; otherwise an
    UnidentifiableError carries the null directions. Negative estimates of
    the variance-like entries (q1, q2, r_ii, f_ii) are clamped to
    1e-3 times their standard error and reported in ``clamped``.
    """
    n = system.n
    n_cols = system.Phi.shape[1]
    if len(np.unique(system.taus)) < 4:
        raise UnidentifiableError(
            f"need >= 4 distinct averaging times, got {len(np.unique(system.taus))}"
        )
    x, diag = weighted_least_squares(system.Phi, system.z_a, system.w)
    if diag.rank < n_cols:
        raise UnidentifiableError(
            f"regression rank {diag.rank} < {n_cols} parameters; "
            f"{n_cols - diag.rank} unidentifiable direction(s)",
            null_directions=diag.null_directions,
        )
    diagnostics = {
        "residual": diag.residual_norm,
        "cond": diag.condition_number,
        "rank": diag.rank,
        "se": diag.se,
        "clamped": clamp_negative_variances(x, diag.se, n),
    }
    return x, diagnostics


def recover_drifts(
    f_hat: np.ndarray,
    d1: float = 0.0,
    sign_hint: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """Recover drifts d^(2..n) from the symmetric matrix of f estimates.

    delta is the leading eigenpair sqrt(lambda_max) v_max of the
    (symmetrised) f matrix, the best rank-one fit delta delta^T in the
    Frobenius norm. f is invariant under delta -> -delta; the global sign
    is fixed by a majority vote against ``sign_hint`` (one entry per
    channel, typically the mean second difference which estimates
    delta_i * Ts^2). Returns d1 + delta and an info dict; its
    ``iterations`` is always 0, since the factorisation is closed-form.
    """
    F = np.asarray(f_hat, dtype=float)
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise ValueError(f"f_hat must be square, got shape {F.shape}")
    F = 0.5 * (F + F.T)
    n_z = F.shape[0]

    info = {"degenerate": False, "iterations": 0}
    if np.linalg.norm(F) == 0.0:
        info["degenerate"] = True
        return d1 + np.zeros(n_z), info

    eigvals, eigvecs = np.linalg.eigh(F)
    if eigvals[-1] <= 0.0:
        info["degenerate"] = True
        return d1 + np.zeros(n_z), info
    delta = np.sqrt(eigvals[-1]) * eigvecs[:, -1]

    if sign_hint is not None:
        hint = np.asarray(sign_hint, dtype=float).ravel()
        if hint.size != n_z:
            raise ValueError(f"sign_hint has length {hint.size}, expected {n_z}")
        votes = float(np.sum(np.sign(hint) * np.sign(delta)))
        if votes < 0.0:
            delta = -delta
    return d1 + delta, info


def drift_sign_hint(record: MeasurementRecord) -> np.ndarray:
    """Mean second difference per channel; estimates (d^(i+1)-d^(1)) Ts^2.

    The sum of the S - 2 second differences of S samples telescopes to the
    last first difference minus the first one.
    """
    Z = record.Z
    return ((Z[:, -1] - Z[:, -2]) - (Z[:, 1] - Z[:, 0])) / (Z.shape[1] - 2)


def estimate_acov_method(
    record: MeasurementRecord,
    ell: int = 20,
    m_max: int | None = None,
    d1: float = 0.0,
) -> EstimateReport:
    """Full ACOV pipeline: grid, ACOV estimates, WLS, drift factorisation."""
    if not np.isfinite(d1):
        raise ValueError(f"pivot drift d1 must be finite, got {d1}")
    n_steps = record.n_steps
    if m_max is None:
        m_max = n_steps // 2
    if m_max < 1:
        raise ValueError(f"record too short for ACOV estimation (N={n_steps})")
    grid = log_spaced_grid(ell, m_max, record.Ts)
    acov = acov_grid(record, grid)
    n = record.n_z + 1
    system = build_regression(acov, n)
    theta_a, diagnostics = solve_theta_a(system)
    n_alpha = n * (n + 3) // 2
    f_hat = upper_to_symmetric(theta_a[n_alpha:], n - 1)
    drifts, drift_info = recover_drifts(f_hat, d1=d1, sign_hint=drift_sign_hint(record))

    diagnostics["drift_iterations"] = drift_info["iterations"]
    diagnostics["drift_degenerate"] = drift_info["degenerate"]
    diagnostics["ell"] = len(grid)
    diagnostics["m_max"] = int(grid.m_values[-1])
    return EstimateReport(
        method="acov",
        ts_seconds=record.Ts,
        params=params_from_theta_alpha(theta_a[:n_alpha], np.concatenate([[d1], drifts])),
        diagnostics=diagnostics,
    )
