"""Identification from Allan covariances (weighted least squares).

The analytic ACOV is linear in every parameter except the drifts, which
enter through pairwise products. Estimation is therefore split in two:

1. a weighted linear regression over the stacked ACOV estimates for the
   noise intensities, measurement covariances and the drift products
   f_ij = (d_{i+1} - d_1)(d_{j+1} - d_1), through ``wishart_fit`` (the
   f_ij are nuisance parameters);
2. a least-squares quadratic fit of each channel's phase for the drifts,
   with the pivot drift supplied by the caller.

A masked record (``MeasurementRecord.valid``) enters both steps through
its valid samples only, and its report carries ``valid_fraction`` and
the averaging factors ``dropped_m`` left without a valid column.

The regression vector theta_a is [q1 x n, q2 x n, r upper, f upper], with
both upper triangles in the row-major order of ``upper_triangle_pairs``;
its first n(n+3)/2 entries are the MDM parameter vector theta_alpha.
"""

from __future__ import annotations

import numpy as np

from .errors import UnidentifiableError
from .model import (
    EnsembleParams,
    params_from_theta_alpha,
    second_difference_moments,
    symmetric_to_upper,
    theta_alpha_from_params,
    upper_triangle_pairs,
)
from .numerics import wishart_fit
from .report import EstimateReport
from .simulate import _BLOCK, MeasurementRecord
from .stability import AcovEstimate, acov_grid, default_grid

__all__ = [
    "theta_a_from_params",
    "build_regression",
    "solve_theta_a",
    "fit_drifts",
    "estimate_acov_method",
]


def theta_a_from_params(params: EnsembleParams) -> np.ndarray:
    """Pack true ensemble parameters into theta_a, [q1 x n, q2 x n, r upper, f upper]."""
    delta = params.drifts()[1:] - params.clocks[0].d
    f_upper = symmetric_to_upper(np.outer(delta, delta))
    return np.concatenate([theta_alpha_from_params(params), f_upper])


def build_regression(acov: AcovEstimate, n: int) -> np.ndarray:
    """Design Phi of the regression acov.sigma2.ravel() ~ Phi theta_a for n
    clocks: one row per entry of ``sigma2.ravel()`` (pair rows of
    ``upper_triangle_pairs`` by the tau grid). Its theta_alpha columns are
    ``second_difference_moments`` at lag 0 with h = tau over 2 tau^2, the
    channel pair's f column tau^2 / 2."""
    pairs = upper_triangle_pairs(n - 1)
    if acov.pairs != tuple(pairs):
        raise ValueError(
            f"ACOV estimate covers {len(acov.pairs)} channel pairs, "
            f"expected {len(pairs)} for n_z={n - 1}"
        )
    taus = acov.grid.taus
    alpha = second_difference_moments(n, taus, 0).transpose(1, 0, 2) / (2.0 * taus**2)[:, None]
    drift = np.eye(len(pairs))[:, None] * (taus**2 / 2.0)[:, None]
    return np.concatenate([alpha, drift], axis=-1).reshape(len(pairs) * len(taus), -1)


def solve_theta_a(acov: AcovEstimate, n: int) -> tuple[np.ndarray, dict]:
    """Two-pass Wishart-weighted solve of the ACOVs for theta_a
    (``wishart_fit``); returns (theta_a, diagnostics).

    Requires at least 4 distinct averaging times (the per-channel basis has
    4 functions of tau) and a full-column-rank regression; otherwise an
    UnidentifiableError carries the null directions. Negative estimates of
    the variance-like entries (q1, q2, r_ii, f_ii) are clamped to
    1e-3 times their standard error and reported in ``clamped``.
    """
    ell = len(acov.grid)  # grid taus increase strictly
    if ell < 4:
        raise UnidentifiableError(f"need >= 4 distinct averaging times, got {ell}")
    return wishart_fit(build_regression(acov, n), acov.sigma2, acov.scale, n)


def fit_drifts(record: MeasurementRecord, d1: float = 0.0) -> np.ndarray:
    """Drifts d^(2..n): d1 plus twice each channel's least-squares t^2 coefficient.

    Without a mask that is the projection on u^2 - (S^2-1)/12, of squared
    norm S(S^2-1)(S^2-4)/180, at the centred sample index u. With a mask
    each channel's 3 x 3 normal equations in 1, v, v^2 (v = u scaled to
    [-1, 1]) are accumulated over its valid samples. Both are summed in
    _BLOCK-column einsums (no BLAS).
    """
    Z, valid = record.Z, record.valid
    S = Z.shape[1]
    if valid is None:
        if S < 3:
            raise UnidentifiableError(
                f"channel 1 has {S} valid samples; a quadratic drift fit needs 3"
            )
        proj = np.zeros(record.n_z)
        for start in range(0, S, _BLOCK):
            u = np.arange(start, min(start + _BLOCK, S)) - 0.5 * (S - 1)
            proj += np.einsum("ik,k->i", Z[:, start : start + _BLOCK], u * u - (S * S - 1) / 12.0)
        return d1 + 360.0 * proj / (S * (S * S - 1.0) * (S * S - 4.0) * record.Ts**2)

    half = 0.5 * (S - 1)
    moments = np.zeros((record.n_z, 5))  # sums of w v^p, p = 0..4
    rhs = np.zeros((record.n_z, 3))  # sums of w z v^p, p = 0..2
    weight = np.empty((record.n_z, min(_BLOCK, S)))
    weighted = np.empty_like(weight)
    powers = np.ones((5, weight.shape[1]))
    for start in range(0, S, _BLOCK):
        v = (np.arange(start, min(start + _BLOCK, S)) - half) / half
        powers = powers[:, : v.size]
        for p in range(1, 5):
            np.multiply(powers[p - 1], v, out=powers[p])
        wb = weight[:, : v.size]
        np.copyto(wb, valid[:, start : start + v.size])
        moments += np.einsum("ik,pk->ip", wb, powers)
        zw = np.multiply(Z[:, start : start + v.size], wb, out=weighted[:, : v.size])
        rhs += np.einsum("ik,pk->ip", zw, powers[:3])
    short = np.flatnonzero(moments[:, 0] < 3)
    if short.size:
        raise UnidentifiableError(
            f"channel {short[0] + 1} has {int(moments[short[0], 0])} valid samples; "
            "a quadratic drift fit needs 3"
        )
    normal = moments[:, np.arange(3)[:, None] + np.arange(3)]
    coef = np.linalg.solve(normal, rhs[..., None])[..., 0]
    return d1 + 2.0 * coef[:, 2] / (half * record.Ts) ** 2


def estimate_acov_method(
    record: MeasurementRecord,
    ell: int | None = None,
    m_max: int | None = None,
    d1: float = 0.0,
) -> EstimateReport:
    """Full ACOV pipeline: grid (``default_grid``), ACOV estimates, Wishart
    fit, drift fit.

    On a masked record a rank-loss UnidentifiableError also names each
    channel's valid fraction and the averaging factors the mask dropped.
    """
    if not np.isfinite(d1):
        raise ValueError(f"pivot drift d1 must be finite, got {d1}")
    n = record.n_z + 1
    acov = acov_grid(record, default_grid(record.n_steps, record.Ts, ell, m_max))
    try:
        theta_a, diagnostics = solve_theta_a(acov, n)
    except UnidentifiableError as exc:
        if record.valid is None:
            raise
        fractions = "/".join(f"{v:.3f}" for v in record.valid_fraction)
        dropped = ", ".join(map(str, acov.dropped_m)) or "none"
        raise UnidentifiableError(
            f"{exc}; the record's mask leaves valid fractions {fractions} per channel "
            f"and drops the averaging factors m = {dropped} of the grid",
            null_directions=exc.null_directions,
        ) from None
    diagnostics.update(ell=len(acov.grid), m_max=int(acov.grid.m_values[-1]))
    if record.valid is not None:
        diagnostics.update(valid_fraction=record.valid_fraction, dropped_m=list(acov.dropped_m))
    n_alpha = n * (n + 3) // 2
    drifts = np.concatenate([[d1], fit_drifts(record, d1)])
    return EstimateReport(
        method="acov",
        ts_seconds=record.Ts,
        params=params_from_theta_alpha(theta_a[:n_alpha], drifts),
        diagnostics=diagnostics,
    )
