"""Measurement-difference identification.

Stacking L consecutive measurements gives Z_k = O x_k plus the window's
state and measurement noises. Each channel's second differences
(1, -2, 1) annihilate O, since H F^l is linear in l, so the residues

    Zbar_k = Am Z_k,   Am = B kron I_{n_z},

with B the (L-2) x L band of (1, -2, 1) rows, are free of the state.
Each of their L-2 rows of channel i has mean (d_{i+1} - d_1) ts^2, so the
drifts are a row average; their second moment is linear in q1, q2 and
the unique elements of R in closed form, and is fitted by ``wishart_fit``
with nu the number of residue windows.

A masked record (``MeasurementRecord.valid``) keeps only the windows whose
L samples at the MDM period are valid on every channel.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NoResidueError, UnidentifiableError
from .model import (
    clock_noise_cov,
    ensemble_structure,
    params_from_theta_alpha,
    upper_triangle_indices,
)
from .numerics import wishart_fit
from .report import EstimateReport
from .simulate import MeasurementRecord

__all__ = [
    "MdmSystem",
    "build_mdm_system",
    "resampling_stride",
    "compute_residues",
    "residue_mean_from_drifts",
    "residue_second_moment_from_cov",
    "solve_drifts_from_mean",
    "solve_theta_alpha_from_moment",
    "estimate_theta_alpha",
    "estimate_mdm",
]


@dataclass(frozen=True)
class MdmSystem:
    """Matrices of the residue construction.

    O          : (L n_z, 2n) stacked observation matrix [H; HF; ...]
    Am         : (n_aO, L n_z) stencil B kron I_{n_z}, Am O = 0,
                 n_aO = (L-2) n_z
    drift_map  : (n_aO, n) residue-mean map of d^(1..n), pivot in column 0
    theta_map  : (n_aO(n_aO+1)/2, n(n+3)/2) map of [q1 x n, q2 x n, upper
                 triangle of R] to the residue covariance's vech (a <= b, row-major)
    """

    O: np.ndarray
    Am: np.ndarray
    drift_map: np.ndarray
    theta_map: np.ndarray
    Ts: float
    L: int
    n: int

    @property
    def n_z(self) -> int:
        return self.n - 1

    @property
    def n_residue(self) -> int:
        return self.Am.shape[0]


def _residue_moments(L: int, ts: float, blocks: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Vech rows of the residue covariance for the clocks' noise blocks
    [[a, b], [b, c]] over one step of ts, shape (..., n, 2, 2), and R,
    shape (..., n_z, n_z); the leading axes broadcast.

    A clock's phase second difference has autocovariance gamma_0 =
    ts^2 c + 2a - 2 ts b and gamma_1 = ts b - a, none beyond lag 1, and the
    measurement noise adds rho_l R with rho = (6, -4, 1) at lags 0-2. Rows
    (s, i) and (t, j) of the residue, at lag l = t - s, share the pivot's
    gamma_l, clock i+1's gamma_l when i = j, and rho_l R_ij.
    """
    a, b, c = blocks[..., 0, 0], blocks[..., 0, 1], blocks[..., 1, 1]
    zero = np.zeros_like(a)
    gamma = np.stack([ts**2 * c + 2.0 * a - 2.0 * ts * b, ts * b - a, zero, zero], axis=-1)
    rho = np.array([6.0, -4.0, 1.0, 0.0])
    n_z = blocks.shape[-3] - 1
    rows, cols = upper_triangle_indices((L - 2) * n_z)
    (s, i), (t, j) = np.divmod(rows, n_z), np.divmod(cols, n_z)
    lag = np.minimum(t - s, 3)
    return gamma[..., 0, lag] + (i == j) * gamma[..., i + 1, lag] + rho[lag] * R[..., i, j]


@functools.lru_cache
def build_mdm_system(n: int, ts: float, L: int) -> MdmSystem:
    """Assemble the stencil and the moment maps for n clocks sampled
    every ts seconds and window L.

    Only the model structure enters; the noise parameters being estimated
    never do, so the system is built once per (n, ts, L) and cached: every
    call with the same arguments returns the same object, whose arrays are
    read-only. Raises NoResidueError for L = 2, whose window holds no
    second difference (rank(O) = 2(n-1) fills all of its rows).
    """
    if int(L) != L or L < 2:
        raise ValueError(f"L must be an integer >= 2, got {L}")
    L = int(L)
    F, H = ensemble_structure(n, ts)
    if L == 2:
        raise NoResidueError(
            f"a window of L=2 samples holds no second difference (n={n}); "
            "increase L to obtain a residue"
        )
    n_z = n - 1

    # one column per parameter: unit q1 and q2 blocks of each clock, then
    # the unit symmetric R of each upper-triangle entry
    n_q, n_r = 2 * n, n_z * (n_z + 1) // 2
    unit = np.stack([clock_noise_cov(1.0, 0.0, ts), clock_noise_cov(0.0, 1.0, ts)])
    blocks = np.zeros((n_q + n_r, n, 2, 2))
    blocks[np.arange(n_q), np.tile(np.arange(n), 2)] = np.repeat(unit, n, axis=0)
    unit_r = np.zeros((n_q + n_r, n_z, n_z))
    i, j = upper_triangle_indices(n_z)
    unit_r[n_q + np.arange(n_r), i, j] = unit_r[n_q + np.arange(n_r), j, i] = 1.0

    # a clock's phase second difference has mean d ts^2
    drift_rows = ts**2 * np.hstack([-np.ones((n_z, 1)), np.eye(n_z)])
    system = MdmSystem(
        O=np.vstack([H @ np.linalg.matrix_power(F, l) for l in range(L)]),
        Am=np.kron(np.diff(np.eye(L), 2, axis=0), np.eye(n_z)),
        drift_map=np.tile(drift_rows, (L - 2, 1)),
        theta_map=_residue_moments(L, ts, blocks, unit_r).T,
        Ts=float(ts),
        L=L,
        n=n,
    )
    for array in (system.O, system.Am, system.drift_map, system.theta_map):
        array.flags.writeable = False
    return system


def resampling_stride(system: MdmSystem, ts: float, n_samples: int) -> int:
    """The stride f = system.Ts / ts that takes a record of n_samples
    samples every ts seconds to system.Ts; ValueError unless f is an integer
    and the ceil(n_samples / f) samples at system.Ts fill a window of L."""
    ratio = system.Ts / ts
    f = int(round(ratio))
    if f < 1 or abs(ratio - f) > 1e-9 * f:
        raise ValueError(f"MDM Ts={system.Ts} is not an integer multiple of record Ts={ts}")
    if (samples := -(-n_samples // f)) < system.L:
        raise ValueError(
            f"record has {samples} samples at Ts={system.Ts}, need at least L={system.L}"
        )
    return f


def compute_residues(record: MeasurementRecord, system: MdmSystem) -> np.ndarray:
    """Residues Zbar_k = Am [z_k; ...; z_{k+L-1}] of the record at system.Ts.

    system.Ts must be an integer multiple f of the record's Ts, with at
    least L samples at system.Ts (``resampling_stride``); the second
    differences of the strided view Z[:, ::f] are formed once,
    without copying the record, and each window offset is a slice of
    them. With M = ceil((N+1)/f) samples at system.Ts the shape is
    (n_aO, M-L+1), less the windows that hold a sample the record's mask
    marks invalid on some channel; NoResidueError when no window is left.
    """
    if record.n_z != system.n_z:
        raise ValueError(
            f"record has {record.n_z} channels, system expects {system.n_z}"
        )
    f = resampling_stride(system, record.Ts, record.Z.shape[1])
    Z = record.Z[:, ::f]
    count = Z.shape[1] - system.L + 1
    D = Z[:, 2:] - 2.0 * Z[:, 1:-1] + Z[:, :-2]
    residues = np.vstack([D[:, s : s + count] for s in range(system.L - 2)])
    if record.valid is None:
        return residues
    sample_ok = record.valid[:, ::f].all(axis=0)
    keep = sliding_window_view(sample_ok, system.L).all(axis=1)
    if not keep.any():
        raise NoResidueError(
            f"no window of L={system.L} samples at Ts={system.Ts} is valid on every channel"
        )
    return residues[:, keep]


def residue_mean_from_drifts(system: MdmSystem, drifts: np.ndarray) -> np.ndarray:
    """Model-implied residue mean for the full drift vector d^(1..n)."""
    d = np.asarray(drifts, dtype=float).ravel()
    if d.size != system.n:
        raise ValueError(f"expected {system.n} drifts, got {d.size}")
    return system.drift_map @ d


def residue_second_moment_from_cov(
    system: MdmSystem, Q: np.ndarray, R: np.ndarray
) -> np.ndarray:
    """Model-implied vech of the residue covariance (row-major upper
    triangle) from Q's diagonal 2 x 2 clock blocks and R; theta_map is
    the same form for unit parameters."""
    n = system.n
    blocks = np.asarray(Q, dtype=float).reshape(n, 2, n, 2)[np.arange(n), :, np.arange(n)]
    return _residue_moments(system.L, system.Ts, blocks, np.asarray(R, dtype=float))


def solve_drifts_from_mean(
    mean: np.ndarray, system: MdmSystem, d1: float = 0.0
) -> tuple[np.ndarray, dict]:
    """Drifts d^(2..n) from a residue mean, with the pivot drift known.

    The map of d^(2..n) is ts^2 times L-2 stacked identities, so the
    least-squares drifts are d1 plus the average of the L-2 rows over
    ts^2; ``residual`` is the norm of the mean left unexplained."""
    mean = np.asarray(mean, dtype=float).ravel()
    drifts = d1 + mean.reshape(system.L - 2, system.n_z).mean(axis=0) / system.Ts**2
    residual = mean - residue_mean_from_drifts(system, np.concatenate([[d1], drifts]))
    return drifts, {"residual": float(np.linalg.norm(residual))}


def solve_theta_alpha_from_moment(
    moment: np.ndarray, system: MdmSystem, count: int
) -> tuple[np.ndarray, dict]:
    """Noise parameters theta_alpha from the vech of a residue covariance
    over ``count`` windows: one block of ``wishart_fit`` with nu = count, so
    its ``se`` treats the windows as independent. Below full column rank
    the parameters are not identifiable: a larger L is suggested for three
    or more clocks, and a third clock for two, where no window helps.
    """
    moment = np.asarray(moment, dtype=float).reshape(-1, 1)
    try:
        return wishart_fit(system.theta_map, moment, 1.0 / count, system.n)
    except UnidentifiableError as exc:
        hint = (
            "one channel cannot separate the pivot's noise from the other "
            "clock's; a third clock is needed"
            if system.n == 2
            else "increase the window L"
        )
        raise UnidentifiableError(
            f"moment map {exc} (n={system.n}, L={system.L}); {hint}",
            null_directions=exc.null_directions,
        ) from None


def estimate_theta_alpha(
    residues: np.ndarray,
    drifts: np.ndarray,
    system: MdmSystem,
    d1: float = 0.0,
) -> tuple[np.ndarray, dict]:
    """Noise parameters from drift-corrected residue second moments."""
    correction = residue_mean_from_drifts(
        system, np.concatenate([[d1], np.asarray(drifts, dtype=float).ravel()])
    )
    centred = residues - correction[:, None]
    count = centred.shape[1]
    outer = (centred @ centred.T) / count
    return solve_theta_alpha_from_moment(outer[upper_triangle_indices(len(outer))], system, count)


def estimate_mdm(
    record: MeasurementRecord,
    L: int = 5,
    ts_target_s: float = 5000.0,
    d1: float = 0.0,
) -> EstimateReport:
    """Full MDM pipeline: build the system at ts_target_s, then residues,
    drifts from their mean and noise from their drift-corrected moments.

    ts_target_s must be an integer multiple of the record's Ts, and the
    record must hold at least L samples at that period; compute_residues
    takes every (ts_target_s / Ts)-th sample through a strided view.
    """
    if not np.isfinite(d1):
        raise ValueError(f"pivot drift d1 must be finite, got {d1}")
    system = build_mdm_system(record.n_z + 1, ts_target_s, L)
    residues = compute_residues(record, system)
    drifts, drift_diag = solve_drifts_from_mean(residues.mean(axis=1), system, d1)
    theta_alpha, diagnostics = estimate_theta_alpha(residues, drifts, system, d1=d1)

    diagnostics["drift_residual"] = drift_diag["residual"]
    diagnostics["L"] = system.L
    diagnostics["ts_target_s"] = system.Ts
    diagnostics["n_residue_dim"] = system.n_residue
    if record.valid is not None:
        diagnostics["valid_fraction"] = record.valid_fraction
    return EstimateReport(
        method="mdm",
        ts_seconds=record.Ts,
        params=params_from_theta_alpha(theta_alpha, np.concatenate([[d1], drifts])),
        diagnostics=diagnostics,
    )
