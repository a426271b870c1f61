"""Measurement-difference identification.

Stacking L consecutive measurements gives Z_k = O x_k plus the window's
state and measurement noises, with O = [H; HF; ...; HF^(L-1)]. Each
channel's second differences (1, -2, 1) annihilate O, since H F^l is
linear in l, so the residues

    Zbar_k = Am Z_k,   Am = B kron I_{n_z},

with B the (L-2) x L band of (1, -2, 1) rows, are free of the state.
Neither O nor Am is built: the residues are the second differences of
the record at the MDM period, and their moments are the model's
``second_difference_moments`` at h = ts, the map ACOV's design shares.
Each of their L-2 rows of channel i has mean (d_{i+1} - d_1) ts^2, so one
pass over the residues gives both halves: the row means averaged per
channel give the drifts, and the residues' covariance about that
average, linear in q1, q2 and the unique elements of R, is fitted by
``wishart_fit`` with nu the number of residue windows. The noise fit
never sees the pivot drift d1.

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
    params_from_theta_alpha,
    second_difference_moments,
    upper_to_symmetric,
    upper_triangle_indices,
)
from .numerics import wishart_fit
from .report import EstimateReport
from .simulate import MeasurementRecord

__all__ = [
    "MdmSystem",
    "build_mdm_system",
    "check_window",
    "resampling_stride",
    "compute_residues",
    "estimate_theta_alpha",
    "estimate_mdm",
]


@dataclass(frozen=True)
class MdmSystem:
    """The residue moment map of n clocks at the MDM period Ts, window L.

    theta_map : (n_aO(n_aO+1)/2, n(n+3)/2) map of [q1 x n, q2 x n, upper
                triangle of R] to the residue covariance's vech (a <= b,
                row-major), with n_aO = (L-2) n_z residue rows
    """

    theta_map: np.ndarray
    Ts: float
    L: int
    n: int

    @property
    def n_z(self) -> int:
        return self.n - 1

    @property
    def n_residue(self) -> int:
        return (self.L - 2) * self.n_z


def check_window(n: int, L: int) -> int:
    """The window L as an int; ValueError unless it is an integer >= 2 and
    n >= 2, NoResidueError for L = 2, whose window holds no second
    difference (rank(O) = 2(n-1) fills all of its rows)."""
    if int(L) != L or L < 2:
        raise ValueError(f"L must be an integer >= 2, got {L}")
    if n < 2:
        raise ValueError("an ensemble needs at least 2 clocks")
    if L == 2:
        raise NoResidueError(
            f"a window of L=2 samples holds no second difference (n={n}); "
            "increase L to obtain a residue"
        )
    return int(L)


@functools.lru_cache
def build_mdm_system(n: int, ts: float, L: int) -> MdmSystem:
    """Assemble the residue moment map for n clocks sampled every ts
    seconds and window L (``check_window``).

    Rows (s, i) and (t, j) of the residue share the moments of channels i
    and j's second differences at lag t - s, ``second_difference_moments``
    at h = ts. Only the model structure enters; the noise parameters being
    estimated never do, so the system is built once per (n, ts, L) and
    cached: every call with the same arguments returns the same object,
    whose theta_map is read-only.
    """
    L = check_window(n, L)
    n_z = n - 1
    pair = upper_to_symmetric(np.arange(n_z * (n_z + 1) // 2), n_z).astype(int)
    (s, i), (t, j) = (np.divmod(k, n_z) for k in upper_triangle_indices((L - 2) * n_z))
    theta_map = second_difference_moments(n, ts, np.arange(L - 2))[t - s, pair[i, j]]
    theta_map.flags.writeable = False
    return MdmSystem(theta_map=theta_map, Ts=float(ts), L=L, n=n)


def resampling_stride(ts_target_s: float, L: int, ts: float, n_samples: int) -> int:
    """The stride f = ts_target_s / ts that takes a record of n_samples
    samples every ts seconds to the MDM period ts_target_s; ValueError
    unless that period is finite and positive, f is an integer and the
    ceil(n_samples / f) samples at ts_target_s fill a window of L. It needs
    no MdmSystem, so settings can be checked before one is built."""
    if not 0.0 < ts_target_s < np.inf:
        raise ValueError(f"MDM period ts_target_s must be finite and > 0, got {ts_target_s}")
    ratio = ts_target_s / ts
    if ratio == np.inf:
        raise ValueError(f"MDM Ts={ts_target_s} over record Ts={ts} overflows the stride")
    f = int(round(ratio))
    if f < 1 or abs(ratio - f) > 1e-9 * f:
        raise ValueError(f"MDM Ts={ts_target_s} is not an integer multiple of record Ts={ts}")
    if (samples := -(-n_samples // f)) < L:
        raise ValueError(f"record has {samples} samples at Ts={ts_target_s}, need at least L={L}")
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
    f = resampling_stride(system.Ts, system.L, record.Ts, record.Z.shape[1])
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


def estimate_theta_alpha(
    residues: np.ndarray, mean: np.ndarray, system: MdmSystem
) -> tuple[np.ndarray, dict]:
    """Noise parameters theta_alpha from the residues' covariance about
    ``mean``, each channel's residue mean (d_{i+1} - d_1) ts^2 repeated over
    the L-2 rows: one block of ``wishart_fit`` with nu the number of
    windows, so its ``se`` treats the windows as independent. Below full
    column rank the parameters are not identifiable: a larger L is
    suggested for three or more clocks, and a third clock for two, where
    no window helps.
    """
    centred = residues - np.tile(mean, system.L - 2)[:, None]
    count = centred.shape[1]
    outer = (centred @ centred.T) / count
    moment = outer[upper_triangle_indices(len(outer))]
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


def estimate_mdm(
    record: MeasurementRecord,
    L: int = 5,
    ts_target_s: float = 5000.0,
    d1: float = 0.0,
) -> EstimateReport:
    """Full MDM pipeline: build the system at ts_target_s, then residues,
    each channel's residue mean, the drifts d1 + mean / ts^2 and the noise
    from the residues' covariance about that mean. ``drift_residual`` is
    the norm of the row means less the channel means repeated over the
    L-2 rows.

    ts_target_s must be an integer multiple of the record's Ts, and the
    record must hold at least L samples at that period; both are checked
    before the system is built. compute_residues takes every
    (ts_target_s / Ts)-th sample through a strided view.
    """
    if not np.isfinite(d1):
        raise ValueError(f"pivot drift d1 must be finite, got {d1}")
    resampling_stride(ts_target_s, L, record.Ts, record.Z.shape[1])
    system = build_mdm_system(record.n_z + 1, ts_target_s, L)
    residues = compute_residues(record, system)
    row_means = residues.mean(axis=1)
    mean = row_means.reshape(system.L - 2, system.n_z).mean(axis=0)
    drifts = d1 + mean / system.Ts**2
    theta_alpha, diagnostics = estimate_theta_alpha(residues, mean, system)

    diagnostics["drift_residual"] = float(np.linalg.norm(row_means - np.tile(mean, system.L - 2)))
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
