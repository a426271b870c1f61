"""Measurement-difference identification.

Stacking L consecutive measurements gives Z_k = O x_k + Gamma W_k + V_k.
Multiplying by an annihilator of O (orthonormal basis of its left null
space) removes the unobservable state, leaving residues that are linear
in the state and measurement noises alone:

    Zbar_k = Am Z_k = A E_k,   A = Am [Gamma, I],   E_k = [W_k; V_k].

The residue mean is linear in the drifts and the residue second moment is
linear in q1, q2 and the unique elements of R, so both stages reduce to
least-squares solves of known maps; the moments are fitted by
``wishart_fit`` with nu the number of residue windows. Both maps are
built from the column blocks of A: the state-noise columns of step l and
clock i, and the measurement-noise columns of step l and channel i.

A masked record (``MeasurementRecord.valid``) keeps only the windows whose
L samples at the MDM period are valid on every channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DriftUnidentifiableError, NoResidueError, UnidentifiableError
from .model import (
    clock_drift_mean,
    clock_noise_cov,
    ensemble_structure,
    params_from_theta_alpha,
)
from .numerics import left_null_space, weighted_least_squares, wishart_fit
from .report import EstimateReport
from .simulate import MeasurementRecord

__all__ = [
    "MdmSystem",
    "build_mdm_system",
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
    """Precomputed matrices of the residue construction.

    O          : (L n_z, 2n) stacked observation matrix [H; HF; ...]
    Am         : (n_aO, L n_z) annihilator, Am O = 0
    A          : (n_aO, n_E) residue map Am [Gamma, I]
    drift_map  : (n_aO, n) residue-mean map of d^(1..n), pivot in column 0
    theta_map  : (n_aO(n_aO+1)/2, n(n+3)/2) map of [q1 x n, q2 x n, upper
                 triangle of R] to the residue covariance's vech (a <= b, row-major)
    """

    O: np.ndarray
    Am: np.ndarray
    A: np.ndarray
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


def build_mdm_system(n: int, ts: float, L: int) -> MdmSystem:
    """Assemble the annihilator, residue map and moment maps for n clocks
    sampled every ts seconds and window L.

    Only the model structure (F, H) enters; the noise parameters being
    estimated never do. Raises NoResidueError when O has full row rank
    (the common-mode pivot subspace leaves rank(O) = 2(n-1), so L = 2
    always has an empty null space).
    """
    if int(L) != L or L < 2:
        raise ValueError(f"L must be an integer >= 2, got {L}")
    L = int(L)
    F, H = ensemble_structure(n, ts)
    n_z, n_x = n - 1, 2 * n

    hf_powers = [H.copy()]
    for _ in range(L - 1):
        hf_powers.append(hf_powers[-1] @ F)
    O = np.vstack(hf_powers)

    Gamma = np.zeros((L * n_z, (L - 1) * n_x))
    for r in range(1, L):
        for c in range(r):
            Gamma[r * n_z : (r + 1) * n_z, c * n_x : (c + 1) * n_x] = hf_powers[r - 1 - c]

    Am = left_null_space(O)
    if Am.shape[0] == 0:
        raise NoResidueError(
            f"stacked observation matrix has full row rank for L={L}, n={n}; "
            "increase L to obtain a residue"
        )
    A = Am @ np.hstack([Gamma, np.eye(L * n_z)])

    # A's columns as W blocks (step l, clock i, phase/frequency) and V blocks
    # (step l, channel i); the noises of different steps, clocks and
    # channels are uncorrelated apart from R's cross terms. Gw and G sum
    # the outer products of those columns over the steps, for the residue
    # pairs (a, b) of the vech rows.
    n_w = (L - 1) * n_x
    Aw = A[:, :n_w].reshape(-1, L - 1, n, 2)
    Av = A[:, n_w:].reshape(-1, L, n_z)
    a, b = np.triu_indices(A.shape[0])
    unit_q = np.stack([clock_noise_cov(1.0, 0.0, ts), clock_noise_cov(0.0, 1.0, ts)])
    Gw = np.einsum("plic,plid->picd", Aw[a], Aw[b])
    q_cols = np.einsum("picd,kcd->pki", Gw, unit_q).reshape(-1, 2 * n)
    G = np.einsum("pli,plj->pij", Av[a], Av[b])
    i, j = np.triu_indices(n_z)
    r_cols = G[:, i, j] + (i != j) * G[:, j, i]

    return MdmSystem(
        O=O,
        Am=Am,
        A=A,
        drift_map=Aw.sum(axis=1) @ clock_drift_mean(1.0, ts),
        theta_map=np.hstack([q_cols, r_cols]),
        Ts=float(ts),
        L=L,
        n=n,
    )


def compute_residues(record: MeasurementRecord, system: MdmSystem) -> np.ndarray:
    """Residues Zbar_k = Am [z_k; ...; z_{k+L-1}] of the record at system.Ts.

    system.Ts must be an integer multiple f of the record's Ts; the windows
    are cut from the strided view Z[:, ::f] without copying the record.
    With M = ceil((N+1)/f) samples at system.Ts the shape is (n_aO, M-L+1),
    less the windows that hold a sample the record's mask marks invalid on
    some channel; NoResidueError when no window is left.
    """
    if record.n_z != system.n_z:
        raise ValueError(
            f"record has {record.n_z} channels, system expects {system.n_z}"
        )
    ratio = system.Ts / record.Ts
    f = int(round(ratio))
    if f < 1 or abs(ratio - f) > 1e-9 * f:
        raise ValueError(
            f"MDM Ts={system.Ts} is not an integer multiple of record Ts={record.Ts}"
        )
    Z = record.Z[:, ::f]
    if Z.shape[1] < system.L:
        raise ValueError(
            f"record has {Z.shape[1]} samples at Ts={system.Ts}, need at least L={system.L}"
        )
    count = Z.shape[1] - system.L + 1
    stacked = np.vstack([Z[:, r : r + count] for r in range(system.L)])
    residues = system.Am @ stacked
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
    """Model-implied vech of the residue covariance for given Q and R.

    That is vech(A blockdiag(I_{L-1} kron Q, I_L kron R) A^T) in row-major
    upper-triangle order: the vech rows of (A kron A) vec(blockdiag(...))
    without the explicit n_aO^2 x n_E^2 Kronecker product.
    """
    A, L = system.A, system.L
    n_w = (L - 1) * Q.shape[0]
    block = np.zeros((A.shape[1], A.shape[1]))
    block[:n_w, :n_w] = np.kron(np.eye(L - 1), Q)
    block[n_w:, n_w:] = np.kron(np.eye(L), R)
    return (A @ block @ A.T)[np.triu_indices(A.shape[0])]


def solve_drifts_from_mean(
    mean: np.ndarray, system: MdmSystem, d1: float = 0.0
) -> tuple[np.ndarray, dict]:
    """Drifts d^(2..n) from a residue mean, with the pivot drift known."""
    mean = np.asarray(mean, dtype=float).ravel()
    rhs = mean - system.drift_map[:, 0] * d1
    n_rest = system.n - 1
    x, diag = weighted_least_squares(system.drift_map[:, 1:], rhs, np.ones(mean.size))
    if diag.rank < n_rest:
        raise DriftUnidentifiableError(
            f"drift map rank {diag.rank} < {n_rest}; increase the window L"
        )
    return x, {"residual": diag.residual_norm, "cond": diag.condition_number}


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
    return solve_theta_alpha_from_moment(outer[np.triu_indices(len(outer))], system, count)


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
    diagnostics["drift_cond"] = drift_diag["cond"]
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
