"""Measurement-difference identification.

Stacking L consecutive measurements gives Z_k = O x_k + Gamma W_k + V_k.
Multiplying by an annihilator of O (orthonormal basis of its left null
space) removes the unobservable state, leaving residues that are linear
in the state and measurement noises alone:

    Zbar_k = Am Z_k = A E_k,   A = Am [Gamma, I],   E_k = [W_k; V_k].

The residue mean is linear in the drifts and the residue second moment is
linear in the unique elements of Q and R (via the Kronecker identity
(A e) kron (A e) = (A kron A)(e kron e)), so both stages reduce to
least-squares solves of known maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DriftUnidentifiableError, NoResidueError, UnidentifiableError
from .model import (
    clamp_negative_variances,
    clock_drift_mean,
    clock_noise_cov,
    ensemble_structure,
    params_from_theta_alpha,
    upper_triangle_pairs,
)
from .numerics import left_null_space, weighted_least_squares
from .report import EstimateReport
from .simulate import MeasurementRecord, decimate

__all__ = [
    "MdmSystem",
    "build_mdm_system",
    "build_structure_matrices",
    "compute_residues",
    "residue_mean_from_drifts",
    "residue_second_moment_from_cov",
    "solve_drifts_from_mean",
    "estimate_drifts_mdm",
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
    drift_map_pivot / drift_map_rest : residue-mean maps for d^(1) and d^(2..n)
    theta_map  : (n_aO^2, n(n+3)/2) residue-second-moment map
    """

    O: np.ndarray
    Am: np.ndarray
    A: np.ndarray
    drift_map_pivot: np.ndarray
    drift_map_rest: np.ndarray
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

    @property
    def n_noise(self) -> int:
        return self.A.shape[1]


def build_structure_matrices(
    n: int, ts: float
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Basis matrices (B_Q^(i), B_R^(i)) such that Q = sum theta_i B_Q^(i)
    and R = sum theta_i B_R^(i) for theta = [q1 x n, q2 x n, r upper].

    The q1 entries select the white-FM part of one clock's 2x2 block, the
    q2 entries the random-walk part, and the r entries place ones at the
    matching (symmetric) positions of R.
    """
    n_z = n - 1
    B_Q: list[np.ndarray] = []
    for block in (clock_noise_cov(1.0, 0.0, ts), clock_noise_cov(0.0, 1.0, ts)):
        for i in range(n):
            selector = np.zeros((n, n))
            selector[i, i] = 1.0
            B_Q.append(np.kron(selector, block))
    B_R = [np.zeros((n_z, n_z)) for _ in B_Q]
    for i, j in upper_triangle_pairs(n_z):
        indicator = np.zeros((n_z, n_z))
        indicator[i - 1, j - 1] = 1.0
        indicator[j - 1, i - 1] = 1.0
        B_Q.append(np.zeros((2 * n, 2 * n)))
        B_R.append(indicator)
    return B_Q, B_R


def _second_moment(A: np.ndarray, L: int, Q: np.ndarray, R: np.ndarray) -> np.ndarray:
    """vec(A blockdiag(I_{L-1} kron Q, I_L kron R) A^T), column-major.

    This is (A kron A) vec(blockdiag(...)) without the explicit
    n_aO^2 x n_E^2 Kronecker product.
    """
    n_w = (L - 1) * Q.shape[0]
    block = np.zeros((A.shape[1], A.shape[1]))
    block[:n_w, :n_w] = np.kron(np.eye(L - 1), Q)
    block[n_w:, n_w:] = np.kron(np.eye(L), R)
    return (A @ block @ A.T).reshape(-1, order="F")


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

    Am = left_null_space(O, tol_rel=1e-10)
    if Am.shape[0] == 0:
        raise NoResidueError(
            f"stacked observation matrix has full row rank for L={L}, n={n}; "
            "increase L to obtain a residue"
        )
    A = Am @ np.hstack([Gamma, np.eye(L * n_z)])

    step_mean = clock_drift_mean(1.0, ts)[:, None]
    pivot_sel = np.zeros((n, 1))
    pivot_sel[0, 0] = 1.0
    rest_sel = np.vstack([np.zeros((1, n - 1)), np.eye(n - 1)])
    ones_l = np.ones((L - 1, 1))
    ups_pivot = np.kron(ones_l, np.kron(pivot_sel, step_mean))
    ups_rest = np.kron(ones_l, np.kron(rest_sel, step_mean))
    am_gamma = Am @ Gamma

    B_Q, B_R = build_structure_matrices(n, ts)
    theta_map = np.column_stack([_second_moment(A, L, bq, br) for bq, br in zip(B_Q, B_R)])

    return MdmSystem(
        O=O,
        Am=Am,
        A=A,
        drift_map_pivot=am_gamma @ ups_pivot,
        drift_map_rest=am_gamma @ ups_rest,
        theta_map=theta_map,
        Ts=float(ts),
        L=L,
        n=n,
    )


def compute_residues(record: MeasurementRecord, system: MdmSystem) -> np.ndarray:
    """Residues Zbar_k = Am [z_k; ...; z_{k+L-1}], shape (n_aO, N-L+2)."""
    if record.n_z != system.n_z:
        raise ValueError(
            f"record has {record.n_z} channels, system expects {system.n_z}"
        )
    if abs(record.Ts - system.Ts) > 1e-9 * system.Ts:
        raise ValueError(f"record Ts={record.Ts} does not match system Ts={system.Ts}")
    samples = record.Z.shape[1]
    if samples < system.L:
        raise ValueError(f"record has {samples} samples, need at least L={system.L}")
    count = samples - system.L + 1
    stacked = np.vstack([record.Z[:, r : r + count] for r in range(system.L)])
    return system.Am @ stacked


def residue_mean_from_drifts(system: MdmSystem, drifts: np.ndarray) -> np.ndarray:
    """Model-implied residue mean for the full drift vector d^(1..n)."""
    d = np.asarray(drifts, dtype=float).ravel()
    if d.size != system.n:
        raise ValueError(f"expected {system.n} drifts, got {d.size}")
    return system.drift_map_pivot[:, 0] * d[0] + system.drift_map_rest @ d[1:]


def residue_second_moment_from_cov(
    system: MdmSystem, Q: np.ndarray, R: np.ndarray
) -> np.ndarray:
    """Model-implied vec of the residue covariance for given Q and R."""
    return _second_moment(system.A, system.L, Q, R)


def solve_drifts_from_mean(
    mean: np.ndarray, system: MdmSystem, d1: float = 0.0
) -> tuple[np.ndarray, dict]:
    """Drifts d^(2..n) from a residue mean, with the pivot drift known."""
    mean = np.asarray(mean, dtype=float).ravel()
    rhs = mean - system.drift_map_pivot[:, 0] * d1
    n_rest = system.n - 1
    x, diag = weighted_least_squares(
        system.drift_map_rest, rhs, np.ones(mean.size)
    )
    if diag.rank < n_rest:
        raise DriftUnidentifiableError(
            f"drift map rank {diag.rank} < {n_rest}; increase the window L"
        )
    return x, {"residual": diag.residual_norm, "cond": diag.condition_number}


def estimate_drifts_mdm(
    residues: np.ndarray, system: MdmSystem, d1: float = 0.0
) -> tuple[np.ndarray, dict]:
    """Drifts from the sample mean of the residues."""
    return solve_drifts_from_mean(residues.mean(axis=1), system, d1=d1)


def solve_theta_alpha_from_moment(
    moment: np.ndarray, system: MdmSystem
) -> tuple[np.ndarray, dict]:
    """Noise parameters theta_alpha from a vectorised residue covariance.

    Solved as a plain (minimum-norm) least squares on the moment map;
    full column rank is required, otherwise the parameters are not
    identifiable and a larger L is suggested. Negative variance entries
    (q1, q2, r_ii) are clamped with flags; standard errors are approximate
    because overlapping residues are serially correlated.
    """
    moment = np.asarray(moment, dtype=float).ravel()
    n = system.n
    n_par = system.theta_map.shape[1]
    x, diag = weighted_least_squares(system.theta_map, moment, np.ones(moment.size))
    if diag.rank < n_par:
        raise UnidentifiableError(
            f"moment map rank {diag.rank} < {n_par} parameters (n={n}, "
            f"L={system.L}); increase the window L",
        )
    dof = max(moment.size - diag.rank, 1)
    se = diag.se * (diag.residual_norm / np.sqrt(dof))
    diagnostics = {
        "residual": diag.residual_norm,
        "cond": diag.condition_number,
        "se_approx": se,
        "clamped": clamp_negative_variances(x, se, n),
    }
    return x, diagnostics


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
    return solve_theta_alpha_from_moment(outer.reshape(-1, order="F"), system)


def estimate_mdm(
    record: MeasurementRecord,
    L: int = 5,
    ts_target_s: float = 5000.0,
    d1: float = 0.0,
) -> EstimateReport:
    """Full MDM pipeline: resample, build system, residues, drifts, noise.

    ts_target_s must be an integer multiple of the record's Ts; the record
    is decimated to it before the window of L samples is applied.
    """
    ratio = ts_target_s / record.Ts
    factor = int(round(ratio)) if np.isfinite(ratio) else 0
    if factor < 1 or abs(ratio - factor) > 1e-9 * factor:
        raise ValueError(
            f"ts_target_s={ts_target_s} is not an integer multiple of "
            f"record Ts={record.Ts}"
        )
    resampled = decimate(record, factor) if factor > 1 else record

    system = build_mdm_system(record.n_z + 1, resampled.Ts, L)
    residues = compute_residues(resampled, system)
    drifts, drift_diag = estimate_drifts_mdm(residues, system, d1=d1)
    theta_alpha, diagnostics = estimate_theta_alpha(residues, drifts, system, d1=d1)

    diagnostics = dict(diagnostics)
    diagnostics["drift_residual"] = drift_diag["residual"]
    diagnostics["drift_cond"] = drift_diag["cond"]
    diagnostics["L"] = system.L
    diagnostics["ts_target_s"] = resampled.Ts
    diagnostics["n_residue_dim"] = system.n_residue
    return EstimateReport(
        method="mdm",
        ts_seconds=record.Ts,
        params=params_from_theta_alpha(theta_alpha, np.concatenate([[d1], drifts])),
        diagnostics=diagnostics,
    )
