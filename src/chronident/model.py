"""Clock and ensemble model structure.

Each clock carries a phase (time deviation) and a frequency random-walk
state. The ensemble of n clocks is observed only through the n-1 pairwise
phase differences against the first clock (the pivot), so all matrices
built here follow the state packing

    x = [phase_1, freq_1, phase_2, freq_2, ..., phase_n, freq_n]

and measurement channel i compares clock i+1 against clock 1.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "ClockParams",
    "EnsembleParams",
    "EnsembleModel",
    "clock_transition",
    "clock_noise_cov",
    "clock_drift_mean",
    "ensemble_structure",
    "assemble_ensemble",
    "pack_theta",
    "unpack_theta",
    "theta_length",
    "theta_names",
    "theta_alpha_from_params",
    "params_from_theta_alpha",
    "clamp_negative_variances",
    "upper_to_symmetric",
    "symmetric_to_upper",
    "upper_triangle_pairs",
    "upper_triangle_indices",
    "load_ensemble_config",
    "dump_ensemble_config",
]


@dataclass(frozen=True)
class ClockParams:
    """Noise intensities and drift of a single clock.

    q1 : white-FM intensity [s^2 s^-1]
    q2 : random-walk-FM intensity [s^2 s^-3]
    d  : frequency drift [fractional frequency per second]
    """

    q1: float
    q2: float
    d: float = 0.0

    def validate(self) -> None:
        # q1 = q2 = 0 is allowed so degenerate single-noise configurations
        # can be simulated; identification assumes strictly positive values.
        if not (np.isfinite(self.q1) and self.q1 >= 0.0):
            raise ValueError(f"q1 must be finite and >= 0, got {self.q1}")
        if not (np.isfinite(self.q2) and self.q2 >= 0.0):
            raise ValueError(f"q2 must be finite and >= 0, got {self.q2}")
        if not np.isfinite(self.d):
            raise ValueError(f"d must be finite, got {self.d}")


@dataclass(frozen=True)
class EnsembleParams:
    """Parameters of an n-clock ensemble: clock list plus measurement-noise
    covariance R (n_z x n_z, n_z = n - 1). Clock 1 is the pivot."""

    clocks: tuple[ClockParams, ...]
    R: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "clocks", tuple(self.clocks))
        object.__setattr__(self, "R", np.asarray(self.R, dtype=float))

    @property
    def n(self) -> int:
        return len(self.clocks)

    @property
    def n_z(self) -> int:
        return len(self.clocks) - 1

    def validate(self) -> None:
        if self.n < 2:
            raise ValueError("an ensemble needs at least 2 clocks")
        for clk in self.clocks:
            clk.validate()
        if self.R.shape != (self.n_z, self.n_z):
            raise ValueError(
                f"R has shape {self.R.shape}, expected {(self.n_z, self.n_z)}"
            )
        if not np.allclose(self.R, self.R.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(self.R).max()))):
            raise ValueError("R must be symmetric")
        eigvals = np.linalg.eigvalsh(0.5 * (self.R + self.R.T))
        tol = 1e-12 * max(float(np.trace(self.R)), 0.0) + np.finfo(float).tiny
        if eigvals.min() < -tol:
            raise ValueError("R must be positive semi-definite")

    def drifts(self) -> np.ndarray:
        return np.array([c.d for c in self.clocks])


@dataclass(frozen=True)
class EnsembleModel:
    """Noise matrices of an n-clock ensemble sampled every Ts seconds.

    Q  : (2n, 2n) block-diagonal state-noise covariance
    mu : (2n,) state-noise mean (drift contribution)
    R  : (n_z, n_z) measurement-noise covariance

    The transition F and measurement matrix H do not depend on the
    parameters; ensemble_structure(n, Ts) builds them.
    """

    Q: np.ndarray
    mu: np.ndarray
    R: np.ndarray
    Ts: float
    n: int

    @property
    def n_z(self) -> int:
        return self.n - 1


def clock_transition(ts: float) -> np.ndarray:
    """Single-clock transition matrix [[1, ts], [0, 1]].

    ts = 0 is allowed (degenerate identity step); negative ts is rejected.
    """
    if not np.isfinite(ts) or ts < 0.0:
        raise ValueError(f"sampling period must be >= 0, got {ts}")
    return np.array([[1.0, ts], [0.0, 1.0]])


def clock_noise_cov(q1: float, q2: float, ts: float) -> np.ndarray:
    """2x2 state-noise covariance of one clock over a step of ts seconds."""
    if not np.isfinite(ts) or ts <= 0.0:
        raise ValueError(f"sampling period must be > 0, got {ts}")
    if q1 < 0.0 or q2 < 0.0:
        raise ValueError("noise intensities must be non-negative")
    return np.array(
        [
            [q1 * ts + q2 * ts**3 / 3.0, q2 * ts**2 / 2.0],
            [q2 * ts**2 / 2.0, q2 * ts],
        ]
    )


def clock_drift_mean(d: float, ts: float) -> np.ndarray:
    """State-noise mean [d*ts^2/2, d*ts] induced by a frequency drift d."""
    if not np.isfinite(ts) or ts <= 0.0:
        raise ValueError(f"sampling period must be > 0, got {ts}")
    return np.array([d * ts**2 / 2.0, d * ts])


def ensemble_structure(n: int, ts: float) -> tuple[np.ndarray, np.ndarray]:
    """Transition F and measurement matrix H of an n-clock ensemble.

    H row i is +1 on the phase of clock i+2 and -1 on the pivot phase, so a
    common phase offset on all clocks is invisible to the measurements.
    Neither matrix depends on the noise parameters.
    """
    if n < 2:
        raise ValueError("an ensemble needs at least 2 clocks")
    F = np.kron(np.eye(n), clock_transition(ts))
    H = np.zeros((n - 1, 2 * n))
    H[:, 0] = -1.0
    H[np.arange(n - 1), np.arange(2, 2 * n, 2)] = 1.0
    return F, H


def assemble_ensemble(params: EnsembleParams, ts: float) -> EnsembleModel:
    """Build the ensemble's noise matrices at sampling period ts."""
    params.validate()
    n = params.n
    Q = np.zeros((2 * n, 2 * n))
    mu = np.zeros(2 * n)
    for i, clk in enumerate(params.clocks):
        Q[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = clock_noise_cov(clk.q1, clk.q2, ts)
        mu[2 * i : 2 * i + 2] = clock_drift_mean(clk.d, ts)

    return EnsembleModel(Q=Q, mu=mu, R=params.R.copy(), Ts=float(ts), n=n)


def theta_length(n: int) -> int:
    """Number of unknown parameters for n clocks: n*(n+5)/2."""
    return n * (n + 5) // 2


def upper_triangle_pairs(size: int) -> list[tuple[int, int]]:
    """Row-major upper-triangle index pairs (1-based): (1,1), (1,2), ..."""
    return [(i, j) for i in range(1, size + 1) for j in range(i, size + 1)]


@functools.lru_cache
def upper_triangle_indices(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices (0-based) of the row-major upper triangle of a
    size x size matrix, as ``np.triu_indices(size)``; built once per size and
    read-only, since every caller shares them."""
    rows, cols = np.triu_indices(size)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def symmetric_to_upper(mat: np.ndarray) -> np.ndarray:
    """Row-major upper-triangle elements of a square matrix."""
    return np.asarray(mat, dtype=float)[upper_triangle_indices(len(mat))]


def upper_to_symmetric(vec: np.ndarray, size: int) -> np.ndarray:
    """Symmetric matrix from its row-major upper-triangle elements."""
    vec = np.asarray(vec, dtype=float)
    expected = size * (size + 1) // 2
    if vec.size != expected:
        raise ValueError(f"expected {expected} upper-triangle elements, got {vec.size}")
    out = np.zeros((size, size))
    i, j = upper_triangle_indices(size)
    out[i, j] = out[j, i] = vec
    return out


def pack_theta(params: EnsembleParams) -> np.ndarray:
    """Parameter vector [q1 x n, q2 x n, d x n, upper triangle of R]."""
    q1 = [c.q1 for c in params.clocks]
    q2 = [c.q2 for c in params.clocks]
    d = [c.d for c in params.clocks]
    return np.concatenate([q1, q2, d, symmetric_to_upper(params.R)])


def theta_names(n: int) -> list[str]:
    """Names of the pack_theta entries for n clocks."""
    names = [f"q1_clk{i + 1}" for i in range(n)]
    names += [f"q2_clk{i + 1}" for i in range(n)]
    names += [f"d_clk{i + 1}" for i in range(n)]
    names += [f"r_{i}{j}" for i, j in upper_triangle_pairs(n - 1)]
    return names


def clamp_negative_variances(x: np.ndarray, se: np.ndarray, n: int) -> list[str]:
    """Clamp negative variance-like estimates in place; return their names.

    ``x`` is laid out as [q1 x n, q2 x n, r upper], optionally followed by
    the upper triangle of the drift products f_ij = (d_{i+1} - d_1)(d_{j+1}
    - d_1). The q1, q2, r_ii and f_ii entries cannot be negative; a negative
    one is set to 1e-3 times its standard error (at least the smallest
    positive float).
    """
    names = theta_names(n)
    r_names = names[3 * n :]
    names = names[: 2 * n] + r_names + ["f" + name[1:] for name in r_names]
    diagonal = [i == j for i, j in upper_triangle_pairs(n - 1)]
    positive = [True] * (2 * n) + diagonal + diagonal
    clamped = []
    for idx in range(x.size):
        if positive[idx] and x[idx] < 0.0:
            x[idx] = max(1e-3 * se[idx], np.finfo(float).tiny)
            clamped.append(names[idx])
    return clamped


def unpack_theta(theta: np.ndarray, n: int) -> EnsembleParams:
    """Inverse of pack_theta. The R part is not validated for definiteness
    so estimated parameter vectors round-trip unconditionally."""
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.size != theta_length(n):
        raise ValueError(
            f"theta has length {theta.size}, expected {theta_length(n)} for n={n}"
        )
    n_z = n - 1
    q1, q2, d = theta[:n], theta[n : 2 * n], theta[2 * n : 3 * n]
    clocks = tuple(ClockParams(q1=a, q2=b, d=c) for a, b, c in zip(q1, q2, d))
    R = upper_to_symmetric(theta[3 * n :], n_z)
    return EnsembleParams(clocks=clocks, R=R)


def theta_alpha_from_params(params: EnsembleParams) -> np.ndarray:
    """[q1 x n, q2 x n, upper triangle of R]: pack_theta without the drifts."""
    theta = pack_theta(params)
    return np.concatenate([theta[: 2 * params.n], theta[3 * params.n :]])


def params_from_theta_alpha(theta_alpha: np.ndarray, drifts: np.ndarray) -> EnsembleParams:
    """Inverse of theta_alpha_from_params, given the n drifts (pivot first).

    The result is not validated, so estimated vectors always unpack."""
    theta_alpha = np.asarray(theta_alpha, dtype=float).ravel()
    drifts = np.asarray(drifts, dtype=float).ravel()
    n = drifts.size
    return unpack_theta(
        np.concatenate([theta_alpha[: 2 * n], drifts, theta_alpha[2 * n :]]), n
    )


def as_float(value, name: str) -> float:
    """``value`` (a number, or its text) as a float; a value of another type,
    such as a JSON list or object, raises ValueError naming ``name``."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None


def load_ensemble_config(path: str | Path) -> tuple[EnsembleParams, float, dict]:
    """Read an ensemble configuration JSON file.

    Required keys: ``ts_seconds``, ``clocks`` (list of {q1, q2, d}) and
    ``r_upper`` (row-major upper triangle of R). Any remaining keys are
    returned untouched in the extras dict for callers such as the CLI.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    for key in ("ts_seconds", "clocks", "r_upper"):
        if key not in raw:
            raise ValueError(f"config field '{key}' is missing in {path}")
    try:
        clocks = tuple(
            ClockParams(q1=float(c["q1"]), q2=float(c["q2"]), d=float(c.get("d", 0.0)))
            for c in raw["clocks"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"config field 'clocks' is malformed: {exc}") from exc
    if len(clocks) < 2:
        raise ValueError("config field 'clocks' must list at least 2 clocks")
    try:
        R = upper_to_symmetric(raw["r_upper"], len(clocks) - 1)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config field 'r_upper' is malformed: {exc}") from exc
    params = EnsembleParams(clocks=clocks, R=R)
    params.validate()
    ts = as_float(raw["ts_seconds"], "config field 'ts_seconds'")
    if not 0.0 < ts < np.inf:
        raise ValueError(f"config field 'ts_seconds' must be finite and > 0, got {ts}")
    extras = {k: v for k, v in raw.items() if k not in ("ts_seconds", "clocks", "r_upper")}
    return params, ts, extras


def dump_ensemble_config(params: EnsembleParams, ts: float, path: str | Path, **extras) -> None:
    """Write the ensemble configuration JSON (inverse of load_ensemble_config)."""
    doc = {
        "ts_seconds": ts,
        "clocks": [{"q1": c.q1, "q2": c.q2, "d": c.d} for c in params.clocks],
        "r_upper": symmetric_to_upper(params.R).tolist(),
    }
    doc.update(extras)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
