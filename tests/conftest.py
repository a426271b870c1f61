import numpy as np
import pytest

from chronident import (
    ClockParams,
    EnsembleParams,
    MeasurementRecord,
    assemble_ensemble,
    ensemble_structure,
)


@pytest.fixture(scope="session")
def maser_params() -> EnsembleParams:
    """Four-AHM reference scenario used across the suite."""
    clocks = (
        ClockParams(q1=1e-27, q2=1e-36, d=0.0),
        ClockParams(q1=1.5e-27, q2=2e-35, d=8e-21),
        ClockParams(q1=5e-27, q2=1.5e-35, d=7.5e-21),
        ClockParams(q1=7e-27, q2=2.5e-35, d=3e-21),
    )
    R = 1e-35 * np.array([[9.0, 6.0, 5.0], [6.0, 8.7, 4.0], [5.0, 4.0, 9.5]])
    return EnsembleParams(clocks=clocks, R=R)


@pytest.fixture(scope="session")
def maser_model(maser_params):
    return assemble_ensemble(maser_params, 5.0)


def random_params(rng: np.random.Generator, n: int, balanced: bool = True) -> EnsembleParams:
    """Random positive ensemble parameters; balanced keeps scales O(1)."""
    if balanced:
        clocks = tuple(
            ClockParams(
                q1=float(rng.uniform(0.5, 2.0)),
                q2=float(rng.uniform(0.5, 2.0)),
                d=float(rng.uniform(-1.0, 1.0)),
            )
            for _ in range(n)
        )
        root = rng.uniform(-1.0, 1.0, (n - 1, n - 1))
        R = root @ root.T + 2.0 * np.eye(n - 1)
    else:
        clocks = tuple(
            ClockParams(
                q1=float(rng.uniform(0.5, 8.0) * 1e-27),
                q2=float(rng.uniform(0.1, 3.0) * 1e-35),
                d=float(rng.uniform(-1.0, 1.0) * 1e-20),
            )
            for _ in range(n)
        )
        root = rng.uniform(-1.0, 1.0, (n - 1, n - 1)) * 1e-17
        R = root @ root.T + 9e-35 * np.eye(n - 1)
    return EnsembleParams(clocks=clocks, R=R)


def gapped_record(record, rng, gaps, length):
    """record with `gaps` all-channel gaps of `length` samples, one of them
    over the middle sample (which the one column of the largest default
    averaging time N/2 needs), and garbage (a 1e-6 s jump) inside each."""
    n_samples = record.Z.shape[1]
    Z = record.Z.copy()
    valid = np.ones(Z.shape, dtype=bool)
    middle = n_samples // 2 // length
    others = np.delete(np.arange(n_samples // length), middle)
    for start in np.append(rng.choice(others, gaps - 1, replace=False), middle) * length:
        Z[:, start : start + length] += 1e-6
        valid[:, start : start + length] = False
    return MeasurementRecord(Ts=record.Ts, Z=Z, valid=valid)


def quantised_record(record, steps=6.0):
    """record with each channel rounded to multiples of `steps` times the
    std of its second difference: most second differences become exactly
    zero, so the MAD filter flags every nonzero one."""
    Z = record.Z.copy()
    for row in Z:
        q = steps * np.std(np.diff(row, 2))
        row[:] = np.round(row / q) * q
    return MeasurementRecord(Ts=record.Ts, Z=Z)


def reference_observation(n, ts, L):
    """O = [H; HF; ...; HF^(L-1)], the window's stacked observation matrix."""
    F, H = ensemble_structure(n, ts)
    return np.vstack([H @ np.linalg.matrix_power(F, l) for l in range(L)])


def noiseless_record(n, ts, steps, seed):
    """z_k = H F^k x0 for k = 0..steps from random phases and frequencies."""
    F, H = ensemble_structure(n, ts)
    states = [np.random.default_rng(seed).normal(scale=[1e-6, 1e-11] * n)]
    for _ in range(steps):
        states.append(F @ states[-1])
    return MeasurementRecord(Ts=ts, Z=H @ np.column_stack(states))
