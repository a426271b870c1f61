"""Identified-parameter report shared by both estimation methods."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import EnsembleParams, pack_theta, symmetric_to_upper

__all__ = ["EstimateReport", "write_report_json"]


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass(frozen=True)
class EstimateReport:
    """Identified ensemble parameters plus solver diagnostics.

    ``params`` holds the estimates as ``unpack_theta`` returns them (not
    validated: an estimated R may be indefinite). ``diagnostics`` always
    carries ``residual`` (weighted residual norm of the ``wishart_fit``
    of the second moments), its ``cond``, ``rank`` and ``se``, and
    ``clamped`` (names of entries raised to the positive floor). The
    ``acov`` method adds ``ell`` and ``m_max``; the ``mdm`` method adds
    ``drift_residual`` (norm of the residue mean its drifts leave),
    ``L``, ``ts_target_s`` and ``n_residue_dim``. Both add
    ``valid_fraction`` (valid samples per channel) for a masked record,
    and ``acov`` then adds ``dropped_m`` (averaging factors of its grid
    that some channel pair had no valid second difference for).
    """

    method: str
    ts_seconds: float
    params: EnsembleParams
    diagnostics: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def theta(self) -> np.ndarray:
        """Raw parameter vector [q1 x n, q2 x n, d x n, r upper triangle]."""
        return pack_theta(self.params)

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "n": self.n,
            "ts_seconds": self.ts_seconds,
            "clocks": [{"q1": c.q1, "q2": c.q2, "d": c.d} for c in self.params.clocks],
            "r_upper": symmetric_to_upper(self.params.R).tolist(),
            "theta": self.theta.tolist(),
            "diagnostics": _jsonable(self.diagnostics),
        }


def write_report_json(report: EstimateReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")
