"""The traced chronident functions, their counters and the per-layer metrics.

Layers are chronident's modules; each metric is named
``<module>.<function>.<stat>``. Times and calls are per operation of the
workload, so runs that complete different numbers of operations compare.
"""

from __future__ import annotations

import os

TRACED_FUNCTIONS = (
    "model.assemble_ensemble",
    "simulate.simulate_ensemble",
    "simulate.decimate",
    "simulate.remove_outliers",
    "simulate.write_measurements_csv",
    "simulate.read_measurements_csv",
    "stability.acov_grid",
    "ident_acov.estimate_acov_method",
    "ident_acov.build_regression",
    "ident_acov.solve_theta_a",
    "ident_acov.recover_drifts",
    "ident_mdm.estimate_mdm",
    "ident_mdm.build_mdm_system",
    "ident_mdm.compute_residues",
    "ident_mdm.estimate_drifts_mdm",
    "ident_mdm.estimate_theta_alpha",
    "numerics.weighted_least_squares",
    "numerics.left_null_space",
    "numerics.gauss_newton",
    "report.write_report_json",
    "cli.main",
    "cli.run_monte_carlo",
    "cli.run_estimation",
)

# acov_grid's peak is taken with tracemalloc, in the traced run only
MEMORY_TRACED = frozenset({"stability.acov_grid"})


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _acov_grid_bytes(args, kwargs, result) -> dict:
    # computed, not measured: per lag m the kernel reads the three shifted
    # (n_z, N - 2m) slices of Z, writes the second-difference array D and
    # reads it once more for D D^T
    record = _arg(args, kwargs, 0, "record")
    grid = _arg(args, kwargs, 1, "grid")
    n_z, n = record.Z.shape
    cells = sum(n_z * (n - 2 * int(m)) for m in grid.m_values)
    return {"bytes_computed": 5 * 8 * cells}


def _file_bytes_after(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _file_bytes_before(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _outliers_flagged(args, kwargs, result) -> dict:
    record = _arg(args, kwargs, 0, "record")
    return {"flagged": result[1].total, "samples": record.Z.size}


def _gn_iterations(args, kwargs, result) -> dict:
    return {"gn_iterations": result[1]["iterations"]}


def _clamped(args, kwargs, result) -> dict:
    return {"clamped": len(result[1]["clamped"])}


COUNTERS = {
    "stability.acov_grid": _acov_grid_bytes,
    "simulate.write_measurements_csv": _file_bytes_after,
    "simulate.read_measurements_csv": _file_bytes_before,
    "simulate.remove_outliers": _outliers_flagged,
    "ident_acov.recover_drifts": _gn_iterations,
    "ident_acov.solve_theta_a": _clamped,
    "ident_mdm.estimate_theta_alpha": _clamped,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(stats: dict, ops: int, extra: dict) -> dict:
    """Metric name -> (value, unit) from `tracing.summarize` output.

    A function that did not run reports zero calls and zero time.
    ``extra`` carries the pool and overhead figures the run measures itself.
    """
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}
    metrics = {}
    for name in TRACED_FUNCTIONS:
        entry = stats.get(name, empty)
        metrics[f"{name}.self_s"] = (_ratio(entry["self_s"], ops), "s/op")
        metrics[f"{name}.calls_per_op"] = (_ratio(entry["calls"], ops), "1/op")

    def counts(name: str) -> dict:
        return stats.get(name, empty)["counts"]

    def self_s(name: str) -> float:
        return stats.get(name, empty)["self_s"]

    grid = counts("stability.acov_grid")
    metrics["stability.acov_grid.bytes_computed"] = (
        _ratio(grid.get("bytes_computed", 0), ops),
        "B/op",
    )
    metrics["stability.acov_grid.gb_per_s"] = (
        _ratio(grid.get("bytes_computed", 0) / 1e9, self_s("stability.acov_grid")),
        "GB/s",
    )
    metrics["stability.acov_grid.peak_mb"] = (grid.get("peak_bytes", 0) / 1e6, "MB")
    for name in ("simulate.write_measurements_csv", "simulate.read_measurements_csv"):
        size = counts(name).get("bytes", 0)
        metrics[f"{name}.bytes"] = (_ratio(size, ops), "B/op")
        metrics[f"{name}.mb_per_s"] = (_ratio(size / 1e6, self_s(name)), "MB/s")
    outliers = counts("simulate.remove_outliers")
    metrics["simulate.remove_outliers.flagged_frac"] = (
        _ratio(outliers.get("flagged", 0), outliers.get("samples", 0)),
        "fraction",
    )
    for name, key in (
        ("ident_acov.recover_drifts", "gn_iterations"),
        ("ident_acov.solve_theta_a", "clamped"),
        ("ident_mdm.estimate_theta_alpha", "clamped"),
    ):
        calls = stats.get(name, empty)["calls"]
        metrics[f"{name}.{key}_per_call"] = (_ratio(counts(name).get(key, 0), calls), "1/call")
    metrics.update(extra)
    return metrics
