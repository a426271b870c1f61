"""Command-line front end: simulate, estimate, avar, montecarlo.

Exit codes: 0 success, 2 invalid input, 3 unidentifiable model,
4 numerical failure. Verbosity is controlled by the CHRONIDENT_LOG
environment variable (debug/info/warning/error).
"""

from __future__ import annotations

import argparse
import inspect
import json
import logging
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import NoResidueError, UnidentifiableError
from .ident_acov import estimate_acov_method
from .ident_mdm import check_window, estimate_mdm, resampling_stride
from .model import (
    EnsembleParams,
    as_float,
    assemble_ensemble,
    load_ensemble_config,
    pack_theta,
    theta_names,
)
from .report import EstimateReport, write_report_json
from .simulate import (
    MeasurementRecord,
    _in_order,
    derive_run_seed,
    read_measurements_csv,
    remove_outliers,
    simulate_ensemble,
    write_measurements_csv,
)
from .stability import acov_grid, clock_avar, default_grid, integral, write_acov_csv

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_UNIDENTIFIABLE = 3
EXIT_NUMERICAL = 4

log = logging.getLogger("chronident")


# the EstimationOptions fields each method's estimator takes
_ESTIMATORS = {
    "acov": ("ell", "m_max", "d1"),
    "mdm": ("L", "ts_target_s", "d1"),
}
METHODS = tuple(_ESTIMATORS)


@dataclass(frozen=True)
class EstimationOptions:
    """The method and its settings, checked and converted to the estimators' types when
    built (text such as "5" included); None leaves a setting to the estimator."""

    method: str = "acov"
    ell: int | None = None
    m_max: int | None = None
    L: int | None = None
    ts_target_s: float | None = None
    d1: float | None = None
    outlier_k: float | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            names = " or ".join(map(repr, METHODS))
            raise ValueError(f"method must be {names}, got '{self.method}'")
        for name in ("ell", "m_max", "L"):
            if (value := getattr(self, name)) is not None:
                object.__setattr__(self, name, integral(value, name))
        for name in ("ts_target_s", "d1", "outlier_k"):
            if (value := getattr(self, name)) is not None:
                object.__setattr__(self, name, as_float(value, name))
        if self.d1 is not None and not np.isfinite(self.d1):
            raise ValueError(f"pivot drift d1 must be finite, got {self.d1}")
        if self.outlier_k is not None and not self.outlier_k > 0.0:
            raise ValueError(f"threshold k must be > 0, got {self.outlier_k}")


def _setup_logging() -> None:
    level_name = os.environ.get("CHRONIDENT_LOG", "warning").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _options_from(extras: dict, args: argparse.Namespace) -> EstimationOptions:
    """Options from the config's ``estimation`` block, overridden by flags."""
    est = extras.get("estimation", {})
    if not isinstance(est, dict):
        raise ValueError("config field 'estimation' must be an object")
    names = {f.name for f in fields(EstimationOptions)}
    if unknown := sorted(set(est) - names):
        raise ValueError(f"unknown key(s) in config field 'estimation': {', '.join(unknown)}")
    chosen = {n: src[n] for src in (est, vars(args)) for n in names if src.get(n) is not None}
    return EstimationOptions(**chosen)


def _filter_outliers(record: MeasurementRecord, k: float | None) -> MeasurementRecord:
    """The record with its spikes masked by remove_outliers, or as it is for k None."""
    if k is None:
        return record
    record, outliers = remove_outliers(record, k=k)
    log.info(
        "outlier filter flagged %d samples (per channel: %s)",
        outliers.total,
        ", ".join(str(len(f)) for f in outliers.flagged),
    )
    return record


def _settings(opts: EstimationOptions) -> dict:
    """The options that are set among those the selected method's estimator takes."""
    return {n: v for n in _ESTIMATORS[opts.method] if (v := getattr(opts, n)) is not None}


def run_estimation(record: MeasurementRecord, opts: EstimationOptions) -> EstimateReport:
    """Apply optional preprocessing, then the selected method with the options that are set."""
    record = _filter_outliers(record, opts.outlier_k)
    estimator = estimate_mdm if opts.method == "mdm" else estimate_acov_method
    return estimator(record, **_settings(opts))


def _check_mdm_settings(n: int, ts: float, n_steps: int, opts: EstimationOptions) -> None:
    """Check that records of n_steps steps every ts seconds can be resampled
    to the MDM period and fill a window that holds a residue; the settings
    left unset take estimate_mdm's defaults. The first run builds the
    study's MDM system."""
    settings = inspect.signature(estimate_mdm).bind_partial(**_settings(opts))
    settings.apply_defaults()
    ts_target_s, L = settings.arguments["ts_target_s"], settings.arguments["L"]
    resampling_stride(ts_target_s, L, ts, n_steps + 1)
    check_window(n, L)


def cmd_simulate(args: argparse.Namespace) -> int:
    params, ts, extras = load_ensemble_config(args.config)
    if "n_steps" not in extras:
        raise ValueError("config field 'n_steps' is required for simulation")
    n_steps = integral(extras["n_steps"], "n_steps")
    seed = args.seed if args.seed is not None else integral(extras.get("seed", 0), "seed")
    model = assemble_ensemble(params, ts)
    _, record = simulate_ensemble(model, n_steps, seed, keep_states=False)
    write_measurements_csv(record, args.out)
    print(
        f"simulated n={params.n} clocks, N={n_steps} steps, Ts={ts} s, "
        f"seed={seed} -> {args.out}"
    )
    return EXIT_OK


def cmd_estimate(args: argparse.Namespace) -> int:
    opts = _options_from({}, args)
    record = read_measurements_csv(args.input)
    report = run_estimation(record, opts)
    if args.out:
        write_report_json(report, args.out)
        print(f"estimated {len(report.theta)} parameters ({opts.method}) -> {args.out}")
    else:
        json.dump(report.to_json_dict(), sys.stdout, indent=2)
        print()
    return EXIT_OK


def cmd_avar(args: argparse.Namespace) -> int:
    record = read_measurements_csv(args.input)
    est = acov_grid(record, default_grid(record.n_steps, record.Ts, args.ell, args.m_max))
    write_acov_csv(est, args.out)
    print(f"wrote {len(est.pairs) * len(est.grid)} ACOV values -> {args.out}")
    return EXIT_OK


def _mc_worker(payload: tuple) -> dict:
    """Simulate one run, mask its outliers once if asked, then estimate with
    each method: {method: theta array, or the error text}."""
    seed, model, n_steps, outlier_k, per_method = payload
    _, record = simulate_ensemble(model, n_steps, seed, keep_states=False)
    try:  # remove_outliers rejects a channel with more than half its samples flagged
        record = _filter_outliers(record, outlier_k)
    except Exception as exc:  # every method's run fails alike
        return dict.fromkeys((opts.method for opts in per_method), f"{type(exc).__name__}: {exc}")
    results: dict = {}
    for opts in per_method:
        try:
            results[opts.method] = run_estimation(record, opts).theta
        except Exception as exc:  # recorded, excluded from stats
            results[opts.method] = f"{type(exc).__name__}: {exc}"
    return results


def run_monte_carlo(
    params: EnsembleParams,
    ts: float,
    n_steps: int,
    options: EstimationOptions,
    methods: list[str],
    runs: int,
    master_seed: int,
    jobs: int = 1,
) -> dict:
    """Run seeded Monte-Carlo simulations and aggregate per method.

    Returns {method: summary} where summary carries per-parameter stats
    and per-clock AVAR curves (truth, MC-mean estimate, 2.5/97.5
    percentile bands across runs). The runs are computed by _in_order on
    min(jobs, runs) processes; each has its own seed, and _in_order
    yields them in run order, so results do not depend on jobs or on
    _in_order's fallback to this process. The methods, model, tau grid
    and MDM settings are checked before any run is simulated.
    """
    n_steps = integral(n_steps, "n_steps")
    runs = integral(runs, "runs")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    jobs = integral(jobs, "jobs")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    # EstimationOptions checks each name; the outliers are masked once per run, before every method
    per_method = [replace(options, method=m, outlier_k=None) for m in methods]
    model = assemble_ensemble(params, ts)
    taus = default_grid(n_steps, ts, options.ell, options.m_max).taus
    for opts in per_method:  # settings that would fail every run alike
        if opts.method == "mdm":
            _check_mdm_settings(params.n, ts, n_steps, opts)
    n = params.n
    payloads = [
        (derive_run_seed(master_seed, i), model, n_steps, options.outlier_k, per_method)
        for i in range(runs)
    ]
    raw = list(_in_order(_mc_worker, payloads, min(jobs, runs)))

    truth = pack_theta(params)
    summaries: dict = {}
    for method in methods:
        thetas, failed = [], []
        for run, results in enumerate(raw):
            if isinstance(result := results[method], str):
                log.warning("run %d (%s) failed: %s", run, method, result)
                failed.append({"run": run, "error": result})
            else:
                thetas.append(result)
        thetas = np.asarray(thetas, dtype=float)
        n_ok = thetas.shape[0]
        log.info("%s: %d/%d runs succeeded", method, n_ok, runs)
        summary = summaries[method] = {
            "method": method,
            "runs_requested": runs,
            "runs_succeeded": n_ok,
            "failed_runs": failed,
            "master_seed": master_seed,
        }
        if n_ok == 0:
            continue
        mean = thetas.mean(axis=0)
        std = thetas.std(axis=0, ddof=1) if n_ok > 1 else None
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(truth != 0.0, (mean - truth) / np.abs(truth), np.nan)

        # (row, clock, tau) AVAR curves of the truth, the mean and every
        # run, then the bands of the runs
        rows = np.vstack([truth, mean, thetas])[:, :, None]
        avar = clock_avar(rows[:, :n], rows[:, n : 2 * n], rows[:, 2 * n : 3 * n], taus)
        low, high = np.percentile(avar[2:], [2.5, 97.5], axis=0)
        curves = {
            clk + 1: {
                "tau_s": taus,
                "true": avar[0, clk],
                "mc_mean": avar[1, clk],
                "p2_5": low[clk],
                "p97_5": high[clk],
            }
            for clk in range(n)
        }
        summary.update(
            n=n,
            n_steps=n_steps,
            ts_seconds=ts,
            parameter_names=theta_names(n),
            truth=truth.tolist(),
            mean=mean.tolist(),
            std=None if std is None else std.tolist(),
            rel_error=[None if not np.isfinite(v) else float(v) for v in rel],
            tau_s=taus.tolist(),
            curves=curves,
        )
    return summaries


def write_mc_outputs(summary: dict, out_dir: str | Path) -> None:
    """Write mc_summary.json plus one AVAR-curve CSV per clock."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    curves = summary.get("curves", {})
    with open(out / "mc_summary.json", "w", encoding="utf-8") as fh:
        json.dump({k: v for k, v in summary.items() if k != "curves"}, fh, indent=2)
        fh.write("\n")
    header = "tau_s,avar_true,avar_mc_mean,avar_p2_5,avar_p97_5"
    for clk, curve in curves.items():
        table = np.column_stack([curve[k] for k in ("tau_s", "true", "mc_mean", "p2_5", "p97_5")])
        path = out / f"avar_clk{clk}.csv"
        np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")


def cmd_montecarlo(args: argparse.Namespace) -> int:
    params, ts, extras = load_ensemble_config(args.config)
    if "n_steps" not in extras:
        raise ValueError("config field 'n_steps' is required for a Monte-Carlo study")
    opts = _options_from(extras, args)
    seed = args.seed if args.seed is not None else integral(extras.get("seed", 0), "seed")
    summaries = run_monte_carlo(
        params,
        ts,
        integral(extras["n_steps"], "n_steps"),
        opts,
        [opts.method],
        runs=args.runs,
        master_seed=seed,
        jobs=args.jobs,
    )
    summary = summaries[opts.method]
    write_mc_outputs(summary, args.out)
    print(
        f"montecarlo ({opts.method}): {summary['runs_succeeded']}/{args.runs} runs "
        f"-> {args.out}"
    )
    if summary["runs_succeeded"] == 0:
        print(f"error: {summary['failed_runs'][0]['error']}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    return EXIT_OK


def _outlier_threshold(text: str) -> float | None:
    """--outlier-k value: a MAD multiple, or 'off' for no filtering."""
    return None if text.lower() == "off" else float(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronident",
        description="Simulate clock-ensemble phase differences and identify noise parameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared by estimate and montecarlo; each dest is an EstimationOptions field
    est = argparse.ArgumentParser(add_help=False)
    est.add_argument("--method", choices=METHODS, default=None)
    est.add_argument("--ell", type=int, default=None)
    est.add_argument("--m-max", dest="m_max", type=int, default=None)
    est.add_argument("--L", dest="L", type=int, default=None)
    est.add_argument(
        "--ts-target", dest="ts_target_s", metavar="TS_TARGET", type=float, default=None
    )
    est.add_argument("--d1", type=float, default=None)

    p_sim = sub.add_parser("simulate", help="simulate a measurement CSV from a config")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser(
        "estimate", parents=[est], help="identify parameters from a measurement CSV"
    )
    p_est.add_argument("input", help="measurement CSV path")
    p_est.add_argument("--outlier-k", dest="outlier_k", type=_outlier_threshold, default=None)
    p_est.add_argument("--out", default=None)
    p_est.set_defaults(func=cmd_estimate)

    p_avar = sub.add_parser("avar", help="export ACOV/AVAR estimates as CSV")
    p_avar.add_argument("input", help="measurement CSV path")
    p_avar.add_argument("--ell", type=int, default=None)
    p_avar.add_argument("--m-max", dest="m_max", type=int, default=None)
    p_avar.add_argument("--out", required=True)
    p_avar.set_defaults(func=cmd_avar)

    p_mc = sub.add_parser(
        "montecarlo", parents=[est], help="seeded Monte-Carlo study of one method"
    )
    p_mc.add_argument("--config", required=True)
    p_mc.add_argument("--runs", type=int, required=True)
    p_mc.add_argument("--seed", type=int, default=None)
    p_mc.add_argument("--jobs", type=int, default=1)
    p_mc.add_argument("--out", required=True)
    p_mc.set_defaults(func=cmd_montecarlo)
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NoResidueError, UnidentifiableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNIDENTIFIABLE
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
