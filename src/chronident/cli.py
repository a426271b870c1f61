"""Command-line front end: simulate, estimate, avar, montecarlo.

Exit codes: 0 success, 2 invalid input, 3 unidentifiable model,
4 numerical failure. Verbosity is controlled by the CHRONIDENT_LOG
environment variable (debug/info/warning/error).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import NoResidueError, UnidentifiableError
from .ident_acov import estimate_acov_method
from .ident_mdm import estimate_mdm
from .model import (
    EnsembleParams,
    assemble_ensemble,
    load_ensemble_config,
    pack_theta,
    theta_names,
)
from .report import EstimateReport, write_report_json
from .simulate import (
    MeasurementRecord,
    derive_run_seed,
    read_measurements_csv,
    remove_outliers,
    simulate_ensemble,
    write_measurements_csv,
)
from .stability import acov_grid, clock_avar, log_spaced_grid, write_acov_csv

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_UNIDENTIFIABLE = 3
EXIT_NUMERICAL = 4

log = logging.getLogger("chronident")


@dataclass
class EstimationOptions:
    method: str = "acov"
    ell: int = 20
    m_max: int | None = None
    L: int = 5
    ts_target_s: float = 5000.0
    d1: float = 0.0
    outlier_k: float | None = None


def _setup_logging() -> None:
    level_name = os.environ.get("CHRONIDENT_LOG", "warning").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _options_from(extras: dict, args: argparse.Namespace) -> EstimationOptions:
    """Options from the config's ``estimation`` block, overridden by flags."""
    est = extras.get("estimation", {})
    if not isinstance(est, dict):
        raise ValueError("config field 'estimation' must be an object")
    opts = EstimationOptions()
    for name in (f.name for f in fields(EstimationOptions)):
        for source in (est, vars(args)):
            if source.get(name) is not None:
                setattr(opts, name, source[name])
    if opts.method not in ("acov", "mdm"):
        raise ValueError(f"method must be 'acov' or 'mdm', got '{opts.method}'")
    return opts


def run_estimation(record: MeasurementRecord, opts: EstimationOptions) -> EstimateReport:
    """Apply optional preprocessing, then the selected method."""
    if opts.outlier_k is not None:
        record, outliers = remove_outliers(record, k=float(opts.outlier_k))
        log.info("outlier filter flagged %d samples", outliers.total)
    if opts.method == "acov":
        return estimate_acov_method(
            record, ell=int(opts.ell), m_max=opts.m_max, d1=float(opts.d1)
        )
    return estimate_mdm(
        record, L=int(opts.L), ts_target_s=float(opts.ts_target_s), d1=float(opts.d1)
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    params, ts, extras = load_ensemble_config(args.config)
    if "n_steps" not in extras:
        raise ValueError("config field 'n_steps' is required for simulation")
    n_steps = int(extras["n_steps"])
    seed = args.seed if args.seed is not None else int(extras.get("seed", 0))
    model = assemble_ensemble(params, ts)
    _, record = simulate_ensemble(model, n_steps, seed, keep_states=False)
    write_measurements_csv(record, args.out)
    print(
        f"simulated n={params.n} clocks, N={n_steps} steps, Ts={ts} s, "
        f"seed={seed} -> {args.out}"
    )
    return EXIT_OK


def cmd_estimate(args: argparse.Namespace) -> int:
    record = read_measurements_csv(args.input)
    opts = _options_from({}, args)
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
    m_max = args.m_max if args.m_max is not None else record.n_steps // 2
    grid = log_spaced_grid(args.ell if args.ell is not None else 20, m_max, record.Ts)
    est = acov_grid(record, grid)
    write_acov_csv(est, args.out)
    print(f"wrote {len(est.pairs) * len(grid)} ACOV values -> {args.out}")
    return EXIT_OK


def _mc_worker(payload: tuple) -> tuple[int, dict]:
    """Simulate one run and estimate with every requested method."""
    run_idx, seed, params, ts, n_steps, options, methods = payload
    _, record = simulate_ensemble(
        assemble_ensemble(params, ts), n_steps, seed, keep_states=False
    )
    results: dict = {}
    for method in methods:
        try:
            report = run_estimation(record, replace(options, method=method))
            results[method] = {"theta": report.theta.tolist(), "error": None}
        except Exception as exc:  # recorded, excluded from stats
            results[method] = {"theta": None, "error": f"{type(exc).__name__}: {exc}"}
    return run_idx, results


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
    percentile bands across runs). Aggregation order is fixed by run
    index, so results are independent of the concurrency level.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    n = params.n
    payloads = [
        (i, derive_run_seed(master_seed, i), params, ts, int(n_steps), options, list(methods))
        for i in range(runs)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            raw = list(pool.map(_mc_worker, payloads))
    else:
        raw = [_mc_worker(p) for p in payloads]

    m_max = options.m_max if options.m_max is not None else n_steps // 2
    taus = log_spaced_grid(int(options.ell), int(m_max), ts).taus
    truth = pack_theta(params)
    summaries: dict = {}
    for method in methods:
        thetas = []
        failed = []
        for run_idx, results in raw:
            entry = results[method]
            if entry["error"] is None:
                thetas.append(entry["theta"])
            else:
                failed.append({"run": run_idx, "error": entry["error"]})
        thetas = np.asarray(thetas, dtype=float)
        n_ok = thetas.shape[0]
        if n_ok == 0:
            summaries[method] = {
                "method": method,
                "runs_requested": runs,
                "runs_succeeded": 0,
                "failed_runs": failed,
                "master_seed": master_seed,
            }
            continue
        mean = thetas.mean(axis=0)
        std = thetas.std(axis=0, ddof=1) if n_ok > 1 else None
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(truth != 0.0, (mean - truth) / np.abs(truth), np.nan)

        # (run, clock, tau) AVAR curves of every run, then their bands
        per_run = clock_avar(
            thetas[:, :n, None], thetas[:, n : 2 * n, None], thetas[:, 2 * n : 3 * n, None], taus
        )
        low, high = np.percentile(per_run, [2.5, 97.5], axis=0)
        curves = {}
        for clk in range(n):
            curves[clk + 1] = {
                "tau_s": taus,
                "true": clock_avar(truth[clk], truth[n + clk], truth[2 * n + clk], taus),
                "mc_mean": clock_avar(mean[clk], mean[n + clk], mean[2 * n + clk], taus),
                "p2_5": low[clk],
                "p97_5": high[clk],
            }
        summaries[method] = {
            "method": method,
            "runs_requested": runs,
            "runs_succeeded": n_ok,
            "failed_runs": failed,
            "master_seed": master_seed,
            "n": n,
            "n_steps": int(n_steps),
            "ts_seconds": ts,
            "parameter_names": theta_names(n),
            "truth": truth.tolist(),
            "mean": mean.tolist(),
            "std": None if std is None else std.tolist(),
            "rel_error": [None if not np.isfinite(v) else float(v) for v in rel],
            "tau_s": taus.tolist(),
            "curves": curves,
        }
    return summaries


def write_mc_outputs(summary: dict, out_dir: str | Path) -> None:
    """Write mc_summary.json plus one AVAR-curve CSV per clock."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    curves = summary.get("curves", {})
    with open(out / "mc_summary.json", "w", encoding="utf-8") as fh:
        json.dump({k: v for k, v in summary.items() if k != "curves"}, fh, indent=2)
        fh.write("\n")
    for clk, curve in curves.items():
        with open(out / f"avar_clk{clk}.csv", "w", encoding="utf-8") as fh:
            fh.write("tau_s,avar_true,avar_mc_mean,avar_p2_5,avar_p97_5\n")
            for row in zip(
                curve["tau_s"], curve["true"], curve["mc_mean"], curve["p2_5"], curve["p97_5"]
            ):
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def cmd_montecarlo(args: argparse.Namespace) -> int:
    params, ts, extras = load_ensemble_config(args.config)
    if "n_steps" not in extras:
        raise ValueError("config field 'n_steps' is required for a Monte-Carlo study")
    opts = _options_from(extras, args)
    seed = args.seed if args.seed is not None else int(extras.get("seed", 0))
    summaries = run_monte_carlo(
        params,
        ts,
        int(extras["n_steps"]),
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
    est.add_argument("--method", choices=["acov", "mdm"], default=None)
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
