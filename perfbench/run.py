"""chronident benchmark: Monte-Carlo studies and the CLI file round trip.

Run from the root of a source checkout; chronident is imported from its
``src`` directory, nothing is installed:

    python3 perfbench/run.py --workload year_study --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each is there):

- ``year_study``: `cli.run_monte_carlo` on the one-year four-maser scenario,
  both methods, in batches of two runs with a pool of min(2, cpus) workers.
- ``short_study``: the same on the 1.16-day quick scenario, in-process, in
  batches of 50 runs.
- ``cli_roundtrip``: ``simulate --out``, then ``estimate`` with each method
  and ``avar`` on that file, through `cli.main` at N = 631 200, each command
  in a forked child of its own.

A run measures at least ``--seconds`` seconds of operations, then checks
every output, and prints an environment stamp, the quality block and the
truth-gate margins, then one JSON line with the result. ``--trace 0`` gives
the end-to-end metrics: ``ops_per_s`` is the median of the units' rates and
``peak_rss_mb`` is taken before the checks. ``--trace 1`` repeats the
untraced pass, then runs the same operations again with every listed
chronident function wrapped (`tracing.Tracer`), requires bit-identical
outputs from both passes, and gives the per-layer metrics plus the tracing
overhead. Pool workers and CLI commands are traced in place: spans from the
forked children are collected, not an in-process rerun.
Spans are written to ``.perfbench/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOADS = ("year_study", "short_study", "cli_roundtrip")


def import_program() -> None:
    """Import chronident from this checkout's ``src``, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import chronident

    if Path(chronident.__file__).resolve().parent.parent != src:
        raise ImportError(f"chronident imported from {chronident.__file__}, not {src}")


def pool_jobs() -> int:
    # year_study batches hold two runs, so a third worker would idle; each
    # full-scale worker peaks near 680 MB
    return min(2, len(os.sched_getaffinity(0)))


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "thread_env": {var: os.environ[var] for var in THREAD_VARS if var in os.environ},
        "pool_start_method": multiprocessing.get_context().get_start_method(),
        "pool_jobs": pool_jobs(),
    }


def setup_workload(name: str, workdir: Path):
    from workloads import make_workload

    workload = make_workload(name, pool_jobs())
    workload.setup(ROOT, workdir)
    return workload


def probe_setup(name: str) -> float:
    """Seconds from starting a fresh process to the end of its set-up."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-probe"],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {name} failed with exit code {code}")
    return elapsed


@dataclass
class Pass:
    """The units of one pass over a workload, with their outputs and failures."""

    outputs: list = field(default_factory=list)
    ops: int = 0
    failed: int = 0
    wall: float = 0.0
    peak_rss_mb: float = 0.0
    unit_rates: list = field(default_factory=list)  # operations per second of each unit
    failures: list[str] = field(default_factory=list)


def run_pass(workload, seed: int, seconds: float, units: int | None, tracer=None) -> Pass:
    """Run units until both the minimum count and ``seconds`` are reached,
    or exactly ``units`` units, then check them; only `run_unit` is timed.

    The peak RSS is taken after the last unit and before the first check, so
    it is the program's and not the checker's, whose own re-simulation and
    re-estimation would otherwise set it.
    """
    result = Pass()
    runs = []
    while (len(runs) < units) if units is not None else (len(runs) < workload.min_units or result.wall < seconds):
        start = time.perf_counter()
        try:
            runs.append(workload.run_unit(len(runs), seed))
        except Exception:
            traceback.print_exc()
            runs.append((workload.batch_runs, None))
        elapsed = time.perf_counter() - start
        result.wall += elapsed
        result.unit_rates.append(runs[-1][0] / elapsed)
    result.peak_rss_mb = peak_rss_mb()
    for k, (ops, out) in enumerate(runs):
        if out is None:
            failures = [f"unit {k} raised"]
        elif tracer is not None:
            with tracer.paused():
                failures = workload.check_unit(k, out)
        else:
            failures = workload.check_unit(k, out)
        result.outputs.append(None if failures else out)
        result.ops += ops
        if failures:
            result.failed += ops
            result.failures += failures
    return result


def study_block(workload, run: Pass) -> tuple[dict | None, list[dict]]:
    head = run.outputs[: workload.min_units]
    if len(head) < workload.min_units or any(out is None for out in head):
        return None, []
    return workload.study(head)


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def traced_pass(workload, seed: int, units: int, workdir: Path, out_file: Path):
    from layers import COUNTERS, MEMORY_TRACED, TRACED_FUNCTIONS
    from tracing import Tracer, summarize

    functions = {name: COUNTERS.get(name) for name in TRACED_FUNCTIONS}
    tracer = Tracer(functions, workdir / "spans", memory=MEMORY_TRACED)
    tracer.install()
    cpu_before = child_cpu_s()
    try:
        run = run_pass(workload, seed, 0.0, units, tracer=tracer)
    finally:
        tracer.uninstall()
    child_cpu = child_cpu_s() - cpu_before
    spans, workers = tracer.collect()
    stats = summarize(spans)
    out_file.parent.mkdir(parents=True, exist_ok=True)
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump({"spans": spans, "summary": stats}, fh)
    return run, stats, workers, child_cpu


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        try:
            import_program()
        except ImportError as exc:
            print(f"error: cannot import chronident from {ROOT / 'src'}: {exc}", file=sys.stderr)
            return 2
        if args.setup_probe:
            setup_workload(args.workload, workdir)
            print("ready", flush=True)
            return 0
        try:
            setup_s = statistics.median(probe_setup(args.workload) for _ in range(SETUP_PROBES))
            workload = setup_workload(args.workload, workdir)
        except (OSError, ValueError, KeyError, RuntimeError) as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 2
        return measure(args, workload, setup_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, setup_s: float, workdir: Path) -> int:
    print("environment " + json.dumps(environment()))
    untraced = run_pass(workload, args.seed, args.seconds, None)
    attempted, failed, failures = untraced.ops, untraced.failed, list(untraced.failures)

    quality, gates = study_block(workload, untraced)
    print("quality " + json.dumps(quality))
    print("gates " + json.dumps(gates))
    if quality is None:
        failures.append("study block not computed: a leading unit failed")
    failed_gates = [g for g in gates if not g["passed"]]
    if failed_gates:
        gate_ops = workload.min_units * workload.batch_runs
        failed = min(attempted, failed + gate_ops)
        failures += [f"gate {g['method']} {g['parameter']}: {g['rel_error']:.3f} > {g['tolerance']}" for g in failed_gates]

    if args.trace:
        from layers import per_layer_metrics

        out_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        traced, stats, workers, child_cpu = traced_pass(
            workload, args.seed, len(untraced.outputs), workdir, out_file
        )
        attempted += traced.ops
        failed += traced.failed
        failures += traced.failures
        for k, (a, b) in enumerate(zip(untraced.outputs, traced.outputs)):
            if a is not None and b is not None and not workload.same_output(a, b):
                failed += workload.batch_runs
                failures.append(f"unit {k}: traced and untraced outputs differ")
        overhead_s = traced.wall - untraced.wall
        pool_wall = stats.get("cli.run_monte_carlo", {}).get("total_s", 0.0)
        pool_util = child_cpu / (pool_wall * workload.jobs) if workload.jobs > 1 and pool_wall else 0.0
        extra = {
            "cli.pool_cpu_util": (pool_util, "fraction"),
            "trace.overhead_s": (overhead_s, "s"),
            "trace.overhead_frac": (overhead_s / untraced.wall, "fraction"),
            "trace.worker_processes": (workers, "count"),
        }
        metrics = per_layer_metrics(stats, traced.ops, extra)
        print(
            "trace "
            + json.dumps(
                {
                    "untraced_wall_s": untraced.wall,
                    "traced_wall_s": traced.wall,
                    "overhead_s": overhead_s,
                    "worker_processes": workers,
                    "worker_spans": "collected from forked pool workers and CLI commands",
                    "spans_file": str(out_file.relative_to(ROOT)),
                }
            )
        )
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            # on a shared host a unit's rate swings by a third for seconds at
            # a time; the median unit rate is steadier than the pass total
            "ops_per_s": (statistics.median(untraced.unit_rates), "1/s"),
            "peak_rss_mb": (untraced.peak_rss_mb, "MB"),
            "ok_frac": (1.0 - failed / attempted, "fraction"),
        }

    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
