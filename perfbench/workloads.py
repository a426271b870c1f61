"""The benchmark's workloads, their correctness checks and quality block.

Each workload runs in units. A unit is timed as a whole and holds one or
more operations; `run_unit(k, seed)` derives its inputs from the workload
seed and the unit index through chronident's `derive_run_seed`, so the same
seed gives the same inputs, and `check_unit` returns the failure messages
for one unit's outputs. chronident is driven only through public functions
of its modules, looked up on the module at call time so that the tracer's
wrappers are used when it is installed.

Truth-based gates apply to study means only, over a fixed set of leading
units so that a seed always gates the same runs. They reuse the tolerances
of acceptance criteria 5 (ACOV) and 6 (MDM). A parameter is gated only
where the tolerance was at least six standard errors of that mean by the
per-run spread of the seed code (32 full-scale and 800 quick runs); on 30
workload seeds the tolerance is at least 4.2 times the RMS error of every
gated mean (MDM d_clk2 is the closest). Every other parameter is reported
in the quality block only.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import traceback
from pathlib import Path

import numpy as np

import chronident.cli as cli
import chronident.model as model
import chronident.simulate as simulate

FULL_SCENARIO = "scenarios/ahm_four_clock.json"
QUICK_SCENARIO = "scenarios/ahm_four_clock_quick.json"
METHODS = ("acov", "mdm")
ONE_YEAR_S = 365.0 * 86400.0

# (method, parameter, tolerance, acceptance criterion)
YEAR_GATES = (
    *(("acov", f"q1_clk{i}", 0.15, 5) for i in (1, 2, 3, 4)),
    *(("acov", f"q2_clk{i}", 0.50, 5) for i in (2, 3, 4)),
    *(("mdm", f"q1_clk{i}", 0.50, 6) for i in (3, 4)),
    ("mdm", "d_clk2", 0.20, 6),
)
# 1.16 days of data: only the white-FM levels are identified
SHORT_GATES = (
    *(("acov", f"q1_clk{i}", 0.15, 5) for i in (1, 2, 3, 4)),
    *(("mdm", f"q1_clk{i}", 0.50, 6) for i in (2, 3, 4)),
)


def theta_length(n: int) -> int:
    return n * (n + 5) // 2


def check_theta(theta, n: int, label: str) -> list[str]:
    """A finite parameter vector of length n(n+5)/2."""
    values = np.asarray(theta, dtype=float)
    if values.shape != (theta_length(n),):
        return [f"{label}: theta has shape {values.shape}, expected ({theta_length(n)},)"]
    if not np.all(np.isfinite(values)):
        return [f"{label}: theta is not finite"]
    return []


def check_report(report: dict, method: str, n: int, label: str) -> list[str]:
    """A parsed estimate report of the given method with a valid theta."""
    if report.get("method") != method:
        return [f"{label}: report method {report.get('method')!r}, expected {method!r}"]
    if report.get("n") != n:
        return [f"{label}: report n={report.get('n')}, expected {n}"]
    return check_theta(report.get("theta"), n, label)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def defect_tag(method: str, name: str, record_s: float) -> str | None:
    """The ROADMAP item under which a parameter's estimate is known to be wrong."""
    if name.startswith("r_"):
        # ACOV: clamp floor from the faulty variance model; MDM: R is not
        # identified at the resampled period
        return "ROADMAP 1" if method == "acov" else "ROADMAP 5"
    if name == "q2_clk1":
        return "ROADMAP 1" if method == "acov" else "ROADMAP 5"
    if method == "acov" and name.startswith("d_") and name != "d_clk1" and record_s < ONE_YEAR_S:
        return "ROADMAP 1"
    return None


def quality_block(
    names: list[str], truth: np.ndarray, means: dict, record_s: float, runs: int
) -> dict:
    """Relative errors of study means per parameter; information only."""
    block = {"runs": runs, "record_days": record_s / 86400.0}
    for method, mean in means.items():
        rows = {}
        for idx, name in enumerate(names):
            if truth[idx] == 0.0:
                continue
            rows[name] = {
                "rel_error": float((mean[idx] - truth[idx]) / abs(truth[idx])),
                "known_defect": defect_tag(method, name, record_s),
            }
        block[method] = rows
    return block


def evaluate_gates(gates, names: list[str], truth: np.ndarray, means: dict) -> list[dict]:
    results = []
    for method, name, tol, criterion in gates:
        idx = names.index(name)
        rel = abs(means[method][idx] - truth[idx]) / abs(truth[idx])
        results.append(
            {
                "method": method,
                "parameter": name,
                "criterion": criterion,
                "tolerance": tol,
                "rel_error": float(rel),
                "margin": float(tol - rel),
                "passed": bool(rel <= tol),
            }
        )
    return results


class StudyWorkload:
    """Seeded Monte-Carlo batches through `cli.run_monte_carlo`, both methods.

    One operation is one seeded run; a unit is one call of `batch_runs`
    runs whose master seed is derived from the workload seed.
    """

    def __init__(self, scenario: str, batch_runs: int, jobs: int, min_units: int, gates):
        self.scenario = scenario
        self.batch_runs = batch_runs
        self.jobs = jobs
        self.min_units = min_units  # the leading units the gates and quality block use
        self.gates = gates

    def setup(self, root: Path, workdir: Path) -> None:
        self.params, self.ts, extras = model.load_ensemble_config(root / self.scenario)
        self.n_steps = int(extras["n_steps"])
        self.options = cli.EstimationOptions(**extras["estimation"])
        self.truth = model.pack_theta(self.params)
        self.names = cli.theta_names(self.params.n)

    def run_unit(self, k: int, seed: int) -> tuple[int, dict]:
        summaries = cli.run_monte_carlo(
            self.params,
            self.ts,
            self.n_steps,
            self.options,
            list(METHODS),
            runs=self.batch_runs,
            master_seed=simulate.derive_run_seed(seed, k),
            jobs=self.jobs,
        )
        out = {}
        for method in METHODS:
            summary = summaries[method]
            out[method] = {
                "succeeded": summary["runs_succeeded"],
                "errors": summary["failed_runs"],
                "mean": np.asarray(summary.get("mean", []), dtype=float),
                "std": np.asarray(summary.get("std") or [], dtype=float),
            }
        return self.batch_runs, out

    def check_unit(self, k: int, out: dict) -> list[str]:
        # run_monte_carlo exposes no per-run theta; a mean is finite only if
        # every run's theta is, and any failed run is listed in failed_runs
        failures = []
        for method in METHODS:
            entry = out[method]
            label = f"unit {k} {method}"
            if entry["errors"] or entry["succeeded"] != self.batch_runs:
                failures.append(f"{label}: {entry['succeeded']}/{self.batch_runs} runs, {entry['errors']}")
                continue
            failures += check_theta(entry["mean"], self.params.n, f"{label} mean")
            if self.batch_runs > 1:
                failures += check_theta(entry["std"], self.params.n, f"{label} std")
        return failures

    def same_output(self, a: dict, b: dict) -> bool:
        return all(
            same_bits(a[m]["mean"], b[m]["mean"]) and same_bits(a[m]["std"], b[m]["std"])
            for m in METHODS
        )

    def study(self, outputs: list[dict]) -> tuple[dict, list[dict]]:
        means = {m: np.mean([out[m]["mean"] for out in outputs], axis=0) for m in METHODS}
        quality = quality_block(
            self.names, self.truth, means, self.n_steps * self.ts, len(outputs) * self.batch_runs
        )
        return quality, evaluate_gates(self.gates, self.names, self.truth, means)


def run_command(argv: list[str]) -> int:
    """Run one `cli.main` command in a forked child and return its exit code.

    Each command gets a process of its own, as on the command line, but
    without a fresh interpreter or import. Run in this process instead, the
    commands inherit each other's fragmented heap, and the peak RSS of the
    same operation moved by 14.4 MB from one run to the next.
    """
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


class CliRoundTrip:
    """The file path for real logs, through `cli.main`, one forked child per
    command (`run_command`).

    One operation writes a record with ``simulate --out`` and reads it three
    times: ``estimate`` with each method and ``avar``.
    """

    batch_runs = 1
    # an operation takes 6-10 s and single operations vary by about 13% on
    # a shared host, so every run averages at least four
    min_units = 4
    jobs = 1

    def __init__(self, scenario: str = FULL_SCENARIO, n_steps: int = 631_200):
        self.scenario = scenario
        self.n_steps = n_steps

    def setup(self, root: Path, workdir: Path) -> None:
        self.params, self.ts, _ = model.load_ensemble_config(root / self.scenario)
        with open(root / self.scenario, encoding="utf-8") as fh:
            config = json.load(fh)
        config["n_steps"] = self.n_steps
        workdir.mkdir(parents=True, exist_ok=True)
        self.config = workdir / "config.json"
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        self.workdir = workdir
        self.truth = model.pack_theta(self.params)
        self.names = cli.theta_names(self.params.n)

    def _paths(self, k: int) -> dict:
        # per unit, because a pass checks its units only after running all
        return {
            "csv": self.workdir / f"record-{k}.csv",
            "acov": self.workdir / f"report_acov-{k}.json",
            "mdm": self.workdir / f"report_mdm-{k}.json",
            "avar": self.workdir / f"acov-{k}.csv",
        }

    def run_unit(self, k: int, seed: int) -> tuple[int, dict]:
        run_seed = simulate.derive_run_seed(seed, k)
        p = {key: str(path) for key, path in self._paths(k).items()}
        calls = (
            ["simulate", "--config", str(self.config), "--seed", str(run_seed), "--out", p["csv"]],
            ["estimate", p["csv"], "--method", "acov", "--outlier-k", "5", "--out", p["acov"]],
            ["estimate", p["csv"], "--method", "mdm", "--ts-target", "5000",
             "--outlier-k", "5", "--out", p["mdm"]],
            ["avar", p["csv"], "--ell", "20", "--out", p["avar"]],
        )
        return 1, {"seed": run_seed, "codes": [run_command(argv) for argv in calls]}

    def check_unit(self, k: int, out: dict) -> list[str]:
        label = f"op {k}"
        paths = self._paths(k)
        try:
            if out["codes"] != [0, 0, 0, 0]:
                return [f"{label}: exit codes {out['codes']}"]
            failures = []
            reports = {}
            for method in METHODS:
                with open(paths[method], encoding="utf-8") as fh:
                    reports[method] = json.load(fh)
                failures += check_report(reports[method], method, self.params.n, f"{label} {method}")
            avar = np.loadtxt(paths["avar"], delimiter=",", skiprows=1, ndmin=2)
            if avar.shape[0] == 0 or not np.all(np.isfinite(avar)):
                failures.append(f"{label}: avar output empty or not finite")
            if failures:
                return failures

            read_back = simulate.read_measurements_csv(paths["csv"])
            _, record = simulate.simulate_ensemble(
                model.assemble_ensemble(self.params, self.ts),
                self.n_steps,
                out["seed"],
                keep_states=False,
            )
            if read_back.Ts != record.Ts or not same_bits(read_back.Z, record.Z):
                return [f"{label}: CSV read back differs from the simulated record"]
            for method in METHODS:
                options = cli.EstimationOptions(method=method, outlier_k=5.0, ts_target_s=5000.0)
                expected = cli.run_estimation(record, options).theta
                if not same_bits(reports[method]["theta"], expected):
                    failures.append(f"{label} {method}: report theta differs from run_estimation")
            out["theta"] = {m: np.asarray(reports[m]["theta"], dtype=float) for m in METHODS}
            return failures
        finally:
            for path in paths.values():
                if path.exists():
                    os.remove(path)

    def same_output(self, a: dict, b: dict) -> bool:
        return all(same_bits(a["theta"][m], b["theta"][m]) for m in METHODS)

    def study(self, outputs: list[dict]) -> tuple[dict, list[dict]]:
        means = {m: np.mean([out["theta"][m] for out in outputs], axis=0) for m in METHODS}
        record_s = self.n_steps * self.ts
        return quality_block(self.names, self.truth, means, record_s, len(outputs)), []


def make_workload(name: str, jobs: int):
    if name == "year_study":
        return StudyWorkload(FULL_SCENARIO, batch_runs=2, jobs=jobs, min_units=3, gates=YEAR_GATES)
    if name == "short_study":
        return StudyWorkload(QUICK_SCENARIO, batch_runs=50, jobs=1, min_units=4, gates=SHORT_GATES)
    if name == "cli_roundtrip":
        return CliRoundTrip()
    raise ValueError(f"unknown workload {name!r}")
