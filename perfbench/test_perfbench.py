"""Tests of the benchmark harness at small N.

Run from the checkout root: ``python3 -m pytest perfbench``.
"""

import contextlib
import io
import json
import shutil

import numpy as np
import pytest

import run

run.import_program()

import chronident.ident_acov as ident_acov  # noqa: E402
import chronident.stability as stability  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_STEPS = 20_000


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.fixture
def small_root(tmp_path):
    """A checkout-like directory whose full-scale scenario is cut to N=20 000."""
    (tmp_path / "scenarios").mkdir()
    with open(run.ROOT / workloads.FULL_SCENARIO, encoding="utf-8") as fh:
        config = json.load(fh)
    config["n_steps"] = SMALL_STEPS
    config["estimation"]["m_max"] = SMALL_STEPS // 2
    with open(tmp_path / workloads.FULL_SCENARIO, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    shutil.copy(run.ROOT / workloads.QUICK_SCENARIO, tmp_path / workloads.QUICK_SCENARIO)
    return tmp_path


def _small_cli(root):
    workload = workloads.CliRoundTrip(n_steps=SMALL_STEPS)
    workload.setup(root, root / "work")
    return workload


def test_checker_rejects_corrupted_report(small_root):
    workload = _small_cli(small_root)
    _, out = workload.run_unit(0, seed=5)
    assert workload.check_unit(0, dict(out)) == []

    _, out = workload.run_unit(0, seed=5)
    path = workload._paths(0)["acov"]
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    report["theta"][0] = float(np.nextafter(report["theta"][0], np.inf))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    failures = workload.check_unit(0, dict(out))
    assert failures == ["op 0 acov: report theta differs from run_estimation"]


def test_checker_rejects_corrupted_csv(small_root):
    workload = _small_cli(small_root)
    _, out = workload.run_unit(0, seed=5)
    path = workload._paths(0)["csv"]
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    t, z1, *rest = lines[1].rstrip("\n").split(",")
    lines[1] = ",".join([t, repr(float(np.nextafter(float(z1), np.inf))), *rest]) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    failures = workload.check_unit(0, dict(out))
    assert failures == ["op 0: CSV read back differs from the simulated record"]


def test_check_report_rejects_bad_theta():
    good = {"method": "mdm", "n": 4, "theta": [1.0] * 18}
    assert workloads.check_report(good, "mdm", 4, "r") == []
    assert workloads.check_report({**good, "theta": [1.0] * 17}, "mdm", 4, "r")
    assert workloads.check_report({**good, "theta": [np.nan] + [1.0] * 17}, "mdm", 4, "r")
    assert workloads.check_report({**good, "method": "acov"}, "mdm", 4, "r")


def test_gates_fail_outside_tolerance():
    names = ["q1_clk1"]
    truth = np.array([2.0])
    gate = (("acov", "q1_clk1", 0.15, 5),)
    assert workloads.evaluate_gates(gate, names, truth, {"acov": np.array([2.2])})[0]["passed"]
    assert not workloads.evaluate_gates(gate, names, truth, {"acov": np.array([2.4])})[0]["passed"]


def test_traced_pass_matches_untraced(small_root, tmp_path):
    workload = workloads.StudyWorkload(
        workloads.FULL_SCENARIO, batch_runs=2, jobs=2, min_units=1, gates=workloads.YEAR_GATES
    )
    workload.setup(small_root, tmp_path / "work")
    untraced = run.run_pass(workload, seed=3, seconds=0.0, units=1)
    traced, stats, workers, _ = run.traced_pass(
        workload, 3, 1, tmp_path / "work", tmp_path / "trace.json"
    )
    assert untraced.failures == [] and traced.failures == []
    assert workload.same_output(untraced.outputs[0], traced.outputs[0])
    # spans come back from both forked workers, and the by-name import of
    # acov_grid in ident_acov was wrapped too
    assert workers == 2
    assert stats["stability.acov_grid"]["calls"] == 2
    assert stats["cli.run_monte_carlo"]["calls"] == 1
    assert ident_acov.acov_grid is stability.acov_grid


def test_missing_function_records_zero_calls(tmp_path):
    tracer = tracing.Tracer({"numerics.no_such_function": None}, tmp_path / "spans")
    tracer.install()
    tracer.uninstall()
    spans, workers = tracer.collect()
    metrics = layers.per_layer_metrics(tracing.summarize(spans), 1, {})
    assert spans == [] and workers == 0
    assert metrics["numerics.gauss_newton.calls_per_op"] == (0.0, "1/op")


def test_self_time_subtracts_union_of_parallel_children():
    spans = [
        {"id": "a", "parent": None, "name": "p", "start": 0.0, "end": 10.0, "pid": 1, "counts": {}},
        {"id": "b", "parent": "a", "name": "c", "start": 1.0, "end": 5.0, "pid": 2, "counts": {}},
        {"id": "c", "parent": "a", "name": "c", "start": 2.0, "end": 6.0, "pid": 3, "counts": {}},
    ]
    stats = tracing.summarize(spans)
    assert stats["p"]["self_s"] == pytest.approx(5.0)
    assert stats["c"]["calls"] == 2


def _benchmark() -> dict:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in _benchmark()["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric(trace):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", "short_study", "--seed", "2", "--seconds", "0", "--trace", trace])
    result = _last_json(stdout.getvalue())
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 200
    listed = _benchmark()["end_to_end" if trace == "0" else "per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    if trace == "1":
        assert result["metrics"]["ident_mdm.build_mdm_system.calls_per_op"]["value"] == 1.0
