import inspect
import json
import logging
import multiprocessing
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import jsonschema

from chronident import (
    ClockParams,
    EnsembleParams,
    MeasurementRecord,
    assemble_ensemble,
    derive_run_seed,
    remove_outliers,
    simulate_ensemble,
    write_measurements_csv,
)
from chronident import cli
from chronident.cli import (
    EXIT_INVALID_INPUT,
    EXIT_OK,
    EXIT_UNIDENTIFIABLE,
    EstimationOptions,
    _mc_worker,
    main,
    run_estimation,
    run_monte_carlo,
    write_mc_outputs,
)
from chronident.errors import NoResidueError
from chronident.ident_mdm import estimate_mdm
from chronident.model import dump_ensemble_config

from conftest import quantised_record


REPORT_SCHEMA = {
    "type": "object",
    "required": ["method", "n", "ts_seconds", "clocks", "r_upper", "theta", "diagnostics"],
    "properties": {
        "method": {"enum": ["acov", "mdm"]},
        "n": {"type": "integer", "minimum": 2},
        "ts_seconds": {"type": "number", "exclusiveMinimum": 0},
        "clocks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["q1", "q2", "d"],
                "properties": {
                    "q1": {"type": "number"},
                    "q2": {"type": "number"},
                    "d": {"type": "number"},
                },
            },
        },
        "r_upper": {"type": "array", "items": {"type": "number"}},
        "theta": {"type": "array", "items": {"type": "number"}},
        "diagnostics": {
            "type": "object",
            "required": ["residual", "cond", "rank", "se", "clamped"],
            "properties": {
                "residual": {"type": "number"},
                "cond": {"type": "number"},
                "rank": {"type": "integer"},
                "se": {"type": "array", "items": {"type": "number"}},
                "clamped": {"type": "array", "items": {"type": "string"}},
            },
        },
    },
}


@pytest.fixture()
def scenario_path(tmp_path, maser_params):
    path = tmp_path / "scenario.json"
    dump_ensemble_config(
        maser_params,
        5.0,
        path,
        n_steps=10_000,
        seed=3,
        estimation={"method": "acov", "ell": 15},
    )
    return path


class TestSimulateCommand:
    def test_row_and_column_counts(self, scenario_path, tmp_path):
        out = tmp_path / "meas.csv"
        assert main(["simulate", "--config", str(scenario_path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 10_002  # header + N + 1 samples
        assert lines[0] == "t_s,z1,z2,z3"
        assert len(lines[1].split(",")) == 4

    def test_minimal_record(self, tmp_path, maser_params):
        config = tmp_path / "tiny.json"
        dump_ensemble_config(maser_params, 5.0, config, n_steps=1, seed=0)
        out = tmp_path / "tiny.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_same_seed_byte_identical(self, scenario_path, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        main(["simulate", "--config", str(scenario_path), "--seed", "9", "--out", str(out1)])
        main(["simulate", "--config", str(scenario_path), "--seed", "9", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_steps_is_invalid_input(self, tmp_path, maser_params):
        config = tmp_path / "nosteps.json"
        dump_ensemble_config(maser_params, 5.0, config)
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_INVALID_INPUT

    def test_broken_config_is_invalid_input(self, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{not json")
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_INVALID_INPUT

    @pytest.mark.parametrize("command", ["simulate", "montecarlo"])
    @pytest.mark.parametrize(
        "text", ["5", "null", "[1, 2]", '"text"'], ids=["number", "null", "array", "string"]
    )
    def test_config_that_is_not_an_object_is_invalid_input(self, tmp_path, capsys, command, text):
        config = tmp_path / "scenario.json"
        config.write_text(text + "\n")
        out = tmp_path / "out"
        runs = ["--runs", "1"] if command == "montecarlo" else []
        argv = [command, "--config", str(config), *runs, "--out", str(out)]
        assert main(argv) == EXIT_INVALID_INPUT
        message = f"config file {config} must hold a JSON object, not {text}"
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extras, message",
        [
            ({"n_steps": 1000.7, "seed": 2.9}, "n_steps must be an integer, got 1000.7"),
            ({"n_steps": 1000, "seed": 2.9}, "seed must be an integer, got 2.9"),
        ],
        ids=["n_steps", "seed"],
    )
    def test_fractional_config_value_is_invalid_input(
        self, tmp_path, capsys, maser_params, extras, message
    ):
        config = tmp_path / "scenario.json"
        dump_ensemble_config(maser_params, 5.0, config, **extras)
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_INVALID_INPUT
        assert not out.exists()
        assert message in capsys.readouterr().err


class TestEstimateCommand:
    @pytest.fixture()
    def measurement_path(self, tmp_path, maser_model):
        _, record = simulate_ensemble(maser_model, 20_000, seed=5, keep_states=False)
        path = tmp_path / "meas.csv"
        write_measurements_csv(record, path)
        return path

    def test_acov_report_schema(self, measurement_path, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["estimate", str(measurement_path), "--method", "acov", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["method"] == "acov"
        assert len(report["theta"]) == 18
        assert len(report["clocks"]) == 4

    def test_mdm_report_schema(self, measurement_path, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "estimate",
                str(measurement_path),
                "--method",
                "mdm",
                "--L",
                "5",
                "--ts-target",
                "100",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["method"] == "mdm"
        assert len(report["theta"]) == 18
        assert report["diagnostics"]["L"] == 5
        assert report["diagnostics"]["ts_target_s"] == 100.0
        assert "n_residue_dim" in report["diagnostics"]

    def test_outlier_filter_flag(self, tmp_path, maser_model, caplog):
        _, record = simulate_ensemble(maser_model, 20_000, seed=6, keep_states=False)
        Z = record.Z.copy()
        Z[0, 777] += 1e-6
        spiked = tmp_path / "spiked.csv"
        write_measurements_csv(MeasurementRecord(Ts=5.0, Z=Z), spiked)
        out = tmp_path / "report.json"
        with caplog.at_level(logging.INFO, logger="chronident"):
            code = main(
                ["estimate", str(spiked), "--method", "acov", "--outlier-k", "5", "--out", str(out)]
            )
        assert code == 0
        # the spike and its false positives are masked, not interpolated
        fraction = json.loads(out.read_text())["diagnostics"]["valid_fraction"]
        assert len(fraction) == 3 and fraction[0] < 1.0
        (line,) = [r.getMessage() for r in caplog.records if "outlier filter" in r.getMessage()]
        counts = [int(c) for c in line.split("per channel: ")[1].rstrip(")").split(", ")]
        assert line.startswith(f"outlier filter flagged {sum(counts)} samples")
        np.testing.assert_allclose(fraction, 1.0 - np.array(counts) / 20_001)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--method", "acov", "--d1", "nan"],
            ["--method", "mdm", "--d1", "nan"],
            ["--method", "acov", "--d1", "inf"],
            ["--method", "mdm", "--d1", "inf"],
            ["--method", "acov", "--outlier-k", "nan"],
        ],
    )
    def test_non_finite_option_is_invalid_input(self, measurement_path, tmp_path, flags):
        out = tmp_path / "report.json"
        code = main(["estimate", str(measurement_path), *flags, "--out", str(out)])
        assert code == EXIT_INVALID_INPUT
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--outlier-k", "-1"], "threshold k must be > 0, got -1.0"),
            (["--d1", "nan"], "pivot drift d1 must be finite, got nan"),
        ],
        ids=["outlier_k", "d1"],
    )
    def test_bad_option_fails_before_reading(self, tmp_path, capsys, monkeypatch, flags, message):
        calls = []
        monkeypatch.setattr(cli, "read_measurements_csv", lambda path: calls.append(path))
        code = main(["estimate", str(tmp_path / "meas.csv"), "--method", "mdm", *flags])
        assert code == EXIT_INVALID_INPUT
        assert calls == []
        assert message in capsys.readouterr().err

    def test_mdm_defaults_are_the_estimators(self, measurement_path, tmp_path):
        out = tmp_path / "report.json"
        assert main(["estimate", str(measurement_path), "--method", "mdm", "--out", str(out)]) == 0
        diagnostics = json.loads(out.read_text())["diagnostics"]
        defaults = inspect.signature(estimate_mdm).parameters
        assert diagnostics["L"] == defaults["L"].default
        assert diagnostics["ts_target_s"] == defaults["ts_target_s"].default

    @pytest.mark.parametrize("method", ["acov", "mdm"])
    def test_report_to_stdout_without_out(self, measurement_path, tmp_path, capsys, method):
        # without --out the report JSON goes to stdout, as the file would hold it
        out = tmp_path / "report.json"
        assert main(["estimate", str(measurement_path), "--method", method]) == EXIT_OK
        printed = capsys.readouterr().out
        jsonschema.validate(json.loads(printed), REPORT_SCHEMA)
        argv = ["estimate", str(measurement_path), "--method", method, "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert printed == out.read_text()

    @pytest.mark.parametrize("times", [(10, 5, 0), (0, 0, 0)], ids=["decreasing", "constant"])
    def test_time_column_not_increasing_exit_code(self, tmp_path, capsys, times):
        path = tmp_path / "backwards.csv"
        path.write_text("t_s,z1\n" + "".join(f"{t},{t / 10}\n" for t in times))
        assert main(["estimate", str(path)]) == EXIT_INVALID_INPUT
        message = f"error: {path}: time column is not strictly increasing\n"
        assert capsys.readouterr().err == message

    def test_too_short_file_exit_code(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("t_s,z1\n0,1.0\n5,2.0\n")
        code = main(["estimate", str(path), "--method", "acov"])
        assert code == EXIT_INVALID_INPUT

    def test_mdm_record_shorter_than_window_exit_code(self, tmp_path, maser_model):
        # 40 samples at 5 s hold 4 at 50 s, one fewer than L = 5
        _, record = simulate_ensemble(maser_model, 39, seed=4, keep_states=False)
        path = tmp_path / "short.csv"
        write_measurements_csv(record, path)
        flags = ["--method", "mdm", "--L", "5", "--ts-target", "50"]
        assert main(["estimate", str(path), *flags]) == EXIT_INVALID_INPUT

    def test_unidentifiable_exit_code(self, tmp_path, capsys):
        params = EnsembleParams(
            clocks=(ClockParams(1e-27, 1e-35), ClockParams(1e-27, 1e-35)),
            R=np.array([[1e-35]]),
        )
        model = assemble_ensemble(params, 5.0)
        _, record = simulate_ensemble(model, 2000, seed=1, keep_states=False)
        path = tmp_path / "pair.csv"
        write_measurements_csv(record, path)
        code = main(["estimate", str(path), "--method", "acov"])
        assert code == EXIT_UNIDENTIFIABLE
        # MDM's hint for two clocks asks for a third one, not a longer window
        capsys.readouterr()
        code = main(["estimate", str(path), "--method", "mdm", "--ts-target", "50"])
        assert code == EXIT_UNIDENTIFIABLE
        assert "a third clock is needed" in capsys.readouterr().err

    def test_masked_rank_error_names_mask(self, tmp_path, capsys, monkeypatch, maser_model):
        # the outlier filter masks the nonzero second differences of a
        # quantised record and ACOV loses rank: exit 3, and the error names
        # the valid fractions and the dropped averaging factors
        _, record = simulate_ensemble(maser_model, 2000, seed=3, keep_states=False)
        path = tmp_path / "quantised.csv"
        write_measurements_csv(quantised_record(record), path)
        capsys.readouterr()
        code = main(["estimate", str(path), "--method", "acov", "--outlier-k", "5"])
        assert code == EXIT_UNIDENTIFIABLE
        err = capsys.readouterr().err
        assert "unidentifiable direction(s); the record's mask leaves valid fractions" in err
        # a CSV carries no mask, so the record with channel 1 masked on
        # samples 6..1994 comes in through the reader
        valid = np.ones(record.Z.shape, dtype=bool)
        valid[0, 6:1995] = False
        masked = MeasurementRecord(Ts=5.0, Z=record.Z, valid=valid)
        monkeypatch.setattr(cli, "read_measurements_csv", lambda path: masked)
        code = main(["estimate", str(path), "--method", "acov"])
        assert code == EXIT_UNIDENTIFIABLE
        err = capsys.readouterr().err
        assert "got 2; the record's mask leaves valid fractions 0.006/1.000/1.000" in err
        assert "drops the averaging factors m = 3, 4, 6," in err

    def test_deterministic_output(self, measurement_path, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        main(["estimate", str(measurement_path), "--method", "acov", "--out", str(out1)])
        main(["estimate", str(measurement_path), "--method", "acov", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestAvarCommand:
    def test_pair_times_grid_rows(self, tmp_path, maser_model):
        _, record = simulate_ensemble(maser_model, 20_000, seed=7, keep_states=False)
        meas = tmp_path / "meas.csv"
        write_measurements_csv(record, meas)
        out = tmp_path / "acov.csv"
        code = main(
            ["avar", str(meas), "--ell", "20", "--m-max", "10000", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tau_s,pair_i,pair_j,sigma2,var_sigma2"
        assert len(lines) - 1 == 120  # 6 pairs x 20 grid points

    def test_constant_input_all_zero(self, tmp_path):
        path = tmp_path / "const.csv"
        record = MeasurementRecord(Ts=5.0, Z=np.full((1, 101), 2.5e-9))
        write_measurements_csv(record, path)
        out = tmp_path / "acov.csv"
        assert main(["avar", str(path), "--ell", "5", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert all(float(r.split(",")[3]) == 0.0 for r in rows)

    def test_white_pm_slope(self, tmp_path):
        # white phase noise: sigma2(tau) proportional to tau^-2 on log-log
        rng = np.random.default_rng(71)
        z = np.sqrt(9e-35) * rng.standard_normal((1, 100_001))
        path = tmp_path / "white.csv"
        write_measurements_csv(MeasurementRecord(Ts=5.0, Z=z), path)
        out = tmp_path / "acov.csv"
        assert main(
            ["avar", str(path), "--ell", "10", "--m-max", "100", "--out", str(out)]
        ) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        taus = np.array([float(r[0]) for r in rows])
        sigma2 = np.array([float(r[3]) for r in rows])
        slope = np.polyfit(np.log(taus), np.log(sigma2), 1)[0]
        assert abs(slope - (-2.0)) < 0.1


class _DiesInPoolOnRun:
    """cli._mc_worker, except that in a pool worker the run of one seed ends
    the worker process, as the OOM killer would, after touching a mark file."""

    def __init__(self, seed: int, mark):
        self.seed, self.mark = seed, mark

    def __call__(self, payload):
        if payload[0] == self.seed and multiprocessing.parent_process() is not None:
            self.mark.touch()
            os._exit(1)
        return _mc_worker(payload)


def _assert_same_summary(a: dict, b: dict) -> None:
    assert {k: v for k, v in a.items() if k != "curves"} == {
        k: v for k, v in b.items() if k != "curves"
    }
    assert a["curves"].keys() == b["curves"].keys()
    for clk, curve in a["curves"].items():
        for key, values in curve.items():
            np.testing.assert_array_equal(values, b["curves"][clk][key])


class TestMonteCarloCommand:
    def test_single_run_matches_direct_estimate(self, tmp_path, maser_params, maser_model):
        config = tmp_path / "scenario.json"
        dump_ensemble_config(
            maser_params, 5.0, config, n_steps=10_000, seed=11,
            estimation={"method": "acov", "ell": 12},
        )
        out_dir = tmp_path / "mc"
        code = main(
            ["montecarlo", "--config", str(config), "--runs", "1", "--out", str(out_dir)]
        )
        assert code == 0
        summary = json.loads((out_dir / "mc_summary.json").read_text())
        assert summary["runs_succeeded"] == 1
        assert summary["std"] is None
        # mean of one run equals that run's estimate
        from chronident.ident_acov import estimate_acov_method
        from chronident.simulate import derive_run_seed

        _, record = simulate_ensemble(
            maser_model, 10_000, derive_run_seed(11, 0), keep_states=False
        )
        report = estimate_acov_method(record, ell=12)
        np.testing.assert_allclose(summary["mean"], report.theta, rtol=1e-12)

    def test_outlier_filter_runs_once_per_run(self, maser_params, maser_model, monkeypatch):
        # both methods estimate from one masked record per run, and give the
        # thetas of a per-method run_estimation, which filters for itself
        calls = []

        def counting(record, k):
            calls.append(k)
            return remove_outliers(record, k)

        monkeypatch.setattr(cli, "remove_outliers", counting)
        opts = EstimationOptions(ell=10, ts_target_s=100.0, outlier_k=5.0)
        summaries = run_monte_carlo(
            maser_params, 5.0, 8000, opts, ["acov", "mdm"], runs=1, master_seed=4
        )
        assert calls == [5.0]
        _, record = simulate_ensemble(maser_model, 8000, derive_run_seed(4, 0), keep_states=False)
        for method in ("acov", "mdm"):
            expected = run_estimation(record, replace(opts, method=method)).theta
            assert np.asarray(summaries[method]["mean"]).tobytes() == expected.tobytes()
        assert len(calls) == 3
        run_monte_carlo(maser_params, 5.0, 8000, opts, ["acov", "mdm"], runs=2, master_seed=4)
        assert len(calls) == 5

    def test_curve_file_count(self, tmp_path, maser_params):
        config = tmp_path / "scenario.json"
        dump_ensemble_config(
            maser_params, 5.0, config, n_steps=6000, seed=2,
            estimation={"method": "acov", "ell": 10},
        )
        out_dir = tmp_path / "mc"
        main(["montecarlo", "--config", str(config), "--runs", "2", "--out", str(out_dir)])
        curve_files = sorted(out_dir.glob("avar_clk*.csv"))
        assert [p.name for p in curve_files] == [
            "avar_clk1.csv",
            "avar_clk2.csv",
            "avar_clk3.csv",
            "avar_clk4.csv",
        ]
        header = curve_files[0].read_text().splitlines()[0]
        assert header == "tau_s,avar_true,avar_mc_mean,avar_p2_5,avar_p97_5"

    def test_summary_written_twice_unchanged(self, tmp_path, maser_params):
        opts = EstimationOptions(method="acov", ell=10)
        summary = run_monte_carlo(
            maser_params, 5.0, 6000, opts, ["acov"], runs=2, master_seed=2
        )["acov"]
        for name in ("first", "second"):
            write_mc_outputs(summary, tmp_path / name)
            assert len(list((tmp_path / name).glob("avar_clk*.csv"))) == 4
            assert (tmp_path / name / "mc_summary.json").exists()
        assert "curves" in summary

    @staticmethod
    def _small_study(maser_params) -> dict:
        """run_monte_carlo's arguments but jobs for a 4-run acov study at N = 5000."""
        opts = EstimationOptions(method="acov", ell=10, m_max=2000)
        return dict(
            params=maser_params, ts=5.0, n_steps=5000, options=opts,
            methods=["acov"], runs=4, master_seed=13,
        )

    def test_concurrency_independent_results(self, maser_params):
        kwargs = self._small_study(maser_params)
        serial = run_monte_carlo(jobs=1, **kwargs)["acov"]
        parallel = run_monte_carlo(jobs=2, **kwargs)["acov"]
        assert serial["mean"] == parallel["mean"]
        assert serial["std"] == parallel["std"]

    def test_jobs_taken_as_integer(self, maser_params):
        # jobs is checked as runs and n_steps are: 2.0 is two workers, 1.5
        # is rejected by name before any run
        kwargs = self._small_study(maser_params)
        serial = run_monte_carlo(jobs=1, **kwargs)["acov"]
        _assert_same_summary(run_monte_carlo(jobs=2.0, **kwargs)["acov"], serial)
        with pytest.raises(ValueError, match="jobs must be an integer, got 1.5"):
            run_monte_carlo(jobs=1.5, **kwargs)

    def test_killed_pool_worker_runs_computed_in_process(self, tmp_path, monkeypatch, maser_params):
        # the runs the broken pool did not deliver are computed here, each
        # from its own seed, so the study equals one without a pool
        kwargs = self._small_study(maser_params)
        serial = run_monte_carlo(jobs=1, **kwargs)["acov"]
        mark = tmp_path / "killed"
        # run 1 of both studies below (master seed 13)
        monkeypatch.setattr(cli, "_mc_worker", _DiesInPoolOnRun(derive_run_seed(13, 1), mark))
        _assert_same_summary(run_monte_carlo(jobs=2, **kwargs)["acov"], serial)
        assert mark.exists()

        config = tmp_path / "scenario.json"
        dump_ensemble_config(
            maser_params, 5.0, config, n_steps=5000, estimation={"ell": 10, "m_max": 2000}
        )
        mark.unlink()
        for jobs in ("2", "1"):
            code = main(
                ["montecarlo", "--config", str(config), "--runs", "4", "--seed", "13",
                 "--jobs", jobs, "--out", str(tmp_path / f"mc{jobs}")]
            )
            assert code == EXIT_OK
        assert mark.exists()
        summary = (tmp_path / "mc2" / "mc_summary.json").read_bytes()
        assert summary == (tmp_path / "mc1" / "mc_summary.json").read_bytes()
        assert multiprocessing.active_children() == []

    def test_study_in_daemonic_process_runs_in_process(self, maser_params):
        # a multiprocessing.Pool worker is daemonic and may not start children
        kwargs = self._small_study(maser_params)
        serial = run_monte_carlo(jobs=1, **kwargs)["acov"]
        with multiprocessing.Pool(1) as outer:
            nested = outer.apply(run_monte_carlo, (), dict(jobs=2, **kwargs))["acov"]
        _assert_same_summary(nested, serial)
        assert multiprocessing.active_children() == []

    def test_mean_q1_accuracy(self, maser_params):
        opts = EstimationOptions(method="acov", ell=15)
        summary = run_monte_carlo(
            maser_params, 5.0, 10_000, opts, ["acov"], runs=10, master_seed=17
        )["acov"]
        names = summary["parameter_names"]
        mean = np.array(summary["mean"])
        idx = names.index("q1_clk2")
        assert abs(mean[idx] - 1.5e-27) / 1.5e-27 < 0.15

    def test_failed_runs_recorded(self, tmp_path, caplog):
        # a 2-clock scenario is structurally unidentifiable: every run fails,
        # each failure is logged at warning level and each method's count
        # at info level
        params = EnsembleParams(
            clocks=(ClockParams(1e-27, 1e-35), ClockParams(1e-27, 1e-35)),
            R=np.array([[1e-35]]),
        )
        opts = EstimationOptions(method="acov", ell=10)
        with caplog.at_level(logging.INFO, logger="chronident"):
            summary = run_monte_carlo(
                params, 5.0, 2000, opts, ["acov"], runs=2, master_seed=1
            )["acov"]
        assert summary["runs_succeeded"] == 0
        assert [f["run"] for f in summary["failed_runs"]] == [0, 1]
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        infos = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        assert warnings == [
            f"run {f['run']} (acov) failed: {f['error']}" for f in summary["failed_runs"]
        ]
        assert all("UnidentifiableError" in w for w in warnings)
        assert infos == ["acov: 0/2 runs succeeded"]

    def test_every_run_failing_is_invalid_input(self, tmp_path, capsys):
        # a 2-clock scenario fails only once simulated: every run is
        # unidentifiable, the summary is written and the study exits 2
        params = EnsembleParams(
            clocks=(ClockParams(1e-27, 1e-35), ClockParams(1e-27, 1e-35)),
            R=np.array([[1e-35]]),
        )
        config = tmp_path / "pair.json"
        dump_ensemble_config(params, 5.0, config, n_steps=2000, estimation={"ell": 10})
        out_dir = tmp_path / "mc"
        code = main(["montecarlo", "--config", str(config), "--runs", "2", "--out", str(out_dir)])
        assert code == EXIT_INVALID_INPUT
        summary = json.loads((out_dir / "mc_summary.json").read_text())
        assert summary["runs_succeeded"] == 0
        assert len(summary["failed_runs"]) == 2
        assert "UnidentifiableError" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_filter_rejected_runs_recorded(self, maser_params, jobs):
        # a valid k below about 1 flags more than half of a Gaussian record,
        # which remove_outliers rejects only once a run is simulated: each
        # run is recorded as failed for every method and the study returns
        opts = EstimationOptions(ell=10, ts_target_s=100.0, outlier_k=0.5)
        summaries = run_monte_carlo(
            maser_params, 5.0, 4000, opts, ["acov", "mdm"], runs=2, master_seed=1, jobs=jobs
        )
        for summary in summaries.values():
            assert summary["runs_succeeded"] == 0
            assert [f["run"] for f in summary["failed_runs"]] == [0, 1]
            assert all(f["error"].startswith("ChannelUnusableError") for f in summary["failed_runs"])

    def test_filter_rejecting_every_run_writes_summary(self, tmp_path, capsys, maser_params):
        config = tmp_path / "scenario.json"
        dump_ensemble_config(
            maser_params, 5.0, config, n_steps=4000, estimation={"ell": 10, "outlier_k": 0.5}
        )
        out_dir = tmp_path / "mc"
        code = main(["montecarlo", "--config", str(config), "--runs", "2", "--out", str(out_dir)])
        assert code == EXIT_INVALID_INPUT
        summary = json.loads((out_dir / "mc_summary.json").read_text())
        assert summary["runs_succeeded"] == 0
        assert len(summary["failed_runs"]) == 2
        assert "ChannelUnusableError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, estimation, message",
        [
            (["--d1", "nan"], {}, "d1 must be finite"),
            ([], {"outlier_k": 0}, "k must be > 0"),
            (
                [],
                {"method": "mdm", "ts_target": 100},
                "unknown key(s) in config field 'estimation': ts_target",
            ),
            ([], {"method": "acvo"}, "method must be 'acov' or 'mdm', got 'acvo'"),
            ([], {"ell": 1}, "ell must be >= 2, got 1"),
            (["--jobs", "0"], {}, "jobs must be >= 1, got 0"),
            (
                [],
                {"method": "mdm", "L": 5.5, "ts_target_s": 100.0},
                "L must be an integer, got 5.5",
            ),
            ([], {"ell": 15.7}, "ell must be an integer, got 15.7"),
            ([], {"m_max": 1000.9}, "m_max must be an integer, got 1000.9"),
            (
                ["--method", "mdm", "--ts-target", "7"],
                {},
                "MDM Ts=7.0 is not an integer multiple of record Ts=5.0",
            ),
            (
                ["--method", "mdm", "--ts-target", "5000", "--L", "30"],
                {},
                "record has 21 samples at Ts=5000.0, need at least L=30",
            ),
        ],
        ids=[
            "d1", "outlier_k", "unknown_key", "method", "ell", "jobs",
            "L_fraction", "ell_fraction", "m_max_fraction", "ts_target", "window",
        ],
    )
    def test_bad_option_fails_before_simulating(
        self, tmp_path, capsys, monkeypatch, maser_params, flags, estimation, message
    ):
        code = self._study_before_simulating(tmp_path, monkeypatch, maser_params, flags, estimation)
        assert code == EXIT_INVALID_INPUT
        assert message in capsys.readouterr().err

    def test_window_without_residue_fails_before_simulating(
        self, tmp_path, capsys, monkeypatch, maser_params
    ):
        # a window of L = 2 is unidentifiable in every run, as in estimate
        flags = ["--method", "mdm", "--ts-target", "100", "--L", "2"]
        code = self._study_before_simulating(tmp_path, monkeypatch, maser_params, flags, {})
        assert code == EXIT_UNIDENTIFIABLE
        assert "holds no second difference" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extras, message",
        [
            ({"n_steps": 1000.7, "seed": 2}, "n_steps must be an integer, got 1000.7"),
            ({"n_steps": 1000, "seed": 2.9}, "seed must be an integer, got 2.9"),
        ],
        ids=["n_steps", "seed"],
    )
    def test_fractional_config_value_fails_before_simulating(
        self, tmp_path, capsys, monkeypatch, maser_params, extras, message
    ):
        code = self._study_before_simulating(
            tmp_path, monkeypatch, maser_params, [], {"ell": 10}, **extras
        )
        assert code == EXIT_INVALID_INPUT
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "estimation, extras, field",
        [
            ({}, {"n_steps": [20_000]}, "n_steps"),
            ({}, {"seed": {}}, "seed"),
            ({}, {"ts_seconds": [5.0]}, "ts_seconds"),
            ({}, {"ts_seconds": float("nan")}, "ts_seconds"),
            ({}, {"ts_seconds": float("inf")}, "ts_seconds"),
            ({}, {"r_upper": {}}, "r_upper"),
            ({"ell": [15]}, {}, "ell"),
            ({"d1": [0.0]}, {}, "d1"),
        ],
        ids=["n_steps", "seed", "ts_list", "ts_nan", "ts_inf", "r_upper", "ell", "d1"],
    )
    def test_mistyped_config_number_is_invalid_input(
        self, tmp_path, capsys, monkeypatch, maser_params, estimation, extras, field
    ):
        # a JSON list, object or non-finite step where a number belongs
        code = self._study_before_simulating(
            tmp_path, monkeypatch, maser_params, [], estimation, **extras
        )
        assert code == EXIT_INVALID_INPUT
        assert field in capsys.readouterr().err

    @staticmethod
    def _study_before_simulating(tmp_path, monkeypatch, maser_params, flags, estimation, **extras):
        """The exit status of a two-run montecarlo command, checking that it
        simulated nothing and wrote no output directory."""
        calls = []
        monkeypatch.setattr(
            "chronident.cli.simulate_ensemble", lambda *args, **kwargs: calls.append(args)
        )
        config = tmp_path / "scenario.json"
        extras = {"n_steps": 20_000, **extras}
        dump_ensemble_config(maser_params, 5.0, config, estimation=estimation, **extras)
        out_dir = tmp_path / "mc"
        code = main(
            ["montecarlo", "--config", str(config), "--runs", "2", *flags, "--out", str(out_dir)]
        )
        assert calls == []
        assert not out_dir.exists()
        return code

    @pytest.mark.parametrize(
        "methods, jobs, options, error, message",
        [
            (["accov"], 1, {}, ValueError, "method must be 'acov' or 'mdm', got 'accov'"),
            (["acov"], -4, {}, ValueError, "jobs must be >= 1, got -4"),
            (
                ["acov", "mdm"],
                1,
                {"ts_target_s": 7.0},
                ValueError,
                "MDM Ts=7.0 is not an integer multiple of record Ts=5.0",
            ),
            # estimate_mdm's default period, 5000 s, leaves 3 of 2001 samples
            (["mdm"], 1, {}, ValueError, "record has 3 samples at Ts=5000.0, need at least L=5"),
            (["mdm"], 1, {"L": 2, "ts_target_s": 100.0}, NoResidueError, "no second difference"),
        ],
        ids=["method", "jobs", "ts_target", "default_window", "no_residue"],
    )
    def test_library_rejects_before_simulating(
        self, monkeypatch, maser_params, methods, jobs, options, error, message
    ):
        calls = []
        monkeypatch.setattr(
            "chronident.cli.simulate_ensemble", lambda *args, **kwargs: calls.append(args)
        )
        with pytest.raises(error, match=message):
            run_monte_carlo(
                maser_params, 5.0, 2000, EstimationOptions(**options), methods, runs=2,
                master_seed=1, jobs=jobs,
            )
        assert calls == []


@pytest.mark.parametrize(
    "period, message",
    [
        ("1e308", "record has 1 samples at Ts=1e+308, need at least L=5"),
        ("inf", "MDM period ts_target_s must be finite and > 0, got inf"),
    ],
    ids=["huge", "inf"],
)
@pytest.mark.parametrize("command", ["estimate", "montecarlo"])
def test_mdm_period_rejected_before_system_is_built(
    tmp_path, capsys, maser_model, maser_params, command, period, message
):
    # a period whose h^3 term overflows, or an infinite one, exits 2
    # with the reason and writes nothing
    if command == "estimate":
        _, record = simulate_ensemble(maser_model, 2000, seed=9, keep_states=False)
        write_measurements_csv(record, source := tmp_path / "meas.csv")
        argv = ["estimate", str(source)]
    else:
        dump_ensemble_config(maser_params, 5.0, source := tmp_path / "scenario.json", n_steps=2000)
        argv = ["montecarlo", "--config", str(source), "--runs", "2"]
    out = tmp_path / "out"
    code = main([*argv, "--method", "mdm", "--ts-target", period, "--out", str(out)])
    assert code == EXIT_INVALID_INPUT
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="class")
def long_csv(tmp_path_factory, maser_model):
    """An N = 600 000 measurement CSV, a short one from its first samples,
    and the record's Z.nbytes."""
    _, record = simulate_ensemble(maser_model, 600_000, seed=37, keep_states=False)
    root = tmp_path_factory.mktemp("long_csv")
    path, small = root / "meas.csv", root / "small.csv"
    write_measurements_csv(record, path)
    write_measurements_csv(MeasurementRecord(Ts=5.0, Z=record.Z[:, :20_001]), small)
    return path, small, record.Z.nbytes


class TestRunEstimation:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method must be 'acov' or 'mdm', got 'acvo'"):
            EstimationOptions(method="acvo")

    @pytest.mark.parametrize(
        "method, options, settings",
        [
            ("acov", {"ell": 10, "L": 6}, {"ell": 10}),
            ("mdm", {"ell": 10, "L": 6, "d1": 1e-22}, {"L": 6, "d1": 1e-22}),
        ],
        ids=["acov", "mdm"],
    )
    def test_estimator_looked_up_when_called(self, monkeypatch, method, options, settings):
        # the module's estimator is called, as it is when the call runs (a
        # wrapped or replaced estimator included), with its own settings only
        calls = []

        def stub(record, **kwargs):
            calls.append((record, kwargs))
            return "report"

        name = {"acov": "estimate_acov_method", "mdm": "estimate_mdm"}[method]
        monkeypatch.setattr(cli, name, stub)
        record = MeasurementRecord(Ts=5.0, Z=np.zeros((2, 11)))
        assert run_estimation(record, EstimationOptions(method=method, **options)) == "report"
        assert calls == [(record, settings)]

    def test_config_text_values_take_the_estimators_types(self, maser_model):
        # a config may spell a number as JSON text; the estimator gets it as
        # the type it takes, as it does from a flag
        _, record = simulate_ensemble(maser_model, 5000, seed=8, keep_states=False)
        for typed, text in [
            (dict(method="acov", ell=10, d1=0.0), dict(method="acov", ell="10", d1="0")),
            (dict(method="mdm", L=5, ts_target_s=100.0), dict(method="mdm", L="5", ts_target_s="100")),
        ]:
            expected = run_estimation(record, EstimationOptions(**typed)).theta
            got = run_estimation(record, EstimationOptions(**text)).theta
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("method", ["acov", "mdm"])
    def test_spike_at_middle_sample_of_even_record(self, maser_model, method):
        # the default m_max = N/2 has one column, from samples 0, N/2 and N;
        # masking the spike at N/2 leaves it none, so that averaging time is
        # dropped instead of failing the fit
        n_steps = 20_000
        _, record = simulate_ensemble(maser_model, n_steps, seed=36, keep_states=False)
        Z = record.Z.copy()
        Z[0, n_steps // 2] += 1e-6
        spiked = MeasurementRecord(Ts=5.0, Z=Z)
        opts = EstimationOptions(method=method, ts_target_s=100.0, outlier_k=5.0)
        report = run_estimation(spiked, opts)
        assert np.all(np.isfinite(report.theta))
        assert report.diagnostics["valid_fraction"][0] < 1.0
        if method == "acov":
            assert report.diagnostics["dropped_m"] == [n_steps // 2]
            assert report.diagnostics["m_max"] < n_steps // 2

    @pytest.mark.parametrize("method", ["acov", "mdm"])
    def test_peak_memory_with_outlier_filter(self, maser_model, method):
        # the mask (Z/8) and block-sized scratch of remove_outliers and the
        # estimators: a full-length second-difference row (Z/3) could not
        # stay under the bound; a first short call keeps one-time lazy
        # imports out of the traced peak
        _, record = simulate_ensemble(maser_model, 600_000, seed=35, keep_states=False)
        opts = EstimationOptions(method=method, outlier_k=5.0)
        short = MeasurementRecord(Ts=5.0, Z=record.Z[:, :20_001])
        run_estimation(short, replace(opts, ts_target_s=100.0))
        tracemalloc.start()
        try:
            run_estimation(record, opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.3 * record.Z.nbytes

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--method", "acov", "--outlier-k", "5"],
            ["estimate", "--method", "mdm", "--outlier-k", "5"],
            ["avar", "--ell", "20"],
        ],
        ids=["estimate_acov", "estimate_mdm", "avar"],
    )
    def test_command_peak_memory_on_one_cpu(self, tmp_path, monkeypatch, long_csv, argv):
        # a command holds its record Z and block-sized scratch: the read
        # keeps no time column and the filter no second-difference row, so
        # any full-length temporary on the path (Z/3 for three channels)
        # fails the bound; a first small run keeps one-time lazy imports
        # out of the traced peak
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        path, small, z_bytes = long_csv
        out = str(tmp_path / "out")
        extra = ["--ts-target", "100"] if "mdm" in argv else []
        assert main([argv[0], str(small), *argv[1:], *extra, "--out", out]) == 0
        tracemalloc.start()
        try:
            code = main([argv[0], str(path), *argv[1:], "--out", out])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 1.3 * z_bytes


class TestParserContract:
    def test_unknown_method_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("t_s,z1\n0,1\n5,2\n10,3\n")
        with pytest.raises(SystemExit):
            main(["estimate", str(path), "--method", "bogus"])

    def test_outlier_off_token(self, tmp_path, maser_model):
        _, record = simulate_ensemble(maser_model, 5000, seed=8, keep_states=False)
        path = tmp_path / "m.csv"
        write_measurements_csv(record, path)
        out = tmp_path / "r.json"
        code = main(
            [
                "estimate",
                str(path),
                "--method",
                "acov",
                "--ell",
                "10",
                "--outlier-k",
                "off",
                "--out",
                str(out),
            ]
        )
        assert code == 0
