import json

import numpy as np
import pytest

import jsonschema

from chronident import (
    ClockParams,
    EnsembleParams,
    MeasurementRecord,
    assemble_ensemble,
    simulate_ensemble,
    write_measurements_csv,
)
from chronident.cli import (
    EXIT_INVALID_INPUT,
    EXIT_UNIDENTIFIABLE,
    EstimationOptions,
    main,
    run_monte_carlo,
    write_mc_outputs,
)
from chronident.model import dump_ensemble_config


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
            "required": ["residual", "cond", "clamped"],
            "properties": {
                "residual": {"type": "number"},
                "cond": {"type": "number"},
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

    def test_outlier_filter_flag(self, tmp_path, maser_model):
        _, record = simulate_ensemble(maser_model, 20_000, seed=6, keep_states=False)
        Z = record.Z.copy()
        Z[0, 777] += 1e-6
        spiked = tmp_path / "spiked.csv"
        write_measurements_csv(MeasurementRecord(Ts=5.0, Z=Z), spiked)
        out = tmp_path / "report.json"
        code = main(
            ["estimate", str(spiked), "--method", "acov", "--outlier-k", "5", "--out", str(out)]
        )
        assert code == 0

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

    def test_too_short_file_exit_code(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("t_s,z1\n0,1.0\n5,2.0\n")
        code = main(["estimate", str(path), "--method", "acov"])
        assert code == EXIT_INVALID_INPUT

    def test_unidentifiable_exit_code(self, tmp_path):
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

    def test_concurrency_independent_results(self, maser_params):
        opts = EstimationOptions(method="acov", ell=10, m_max=2000)
        kwargs = dict(
            params=maser_params, ts=5.0, n_steps=5000, options=opts,
            methods=["acov"], runs=4, master_seed=13,
        )
        serial = run_monte_carlo(jobs=1, **kwargs)["acov"]
        parallel = run_monte_carlo(jobs=2, **kwargs)["acov"]
        assert serial["mean"] == parallel["mean"]
        assert serial["std"] == parallel["std"]

    def test_mean_q1_accuracy(self, maser_params):
        opts = EstimationOptions(method="acov", ell=15)
        summary = run_monte_carlo(
            maser_params, 5.0, 10_000, opts, ["acov"], runs=10, master_seed=17
        )["acov"]
        names = summary["parameter_names"]
        mean = np.array(summary["mean"])
        idx = names.index("q1_clk2")
        assert abs(mean[idx] - 1.5e-27) / 1.5e-27 < 0.15

    def test_failed_runs_recorded(self, tmp_path):
        # a 2-clock scenario is structurally unidentifiable: every run fails
        params = EnsembleParams(
            clocks=(ClockParams(1e-27, 1e-35), ClockParams(1e-27, 1e-35)),
            R=np.array([[1e-35]]),
        )
        opts = EstimationOptions(method="acov", ell=10)
        summary = run_monte_carlo(
            params, 5.0, 2000, opts, ["acov"], runs=2, master_seed=1
        )["acov"]
        assert summary["runs_succeeded"] == 0
        assert len(summary["failed_runs"]) == 2


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
