import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from laneweave import errors, evaluation, pipeline
from laneweave.cli import (
    CALIBRATE_SETTINGS,
    EVALUATE_SETTINGS,
    EXIT_ARGUMENT,
    EXIT_CALIBRATION,
    EXIT_CODES,
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_SCHEMA,
    build_parser,
    main,
    resolve_config,
)
from laneweave.core import OffsetSeries, RunConfig
from laneweave.errors import ArgumentUsageError, SchemaError
from laneweave.generator import bench_generation, load_model
from laneweave.markov import discretize, state_centers
from laneweave.pipeline import calibrate_from_segments, read_drive_log_csv
from laneweave.preprocessing import Segment
from laneweave.synthetic import KERNEL_FAMILIES, TRANSITION_FAMILIES

from test_ingest import _cli_env


@pytest.fixture
def tour_csv(tmp_path):
    path = tmp_path / "tour.csv"
    code = main(
        ["synth", "--minutes", "10", "--seed", "6", "--out", str(path)]
    )
    assert code == EXIT_OK
    return path


@pytest.fixture
def model_file(tmp_path, tour_csv):
    path = tmp_path / "model.json"
    code = main(["calibrate", "--input", str(tour_csv), "--out", str(path)])
    assert code == EXIT_OK
    return path


class TestSynth:
    def test_writes_tour_and_model(self, tmp_path):
        csv_path = tmp_path / "t.csv"
        model_path = tmp_path / "m.json"
        code = main(
            [
                "synth",
                "--family",
                "banded",
                "--p",
                "0.9",
                "--minutes",
                "5",
                "--seed",
                "1",
                "--out",
                str(csv_path),
                "--model-out",
                str(model_path),
            ]
        )
        assert code == EXIT_OK
        log = read_drive_log_csv(csv_path)
        assert len(log) == 5 * 60 * 5
        model = load_model(model_path)
        assert model.metadata["family"] == "banded"

    def test_same_seed_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            assert main(["synth", "--minutes", "2", "--seed", "3", "--out", str(path)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("kernel", KERNEL_FAMILIES)
    @pytest.mark.parametrize("family", TRANSITION_FAMILIES)
    def test_every_family_and_kernel_writes_finite_files(self, tmp_path, family, kernel):
        csv_path, model_path = tmp_path / "t.csv", tmp_path / "m.json"
        argv = ["synth", "--family", family, "--kernel", kernel, "--minutes", "1",
                "--out", str(csv_path), "--model-out", str(model_path)]
        assert main(argv) == EXIT_OK
        model = load_model(model_path)
        assert (model.metadata["family"], model.metadata["kernel"]) == (family, kernel)
        for path in (csv_path, model_path):
            assert not re.search(r"NaN|Infinity", path.read_text())


class TestCalibrate:
    def test_produces_loadable_model(self, model_file):
        model = load_model(model_file)
        sums = model.coarse.transition.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) <= 1e-9)
        assert model.metadata["config"]["n_c"] == 20
        assert "created_at" in model.metadata

    def test_absorbing_row_is_reported(self):
        # states 0 0 1 0 0 2: row 2 is entered but never left, and row 3 is
        # never visited; an identity row would trap every walk entering 2
        config = RunConfig(n_c=4)
        centers = state_centers(4)
        walk = Segment(0.0, OffsetSeries(config.dt, centers[[0, 0, 1, 0, 0, 2]]))
        # a long stay in bin 0 feeds the spectral fit and adds no other row
        jitter = np.random.default_rng(0).uniform(-0.05, 0.05, 8 * config.window_length)
        stay = Segment(10.0, OffsetSeries(config.dt, centers[0] + jitter))
        model, summary = calibrate_from_segments([walk, stay], config)
        assert summary["repaired_rows"] == [2, 3]
        assert model.coarse.transition[2].tolist() == [0.0, 1.0, 0.0, 0.0]
        assert model.coarse.transition[3].tolist() == [0.0, 0.0, 1.0, 0.0]
        assert summary["row_visits"][2:] == [0, 0]

    def test_prints_repaired_rows(self, capsys, tmp_path, tour_csv):
        code = main(["calibrate", "--input", str(tour_csv), "--out", str(tmp_path / "m.json")])
        assert code == EXIT_OK
        assert "repaired rows: 4 [0, 1, 2, 3]" in capsys.readouterr().out

    def test_huge_marking_distances_end_without_a_warning(self, capsys, tmp_path, tour_csv):
        # one row's width is finite, another's overflows; pyproject makes
        # any RuntimeWarning an error, so an overflow would end this test
        lines = tour_csv.read_text().splitlines()
        for k, right in ((100, "1.0"), (200, "1.7e308")):
            t = lines[k].split(",")[0]
            lines[k] = f"{t},1.7e308,{right},120.0,"
        tour = tmp_path / "huge.csv"
        tour.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["calibrate", "--input", str(tour), "--out", str(tmp_path / "m.json")]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_header_only_csv_is_insufficient_data(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("t,dist_left,dist_right,v_lon\n")
        code = main(["calibrate", "--input", str(path), "--out", str(tmp_path / "m.json")])
        assert code == EXIT_CALIBRATION

    def test_bad_header_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,left,right,speed\n0,1,1,80\n")
        code = main(["calibrate", "--input", str(path), "--out", str(tmp_path / "m.json")])
        assert code == EXIT_SCHEMA

    def test_unparseable_cell_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,dist_left,dist_right,v_lon\n0.0,abc,1.8,80\n")
        with pytest.raises(SchemaError, match="dist_left"):
            read_drive_log_csv(path)
        assert main(["calibrate", "--input", str(path), "--out", str(tmp_path / "m.json")]) == EXIT_SCHEMA

    def test_non_monotone_timestamps_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,dist_left,dist_right,v_lon\n0.0,1.8,1.8,80\n0.0,1.8,1.8,80\n")
        with pytest.raises(SchemaError, match="row 2"):
            read_drive_log_csv(path)

    @pytest.mark.parametrize(
        "rows, bad_row",
        [
            (["nan,1.8,1.8,80", "0.2,1.8,1.8,80"], 1),
            (["0.0,1.8,1.8,80", "nan,1.8,1.8,80"], 2),
            (["0.0,1.8,1.8,80", "0.2,1.8,1.8,80", "inf,1.8,1.8,80"], 3),
            (["-inf,1.8,1.8,80", "0.2,1.8,1.8,80"], 1),
        ],
    )
    def test_non_finite_timestamp_is_schema_error(self, tmp_path, rows, bad_row):
        path = tmp_path / "bad.csv"
        path.write_text("t,dist_left,dist_right,v_lon\n" + "\n".join(rows) + "\n")
        with pytest.raises(SchemaError) as info:
            read_drive_log_csv(path)
        assert (info.value.column, info.value.row) == ("t", bad_row)
        assert main(["calibrate", "--input", str(path), "--out", str(tmp_path / "m.json")]) == EXIT_SCHEMA

    def test_non_finite_distance_and_velocity_parse(self, tmp_path):
        path = tmp_path / "dropouts.csv"
        path.write_text("t,dist_left,dist_right,v_lon\n0.0,nan,1.8,80\n0.2,1.8,1.8,inf\n")
        log = read_drive_log_csv(path)
        assert np.isnan(log.dist_left[0]) and np.isinf(log.v_lon[1])

    def test_negative_distance_row_survives_calibration(self, tmp_path, tour_csv):
        lines = tour_csv.read_text().splitlines()
        cells = lines[1].split(",")
        cells[1] = "-1.0"
        lines[1] = ",".join(cells)
        patched = tmp_path / "patched.csv"
        patched.write_text("\n".join(lines) + "\n")
        code = main(["calibrate", "--input", str(patched), "--out", str(tmp_path / "m.json")])
        assert code == EXIT_OK


class TestGenerate:
    def test_row_counts(self, tmp_path, model_file):
        for duration, rows in ((10.0, 50), (3600.0, 18000)):
            out = tmp_path / f"profile_{int(duration)}.csv"
            code = main(
                [
                    "generate",
                    "--model",
                    str(model_file),
                    "--x0",
                    "0.0",
                    "--duration",
                    str(duration),
                    "--seed",
                    "1",
                    "--out",
                    str(out),
                ]
            )
            assert code == EXIT_OK
            lines = out.read_text().strip().splitlines()
            assert lines[0] == "t,x"
            assert len(lines) == rows + 1

    def test_same_seed_byte_identical(self, tmp_path, model_file):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            args = [
                "generate",
                "--model",
                str(model_file),
                "--x0",
                "0.1",
                "--duration",
                "60",
                "--seed",
                "9",
                "--out",
                str(out),
            ]
            assert main(args) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_walk_started_in_a_repaired_edge_bin_leaves_it(self, tmp_path, model_file):
        # the pinned tour never reaches bins 0-3; with identity rows there,
        # a walk started in bin 3 stayed in [-0.354, -0.297] for good
        assert discretize(-0.33, 20) == 3
        out = tmp_path / "p.csv"
        args = ["generate", "--model", str(model_file), "--x0", "-0.33", "--duration", "600"]
        assert main(args + ["--out", str(out)]) == EXIT_OK
        x = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
        # above bin 3 by more than the jitter can add to a drift held in it
        assert x.max() > -0.30 + load_model(model_file).fine.output_bound

    def test_out_of_range_x0_is_argument_error(self, tmp_path, model_file):
        code = main(
            [
                "generate",
                "--model",
                str(model_file),
                "--x0",
                "0.7",
                "--duration",
                "10",
                "--out",
                str(tmp_path / "p.csv"),
            ]
        )
        assert code == EXIT_ARGUMENT

    def test_missing_model_is_schema_error(self, tmp_path):
        code = main(
            [
                "generate",
                "--model",
                str(tmp_path / "missing.json"),
                "--x0",
                "0.0",
                "--duration",
                "10",
                "--out",
                str(tmp_path / "p.csv"),
            ]
        )
        assert code == EXIT_SCHEMA

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("coarse", "transition", math.nan),
            ("fine", "noise_halfwidth", math.nan),
            ("params", "n_c", 20.0),
            ("params", "smoothing_sigma", math.nan),
            ("params", "v_min", True),
        ],
    )
    def test_malformed_model_field_is_schema_error(
        self, capsys, tmp_path, model_file, section, key, value
    ):
        doc = json.loads(model_file.read_text())
        if key == "transition":
            doc[section][key][0] = value
        else:
            doc[section][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "p.csv"
        code = main(
            ["generate", "--model", str(bad), "--x0", "0.0", "--duration", "10", "--out", str(out)]
        )
        assert code == EXIT_SCHEMA
        assert key in capsys.readouterr().err
        assert not out.exists()


class TestEvaluate:
    def test_writes_reports_for_requested_modes(self, tmp_path, model_file, tour_csv):
        out_dir = tmp_path / "reports"
        code = main(
            [
                "evaluate",
                "--model",
                str(model_file),
                "--input",
                str(tour_csv),
                "--modes",
                "shift,full",
                "--seed",
                "2",
                "--out",
                str(out_dir),
            ]
        )
        assert code == EXIT_OK
        assert (out_dir / "report_shift.json").exists()
        assert (out_dir / "summary_shift.csv").exists()
        assert (out_dir / "report_full.json").exists()
        document = json.loads((out_dir / "report_full.json").read_text())
        assert document["mode"] == "full"
        assert document["config"]["n_c"] == 20
        assert len(document["metrics"]) == 10
        summary = (out_dir / "summary_full.csv").read_text().strip().splitlines()
        assert len(summary) == 21

    def test_real_side_is_built_once(self, tmp_path, model_file, tour_csv):
        args = ["evaluate", "--model", str(model_file), "--input", str(tour_csv)]
        args += ["--modes", "shift,coarse,fine,full", "--out", str(tmp_path / "r")]
        # the spy sees only the calling process, which maps the first share of the modes
        for shares, own_modes in ((1, 4), (2, 2)):
            with mock.patch.object(pipeline, "_worker_count", lambda items: min(items, shares)), \
                    mock.patch.object(evaluation, "compute_metrics", wraps=evaluation.compute_metrics) as spy:
                assert main(args) == EXIT_OK
            # the real snippets once, then the artificial population of each mode it maps
            assert spy.call_count == 1 + own_modes

    def test_unknown_mode_is_argument_error(self, tmp_path, model_file, tour_csv):
        code = main(
            [
                "evaluate",
                "--model",
                str(model_file),
                "--input",
                str(tour_csv),
                "--modes",
                "sideways",
                "--out",
                str(tmp_path / "r"),
            ]
        )
        assert code == EXIT_ARGUMENT

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", "-1"], "seed must be non-negative, got -1"),
            (["--modes", "full,full"], "evaluation mode 'full' is given more than once"),
            (["--modes", "shift,coarse,SHIFT"], "evaluation mode 'shift' is given more than once"),
            (["--modes", "sideways"], "unknown evaluation mode 'sideways'"),
        ],
    )
    def test_bad_seed_or_modes_refused_before_any_tour_is_read(
        self, capsys, tmp_path, model_file, tour_csv, flags, message
    ):
        out_dir = tmp_path / "r"
        args = ["evaluate", "--model", str(model_file), "--input", str(tour_csv), "--out", str(out_dir)]
        with mock.patch.object(pipeline, "_ingest_tour", wraps=pipeline._ingest_tour) as spy:
            assert main(args + flags) == EXIT_ARGUMENT
        assert spy.call_count == 0
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_snippet_duration_is_honoured(self, tmp_path, model_file, tour_csv):
        out_dir = tmp_path / "r"
        args = ["evaluate", "--model", str(model_file), "--input", str(tour_csv)]
        args += ["--modes", "shift", "--snippet-duration", "20", "--out", str(out_dir)]
        assert main(args) == EXIT_OK
        document = json.loads((out_dir / "report_shift.json").read_text())
        assert document["snippet_count"] == 30  # 60 at the default 10 s
        assert document["config"]["snippet_duration"] == 20.0

    @pytest.mark.parametrize("seconds, speed", [(8.0, 80.0), (60.0, 20.0)])
    def test_too_little_data_is_insufficient_data(
        self, tmp_path, model_file, seconds, speed
    ):
        tour = tmp_path / "short.csv"
        rows = [f"{k * 0.2!r},1.8,1.8,{speed}" for k in range(int(seconds / 0.2) + 1)]
        tour.write_text("t,dist_left,dist_right,v_lon\n" + "\n".join(rows) + "\n")
        out_dir = tmp_path / "r"
        args = ["evaluate", "--model", str(model_file), "--input", str(tour)]
        assert main(args + ["--out", str(out_dir)]) == EXIT_CALIBRATION
        assert not out_dir.exists()

    @pytest.mark.parametrize("duration", ["0.3", "-10", "0.2", "0"])
    def test_bad_snippet_duration_is_argument_error(self, capsys, tmp_path, model_file, duration):
        # the input does not exist: the duration is rejected before it is read
        out_dir = tmp_path / "r"
        args = ["evaluate", "--model", str(model_file), "--input", str(tmp_path / "none.csv")]
        args += ["--snippet-duration", duration, "--out", str(out_dir)]
        assert main(args) == EXIT_ARGUMENT
        assert "snippet duration" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--n-c", "7"],
            ["--cap-threshold", "0.5"],
            ["--smoothing-sigma", "0.5"],
            ["--smoothing-support", "1.2"],
            ["--dt", "0.1", "--sample-rate", "10"],
        ],
    )
    def test_model_field_override_is_argument_error(
        self, capsys, tmp_path, model_file, tour_csv, flags
    ):
        out_dir = tmp_path / "r"
        args = ["evaluate", "--model", str(model_file), "--input", str(tour_csv), "--out", str(out_dir)]
        # evaluate offers no flag for a model field
        with pytest.raises(SystemExit) as exc:
            main(args + flags)
        assert exc.value.code == EXIT_ARGUMENT
        # and refuses one set to another value in a config file
        config_file = tmp_path / "config.json"
        pairs = zip(flags[::2], flags[1::2])
        config_file.write_text(json.dumps({flag[2:].replace("-", "_"): json.loads(value) for flag, value in pairs}))
        capsys.readouterr()
        assert main(args + ["--config", str(config_file)]) == EXIT_ARGUMENT
        assert "must match the model" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_config_file_serves_both_commands(self, tmp_path, model_file, tour_csv):
        # fit settings and model fields equal to the model's pass through
        # evaluate into the config echo
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"knot_count": 4, "n_c": 20, "snippet_duration": 20.0}))
        out_dir = tmp_path / "r"
        args = ["evaluate", "--model", str(model_file), "--input", str(tour_csv), "--modes", "shift"]
        assert main(args + ["--config", str(config_file), "--out", str(out_dir)]) == EXIT_OK
        config = json.loads((out_dir / "report_shift.json").read_text())["config"]
        assert (config["knot_count"], config["snippet_duration"]) == (4, 20.0)
        model = tmp_path / "m.json"
        assert main(["calibrate", "--input", str(tour_csv), "--config", str(config_file), "--out", str(model)]) == EXIT_OK
        assert load_model(model).metadata["config"]["knot_count"] == 4

    def test_segments_take_the_model_step(self, tmp_path, model_file):
        # for this dt, 1 / (1 / dt) != dt: the grid step 1 / sample_rate
        # is not dt itself
        document = json.loads(model_file.read_text())
        dt = 1000.000000002
        document["params"].update(dt=dt, sample_rate=1 / dt, smoothing_sigma=dt, smoothing_support=dt)
        model = tmp_path / "m1000.json"
        model.write_text(json.dumps(document))
        tour = tmp_path / "slow_grid.csv"
        rows = [f"{k * 1000.0!r},1.8,{1.8 + 0.01 * (k % 3)!r},80" for k in range(10)]
        tour.write_text("t,dist_left,dist_right,v_lon\n" + "\n".join(rows) + "\n")
        args = ["evaluate", "--model", str(model), "--input", str(tour), "--snippet-duration", "2000"]
        assert main(args + ["--out", str(tmp_path / "r")]) == EXIT_OK

    def test_model_fields_come_from_the_model(self, tmp_path, tour_csv):
        model = tmp_path / "m10.json"
        args = ["calibrate", "--input", str(tour_csv), "--out", str(model)]
        assert main(args + ["--dt", "0.1"]) == EXIT_OK
        assert '"sample_rate": 10.0' in model.read_text()
        out_dir = tmp_path / "r"
        args = ["evaluate", "--model", str(model), "--input", str(tour_csv)]
        assert main(args + ["--modes", "shift", "--out", str(out_dir)]) == EXIT_OK
        config = json.loads((out_dir / "report_shift.json").read_text())["config"]
        assert (config["dt"], config["sample_rate"]) == (0.1, 10.0)


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--family", "explicit"],
            ["synth", "--kernel", "given"],
            ["synth", "--dt", "0"],
            ["synth", "--n-c", "1"],
            ["synth", "--p", "1.5"],
            ["synth", "--minutes", "0"],
            ["synth", "--minutes", "-5"],
            ["synth", "--lane-width", "0"],
            ["generate", "--x0", "0", "--duration", "nan"],
            ["generate", "--x0", "0", "--duration", "inf"],
        ],
    )
    def test_exit_2(self, request, tmp_path, argv):
        out = tmp_path / "out.csv"
        if argv[0] == "generate":
            argv = argv + ["--model", str(request.getfixturevalue("model_file"))]
        try:
            code = main(argv + ["--out", str(out)])
        except SystemExit as exc:  # argparse rejects a bad choice itself
            code = exc.code
        assert code == EXIT_ARGUMENT
        assert not out.exists()


class TestBench:
    def test_reports_one_row(self, capsys, model_file):
        capsys.readouterr()  # drop the fixture's output
        code = main(["bench", "--model", str(model_file), "--steps", "2000", "--reps", "2"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("full=")
        assert "speedup" in lines[1]
        assert "backend" not in lines[1]

    def test_bench_rows_have_timings(self, model_file):
        row = bench_generation(load_model(model_file), 2000, 2)
        assert row["steps"] == 2000
        assert row["full_s"] > 0.0
        assert row["coarse_s"] > 0.0
        assert row["noise_s"] > 0.0
        assert "saving_s" in row


def _run_with_closed_stdout(argv, buffered):
    """Run the CLI in a child whose stdout is a pipe with no reader. A
    buffered stdout fails at the flush after the command, an unbuffered
    one at its first print."""
    env = _cli_env()
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "laneweave.cli", *map(str, argv)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)


REPORT_FILES = [f"{kind}_{mode}.{ext}" for mode in ("shift", "coarse", "fine", "full")
                for kind, ext in (("report", "json"), ("summary", "csv"))]


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["synth", "calibrate", "generate", "evaluate", "bench"])
def test_closed_stdout_exits_1_after_writing_every_output(tmp_path, tour_csv, model_file, command, buffered):
    out = tmp_path / "out"
    argv, outputs = {
        "synth": (["--minutes", "1", "--out", out / "tour.csv", "--model-out", out / "truth.json"],
                  ["tour.csv", "truth.json"]),
        "calibrate": (["--input", tour_csv, tour_csv, "--out", out / "model.json"], ["model.json"]),
        "generate": (["--model", model_file, "--x0", "0", "--duration", "60", "--out", out / "p.csv"],
                     ["p.csv"]),
        "evaluate": (["--model", model_file, "--input", tour_csv, "--out", out], REPORT_FILES),
        "bench": (["--model", model_file, "--steps", "200", "--reps", "1"], []),
    }[command]
    completed = _run_with_closed_stdout([command, *argv], buffered)
    assert completed.returncode == EXIT_FAILURE
    assert "Traceback" not in completed.stderr
    written = sorted(p.name for p in out.iterdir()) if out.exists() else []
    assert written == sorted(outputs)
    if command == "evaluate":
        expected = tmp_path / "expected"
        assert main(["evaluate", "--model", str(model_file), "--input", str(tour_csv), "--out", str(expected)]) == EXIT_OK
        for name in outputs:
            assert (out / name).read_bytes() == (expected / name).read_bytes(), name


class TestConfigResolution:
    @pytest.mark.parametrize(
        "argv, declared, expected",
        [
            (
                ["calibrate", "--input", "t.csv", "--out", "m.json"],
                CALIBRATE_SETTINGS,
                {f.name for f in fields(RunConfig) if f.init} - {"snippet_duration"},
            ),
            (
                ["evaluate", "--model", "m.json", "--input", "t.csv", "--out", "r"],
                EVALUATE_SETTINGS,
                {"v_min", "snippet_duration", "jump_threshold", "guard_steps"},
            ),
        ],
        ids=["calibrate", "evaluate"],
    )
    def test_each_command_offers_a_flag_per_setting_it_reads(self, argv, declared, expected):
        parser = build_parser()
        offered = set()
        for f in fields(RunConfig):
            try:
                parser.parse_args(argv + [f"--{f.name.replace('_', '-')}", "1"])
            except SystemExit:  # argparse refuses a flag it does not know
                continue
            offered.add(f.name)
        assert offered == set(declared) == expected
        assert "sample_rate" not in offered  # worked out from dt

    def test_file_then_flag_precedence(self, tmp_path):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"n_c": 10, "jump_threshold": 0.3}))

        class Args:
            config = str(config_file)
            n_c = 8

        config = resolve_config(Args())
        assert config.n_c == 8  # flag beats file
        assert config.jump_threshold == 0.3  # file beats default
        assert config.dt == 0.2  # default survives

    def test_config_file_and_its_echo_give_the_flags_model(self, tmp_path, tour_csv):
        # dt alone sets the step, from a flag or a config file, and a
        # model's config echo fed back gives that model again
        def calibrate(name, *flags):
            out = tmp_path / f"{name}.json"
            assert main(["calibrate", "--input", str(tour_csv), "--out", str(out), *flags]) == EXIT_OK
            return [line for line in out.read_text().splitlines() if '"created_at"' not in line]

        flagged = calibrate("flag", "--dt", "0.1")
        assert '    "sample_rate": 10.0' in flagged  # the params entry
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"dt": 0.1}))
        assert calibrate("file", "--config", str(config_file)) == flagged
        config_file.write_text(json.dumps(load_model(tmp_path / "flag.json").metadata["config"]))
        assert calibrate("echo", "--config", str(config_file)) == flagged

    def test_unknown_key_rejected(self, tmp_path):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"nc": 10}))

        class Args:
            config = str(config_file)

        with pytest.raises(SchemaError, match="nc"):
            resolve_config(Args())

    def test_invalid_model_parameter_is_argument_error(self, tmp_path, tour_csv):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"n_c": 20.0}))
        out = tmp_path / "m.json"
        code = main(
            ["calibrate", "--input", str(tour_csv), "--out", str(out), "--config", str(config_file)]
        )
        assert code == EXIT_ARGUMENT
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, document",
        [
            (["--knot-count", "1"], None),
            (["--window-length", "1"], None),
            (["--guard-steps", "-3"], None),
            (["--jump-threshold", "nan"], None),
            ([], {"knot_count": "6"}),
            ([], {"guard_steps": 2.5}),
            ([], {"window_length": True}),
            ([], {"jump_threshold": 0}),
            ([], {"v_min": True}),
            ([], {"jump_threshold": True}),
            ([], {"sample_rate": 4.0}),
            (["--dt", "0.1"], {"sample_rate": 5.0}),
        ],
    )
    def test_invalid_run_setting_is_argument_error(self, tmp_path, tour_csv, flags, document):
        if document is not None:
            config_file = tmp_path / "config.json"
            config_file.write_text(json.dumps(document))
            flags = flags + ["--config", str(config_file)]
        out = tmp_path / "m.json"
        code = main(["calibrate", "--input", str(tour_csv), "--out", str(out)] + flags)
        assert code == EXIT_ARGUMENT
        assert not out.exists()

    @settings(max_examples=200, deadline=None)
    @given(
        document=st.dictionaries(
            st.sampled_from([f.name for f in fields(RunConfig)]),
            st.none()
            | st.booleans()
            | st.integers()
            | st.integers(-(2**1100), 2**1100)  # beyond float range too
            | st.floats()
            | st.text(max_size=8),
        )
    )
    def test_any_config_document_resolves_or_is_rejected(self, tmp_path_factory, document):
        config_file = tmp_path_factory.getbasetemp() / "property_config.json"
        config_file.write_text(json.dumps(document))

        class Args:
            config = str(config_file)

        try:
            assert isinstance(resolve_config(Args()), RunConfig)
        except (ArgumentUsageError, SchemaError):
            pass

    def test_defaults_match_model_params(self):
        config = RunConfig()
        params = config.model_params()
        assert params.n_c == 20
        assert params.cap_threshold == 0.03
        assert params.v_min == 40.0


# the documented exit code of every package error
EXIT_BY_ERROR = {
    errors.ArgumentUsageError: EXIT_ARGUMENT,
    errors.SchemaError: EXIT_SCHEMA,
    errors.InsufficientDataError: EXIT_CALIBRATION,
    errors.LaneweaveError: EXIT_FAILURE,
}


@pytest.mark.parametrize("cls, expected", EXIT_BY_ERROR.items(), ids=lambda v: getattr(v, "__name__", v))
def test_each_error_exits_with_its_code(capsys, cls, expected):
    error = cls("it failed")
    with mock.patch("laneweave.cli.load_model", side_effect=error):
        code = main(["generate", "--model", "m.json", "--x0", "0", "--duration", "1", "--out", "p.csv"])
    assert code == expected
    assert capsys.readouterr().err == f"error: {error}\n"


def _with_subclasses(cls):
    return {cls}.union(*map(_with_subclasses, cls.__subclasses__()))


def test_every_error_type_has_a_documented_code():
    assert _with_subclasses(errors.LaneweaveError) == set(EXIT_BY_ERROR)
    # one error type per exit code
    assert sorted(EXIT_CODES.values()) == [1, 2, 3, 4]
