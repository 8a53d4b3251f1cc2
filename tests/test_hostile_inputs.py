"""Hostile command lines and input files end in a typed error and its
documented exit code (2 argument or config, 3 schema or model file, 4
calibration or insufficient data), never in exit 1 or a traceback, and
oversized requests are refused before anything is allocated for them."""

import argparse
import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import laneweave
from laneweave import generator
from laneweave.cli import EXIT_ARGUMENT, EXIT_CALIBRATION, EXIT_OK, EXIT_SCHEMA, build_parser, main
from laneweave.core import MAX_MAGNITUDE, MAX_N_C, MAX_SMOOTHING_STEPS, SIGMA_FLOOR_STEPS, ModelParams, RunConfig
from laneweave.errors import SchemaError
from laneweave.generator import MAX_INPUT_BYTES, generate_profile, load_model, read_input
from laneweave.markov import gaussian_kernel
from laneweave.noise import MAX_KERNEL_TAPS, FineModel
from laneweave.pipeline import MAX_LINE_CHARS, calibrate_from_segments, ingest_segments

# address-space cap of the subprocess that runs the oversized requests:
# a request that slips past its bound fails with MemoryError, not by
# taking the machine's memory
ADDRESS_SPACE_LIMIT = 1 << 30

_BOUNDED_RUNNER = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
from laneweave.cli import main
results = {{}}
for name, argv in json.loads(sys.stdin.read()).items():
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            code = repr(exc)
    results[name] = [code, err.getvalue()]
print(json.dumps(results))
"""


def _subprocess_env(**changes):
    """The environment of a child interpreter that imports the laneweave
    under test, with the given variables set."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", **changes)
    src = str(Path(laneweave.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run(argv):
    """(exit code, stderr) of one in-process CLI run; argparse's own
    rejections exit through SystemExit."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A valid 10-minute tour and its model, plus malformed variants of
    the tour, model and config files."""
    root = tmp_path_factory.mktemp("hostile")
    tour, model = root / "tour.csv", root / "model.json"
    assert _run(["synth", "--minutes", "10", "--seed", "6", "--out", str(tour)])[0] == EXIT_OK
    assert _run(["calibrate", "--input", str(tour), "--out", str(model)])[0] == EXIT_OK
    good = json.loads(model.read_text())

    def model_variant(name, section, **changes):
        """A model variant with changes to a section, or to the document
        itself when section is None."""
        doc = json.loads(json.dumps(good))
        (doc if section is None else doc[section]).update(changes)
        path = root / f"model_{name}.json"
        path.write_text(json.dumps(doc))
        return path

    def text_file(name, text):
        path = root / name
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        return path

    def model_literal(name, section, literal, **changes):
        """A model variant with the JSON text literal, which json.dumps
        cannot write, in place of the string "LITERAL"."""
        path = model_variant(name, section, **changes)
        return text_file(path.name, path.read_text().replace('"LITERAL"', literal))

    no_v_min = json.loads(json.dumps(good))
    del no_v_min["params"]["v_min"]
    # taps of L1 norm 2 under a halfwidth that puts the output bound just
    # under, or just over, MAX_MAGNITUDE
    taps = np.array(good["fine"]["kernel_taps"])
    taps = (taps * (2 / np.abs(taps).sum())).tolist()
    header = "t,dist_left,dist_right,v_lon\n"
    (root / "a_directory").mkdir()
    # sparse files one byte past the size bound of model and config files
    oversized = [root / "model_oversized.json", root / "config_oversized.json"]
    for path in oversized:
        path.touch()
        os.truncate(path, MAX_INPUT_BYTES + 1)
    return {
        "tour": tour,
        "model": model,
        "root": root,
        "csvs": [
            tour,
            text_file("header_only.csv", header),
            text_file("empty.csv", ""),
            text_file("binary.csv", header.encode() + b"\xff\xfe,1,1,80\n"),
            text_file("nan_t.csv", header + "nan,1.8,1.8,80\n0.2,1.8,1.8,80\n"),
            text_file("long_span.csv", header + "0,1.8,1.8,80\n1e12,1.8,1.8,80\n"),
            # timestamps whose step, and span, overflow float64
            text_file("huge_t.csv", header + "-1e308,1.8,1.8,80\n1e308,1.8,1.8,80\n"),
            text_file("short_row.csv", header + "0,1.8,1.8\n0.2,1.8,1.8,80,1,2\n"),
            text_file("slow.csv", header + "".join(f"{k * 0.2!r},1.8,1.8,20\n" for k in range(300))),
            text_file("long_line.csv", header + "0,1.8,1.8,80\n0.2," + "1" * 10_000 + ",1.8,80\n"),
            root / "missing.csv",
            root / "a_directory",
        ],
        "models": [
            model,
            model_variant("n_c", "params", n_c=100_000_000),
            model_variant("support", "params", smoothing_support=1e15),
            model_variant("sigma", "params", smoothing_sigma=0.0),
            model_variant("taps", "fine", kernel_taps=[0.0] * (MAX_KERNEL_TAPS + 1)),
            model_variant("no_taps", "fine", kernel_taps=[]),
            model_variant("halfwidth", "fine", noise_halfwidth="wide"),
            # numbers in another JSON type, which float() would read
            model_variant("halfwidth_text", "fine", noise_halfwidth="0.03"),
            model_variant("halfwidth_bool", "fine", noise_halfwidth=True),
            model_variant("transition_text", "coarse", transition=[repr(p) for p in good["coarse"]["transition"]]),
            model_variant("taps_bool", "fine", kernel_taps=[True] + good["fine"]["kernel_taps"][1:]),
            model_variant("transition", "coarse", transition=[[1.0]]),
            # integers past the 4300 digits int() converts, and past float range
            model_literal("long_int", "fine", "1" * 5000, noise_halfwidth="LITERAL"),
            model_literal("transition_huge", "coarse", "1" + "0" * 400,
                          transition=["LITERAL"] + good["coarse"]["transition"][1:]),
            # numbers json.loads reads, but not of magnitude at most 1e150
            model_literal("taps_nan", "fine", "NaN", kernel_taps=["LITERAL"] + good["fine"]["kernel_taps"][1:]),
            model_literal("centers_inf", "coarse", "-Infinity",
                          state_centers=["LITERAL"] + good["coarse"]["state_centers"][1:]),
            model_variant("halfwidth_huge", "fine", noise_halfwidth=10**400),
            # a version or metadata of the wrong JSON type
            model_variant("version_true", None, version=True),
            model_variant("metadata_false", None, metadata=False),
            model_variant("metadata_list", None, metadata=[]),
            model_variant("metadata_null", None, metadata=None),
            # the output bound, and twice the halfwidth, overflow
            model_variant("output_bound", "fine", noise_halfwidth=1e300, kernel_taps=[1e10] * 3),
            model_variant("noise_range", "fine", noise_halfwidth=1e308, kernel_taps=[1.0]),
            model_variant("cap_threshold", "params", cap_threshold=1e308),
            model_variant("bound_under", "fine", kernel_taps=taps, noise_halfwidth=MAX_MAGNITUDE / 2 * (1 - 1e-9)),
            model_variant("bound_over", "fine", kernel_taps=taps, noise_halfwidth=MAX_MAGNITUDE / 2 * (1 + 1e-9)),
            # consistent steps too short or too long for the smoothing kernel
            model_variant("tiny_dt", "params", dt=1e-200, sample_rate=1e200,
                          smoothing_sigma=1e-200, smoothing_support=1e-200),
            model_variant("huge_dt", "params", dt=1e200, sample_rate=1e-200,
                          smoothing_sigma=1e200, smoothing_support=1e200),
            # a sample_rate that is no number, or that disagrees with dt
            model_variant("rate_text", "params", sample_rate="5"),
            model_variant("rate_disagrees", "params", sample_rate=4.0),
            text_file("model_no_v_min.json", json.dumps(no_v_min)),
            text_file("model_truncated.json", model.read_text()[:200]),
            text_file("model_deep.json", "[" * 100_000),
            text_file("model_list.json", "[]"),
            oversized[0],
            root / "missing.json",
            root / "a_directory",
        ],
        "configs": [
            text_file("config_empty.json", "{}"),
            text_file("config_n_c.json", '{"n_c": 100000000}'),
            text_file("config_float_n_c.json", '{"n_c": 20.0}'),
            text_file("config_knots.json", '{"knot_count": 1000000000000}'),
            text_file("config_sigma.json", '{"smoothing_sigma": 0}'),
            text_file("config_unknown.json", '{"nc": 3}'),
            text_file("config_list.json", "[]"),
            text_file("config_deep.json", "[" * 100_000),
            text_file("config_binary.json", b"\xff{}"),
            text_file("config_long_int.json", '{"n_c": ' + "1" * 5000 + "}"),
            oversized[1],
            root / "a_directory",
        ],
    }


# (name, argv, expected exit code); {tour}, {model} and {file} are
# filled in from the fixture
OVERSIZED = [
    ("generate_duration", ["generate", "--model", "{model}", "--x0", "0", "--duration", "1e15"], 2),
    ("bench_steps", ["bench", "--model", "{model}", "--steps", "1000000000000"], 2),
    ("model_smoothing_support", ["generate", "--model", "{file}", "--x0", "0", "--duration", "10"], 3),
    ("model_kernel_taps", ["generate", "--model", "{file}", "--x0", "0", "--duration", "10"], 3),
    ("calibrate_smoothing_support", ["calibrate", "--input", "{tour}", "--smoothing-support", "1e15"], 2),
    ("calibrate_knot_count", ["calibrate", "--input", "{tour}", "--knot-count", "1000000000000"], 2),
    ("calibrate_n_c", ["calibrate", "--input", "{tour}", "--n-c", "100000000"], 2),
    ("synth_n_c", ["synth", "--n-c", "100000000"], 2),
    ("synth_dt", ["synth", "--dt", "1e-9"], 2),
    ("calibrate_dt", ["calibrate", "--input", "{tour}", "--dt", "1e-9"], 2),
    ("calibrate_grid_rate", ["calibrate", "--input", "{tour}", "--dt", "1e-6",
                             "--smoothing-sigma", "1e-4", "--smoothing-support", "1e-4"], 3),
    ("calibrate_fit_basis", ["calibrate", "--input", "{tour}", "--window-length", "8192", "--knot-count", "4097"], 2),
    ("tour_time_span", ["calibrate", "--input", "{file}"], 3),
]


@pytest.fixture(scope="module")
def oversized_results(files):
    """Run every OVERSIZED case in one subprocess under an address-space
    cap, so that a missing bound cannot allocate for real."""
    root = files["root"]
    extra = {
        "model_smoothing_support": root / "model_support.json",
        "model_kernel_taps": root / "model_taps.json",
        "tour_time_span": root / "long_span.csv",
    }
    cases = {}
    for name, argv, _ in OVERSIZED:
        fill = {"tour": files["tour"], "model": files["model"], "file": extra.get(name)}
        out = ["--out", str(root / f"out_{name}")] if argv[0] in ("calibrate", "synth", "generate") else []
        cases[name] = [arg.format(**fill) for arg in argv] + out
    completed = subprocess.run(
        [sys.executable, "-c", _BOUNDED_RUNNER.format(limit=ADDRESS_SPACE_LIMIT)],
        input=json.dumps(cases),
        capture_output=True,
        text=True,
        env=_subprocess_env(),
        timeout=120,
        check=True,
    )
    return json.loads(completed.stdout)


@pytest.mark.parametrize("name, argv, expected", OVERSIZED, ids=[case[0] for case in OVERSIZED])
def test_oversized_request_is_refused(oversized_results, files, name, argv, expected):
    code, stderr = oversized_results[name]
    assert code == expected, stderr
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), stderr
    assert not (files["root"] / f"out_{name}").exists()


# malformed inputs that reach no allocation, so they run in-process;
# {root} is the fixture's directory
MALFORMED = [
    ("csv_not_utf8", ["calibrate", "--input", "{root}/binary.csv"], 3),
    ("csv_directory", ["calibrate", "--input", "{root}/a_directory"], 3),
    ("model_deeply_nested", ["generate", "--model", "{root}/model_deep.json", "--x0", "0", "--duration", "10"], 3),
    ("model_directory", ["generate", "--model", "{root}/a_directory", "--x0", "0", "--duration", "10"], 3),
    ("model_zero_sigma", ["generate", "--model", "{root}/model_sigma.json", "--x0", "0", "--duration", "10"], 3),
    ("model_output_bound_overflow", ["generate", "--model", "{root}/model_output_bound.json", "--x0", "0",
                                     "--duration", "10"], 3),
    ("model_noise_range_overflow", ["generate", "--model", "{root}/model_noise_range.json", "--x0", "0",
                                    "--duration", "10"], 3),
    ("model_output_bound_over", ["evaluate", "--model", "{root}/model_bound_over.json", "--input",
                                 "{root}/tour.csv"], 3),
    ("model_tiny_dt", ["generate", "--model", "{root}/model_tiny_dt.json", "--x0", "0", "--duration", "2e-199"], 3),
    ("model_huge_dt", ["generate", "--model", "{root}/model_huge_dt.json", "--x0", "0", "--duration", "2e201"], 3),
    ("model_halfwidth_text", ["generate", "--model", "{root}/model_halfwidth_text.json", "--x0", "0",
                              "--duration", "10"], 3),
    ("model_halfwidth_bool", ["generate", "--model", "{root}/model_halfwidth_bool.json", "--x0", "0",
                              "--duration", "10"], 3),
    ("model_transition_text", ["generate", "--model", "{root}/model_transition_text.json", "--x0", "0",
                               "--duration", "10"], 3),
    ("model_taps_bool", ["generate", "--model", "{root}/model_taps_bool.json", "--x0", "0", "--duration", "10"], 3),
    ("model_cap_threshold_huge", ["generate", "--model", "{root}/model_cap_threshold.json", "--x0", "0",
                                  "--duration", "10"], 3),
    ("calibrate_cap_threshold_huge", ["calibrate", "--input", "{root}/tour.csv", "--cap-threshold", "1e308"], 2),
    ("calibrate_cap_threshold_past_bound", ["calibrate", "--input", "{root}/tour.csv", "--cap-threshold", "4e307"], 2),
    ("config_deeply_nested", ["calibrate", "--input", "{root}/tour.csv", "--config", "{root}/config_deep.json"], 3),
    ("config_not_utf8", ["calibrate", "--input", "{root}/tour.csv", "--config", "{root}/config_binary.json"], 3),
    ("config_zero_sigma", ["calibrate", "--input", "{root}/tour.csv", "--smoothing-sigma", "0"], 2),
    ("negative_seed", ["generate", "--model", "{root}/model.json", "--x0", "0", "--duration", "10", "--seed", "-1"], 2),
    ("snippet_duration_overflow", ["evaluate", "--model", "{root}/model.json", "--input", "{root}/tour.csv",
                                   "--snippet-duration", "1e308"], 2),
    ("snippet_duration_past_profile_steps", ["evaluate", "--model", "{root}/model.json", "--input",
                                             "{root}/tour.csv", "--snippet-duration", "1e20"], 2),
    ("lane_width_inf", ["synth", "--lane-width", "inf"], 2),
    # the stay probability goes into every family's model metadata; a
    # refused synth creates neither file, so not even their directory
    ("synth_identity_p_nan", ["synth", "--family", "identity", "--p", "nan", "--minutes", "1",
                              "--out", "{root}/out_synth_identity_p_nan/tour.csv",
                              "--model-out", "{root}/out_synth_identity_p_nan/model.json"], 2),
    ("synth_uniform_p_inf", ["synth", "--family", "uniform", "--p", "inf", "--minutes", "1",
                             "--out", "{root}/out_synth_uniform_p_inf/tour.csv",
                             "--model-out", "{root}/out_synth_uniform_p_inf/model.json"], 2),
    # an output path onto a directory, or under a file
    ("generate_out_directory", ["generate", "--model", "{root}/model.json", "--x0", "0", "--duration", "10",
                                "--out", "{root}/a_directory"], 2),
    ("calibrate_out_directory", ["calibrate", "--input", "{root}/tour.csv", "--out", "{root}/a_directory"], 2),
    ("synth_out_directory", ["synth", "--minutes", "1", "--out", "{root}/a_directory"], 2),
    ("synth_model_out_directory", ["synth", "--minutes", "1", "--out", "{root}/out_synth_model_out_directory",
                                   "--model-out", "{root}/a_directory"], 2),
    ("evaluate_out_file", ["evaluate", "--model", "{root}/model.json", "--input", "{root}/tour.csv",
                           "--out", "{root}/tour.csv"], 2),
    # an output name the system refuses: past NAME_MAX (255 bytes)
    ("generate_out_name_too_long", ["generate", "--model", "{root}/model.json", "--x0", "0", "--duration", "10",
                                    "--out", "{root}/" + "p" * 300 + ".csv"], 2),
    ("evaluate_out_name_too_long", ["evaluate", "--model", "{root}/model.json", "--input", "{root}/tour.csv",
                                    "--out", "{root}/" + "r" * 300], 2),
    ("calibrate_no_segments", ["calibrate", "--input", "{root}/slow.csv"], 4),
    ("config_not_an_object", ["calibrate", "--input", "{root}/tour.csv", "--config", "{root}/config_list.json"], 3),
    ("model_params_missing_field", ["generate", "--model", "{root}/model_no_v_min.json", "--x0", "0",
                                    "--duration", "10"], 3),
    ("tour_timestamps_overflow", ["calibrate", "--input", "{root}/huge_t.csv"], 3),
    ("tour_line_past_bound", ["calibrate", "--input", "{root}/long_line.csv"], 3),
    ("model_past_size_bound", ["generate", "--model", "{root}/model_oversized.json", "--x0", "0",
                               "--duration", "10"], 3),
    ("config_past_size_bound", ["calibrate", "--input", "{root}/tour.csv", "--config",
                                "{root}/config_oversized.json"], 3),
    ("model_int_past_digit_limit", ["generate", "--model", "{root}/model_long_int.json", "--x0", "0",
                                    "--duration", "10"], 3),
    ("config_int_past_digit_limit", ["calibrate", "--input", "{root}/tour.csv", "--config",
                                     "{root}/config_long_int.json"], 3),
    ("model_transition_past_float_range", ["generate", "--model", "{root}/model_transition_huge.json", "--x0", "0",
                                           "--duration", "10"], 3),
    *[(f"model_{name}", ["generate", "--model", f"{{root}}/model_{name}.json", "--x0", "0", "--duration", "10"], 3)
      for name in ("taps_nan", "centers_inf", "halfwidth_huge", "version_true", "metadata_false", "metadata_list",
                   "metadata_null", "rate_text", "rate_disagrees")],
    ("synth_dt_zero", ["synth", "--dt", "0"], 2),
]
# the error line of the cases whose refusal no other test names
MALFORMED_MESSAGES = {
    "calibrate_no_segments": "no road-following segments in the input data",
    "config_not_an_object": "config file must hold a JSON object",
    "model_params_missing_field": "params section is missing field 'v_min'",
    "tour_timestamps_overflow": "row 1, column 't': timestamp -1e+308 has magnitude above 1e+150",
    "tour_line_past_bound": f"row 2 is longer than {MAX_LINE_CHARS} characters",
    "model_past_size_bound": f"model_oversized.json is larger than {MAX_INPUT_BYTES} bytes",
    "config_past_size_bound": f"config_oversized.json is larger than {MAX_INPUT_BYTES} bytes",
    "model_int_past_digit_limit": "model file is not valid JSON: Exceeds the limit (4300 digits)",
    "config_int_past_digit_limit": "config file is not valid JSON: Exceeds the limit (4300 digits)",
    "model_transition_past_float_range": (
        "coarse section field 'transition' must be a list of numbers of magnitude at most 1e+150"
    ),
    "model_taps_nan": "fine section field 'kernel_taps' must be a list of numbers of magnitude at most 1e+150",
    "model_centers_inf": "coarse section field 'state_centers' must be a list of numbers of magnitude at most 1e+150",
    "model_halfwidth_huge": "fine section field 'noise_halfwidth' must be a number of magnitude at most 1e+150",
    "model_version_true": "unsupported model format version True",
    "model_metadata_false": "metadata must be a JSON object",
    "model_metadata_list": "metadata must be a JSON object",
    "model_metadata_null": "metadata must be a JSON object",
    "model_rate_text": "invalid params: sample_rate ('5' Hz) and dt (0.2 s) disagree",
    "model_rate_disagrees": "invalid params: sample_rate (4.0 Hz) and dt (0.2 s) disagree",
    "synth_dt_zero": "invalid model parameters: dt must be at least 1e-150, got 0.0",
}


@pytest.mark.parametrize("name, argv, expected", MALFORMED, ids=[case[0] for case in MALFORMED])
def test_malformed_input_is_refused(files, name, argv, expected):
    root = files["root"]
    out = root / f"out_{name}"
    tour_bytes = (root / "tour.csv").read_bytes()
    argv = [arg.format(root=root) for arg in argv]
    code, stderr = _run(argv if "--out" in argv else argv + ["--out", str(out)])
    assert code == expected, stderr
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), stderr
    assert MALFORMED_MESSAGES.get(name, "") in lines[0]
    # synth writes its tour before the refused model file
    assert not out.exists() or name == "synth_model_out_directory"
    assert not list(root.rglob("*.tmp")) and not list((root / "a_directory").iterdir())
    assert (root / "tour.csv").read_bytes() == tour_bytes


def _run_in_c_locale(argv):
    """(exit code, stderr) of the CLI in a child interpreter whose locale
    codec is ASCII: the C locale, with coercion and UTF-8 mode off."""
    env = _subprocess_env(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    done = subprocess.run([sys.executable, "-m", "laneweave.cli", *argv], capture_output=True, text=True,
                          env=env, timeout=60)
    return done.returncode, done.stderr


def test_a_utf8_model_loads_whatever_the_locale(files):
    root = files["root"]
    doc = json.loads(files["model"].read_text())
    doc["metadata"]["note"] = "\u00e9"
    model = root / "model_utf8_metadata.json"
    model.write_bytes(json.dumps(doc, ensure_ascii=False).encode())
    out = root / "out_locale" / "profile.csv"
    code, stderr = _run_in_c_locale(["generate", "--model", str(model), "--x0", "0", "--duration", "10",
                                     "--out", str(out)])
    assert code == EXIT_OK and out.exists(), stderr


def test_files_with_a_byte_order_mark_read_as_without_whatever_the_locale(files):
    # a leading byte-order mark is dropped from a tour, a model and a config
    root = files["root"]
    reports = []
    for mark in (b"", b"\xef\xbb\xbf"):
        inputs = root / f"bom_{len(mark)}"
        inputs.mkdir()
        for name, data in [("tour.csv", files["tour"].read_bytes()), ("model.json", files["model"].read_bytes()),
                           ("config.json", b'{"v_min": 40.0}')]:
            (inputs / name).write_bytes(mark + data)
        code, stderr = _run_in_c_locale(["evaluate", "--model", str(inputs / "model.json"),
                                         "--input", str(inputs / "tour.csv"), "--config", str(inputs / "config.json"),
                                         "--modes", "shift", "--out", str(inputs / "out")])
        assert code == EXIT_OK, stderr
        reports.append((inputs / "out" / "report_shift.json").read_bytes())
    assert reports[0] == reports[1]


def test_a_tour_not_utf8_names_the_utf8_codec_whatever_the_locale(files):
    root = files["root"]
    code, stderr = _run_in_c_locale(["calibrate", "--input", str(root / "binary.csv"),
                                     "--out", str(root / "out_locale" / "model.json")])
    assert code == EXIT_SCHEMA and "Traceback" not in stderr, stderr
    assert "'utf-8' codec can't decode byte 0xff" in stderr


@pytest.mark.parametrize("kind", ["model", "config"])
def test_a_pipe_past_the_size_bound_is_refused(files, pipe_holding, kind):
    # a pipe's size reads 0, so only the read can count its bytes
    root = files["root"]
    argv = {
        "model": ["generate", "--model", "{path}", "--x0", "0", "--duration", "10"],
        "config": ["calibrate", "--input", f"{root}/tour.csv", "--config", "{path}"],
    }[kind]
    with mock.patch.object(generator, "MAX_INPUT_BYTES", 100):
        with pipe_holding(b"{}" + b" " * 98) as path:
            assert read_input(path, kind) == {}
        with pipe_holding(b"{}" + b" " * 99) as path:
            code, stderr = _run([arg.format(path=path) for arg in argv] + ["--out", str(root / f"out_pipe_{kind}")])
    assert code == EXIT_SCHEMA and stderr == f"error: {kind} file {path} is larger than 100 bytes\n"


class TestBoundsAreChecked:
    """The bounds sit in the constructors, so they are checked without
    building anything they limit."""

    def test_n_c(self):
        assert ModelParams(n_c=MAX_N_C).n_c == MAX_N_C
        with pytest.raises(ValueError, match="n_c"):
            ModelParams(n_c=MAX_N_C + 1)

    def test_smoothing_steps(self):
        dt = ModelParams.dt
        assert ModelParams(smoothing_support=MAX_SMOOTHING_STEPS * dt)
        with pytest.raises(ValueError, match="smoothing_support"):
            ModelParams(smoothing_support=(MAX_SMOOTHING_STEPS + 1) * dt)
        with pytest.raises(ValueError, match="smoothing_support"):
            ModelParams(smoothing_sigma=0.1, smoothing_support=0.1)

    def test_dt(self):
        for dt in (1 / MAX_MAGNITUDE, MAX_MAGNITUDE):
            params = ModelParams(dt=dt, smoothing_sigma=dt, smoothing_support=dt)
            assert (params.dt, params.sample_rate) == (dt, 1 / dt)
        for dt in (1 / MAX_MAGNITUDE / 2, MAX_MAGNITUDE * 2):
            with pytest.raises(ValueError, match="^dt must be"):
                ModelParams(dt=dt, smoothing_sigma=dt, smoothing_support=dt)

    def test_dt_range_keeps_the_smoothing_kernel_normal(self):
        # the smallest floored sigma squares to a normal float, and the
        # widest kernel's largest offset squares to a finite one
        assert (SIGMA_FLOOR_STEPS / MAX_MAGNITUDE) ** 2 >= sys.float_info.min
        assert (MAX_SMOOTHING_STEPS * MAX_MAGNITUDE) ** 2 < sys.float_info.max
        for dt in (1 / MAX_MAGNITUDE, MAX_MAGNITUDE):
            taps = gaussian_kernel(dt * SIGMA_FLOOR_STEPS, MAX_SMOOTHING_STEPS * dt, dt)
            assert np.all(np.isfinite(taps)) and taps[MAX_SMOOTHING_STEPS] == 1.0

    def test_noise_halfwidth(self):
        assert ModelParams(cap_threshold=MAX_MAGNITUDE).cap_threshold == MAX_MAGNITUDE
        assert FineModel(np.zeros(1), MAX_MAGNITUDE).noise_halfwidth == MAX_MAGNITUDE
        too_wide = np.nextafter(MAX_MAGNITUDE, np.inf)
        with pytest.raises(ValueError, match="cap_threshold"):
            ModelParams(cap_threshold=too_wide)
        with pytest.raises(ValueError, match="noise_halfwidth"):
            FineModel(np.zeros(1), too_wide)

    def test_output_bound(self):
        assert FineModel(np.ones(1), MAX_MAGNITUDE).output_bound == MAX_MAGNITUDE
        with pytest.raises(ValueError, match="kernel taps"):
            FineModel(np.array([np.nextafter(MAX_MAGNITUDE, np.inf)]), 1.0)
        with pytest.raises(ValueError, match="L1 norm"):
            FineModel(np.ones(2), MAX_MAGNITUDE)

    def test_float32_and_huge_ints_meet_the_same_bound(self):
        # a float32 operand must not cast the bound to float32 infinity,
        # and an int past float range must be refused, not overflow
        with pytest.raises(ValueError, match="v_min"):
            ModelParams(v_min=np.float32("inf"))
        with pytest.raises(ValueError, match="v_min"):
            ModelParams(v_min=10**400)
        with pytest.raises(ValueError, match="noise_halfwidth"):
            FineModel(np.ones(3), np.float32("inf"))
        with pytest.raises(ValueError, match="noise_halfwidth"):
            FineModel(np.ones(3), 10**400)
        fine = FineModel(np.array([1e100]), np.float32(3e38))
        assert type(fine.noise_halfwidth) is float
        assert fine.output_bound == pytest.approx(3e138)

    def test_kernel_taps(self):
        assert FineModel(np.zeros(MAX_KERNEL_TAPS), 0.03).kernel_taps.size == MAX_KERNEL_TAPS
        with pytest.raises(ValueError, match="kernel taps"):
            FineModel(np.zeros(MAX_KERNEL_TAPS + 1), 0.03)

    def test_knot_count(self):
        assert RunConfig(window_length=10, knot_count=6).knot_count == 6
        with pytest.raises(ValueError, match="knot_count"):
            RunConfig(window_length=10, knot_count=7)


# The large values lie far past every size bound, so that a request
# slipping through one fails at once instead of allocating for real;
# requests near those bounds run in the capped subprocess above. 1e150
# and 2e150 lie on either side of MAX_MAGNITUDE.
FLOATS = ["0", "-1", "0.5", "2", "nan", "inf", "-inf", "1e-300", "1e15", "1e150", "2e150", "1e308", "abc", ""]
INTS = ["-1", "0", "1", "3", "1000000000000", "1.5", "abc"]


def _setting_flags(command: str) -> dict[str, list[str]]:
    """The command's setting flags, read from its parser, each with the
    edge values of its type."""
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    names = {f.name for f in fields(RunConfig)}
    return {
        action.option_strings[0]: INTS if action.type is int else FLOATS
        for action in subparsers.choices[command]._actions
        if action.dest in names
    }


SETTING_FLAGS = {command: _setting_flags(command) for command in ("calibrate", "evaluate")}


@st.composite
def command_lines(draw, files):
    """A subcommand with a few of its flags set to edge values, and input
    files drawn from the valid and malformed ones."""

    def pick(options):
        return str(draw(st.sampled_from(options)))

    command = draw(st.sampled_from(["generate", "calibrate", "evaluate", "synth", "bench"]))
    argv = [command]
    if command in ("generate", "evaluate", "bench"):
        argv += ["--model", pick(files["models"])]
    if command in ("calibrate", "evaluate"):
        argv += ["--input", pick(files["csvs"])]
        flags = SETTING_FLAGS[command]
        for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3, unique=True)):
            argv += [flag, pick(flags[flag])]
        if draw(st.booleans()):
            argv += ["--config", pick(files["configs"])]
    if command == "generate":
        argv += ["--x0", pick(FLOATS), "--duration", pick(FLOATS), "--seed", pick(INTS)]
    elif command == "evaluate":
        argv += ["--modes", pick(["shift", "full,coarse", "fine,sideways", "", ","]), "--seed", pick(INTS)]
    elif command == "synth":
        flags = {"--minutes": FLOATS, "--p": FLOATS, "--lane-width": FLOATS, "--dt": FLOATS,
                 "--n-c": INTS, "--seed": INTS, "--family": ["banded", "uniform", "identity", "explicit"]}
        for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3, unique=True)):
            argv += [flag, pick(flags[flag])]
        if "--minutes" not in argv:
            argv += ["--minutes", "1"]
        argv += ["--model-out", str(files["root"] / "out" / "truth.json")]
    elif command == "bench":
        # repetitions only cost time, so they stay small here
        argv += ["--steps", pick(INTS), "--reps", pick(["-1", "0", "1", "2"])]
    if command != "bench":
        argv += ["--out", str(files["root"] / "out" / command)]
    return argv


# a number written as NaN or an infinity: json.dumps words them NaN and
# Infinity, repr nan and inf
NONFINITE = re.compile(r"\b(NaN|Infinity|nan|inf)\b")


def _nonfinite_files(directory: Path) -> list[Path]:
    """The files under directory that hold a NaN or infinite number."""
    return [path for path in directory.rglob("*") if path.is_file() and NONFINITE.search(path.read_text())]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_main_maps_every_bad_input_to_its_exit_code(files, data):
    argv = data.draw(command_lines(files))
    out = files["root"] / "out"
    shutil.rmtree(out, ignore_errors=True)
    code, stderr = _run(argv)
    assert code in (EXIT_OK, EXIT_ARGUMENT, EXIT_SCHEMA, EXIT_CALIBRATION), stderr
    assert "Traceback" not in stderr
    if code == EXIT_OK:
        assert not _nonfinite_files(out)


def test_output_bound_at_the_limit_gives_finite_files(files):
    root = files["root"]
    model, out = str(root / "model_bound_under.json"), root / "out_bound_under"
    profile = ["generate", "--model", model, "--x0", "0", "--duration", "60", "--out", str(out / "profile.csv")]
    assert _run(profile)[0] == EXIT_OK
    report = ["evaluate", "--model", model, "--input", str(files["tour"]), "--modes", "fine,full", "--out", str(out)]
    assert _run(report)[0] == EXIT_OK
    assert len(list(out.iterdir())) == 5 and not _nonfinite_files(out)


def test_cap_threshold_at_the_limit_gives_a_kernel(files):
    config = RunConfig(cap_threshold=MAX_MAGNITUDE)
    model, summary = calibrate_from_segments(ingest_segments([files["tour"]], config), config, {})
    assert np.isfinite(summary["fit_residual"]) and 0 < summary["fit_residual"] < 1
    assert np.any(model.fine.kernel_taps != 0)


# json.loads reads NaN, Infinity and integers of any size; the edge
# values (past float range, subnormal, near its top) are drawn often
JSON_NUMBERS = st.floats() | st.integers() | st.sampled_from([10**400, -(10**400), 5e-324, 1e-200, 1e300, 1e308])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | JSON_NUMBERS | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
# a drawn replacement is mostly a number or a list of them, the values
# a model file holds
REPLACEMENTS = st.one_of(JSON_NUMBERS, st.lists(JSON_NUMBERS, max_size=4), JSON_VALUES)
# where a drawn value goes: each section, each leaf of the three model
# sections, and (None) one element of a list
MODEL_PATHS = [
    *[(section,) for section in ("version", "params", "coarse", "fine", "metadata")],
    *[("params", f.name) for f in fields(ModelParams) if f.name != "snippet_duration"],
    ("coarse", "transition"),
    ("coarse", "transition", None),
    ("coarse", "state_centers"),
    ("coarse", "state_centers", None),
    ("fine", "kernel_taps"),
    ("fine", "kernel_taps", None),
    ("fine", "noise_halfwidth"),
]


@st.composite
def mutated_models(draw, good):
    """A valid model document with 1-3 of its sections or leaves (list
    elements included) replaced by drawn JSON values."""
    doc = json.loads(json.dumps(good))
    for _ in range(draw(st.integers(1, 3))):
        *parents, key = draw(st.sampled_from(MODEL_PATHS))
        node = doc
        for step in parents:
            node = node.get(step) if isinstance(node, dict) else None
        if key is None and isinstance(node, list) and node:
            key = draw(st.integers(0, len(node) - 1))
        if isinstance(node, dict) or (isinstance(node, list) and isinstance(key, int)):
            node[key] = draw(REPLACEMENTS)
    return doc


@pytest.fixture(scope="module")
def model_file(files):
    return files["model"]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_model_file_loads_to_bounded_output_or_is_refused(model_file, data):
    path = model_file.with_name("model_drawn.json")
    path.write_text(json.dumps(data.draw(mutated_models(json.loads(model_file.read_text())))))
    try:
        model = load_model(path)
    except SchemaError:
        return
    values = generate_profile(model, 0.0, 20 * model.params.dt, 0).values
    assert np.all(np.isfinite(values))
    # the bound holds up to the rounding of the sums behind it
    assert np.abs(values).max() <= (0.5 + model.fine.output_bound) * (1 + 1e-12)
