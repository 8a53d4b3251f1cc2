"""Ingestion reads several tours side by side, in shares mapped by the
calling process and forked children: it must give what the in-process
per-tour loop gives, segment for segment or error for error. evaluate
maps its modes the same way and must write and print what one process
does. One-tour calibrate and a short generate must not fork, and no
command loads multiprocessing or concurrent.futures."""

import collections
import contextlib
import io
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import laneweave
from laneweave import errors, pipeline
from laneweave.cli import EXIT_ARGUMENT, EXIT_CALIBRATION, EXIT_OK, EXIT_SCHEMA, main
from laneweave.core import RunConfig
from laneweave.errors import InsufficientDataError, LaneweaveError, SchemaError
from laneweave.evaluation import EvalMode
from laneweave.generator import model_to_dict
from laneweave.pipeline import (
    calibrate_from_segments,
    calibrate_from_statistics,
    ingest_segments,
    read_drive_log_csv,
    tour_statistics,
)
from laneweave.preprocessing import extract_segments, resample

from test_csv_reader import LANE_HEADER, csv_texts, tour_rows


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


ERROR_TYPES = sorted(set(_subclasses(LaneweaveError)), key=lambda cls: cls.__name__)
# the errors whose constructor takes more than a message
ERROR_EXAMPLES = {
    errors.SchemaError: errors.SchemaError("tour.csv: row 3, column 't': cannot parse 'x'", column="t", row=3),
}


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_error_survives_pickle(cls):
    error = ERROR_EXAMPLES[cls] if cls in ERROR_EXAMPLES else cls("something went wrong")
    restored = pickle.loads(pickle.dumps(error))
    assert type(restored) is cls
    assert str(restored) == str(error) and restored.args == error.args
    assert vars(restored) == vars(error)


def fork_forced():
    """Fork a child for every tour but the first, whatever the CPU count."""
    return mock.patch.object(pipeline, "_worker_count", lambda tours: max(tours, 2))


def serial_forced():
    return mock.patch.object(pipeline, "_worker_count", lambda tours: 1)


def outcome(ingest):
    """Each segment's values bytes, step, start and tour, in order, or the
    error's type, message, row and column, comparable with ==."""
    try:
        segments = ingest()
    except (SchemaError, InsufficientDataError) as exc:
        return ("error", type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None))
    return [(s.series.values.tobytes(), s.series.dt, s.start_t, s.source_tour) for s in segments]


def per_tour_loop(paths, config):
    """The in-process reference: read, resample and cut one tour after
    the other; the first error ends the loop."""
    segments = []
    for path in paths:
        track = resample(read_drive_log_csv(path), config.sample_rate)
        segments += extract_segments(
            track, config, jump_threshold=config.jump_threshold, guard_steps=config.guard_steps
        )
    return segments


# clean tours long enough to give segments, beside the mostly defective
# short ones csv_texts draws
CLEAN_TOURS = st.integers(2, 300).map(lambda n: "\n".join([LANE_HEADER, *tour_rows(n)]) + "\n")


@settings(max_examples=60, deadline=None)
@given(texts=st.lists(st.one_of(csv_texts(), CLEAN_TOURS), min_size=1, max_size=3))
def test_pool_matches_per_tour_loop(tmp_path_factory, texts):
    root = tmp_path_factory.mktemp("ingest")
    paths = []
    for k, text in enumerate(texts):
        paths.append(root / f"tour{k}.csv")
        paths[-1].write_bytes(text.encode())
    config = RunConfig()
    expected = outcome(lambda: per_tour_loop(paths, config))
    with fork_forced():
        assert outcome(lambda: ingest_segments(paths, config)) == expected


def _cli_env():
    """The environment of a CLI child: one BLAS thread, stdout buffered as
    on a pipe whatever the caller's PYTHONUNBUFFERED."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("PYTHONUNBUFFERED", None)
    src = str(Path(laneweave.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_printing(argv):
    """An in-process CLI run's exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def _run(argv):
    code, _, stderr = _run_printing(argv)
    return code, stderr


@pytest.fixture(scope="module")
def tours(tmp_path_factory):
    """Two clean 10-minute tours, a tour with a bad cell (exit 3) and one
    with a single row (exit 4)."""
    root = tmp_path_factory.mktemp("tours")
    paths = {"root": root}
    for seed in (1, 2):
        paths[f"good{seed}"] = root / f"good{seed}.csv"
        assert _run(["synth", "--minutes", "10", "--seed", seed, "--out", paths[f"good{seed}"]])[0] == EXIT_OK
    paths["bad_cell"] = root / "bad_cell.csv"
    paths["bad_cell"].write_text(LANE_HEADER + "\n0.0,1.8,1.8,80,2\n0.2,abc,1.8,80,2\n")
    paths["one_row"] = root / "one_row.csv"
    paths["one_row"].write_text(LANE_HEADER + "\n0.0,1.8,1.8,80,2\n")
    return paths


@pytest.mark.parametrize(
    "names, expected",
    [
        (["good1", "bad_cell", "one_row"], EXIT_SCHEMA),
        (["good1", "one_row", "bad_cell"], EXIT_CALIBRATION),
        (["one_row", "good2", "bad_cell"], EXIT_CALIBRATION),
    ],
)
def test_first_failing_tour_sets_the_error(tours, names, expected):
    argv = ["calibrate", "--input", *(tours[name] for name in names), "--out", tours["root"] / "model.json"]
    with serial_forced():
        serial = _run(argv)
    with fork_forced():
        pooled = _run(argv)
    assert serial[0] == expected
    assert pooled == serial


def test_too_short_tour_is_named(tours):
    argv = ["calibrate", "--input", tours["good1"], tours["one_row"], "--out", tours["root"] / "model.json"]
    for forced in (serial_forced, fork_forced):
        with forced():
            code, stderr = _run(argv)
        assert code == EXIT_CALIBRATION
        assert stderr == "error: tour 'one_row': need at least 2 valid samples, got 1\n"


@pytest.fixture(scope="module")
def eval_model(tours):
    model = tours["root"] / "eval_model.json"
    assert _run(["calibrate", "--input", tours["good1"], "--out", model])[0] == EXIT_OK
    return model


def _evaluation(argv, out: Path):
    """An evaluate run writing to out: its exit code, stdout and stderr
    with out's path masked, and the bytes of each file in out (None for
    a directory)."""
    code, stdout, stderr = _run_printing([*argv, "--out", out])
    files = None
    if out.is_dir():
        files = {path.name: path.read_bytes() if path.is_file() else None for path in out.iterdir()}
    return code, stdout.replace(str(out), "<out>"), stderr.replace(str(out), "<out>"), files


def shares(count):
    return mock.patch.object(pipeline, "_worker_count", lambda items: min(items, count))


@settings(max_examples=15, deadline=None)
@given(
    modes=st.permutations(list(EvalMode)).flatmap(lambda order: st.integers(1, 4).map(lambda k: order[:k])),
    count=st.integers(1, 3),
    seed=st.integers(0, 3),
)
def test_forked_evaluate_writes_and_prints_what_one_share_does(tours, eval_model, tmp_path_factory, modes, count, seed):
    root = tmp_path_factory.mktemp("evaluate")
    argv = ["evaluate", "--model", eval_model, "--input", tours["good2"], "--seed", seed]
    argv += ["--modes", ",".join(mode.value for mode in modes)]
    with shares(1):
        expected = _evaluation(argv, root / "one")
    with shares(count):
        assert _evaluation(argv, root / "forked") == expected
    assert expected[0] == EXIT_OK and len(expected[3]) == 2 * len(modes)


@pytest.mark.parametrize("blocked", ["out is a file", "last report is a directory"])
def test_failed_write_ends_as_in_one_process(tours, eval_model, tmp_path, blocked):
    outcomes = []
    for forced in (serial_forced, fork_forced):
        out = tmp_path / forced.__name__
        if blocked == "out is a file":
            out.write_text("")
        else:
            (out / "report_full.json").mkdir(parents=True)
        with forced():
            outcomes.append(_evaluation(["evaluate", "--model", eval_model, "--input", tours["good2"]], out))
    assert outcomes[0] == outcomes[1]
    code, stdout, stderr, files = outcomes[0]
    assert code == EXIT_ARGUMENT and stdout == "" and stderr.count("\n") == 1
    if blocked == "out is a file":
        assert stderr == "error: cannot write <out>/report_shift.json: <out> is not a directory\n"
    else:
        # the modes before full wrote their files, forked or not
        assert stderr == "error: cannot write <out>/report_full.json: it is a directory\n"
        written = [f"{name}_{mode}.{ext}" for mode in ("shift", "coarse", "fine")
                   for name, ext in (("report", "json"), ("summary", "csv"))]
        assert files.keys() == {*written, "report_full.json"} and files["report_full.json"] is None


# counts each command's forks; a forked child leaves by os._exit, so
# only the calling process prints
_LEAN_RUNNER = """
import contextlib, io, json, os, sys
from laneweave.cli import main
forks, real_fork = [], os.fork
def fork():
    forks[-1] += 1
    return real_fork()
os.fork = fork
codes = []
for argv in json.loads(sys.argv[1]):
    forks.append(0)
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
loaded = [name for name in ("multiprocessing", "concurrent.futures") if name in sys.modules]
print(json.dumps([codes, forks, loaded]))
"""


def test_one_tour_commands_load_no_process_pool(tours):
    root = tours["root"]
    model = root / "lean_model.json"
    commands = [
        ["calibrate", "--input", tours["good1"], "--out", model],
        ["generate", "--model", model, "--x0", "0", "--duration", "60", "--out", root / "lean_profile.csv"],
        ["evaluate", "--model", model, "--input", tours["good2"], "--out", root / "lean_reports"],
    ]
    completed = subprocess.run(
        [sys.executable, "-c", _LEAN_RUNNER, json.dumps([[str(a) for a in c] for c in commands])],
        capture_output=True, text=True, env=_cli_env(), timeout=120, check=True,
    )
    codes, forks, loaded = json.loads(completed.stdout)
    assert codes == [EXIT_OK] * 3 and loaded == []
    # evaluate maps its modes over the CPUs, so it may fork
    assert forks[:2] == [0, 0]


# Prints a line before calibrating, so that stdout holds buffered output
# when the children are forked; a child that flushed its inherited copy
# would print it twice.
_FORK_RUNNER = """
import os, sys
from laneweave import cli, pipeline
pipeline._worker_count = lambda tours: max(tours, 2)
forks = []
real_fork = os.fork
os.fork = lambda: forks.append(1) or real_fork()
print("before calibrate")
code = cli.main(sys.argv[1:])
print("forks:", len(forks), [name for name in ("multiprocessing", "concurrent.futures") if name in sys.modules])
sys.exit(code)
"""


def test_forked_workers_print_nothing_twice(tours):
    model = tours["root"] / "forked_model.json"
    completed = subprocess.run(
        [sys.executable, "-c", _FORK_RUNNER, "calibrate", "--input",
         str(tours["good1"]), str(tours["good2"]), "--out", str(model)],
        capture_output=True, text=True, env=_cli_env(), timeout=120,
    )
    assert completed.returncode == EXIT_OK, completed.stderr
    lines = completed.stdout.splitlines()
    assert lines[0] == "before calibrate" and lines[-1] == "forks: 1 []"
    assert f"calibrated model written to {model}" in lines
    assert len(lines) == 7
    assert max(collections.Counter(lines).values()) == 1


@settings(max_examples=25, deadline=None)
@given(cuts=st.lists(st.integers(0, 10**6), max_size=4), window_length=st.sampled_from([64, 256]))
def test_statistics_fold_is_calibration_of_the_whole(tour_segments, cuts, window_length):
    """Cut into tours anywhere, empty ones included, the segments give,
    record by record, the model and summary they give as one tour."""
    config = RunConfig(window_length=window_length)
    bounds = [0, *sorted(cut % (len(tour_segments) + 1) for cut in cuts), len(tour_segments)]
    records = [tour_statistics(tour_segments[a:b], config) for a, b in zip(bounds, bounds[1:])]
    model, summary = calibrate_from_statistics(records, config, {"tours": len(records)})
    whole_model, whole_summary = calibrate_from_segments(tour_segments, config, {"tours": len(records)})
    assert json.dumps(model_to_dict(model)) == json.dumps(model_to_dict(whole_model))
    assert summary == whole_summary


# two tours of this many minutes; the most calibrate may add to a fresh
# interpreter that imported the command line, in its own process or a
# forked share: 21.4 MB when the shares handed back every segment and
# resample held full-length source offsets, 12.3-12.5 MB since
LONG_TOUR_MINUTES = 600
LONG_TOURS_PEAK_MB = 16
_PEAK_RUNNER = """
import contextlib, io, resource, sys
from laneweave import cli, pipeline
pipeline._worker_count = lambda tours: max(tours, 2)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
peaks = [resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
print(code, max(peaks))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_long_tours_calibrate_in_one_tours_memory(tmp_path):
    paths = [tmp_path / f"long{seed}.csv" for seed in (1, 2)]
    for seed, path in zip((1, 2), paths):
        assert _run(["synth", "--minutes", LONG_TOUR_MINUTES, "--seed", seed, "--out", path])[0] == EXIT_OK

    def run(code, *args):
        completed = subprocess.run(
            [sys.executable, "-c", code, *map(str, args)],
            capture_output=True, text=True, env=_cli_env(), timeout=300, check=True,
        )
        return completed.stdout.split()

    (baseline,) = run("import resource, laneweave.cli; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    code, peak = run(_PEAK_RUNNER, "calibrate", "--input", *paths, "--out", tmp_path / "model.json")
    assert code == str(EXIT_OK)
    assert (int(peak) - int(baseline)) / 1024 <= LONG_TOURS_PEAK_MB
