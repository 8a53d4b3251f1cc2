"""Ingestion reads several tours side by side, in shares mapped by the
calling process and forked children: it must give what the in-process
per-tour loop gives, segment for segment or error for error. Commands
that read one tour must not fork, and no command loads multiprocessing
or concurrent.futures."""

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
from laneweave.cli import EXIT_CALIBRATION, EXIT_OK, EXIT_SCHEMA, main
from laneweave.core import RunConfig
from laneweave.errors import EmptySeriesError, LaneweaveError, SchemaError
from laneweave.pipeline import ingest_segments, read_drive_log_csv
from laneweave.preprocessing import extract_segments, resample

from test_csv_reader import LANE_HEADER, csv_texts, tour_rows


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


ERROR_TYPES = sorted(set(_subclasses(LaneweaveError)), key=lambda cls: cls.__name__)
# the errors whose constructor takes more than a message
ERROR_EXAMPLES = {
    errors.InvalidSampleError: errors.InvalidSampleError(1.0, -2.0),
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
    except (SchemaError, EmptySeriesError) as exc:
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


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, err.getvalue()


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


# os.fork raises, so a command that forks fails the run
_LEAN_RUNNER = """
import contextlib, io, json, os, sys
from laneweave.cli import main
def fork():
    raise AssertionError("forked")
os.fork = fork
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = [name for name in ("multiprocessing", "concurrent.futures") if name in sys.modules]
print(json.dumps([codes, loaded]))
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
    assert json.loads(completed.stdout) == [[EXIT_OK] * 3, []]


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
