"""Workload definitions: benchmark-owned inputs, the CLI operations each
workload repeats, the output checks behind `failed`, and the traced
replay of each operation as its sequence of public library calls.

Imported only by worker.py, in a process that has `src` on its path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from functools import cached_property
from pathlib import Path

import numpy as np

from laneweave import cli, evaluation, generator, markov, noise, preprocessing
from laneweave.markov import CoarseModel
from laneweave.synthetic import SyntheticSpec, make_model, simulate_drive_log

TOUR_SECONDS = 3000.0  # 50 minutes at 5 Hz
LANE_WIDTH = 3.6
PINNED_TOUR_SEED = 6  # the tour the generate/evaluate model is calibrated from
CALIBRATE_TOURS = 4
PROFILE_SECONDS = 3600.0
EVAL_MODES = ("shift", "coarse", "fine", "full")

# Defects injected into every benchmark tour, at fixed rates per tour so
# that input sizes barely depend on the seed.
SLOW_STRETCHES = 3  # each 40-90 s below v_min
DROPOUTS = 6  # bursts of 1-8 invalid rows (NaN or negative distance)
LANE_CHANGES = 4  # lane_id switches away and back after 30-120 s
UNKNOWN_LANE_STRETCHES = 1  # 20 s of empty lane_id cells
TIME_JITTER = 0.04  # seconds; keeps timestamps increasing at dt = 0.2

_CREATED_AT = re.compile(rb'\n\s*"created_at": "[^"]*",?')


class CheckFailed(Exception):
    """An operation's output violates the benchmark's correctness checks."""


def digest(path: Path) -> str:
    """sha256 of a file's bytes; a model file is hashed without its
    creation timestamp, the one field that may differ between runs."""
    data = Path(path).read_bytes()
    if path.suffix == ".json" and path.name.startswith("model"):
        data = _CREATED_AT.sub(b"", data)
    return hashlib.sha256(data).hexdigest()


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def _tour_columns(seed: int, index: int) -> dict:
    """A 50-minute tour simulated from the pinned ground truth, with the
    defects above injected at positions drawn from (seed, index)."""
    truth = make_model(SyntheticSpec(seed=PINNED_TOUR_SEED))
    log = simulate_drive_log(truth, TOUR_SECONDS, LANE_WIDTH, np.random.SeedSequence([seed, index]))
    rng = _rng(seed, index, 1)
    n = len(log)
    dt = truth.params.dt
    t = log.t + rng.uniform(-TIME_JITTER, TIME_JITTER, n)
    t[0] = 0.0
    left, right = log.dist_left.copy(), log.dist_right.copy()
    v = 120.0 + 10.0 * np.sin(np.arange(n) * (2 * np.pi / 3000.0)) + rng.normal(0.0, 1.0, n)
    lane = np.full(n, 2.0)

    def stretch(low_s: float, high_s: float) -> slice:
        length = int(rng.uniform(low_s, high_s) / dt)
        start = int(rng.integers(0, n - length))
        return slice(start, start + length)

    for _ in range(SLOW_STRETCHES):
        span = stretch(40.0, 90.0)
        v[span] = rng.uniform(15.0, 35.0)
    for _ in range(LANE_CHANGES):
        lane[stretch(30.0, 120.0)] = rng.choice([1.0, 3.0])
    for _ in range(UNKNOWN_LANE_STRETCHES):
        lane[stretch(20.0, 20.0)] = np.nan
    for k in range(DROPOUTS):
        span = stretch(dt, 8 * dt)
        if k % 2:
            left[span] = np.nan
        else:
            right[span] = -0.5
    return {"t": t, "dist_left": left, "dist_right": right, "v_lon": v, "lane_id": lane}


def write_tour_csv(path: Path, columns: dict) -> None:
    """Write a tour in the documented input schema."""
    has_lane = "lane_id" in columns
    header = "t,dist_left,dist_right,v_lon" + (",lane_id" if has_lane else "")
    lines = [header]
    lanes = columns["lane_id"].tolist() if has_lane else None
    for i, row in enumerate(zip(columns["t"].tolist(), columns["dist_left"].tolist(),
                                columns["dist_right"].tolist(), columns["v_lon"].tolist())):
        line = ",".join(repr(x) for x in row)
        if has_lane:
            line += "," + ("" if lanes[i] != lanes[i] else repr(lanes[i]))
        lines.append(line)
    path.write_text("\n".join(lines) + "\n")


def _pinned_model(work: Path) -> None:
    """Calibrate the generate/evaluate model from the clean pinned tour
    through the CLI, as a user would."""
    truth = make_model(SyntheticSpec(seed=PINNED_TOUR_SEED))
    log = simulate_drive_log(truth, TOUR_SECONDS, LANE_WIDTH, PINNED_TOUR_SEED)
    tour = work / "pinned_tour.csv"
    write_tour_csv(tour, {"t": log.t, "dist_left": log.dist_left,
                          "dist_right": log.dist_right, "v_lon": log.v_lon})
    model = work / "model.json"
    if run_cli(["calibrate", "--input", str(tour), "--out", str(model)]) != 0:
        raise CheckFailed("calibrating the pinned model failed")


def _ingest(paths, config) -> tuple[list, dict]:
    """Segments of the given tours through the public preprocessing calls
    the CLI makes, with the input sizes seen at each step."""
    params = config.model_params()
    segments, sizes = [], {"rows": 0, "grid_points": 0}
    for path in paths:
        log = cli.read_drive_log_csv(path)
        track = preprocessing.resample(log, config.sample_rate)
        segments.extend(preprocessing.extract_segments(
            track, params, jump_threshold=config.jump_threshold, guard_steps=config.guard_steps))
        sizes["rows"] += len(log)
        sizes["grid_points"] += len(track)
    sizes["kept_samples"] = sum(len(s) for s in segments)
    sizes["segments"] = len(segments)
    return segments, sizes


def _ingest_sizes(paths) -> dict:
    config = cli.RunConfig()
    segments, sizes = _ingest(paths, config)
    sizes["snippets"] = len(evaluation.split_snippets(segments, config.snippet_duration))
    return sizes


def run_cli(argv) -> int:
    """One CLI invocation in-process; its console lines are discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


class Workload:
    """A closed loop of one caller repeating one CLI command.

    Operation i's arguments are a pure function of (seed, i); op 0 is the
    untimed warm-up. `prepare` writes the inputs and returns their sizes;
    the other methods use only the files it wrote.
    """

    name = ""
    uses_model = False

    def __init__(self, work: Path, seed: int):
        self.work = Path(work)
        self.seed = seed
        self.out = self.work / "out"
        self.replay_out = self.work / "replay"
        self.model_path = self.work / "model.json"
        self._sizes_path = self.work / "sizes.json"

    @cached_property
    def sizes(self) -> dict:
        return json.loads(self._sizes_path.read_text())

    def prepare(self) -> dict:
        self.work.mkdir(parents=True, exist_ok=True)
        sizes = self._prepare()
        self._sizes_path.write_text(json.dumps(sizes))
        return sizes

    def op_seed(self, i: int) -> int:
        return self.seed * 100_000 + i

    def outputs(self, root: Path) -> list[Path]:
        raise NotImplementedError

    def digests(self, root: Path) -> dict:
        return {p.name: digest(p) for p in self.outputs(root)}


class GenerateHour(Workload):
    name = "generate_hour"
    uses_model = True

    def _prepare(self) -> dict:
        _pinned_model(self.work)
        model = generator.load_model(self.model_path)
        steps = int(round(PROFILE_SECONDS / model.params.dt))
        return {"steps": steps, "dt": model.params.dt,
                "output_bound": 0.5 + model.fine.output_bound}

    def x0(self, i: int) -> float:
        return round(float(_rng(self.seed, i).uniform(-0.45, 0.45)), 4)

    def argv(self, i: int) -> list:
        return ["generate", "--model", self.model_path, "--x0", repr(self.x0(i)),
                "--duration", repr(PROFILE_SECONDS), "--seed", self.op_seed(i),
                "--out", self.out / "profile.csv"]

    def outputs(self, root: Path) -> list[Path]:
        return [root / "profile.csv"]

    def data_seconds(self) -> float:
        return PROFILE_SECONDS

    def check(self, i: int) -> None:
        sizes = self.sizes
        lines = (self.out / "profile.csv").read_text().split("\n")
        if lines[0] != "t,x" or lines[-1] != "" or len(lines) != sizes["steps"] + 2:
            raise CheckFailed(f"profile has {len(lines) - 2} rows, expected {sizes['steps']}")
        table = np.array(",".join(lines[1:-1]).split(","), dtype=np.float64).reshape(-1, 2)
        x = table[:, 1]
        if not np.all(np.isfinite(x)) or np.abs(x).max() > sizes["output_bound"]:
            raise CheckFailed("profile values not finite or outside +-(0.5 + output_bound)")
        if not np.allclose(table[:, 0], np.arange(x.size) * sizes["dt"], rtol=0.0, atol=1e-9):
            raise CheckFailed("profile time column is not the model's step grid")

    def replay(self, i: int, tracer) -> None:
        model = generator.load_model(self.model_path)
        profile = generator.generate_profile(model, self.x0(i), PROFILE_SECONDS, self.op_seed(i))
        generator.atomic_write_text(self.replay_out / "profile.csv", cli.format_profile_csv(profile))


class CalibrateTours(Workload):
    name = "calibrate_tours"
    _first_digest: str | None = None  # every op calibrates the same tours

    def tours(self) -> list[Path]:
        return [self.work / f"tour{k}.csv" for k in range(CALIBRATE_TOURS)]

    def _prepare(self) -> dict:
        for k, path in enumerate(self.tours()):
            write_tour_csv(path, _tour_columns(self.seed, k))
        return _ingest_sizes(self.tours())

    def argv(self, i: int) -> list:
        return ["calibrate", "--input", *self.tours(), "--out", self.out / "model.json"]

    def outputs(self, root: Path) -> list[Path]:
        return [root / "model.json"]

    def data_seconds(self) -> float:
        return CALIBRATE_TOURS * TOUR_SECONDS

    def check(self, i: int) -> None:
        model = generator.load_model(self.out / "model.json")
        if model.params.n_c != cli.RunConfig().n_c:
            raise CheckFailed("calibrated model has the wrong state count")
        current = digest(self.out / "model.json")
        if self._first_digest is None:
            self._first_digest = current
        elif current != self._first_digest:
            raise CheckFailed("calibrating the same tours twice gave different models")

    def replay(self, i: int, tracer) -> None:
        config = cli.RunConfig()
        params = config.model_params()
        segments, _ = _ingest(self.tours(), config)
        metadata = {"source_tours": [p.stem for p in self.tours()],
                    "created_at": cli._utc_now(), "config": config.to_dict()}
        states = [markov.discretize(seg.series.values, params.n_c) for seg in segments]
        counts = markov.count_transitions(states, params.n_c)
        coarse = CoarseModel(
            n_c=params.n_c,
            dt=params.dt,
            transition=markov.transitions_from_counts(counts),
            smoothing_sigma=params.smoothing_sigma,
            smoothing_support=params.smoothing_support,
        )
        capped = [noise.cap(noise.extract_fine(seg.series, params), params.cap_threshold)
                  for seg in segments]
        fine, _ = noise.fit_kernel(capped, params, knot_count=config.knot_count,
                                   window_length=config.window_length)
        model = generator.TwoLevelModel(params=params, coarse=coarse, fine=fine, metadata=metadata)
        generator.save_model(model, self.replay_out / "model.json")


class EvaluateTour(Workload):
    name = "evaluate_tour"
    uses_model = True

    def tour(self) -> Path:
        return self.work / "tour0.csv"

    def _prepare(self) -> dict:
        _pinned_model(self.work)
        write_tour_csv(self.tour(), _tour_columns(self.seed, 0))
        sizes = _ingest_sizes([self.tour()])
        params = generator.load_model(self.model_path).params
        w = int(round(params.snippet_duration / params.dt))
        # coarse and full walk one chain of w steps per snippet
        sizes["steps"] = 2 * sizes["snippets"] * w
        return sizes

    def argv(self, i: int) -> list:
        return ["evaluate", "--model", self.model_path, "--input", self.tour(),
                "--modes", ",".join(EVAL_MODES), "--seed", self.op_seed(i), "--out", self.out]

    def outputs(self, root: Path) -> list[Path]:
        return [root / f"{kind}_{mode}.{ext}" for mode in EVAL_MODES
                for kind, ext in (("report", "json"), ("summary", "csv"))]

    def data_seconds(self) -> float:
        return self.sizes["snippets"] * len(EVAL_MODES) * 10.0

    def check(self, i: int) -> None:
        expected = self.sizes["snippets"]
        for mode in EVAL_MODES:
            report = json.loads((self.out / f"report_{mode}.json").read_text())
            if report["snippet_count"] != expected or report["mode"] != mode:
                raise CheckFailed(f"{mode} report holds {report['snippet_count']} snippets, "
                                  f"expected {expected}")
            for name, entry in report["metrics"].items():
                if not 0.0 <= entry["ks_distance"] <= 1.0:
                    raise CheckFailed(f"{mode} KS distance of {name} outside [0, 1]")
                if len(entry["real"]) != expected or len(entry["artificial"]) != expected:
                    raise CheckFailed(f"{mode} {name} populations have the wrong size")
            rows = (self.out / f"summary_{mode}.csv").read_text().count("\n")
            if rows != 1 + 2 * len(evaluation.METRIC_NAMES):
                raise CheckFailed(f"{mode} summary has {rows} lines")

    def replay(self, i: int, tracer) -> None:
        model = generator.load_model(self.model_path)
        config = cli.RunConfig()
        segments, _ = _ingest([self.tour()], config)
        self.replay_out.mkdir(parents=True, exist_ok=True)
        for name in EVAL_MODES:
            mode = evaluation.EvalMode.parse(name)
            with tracer.span(f"evaluation.run_mode.{name}"):
                report = evaluation.run_mode(mode, segments, model, self.op_seed(i))
            with tracer.span("cli.report_json"):
                document = report.to_dict()
                document["config"] = config.to_dict()
                text = json.dumps(document, indent=2) + "\n"
            generator.atomic_write_text(self.replay_out / f"report_{name}.json", text)
            generator.atomic_write_text(self.replay_out / f"summary_{name}.csv",
                                        evaluation.summarize(report))


WORKLOADS = {w.name: w for w in (GenerateHour, CalibrateTours, EvaluateTour)}
