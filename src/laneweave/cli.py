"""Command-line front end wiring ingestion, calibration, generation,
evaluation, synthesis, and benchmarking into reproducible runs.

Input CSV schema, one file per tour: header t,dist_left,dist_right,v_lon
with an optional trailing lane_id column; t in seconds, distances in
meters, velocity in km/h, rows sorted by t.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, fields
from datetime import datetime, timezone
from itertools import repeat
from pathlib import Path
from typing import NoReturn

import numpy as np

from .core import DriveLog, ModelParams, OffsetSeries, RunConfig
from .errors import (
    CalibrationError,
    EmptySeriesError,
    EvaluationError,
    LaneweaveError,
    ModelFormatError,
    SchemaError,
    SyntheticSpecError,
)
from .evaluation import EvalMode, run_mode, summarize, window_steps
from .generator import (
    TwoLevelModel,
    atomic_write_text,
    coarse_profile,
    generate_profile,
    load_model,
    save_model,
)
from .markov import CoarseModel, count_transitions, discretize, transitions_from_counts
from .noise import cap, extract_fine, fit_kernel, generate_noise
from .preprocessing import Segment, extract_segments, resample
from .synthetic import SyntheticSpec, make_model, simulate_drive_log

EXIT_OK = 0
EXIT_ARGUMENT = 2
EXIT_SCHEMA = 3
EXIT_CALIBRATION = 4
EXIT_FAILURE = 1

CONFIG_ENV = "LANEWEAVE_CONFIG"
CSV_COLUMNS = ("t", "dist_left", "dist_right", "v_lon")
# rows parsed per float() pass; bounds the transient list of cell strings
CSV_CHUNK_ROWS = 1024
# ModelParams fields that describe the evaluated data, not the model
DATA_FIELDS = ("v_min", "snippet_duration")


class ArgumentUsageError(LaneweaveError):
    """Bad command-line argument values detected after parsing."""


def resolve_config(args: argparse.Namespace, base: ModelParams | None = None) -> RunConfig:
    """Built-in defaults (or the given model parameters), overlaid by the
    config file, overlaid by flags."""
    settings = asdict(RunConfig())
    if base is not None:
        settings.update(asdict(base))
    names = {f.name for f in fields(RunConfig)}
    config_path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
    if config_path:
        try:
            document = json.loads(Path(config_path).read_text())
        except FileNotFoundError:
            raise SchemaError(f"config file not found: {config_path}") from None
        except json.JSONDecodeError as exc:
            raise SchemaError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(document, dict):
            raise SchemaError("config file must hold a JSON object")
        for key, value in document.items():
            if key not in names:
                raise SchemaError(f"unknown config key {key!r}")
            settings[key] = value
    for key in names:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    try:
        return RunConfig(**settings)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ArgumentUsageError(f"invalid configuration: {exc}") from None


def read_drive_log_csv(path) -> DriveLog:
    """Parse one tour CSV; structural problems raise SchemaError naming
    the offending column and 1-based data row.

    Blank lines are skipped (they still count in row numbers) and an
    empty lane_id cell means unknown (NaN). Every cell goes through
    float(), a chunk of rows at a time; on any failure the rows are
    checked again one by one to report the first error in file order.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except FileNotFoundError:
        raise SchemaError(f"input file not found: {path}") from None
    if not lines:
        raise SchemaError(f"{path}: empty file, expected a header row")
    header = tuple(cell.strip() for cell in lines[0].split(","))
    if header[: len(CSV_COLUMNS)] != CSV_COLUMNS or header not in (
        CSV_COLUMNS,
        CSV_COLUMNS + ("lane_id",),
    ):
        raise SchemaError(
            f"{path}: header must be {','.join(CSV_COLUMNS)}[,lane_id], got {','.join(header)}"
        )
    width = len(header)
    has_lane = width == len(CSV_COLUMNS) + 1

    rows = list(filter(str.strip, lines[1:]))
    # per row, not in total: a short row followed by a long one would
    # otherwise shift every later cell into the wrong column
    if list(map(str.count, rows, repeat(","))).count(width - 1) != len(rows):
        _raise_first_error(path, header, lines)
    table = np.empty((width, len(rows)), dtype=np.float64)
    for start in range(0, len(rows), CSV_CHUNK_ROWS):
        cells = ",".join(rows[start : start + CSV_CHUNK_ROWS]).split(",")
        if has_lane:
            lanes = cells[width - 1 :: width]
            cells[width - 1 :: width] = [c if c.strip() else "nan" for c in lanes]
        try:
            chunk = np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
        except ValueError:
            _raise_first_error(path, header, lines)
        table[:, start : start + len(cells) // width] = chunk.reshape(-1, width).T
    t = table[0]
    if not (np.isfinite(t).all() and (np.diff(t) > 0).all()):
        _raise_first_error(path, header, lines)

    return DriveLog(
        t=t,
        dist_left=table[1],
        dist_right=table[2],
        v_lon=table[3],
        lane_id=table[4] if has_lane else None,
        tour_id=path.stem,
    )


def _raise_first_error(path: Path, header: tuple, lines: list[str]) -> NoReturn:
    """Check the data rows one by one and raise the first SchemaError in
    file order: field count, then each cell, then the timestamp."""
    previous_t = None
    for row_number, line in enumerate(lines[1:], start=1):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise SchemaError(
                f"{path}: row {row_number} has {len(cells)} fields, expected {len(header)}",
                row=row_number,
            )
        for name, cell in zip(header, cells):
            cell = cell.strip()
            if name == "lane_id" and cell == "":
                continue
            try:
                value = float(cell)
            except ValueError:
                raise SchemaError(
                    f"{path}: row {row_number}, column {name!r}: cannot parse {cell!r}",
                    column=name,
                    row=row_number,
                ) from None
            if name == "t":
                t = value
        if not math.isfinite(t):
            raise SchemaError(
                f"{path}: row {row_number}: timestamp {t!r} is not finite",
                column="t",
                row=row_number,
            )
        if previous_t is not None and t <= previous_t:
            raise SchemaError(
                f"{path}: row {row_number}: timestamps must be strictly increasing",
                column="t",
                row=row_number,
            )
        previous_t = t


def format_drive_log_csv(log: DriveLog) -> str:
    lines = [",".join(CSV_COLUMNS + ("lane_id",))]
    for i in range(len(log)):
        lane = "" if np.isnan(log.lane_id[i]) else repr(float(log.lane_id[i]))
        lines.append(
            f"{float(log.t[i])!r},{float(log.dist_left[i])!r},"
            f"{float(log.dist_right[i])!r},{float(log.v_lon[i])!r},{lane}"
        )
    return "\n".join(lines) + "\n"


def format_profile_csv(series: OffsetSeries) -> str:
    times = (np.arange(len(series)) * series.dt).tolist()
    rows = [f"{t!r},{x!r}\n" for t, x in zip(times, series.values.tolist())]
    return "t,x\n" + "".join(rows)


def ingest_segments(paths, config: RunConfig) -> list[Segment]:
    segments: list[Segment] = []
    for path in paths:
        log = read_drive_log_csv(path)
        track = resample(log, config.sample_rate)
        segments.extend(
            extract_segments(
                track,
                config,
                jump_threshold=config.jump_threshold,
                guard_steps=config.guard_steps,
            )
        )
    return segments


def calibrate_from_segments(
    segments: list[Segment], config: RunConfig, metadata: dict | None = None
) -> tuple[TwoLevelModel, dict]:
    """Full calibration: transition estimation plus the spectral fit.

    Returns the model and a summary with segment counts, usable minutes,
    per-row visit totals, the absorbing rows, and the spectral fit residual.
    """
    if not segments:
        raise CalibrationError("no road-following segments in the input data")
    params = config.model_params()
    state_segments = [discretize(seg.series.values, params.n_c) for seg in segments]
    counts = count_transitions(state_segments, params.n_c)
    coarse = CoarseModel(
        n_c=params.n_c,
        dt=params.dt,
        transition=transitions_from_counts(counts),
        smoothing_sigma=params.smoothing_sigma,
        smoothing_support=params.smoothing_support,
    )
    capped = [cap(extract_fine(seg.series, params), params.cap_threshold) for seg in segments]
    fine, fit = fit_kernel(
        capped, params, knot_count=config.knot_count, window_length=config.window_length
    )
    total_steps = sum(len(seg) for seg in segments)
    visits = counts.sum(axis=1)
    model = TwoLevelModel(
        params=params,
        coarse=coarse,
        fine=fine,
        metadata=dict(metadata or {}),
    )
    summary = {
        "segment_count": len(segments),
        "usable_minutes": total_steps * params.dt / 60.0,
        "row_visits": visits.tolist(),
        # identity fallback rows that observed rows lead into: a walk that
        # enters one never leaves
        "absorbing_rows": np.flatnonzero((visits == 0) & (counts.sum(axis=0) > 0)).tolist(),
        "spectral_windows": fit.window_count,
        "fit_residual": fit.residual,
        "knot_values": fit.knot_values.tolist(),
    }
    return model, summary


def bench_generation(model: TwoLevelModel, steps: int, repetitions: int) -> dict:
    """Wall times for full, drift-only, and jitter-only generation.

    Phase times are best-of-N; the offline-noise saving is the median of
    the per-repetition paired (full - coarse) differences, which keeps
    its sign meaningful when scheduler noise exceeds the jitter share.
    """
    if steps < 1 or repetitions < 1:
        raise ArgumentUsageError("steps and repetitions must be positive")
    params = model.params
    duration = steps * params.dt
    initial_state = discretize(0.0, params.n_c)
    generate_profile(model, 0.0, duration, 0)  # warm-up
    full = coarse = noise = float("inf")
    paired_diffs = []
    for rep in range(repetitions):
        start = time.perf_counter()
        generate_profile(model, 0.0, duration, rep)
        full_rep = time.perf_counter() - start

        start = time.perf_counter()
        coarse_profile(model, initial_state, steps, np.random.default_rng(rep))
        coarse_rep = time.perf_counter() - start

        start = time.perf_counter()
        generate_noise(model.fine, steps, np.random.default_rng(rep))
        noise = min(noise, time.perf_counter() - start)

        full = min(full, full_rep)
        coarse = min(coarse, coarse_rep)
        paired_diffs.append(full_rep - coarse_rep)
    return {
        "steps": steps,
        "repetitions": repetitions,
        "full_s": full,
        "coarse_s": coarse,
        "noise_s": noise,
        "saving_s": float(np.median(paired_diffs)),
        "speedup_vs_realtime": duration / full,
    }


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def cmd_calibrate(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    segments = ingest_segments(args.input, config)
    metadata = {
        "source_tours": [Path(p).stem for p in args.input],
        "created_at": _utc_now(),
        "config": config.to_dict(),
    }
    model, summary = calibrate_from_segments(segments, config, metadata)
    save_model(model, args.out)
    visits = np.asarray(summary["row_visits"])
    print(f"calibrated model written to {args.out}")
    print(
        f"segments={summary['segment_count']} usable_minutes={summary['usable_minutes']:.1f} "
        f"spectral_windows={summary['spectral_windows']} fit_residual={summary['fit_residual']:.4f}"
    )
    print(f"row visits: min={visits.min()} median={int(np.median(visits))} max={visits.max()}")
    print(f"absorbing rows: {len(summary['absorbing_rows'])} {summary['absorbing_rows']}")
    print(f"effective config: {json.dumps(config.to_dict(), sort_keys=True)}")
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    if not -0.5 <= args.x0 <= 0.5:
        raise ArgumentUsageError(f"--x0 must lie in [-0.5, 0.5], got {args.x0}")
    if not model.params.dt <= args.duration < math.inf:
        raise ArgumentUsageError("--duration must be finite and cover at least one step")
    profile = generate_profile(model, args.x0, args.duration, args.seed)
    atomic_write_text(args.out, format_profile_csv(profile))
    print(f"wrote {len(profile)} steps to {args.out} (seed={args.seed})")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    config = resolve_config(args, model.params)
    mismatched = [
        f.name
        for f in fields(ModelParams)
        if f.name not in DATA_FIELDS and getattr(config, f.name) != getattr(model.params, f.name)
    ]
    if mismatched:
        raise ArgumentUsageError(
            f"{', '.join(mismatched)} must match the model; evaluation takes them from it"
        )
    try:
        window_steps(config.snippet_duration, config.dt)
    except ValueError as exc:
        raise ArgumentUsageError(str(exc)) from None
    modes = []
    for name in args.modes.split(","):
        try:
            modes.append(EvalMode.parse(name))
        except ValueError as exc:
            raise ArgumentUsageError(str(exc)) from None
    segments = ingest_segments(args.input, config)
    out_dir = Path(args.out)
    for mode in modes:
        report = run_mode(
            mode, segments, model, args.seed, snippet_duration=config.snippet_duration
        )
        document = report.to_dict()
        document["config"] = config.to_dict()
        atomic_write_text(out_dir / f"report_{mode.value}.json", json.dumps(document, indent=2) + "\n")
        atomic_write_text(out_dir / f"summary_{mode.value}.csv", summarize(report))
        worst = max(report.ks, key=report.ks.get)
        print(
            f"mode={mode.value} snippets={report.snippet_count} "
            f"max_ks={report.ks[worst]:.4f} ({worst})"
        )
    print(f"reports written to {out_dir}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    for flag, value in (("--minutes", args.minutes), ("--lane-width", args.lane_width)):
        if not 0 < value < math.inf:
            raise ArgumentUsageError(f"{flag} must be positive and finite, got {value}")
    spec = SyntheticSpec(
        n_c=args.n_c,
        dt=args.dt,
        family=args.family,
        stay_probability=args.p,
        kernel=args.kernel,
        tour_seconds=args.minutes * 60.0,
        lane_width=args.lane_width,
        seed=args.seed,
    )
    model = make_model(spec)
    log = simulate_drive_log(model, spec.tour_seconds, spec.lane_width, spec.seed)
    atomic_write_text(args.out, format_drive_log_csv(log))
    print(f"wrote {len(log)} samples ({args.minutes:.1f} min at {model.params.sample_rate:g} Hz) to {args.out}")
    if args.model_out:
        save_model(model, args.model_out)
        print(f"ground-truth model written to {args.model_out}")
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    row = bench_generation(model, args.steps, args.reps)
    duration = args.steps * model.params.dt
    print(f"profile of {args.steps} steps = {duration:.0f} s simulated, best of {args.reps}")
    print(
        f"full={row['full_s'] * 1e3:8.3f} ms  "
        f"coarse={row['coarse_s'] * 1e3:8.3f} ms  noise={row['noise_s'] * 1e3:8.3f} ms  "
        f"offline-noise saving={row['saving_s'] / row['full_s']:5.1%}  "
        f"speedup={row['speedup_vs_realtime']:,.0f}x realtime"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laneweave",
        description="Calibrate, generate, and evaluate in-lane lateral offset profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help=f"JSON config file (or set {CONFIG_ENV})")
        for f in fields(RunConfig):
            p.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name, type=type(f.default))

    p = sub.add_parser("calibrate", help="fit a model from tour CSVs")
    p.add_argument("--input", nargs="+", required=True, metavar="CSV")
    p.add_argument("--out", required=True, help="model JSON destination")
    add_config_options(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("generate", help="write an artificial offset profile CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--x0", type=float, required=True, help="initial relative offset")
    p.add_argument("--duration", type=float, required=True, help="seconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="compare real tours against the model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", nargs="+", required=True, metavar="CSV")
    p.add_argument("--modes", default="shift,coarse,fine,full")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    add_config_options(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="simulate a tour CSV from a ground-truth model")
    p.add_argument("--family", default="banded", choices=("banded", "uniform", "identity"))
    p.add_argument("--p", type=float, default=0.9, help="banded stay probability")
    p.add_argument("--kernel", default="reference", choices=("reference", "zero", "identity"))
    p.add_argument("--minutes", type=float, default=50.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lane-width", dest="lane_width", type=float, default=3.6)
    p.add_argument("--n-c", dest="n_c", type=int, default=ModelParams.n_c)
    p.add_argument("--dt", type=float, default=ModelParams.dt)
    p.add_argument("--out", required=True, help="tour CSV destination")
    p.add_argument("--model-out", dest="model_out", help="also write the ground-truth model")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="time profile generation")
    p.add_argument("--model", required=True)
    p.add_argument("--steps", type=int, default=18000)
    p.add_argument("--reps", type=int, default=5)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ArgumentUsageError, SyntheticSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGUMENT
    except (SchemaError, ModelFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (CalibrationError, EmptySeriesError, EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION
    except LaneweaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
