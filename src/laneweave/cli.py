"""Command-line front end: flags, config resolution, one command body
per subcommand, and the map from error types to exit codes. The work
itself is done by the library, mostly laneweave.pipeline."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .core import ModelParams, RunConfig, check_seed
from .errors import (
    ArgumentUsageError,
    CalibrationError,
    EmptySeriesError,
    EvaluationError,
    LaneweaveError,
    ModelFormatError,
    SchemaError,
    SyntheticSpecError,
)
from .evaluation import evaluate, parse_modes, report_json, summarize, window_steps
from .generator import atomic_write_text, generate_profile, load_model, read_input, save_model
from .pipeline import (
    bench_generation,
    calibrate_from_segments,
    format_drive_log_csv,
    format_profile_csv,
    ingest_segments,
    read_drive_log_csv,  # noqa: F401  perfbench traces the tour reader through this name
)
from .synthetic import KERNEL_FAMILIES, TRANSITION_FAMILIES, SyntheticSpec, make_model, simulate_drive_log

EXIT_OK = 0
EXIT_ARGUMENT = 2
EXIT_SCHEMA = 3
EXIT_CALIBRATION = 4
EXIT_FAILURE = 1
# exit code of each error type; an error takes that of its nearest listed base
EXIT_CODES = {
    ArgumentUsageError: EXIT_ARGUMENT,
    SyntheticSpecError: EXIT_ARGUMENT,
    SchemaError: EXIT_SCHEMA,
    ModelFormatError: EXIT_SCHEMA,
    CalibrationError: EXIT_CALIBRATION,
    EmptySeriesError: EXIT_CALIBRATION,
    EvaluationError: EXIT_CALIBRATION,
    LaneweaveError: EXIT_FAILURE,
}

# The RunConfig fields each command reads, one flag each (a config file may
# hold any key); evaluate takes every other ModelParams field from the model.
EVALUATE_SETTINGS = ("v_min", "snippet_duration", "jump_threshold", "guard_steps")
CALIBRATE_SETTINGS = tuple(f.name for f in fields(RunConfig) if f.name != "snippet_duration")


def resolve_config(args: argparse.Namespace, base: ModelParams | None = None) -> RunConfig:
    """Built-in defaults (or the given model parameters), overlaid by the
    config file, overlaid by flags."""
    settings = asdict(RunConfig())
    if base is not None:
        settings.update(asdict(base))
    names = {f.name for f in fields(RunConfig)}
    config_path = getattr(args, "config", None)
    if config_path:
        document = read_input(config_path, "config", SchemaError, as_json=True)
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
    except (TypeError, ValueError) as exc:
        raise ArgumentUsageError(f"invalid configuration: {exc}") from None


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
    print(f"repaired rows: {len(summary['repaired_rows'])} {summary['repaired_rows']}")
    print(f"effective config: {json.dumps(config.to_dict(), sort_keys=True)}")
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    model = load_model(args.model)
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
        if f.name not in EVALUATE_SETTINGS and getattr(config, f.name) != getattr(model.params, f.name)
    ]
    if mismatched:
        raise ArgumentUsageError(
            f"{', '.join(mismatched)} must match the model; evaluation takes them from it"
        )
    # the snippet window, the modes and the seed are rejected before any tour is read
    window_steps(config.snippet_duration, config.dt)
    modes = parse_modes(args.modes)
    check_seed(args.seed)
    segments = ingest_segments(args.input, config)
    reports = evaluate(modes, segments, model, args.seed, snippet_duration=config.snippet_duration)
    out_dir = Path(args.out)
    for report in reports:
        name = report.mode.value
        atomic_write_text(out_dir / f"report_{name}.json", report_json(report, config))
        atomic_write_text(out_dir / f"summary_{name}.csv", summarize(report))
    for report in reports:
        worst = max(report.ks, key=report.ks.get)
        print(f"mode={report.mode.value} snippets={report.snippet_count} max_ks={report.ks[worst]:.4f} ({worst})")
    print(f"reports written to {out_dir}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    spec = SyntheticSpec(
        n_c=args.n_c,
        dt=args.dt,
        family=args.family,
        stay_probability=args.p,
        kernel=args.kernel,
        seed=args.seed,
    )
    model = make_model(spec)
    log = simulate_drive_log(model, args.minutes * 60.0, args.lane_width, args.seed)
    atomic_write_text(args.out, format_drive_log_csv(log))
    if args.model_out:
        save_model(model, args.model_out)
    print(f"wrote {len(log)} samples ({args.minutes:.1f} min at {model.params.sample_rate:g} Hz) to {args.out}")
    if args.model_out:
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

    def add_config_options(p: argparse.ArgumentParser, settings: tuple[str, ...]) -> None:
        p.add_argument("--config", help="JSON config file of RunConfig keys")
        for name in settings:
            p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=type(getattr(RunConfig, name)))

    p = sub.add_parser("calibrate", help="fit a model from tour CSVs")
    p.add_argument("--input", nargs="+", required=True, metavar="CSV")
    p.add_argument("--out", required=True, help="model JSON destination")
    add_config_options(p, CALIBRATE_SETTINGS)
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
    add_config_options(p, EVALUATE_SETTINGS)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="simulate a tour CSV from a ground-truth model")
    p.add_argument("--family", default="banded", choices=TRANSITION_FAMILIES)
    p.add_argument("--p", type=float, default=0.9, help="banded stay probability")
    p.add_argument("--kernel", default="reference", choices=KERNEL_FAMILIES)
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
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except LaneweaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES)
    except BrokenPipeError:
        # stdout closed early; each command prints only after writing its
        # outputs. Lines still buffered go to the null device, so the
        # flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
