#!/usr/bin/env python3
"""laneweave benchmark: three user-facing CLI commands in a closed loop.

    python3 perfbench/run.py --workload generate_hour --seed 1 --seconds 35 --trace 0

Run from the repository root; the program is imported from ./src (it
needs numpy only). Each run prepares its inputs from --seed, then
measures one workload for --seconds in several fresh interpreters, one
after another, with BLAS threads pinned to 1; each interpreter's set-up
is one set-up sample. The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
from a traced replay of each op (spans go to .perfbench-out/).
`--write-golden` re-records perfbench/golden.json, the output digests
checked at the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import DEFAULT_SEED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORK_ROOT = ROOT / ".perfbench-work"
TRACE_ROOT = ROOT / ".perfbench-out"

WORKLOADS = ("generate_hour", "calibrate_tours", "evaluate_tour")
# Fresh interpreters per run. Each one is set up (a set-up sample) and
# then measures its share of --seconds, so the set-up samples are spread
# over the whole run instead of bunched before it.
CHUNKS = 5
TIME_LIMIT_S = 170.0  # a run must end within 180 s
TAIL_SAMPLES = 10

# Thread pools of BLAS/OpenMP builds numpy may link against.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

# Each workload's throughput in its own unit, as a factor applied to
# data_s_per_s (seconds of lane-offset data per second).
THROUGHPUT_NAMES = {
    "generate_hour": ("sim_s_per_s", 1.0),
    "calibrate_tours": ("tour_min_per_s", 1.0 / 60.0),
    "evaluate_tour": ("snippets_per_s", 1.0 / 10.0),
}

# On a shared host the speed of the same code drifts by up to 1.5x over
# seconds to tens of minutes, so every statistic of raw op times moves
# with the host rather than with the program. The bounded latency is the
# median op time in units of the reference kernel timed around each op
# (reference.py); the raw statistics are printed, unbounded.
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ref": "x",
    "peak_rss_mb": "MB",
}
UNBOUNDED_UNITS = {
    "op_p10_s": "s",
    "op_p50_s": "s",
    "op_mean_s": "s",
    "op_tail_s": "s",
    "data_s_per_s": "s/s",
    "reference_p50_s": "s",
}

LAYER_TIMES = (
    "cli.read_drive_log_csv",
    "cli.format_profile_csv",
    "generator.atomic_write_text",
    "generator.load_model",
    "generator.generate_profile",
    "markov.sample_chain",
    "markov.smooth_values",
    "noise.generate_noise",
    "preprocessing.resample",
    "preprocessing.extract_segments",
    "markov.discretize",
    "markov.count_transitions",
    "markov.transitions_from_counts",
    "noise.extract_fine",
    "noise.cap",
    "noise.fit_kernel",
    "generator.save_model",
    "evaluation.run_mode.shift",
    "evaluation.run_mode.coarse",
    "evaluation.run_mode.fine",
    "evaluation.run_mode.full",
    "evaluation.compute_metrics",
    "evaluation.ks_distance",
    "evaluation.summarize",
    "cli.report_json",
)
LAYER_COUNTS = (
    ("cli.read_drive_log_csv.rows", "count/op"),
    ("cli.format_profile_csv.rows", "count/op"),
    ("generator.atomic_write_text.bytes", "B/op"),
    ("markov.sample_chain.calls", "count/op"),
    ("markov.sample_chain.steps", "count/op"),
    ("noise.generate_noise.samples", "count/op"),
    ("preprocessing.resample.grid_points", "count/op"),
    ("preprocessing.extract_segments.segments", "count/op"),
    ("markov.transitions_from_counts.identity_rows", "count/op"),
    ("noise.fit_kernel.spectral_windows", "count/op"),
    ("evaluation.compute_metrics.calls", "count/op"),
)
PER_LAYER_UNITS = {
    **{f"{layer}.s": "s/op" for layer in LAYER_TIMES},
    **dict(LAYER_COUNTS),
    "markov.sample_chain.ns_per_step": "ns",
    "preprocessing.extract_segments.kept_frac": "ratio",
    "setup.import_s": "s",
    "trace.op_p50_s": "s",
    "trace.untraced_op_p50_s": "s",
    "trace.overhead_s": "s",
    "trace.op_mean_s": "s",
    "trace.untraced_op_mean_s": "s",
    "trace.unattributed_s": "s/op",
}


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("LANEWEAVE_CONFIG", None)  # the program must see only its flags
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_worker(command: str, deadline: float, **options) -> tuple[list[dict], float | None]:
    """Run one worker command in a fresh interpreter. Returns its JSON
    lines and the seconds from spawn to its ready line, if it printed one."""
    argv = [sys.executable, str(WORKER), command]
    for key, value in options.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError(f"time limit reached before `{command}`")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    killer = threading.Timer(remaining, proc.kill)
    killer.start()
    try:
        lines, ready_s = [], None
        for line in proc.stdout:
            document = json.loads(line)
            if document.get("ready") and ready_s is None:
                ready_s = time.perf_counter() - start
            lines.append(document)
        code = proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if code != 0:
        raise BenchmarkError(f"worker `{command}` exited with code {code}")
    return lines, ready_s


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_SAMPLES samples beyond
    it: (value, percentile, sample count). With too few samples, the max."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return ordered[-1], 100.0, n
    return ordered[n - 1 - TAIL_SAMPLES], 100.0 * (n - TAIL_SAMPLES) / n, n


def percentile(times: list[float], pct: int) -> float:
    """The op time that pct percent of the ops took at most."""
    ordered = sorted(times)
    return ordered[max(0, -(-len(ordered) * pct // 100) - 1)]


def end_to_end(result: dict, setup_samples: list[float]) -> tuple[dict, dict, dict]:
    times = result["op_times"]
    tail_s, tail_pct, n = tail(times)
    values = {
        "setup_s": statistics.median(setup_samples),
        "op_p50_ref": statistics.median(result["op_ref_ratios"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    unbounded = {
        "op_p10_s": percentile(times, 10),
        "op_p50_s": statistics.median(times),
        "op_mean_s": statistics.fmean(times),
        "op_tail_s": tail_s,
        "data_s_per_s": result["data_seconds_per_op"] * n / sum(times),
        "reference_p50_s": statistics.median(result["reference_times"]),
    }
    notes = {
        "op_tail_percentile": tail_pct,
        "op_samples": n,
        "setup_samples": setup_samples,
    }
    return values, unbounded, notes


def merge(chunks: list[dict]) -> dict:
    """One result from the measuring interpreters of a run."""
    result = {
        "attempted": sum(c["attempted"] for c in chunks),
        "failed": sum(c["failed"] for c in chunks),
        "errors": [e for c in chunks for e in c["errors"]][:5],
        "op_times": [t for c in chunks for t in c["op_times"]],
        "reference_times": [t for c in chunks for t in c["reference_times"]],
        # each op over the mean of the reference runs just before and after it
        "op_ref_ratios": [
            op / ((before + after) / 2)
            for c in chunks
            for op, before, after in zip(c["op_times"], c["reference_times"], c["reference_times"][1:])
        ],
        "data_seconds_per_op": chunks[0]["data_seconds_per_op"],
        "peak_rss_mb": max(c["peak_rss_mb"] for c in chunks),
        "setup": [c["setup"] for c in chunks],
        "environment": chunks[0]["environment"],
    }
    if "trace" in chunks[0]:
        self_s, counts = {}, {}
        for c in chunks:
            for total, part in ((self_s, c["trace"]["self_s"]), (counts, c["trace"]["counts"])):
                for name, value in part.items():
                    total[name] = total.get(name, 0.0) + value
        result["trace"] = {
            "op_times": [t for c in chunks for t in c["trace"]["op_times"]],
            "self_s": self_s,
            "counts": counts,
            "paths": [c["trace"]["path"] for c in chunks],
        }
    return result


def per_layer(result: dict, import_samples: list[float]) -> dict:
    trace = result["trace"]
    traced = trace["op_times"]
    ops = len(traced)
    self_s, counts = trace["self_s"], trace["counts"]
    values = {f"{layer}.s": self_s.get(layer, 0.0) / ops for layer in LAYER_TIMES}
    values.update({name: counts.get(name, 0.0) / ops for name, _ in LAYER_COUNTS})
    steps = counts.get("markov.sample_chain.steps", 0.0)
    values["markov.sample_chain.ns_per_step"] = (
        self_s.get("markov.sample_chain", 0.0) / steps * 1e9 if steps else 0.0
    )
    grid = counts.get("preprocessing.resample.grid_points", 0.0)
    values["preprocessing.extract_segments.kept_frac"] = (
        counts.get("preprocessing.extract_segments.kept_samples", 0.0) / grid if grid else 0.0
    )
    untraced_p50 = statistics.median(result["op_times"])
    values.update({
        "setup.import_s": statistics.median(import_samples),
        "trace.op_p50_s": statistics.median(traced),
        "trace.untraced_op_p50_s": untraced_p50,
        "trace.overhead_s": statistics.median(traced) - untraced_p50,
        "trace.op_mean_s": statistics.fmean(traced),
        "trace.untraced_op_mean_s": statistics.fmean(result["op_times"]),
        "trace.unattributed_s": self_s.get("op", 0.0) / ops,  # the root span's self time
    })
    return values


def print_table(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:<46} {value:>16.6g} {units[name]}")


def print_accounting(values: dict) -> None:
    """Each layer's self time as a share of the traced mean op."""
    mean = values["trace.op_mean_s"]
    rows = sorted(((values[f"{layer}.s"], layer) for layer in LAYER_TIMES), reverse=True)
    rows = [row for row in rows if row[0] > 0] + [(values["trace.unattributed_s"], "unattributed")]
    print(f"traced mean op {mean:.6g} s (untraced mean {values['trace.untraced_op_mean_s']:.6g} s):")
    for seconds, layer in rows:
        print(f"  {layer:<46} {seconds:>12.6g} s {seconds / mean:>7.1%}")


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    common = {"workload": workload, "seed": seed, "dir": work}
    chunks, setup_samples = [], []
    try:
        (sizes,), _ = run_worker("prepare", deadline, **common)
        first_op = 1
        for k in range(CHUNKS):
            trace_path = TRACE_ROOT / f"trace_{workload}_seed{seed}_{k}.json"
            (_, chunk), ready_s = run_worker(
                "measure", deadline, **common, seconds=seconds / CHUNKS, first_op=first_op,
                trace=int(traced), trace_path=trace_path,
            )
            chunks.append(chunk)
            setup_samples.append(ready_s)
            first_op += len(chunk["op_times"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    result = merge(chunks)
    e2e, unbounded, notes = end_to_end(result, setup_samples)
    throughput_name, factor = THROUGHPUT_NAMES[workload]
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "closed_loop": "1 caller, 1 thread",
        "error_rate": result["failed"] / result["attempted"],
        throughput_name: unbounded["data_s_per_s"] * factor,
        **unbounded,
        **notes,
        "setup_parts": result["setup"],
        "input_sizes": sizes,
        "errors": result["errors"],
        "environment": result["environment"],
    }
    print_table(f"{workload} seed={seed} end-to-end", e2e, END_TO_END_UNITS)
    print_table(f"{workload} seed={seed} end-to-end, unbounded", unbounded, UNBOUNDED_UNITS)
    if traced:
        metrics = per_layer(result, [s["import_s"] for s in result["setup"]])
        print_table(f"{workload} seed={seed} per-layer (mean per traced op)", metrics, PER_LAYER_UNITS)
        print_accounting(metrics)
        details["trace_paths"] = result["trace"]["paths"]
        details["traced_ops"] = len(result["trace"]["op_times"])
        units = PER_LAYER_UNITS
    else:
        metrics, units = e2e, END_TO_END_UNITS
    print("details " + json.dumps(details))
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def write_golden() -> None:
    deadline = time.monotonic() + 10 * TIME_LIMIT_S
    golden = {}
    for workload in WORKLOADS:
        work = WORK_ROOT / f"golden-{workload}-{os.getpid()}"
        common = {"workload": workload, "seed": DEFAULT_SEED, "dir": work}
        try:
            run_worker("prepare", deadline, **common)
            (_, golden[workload]), _ = run_worker("golden", deadline, **common)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "laneweave" / "cli.py").is_file():
        print(f"error: no laneweave sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.write_golden:
        write_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
