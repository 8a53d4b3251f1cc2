"""Child process of run.py; each invocation is a fresh interpreter.

    worker.py prepare --workload W --seed S --dir D   write inputs, print sizes
    worker.py measure ... --seconds T --first-op N --trace 0|1
                                                      set up, then the timed loop
    worker.py golden  ...                             set up, then digests of ops 0 and 1

Every command prints one JSON object per line on stdout. `measure` and
`golden` print the ready line once the warm-up op has returned; run.py
times set-up up to that line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
DEFAULT_SEED = 0
GOLDEN_OPS = (0, 1)


def _emit(document: dict) -> None:
    print(json.dumps(document), flush=True)


def run_op(wl, i: int) -> tuple[float, str | None]:
    """Run op i through the CLI, then check its outputs. Returns the op's
    wall time and the reason it failed, or None."""
    from workloads import CheckFailed, run_cli

    start = time.perf_counter()
    try:
        code = run_cli(wl.argv(i))
    except Exception:  # a traceback escaping main() is a failed op
        traceback.print_exc()
        code = None
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, f"op {i}: exit code {code}"
    try:
        wl.check(i)
    except (CheckFailed, OSError, ValueError, KeyError) as exc:
        return elapsed, f"op {i}: {exc}"
    return elapsed, None


def golden_error(wl, i: int) -> str | None:
    """At the default seed, ops 0 and 1 must reproduce the recorded bytes."""
    from workloads import digest

    if wl.seed != DEFAULT_SEED or i not in GOLDEN_OPS:
        return None
    expected = json.loads(GOLDEN_PATH.read_text()).get(wl.name, {})
    if str(i) not in expected:
        return f"op {i}: no recorded digests for {wl.name}"
    if wl.digests(wl.out) != expected[str(i)]:
        return f"op {i}: output bytes differ from the recorded ones"
    if wl.uses_model and expected.get("model") != digest(wl.model_path):
        return "pinned model bytes differ from the recorded ones"
    return None


def environment() -> dict:
    import numpy

    try:
        from laneweave._kernels import active_backend

        backend = active_backend()
    except ImportError:
        backend = "numpy"
    blas = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                           "MKL_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": backend,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": blas,
    }


def set_up(workload: str, work: Path, seed: int):
    """Import, model load and one warm-up op, each timed. Nothing at this
    module's top level imports numpy or laneweave, so the import is timed here."""
    start = time.perf_counter()
    from workloads import WORKLOADS

    import_s = time.perf_counter() - start
    wl = WORKLOADS[workload](work, seed)
    load_model_s = 0.0
    if wl.uses_model:
        from laneweave.generator import load_model

        start = time.perf_counter()
        load_model(wl.model_path)
        load_model_s = time.perf_counter() - start
    warmup_s, error = run_op(wl, 0)
    setup = {"import_s": import_s, "load_model_s": load_model_s, "warmup_op_s": warmup_s}
    _emit({"ready": True, **setup})
    return wl, setup, error


def measure(wl, seconds: float, first_op: int, traced: bool, trace_path: Path) -> dict:
    """Closed loop, one caller: op i+1 starts after op i and its checks
    have returned; the first op is `first_op`. The reference kernel runs
    before every op and after the last one. With tracing, each op runs
    untraced through the CLI and then as a traced replay (order
    alternating), and the replay must write the same bytes."""
    from reference import reference_s
    from tracing import Tracer

    tracer = Tracer()
    times, reference_times, errors = [], [], []
    attempted = 0
    deadline = time.perf_counter() + seconds
    i = first_op
    while i == first_op or time.perf_counter() < deadline:
        replay_first = traced and i % 2 == 0
        error = _replay(wl, i, tracer) if replay_first else None
        reference_times.append(reference_s())
        elapsed, op_error = run_op(wl, i)
        attempted += 1
        times.append(elapsed)
        error = error or op_error or golden_error(wl, i)
        if traced and error is None and not replay_first:
            error = _replay(wl, i, tracer)
        if traced and error is None and wl.digests(wl.replay_out) != wl.digests(wl.out):
            error = f"op {i}: traced replay wrote different bytes"
        if error:
            errors.append(error)
        i += 1
    reference_times.append(reference_s())
    result = {
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:5],
        "op_times": times,
        "reference_times": reference_times,
        "data_seconds_per_op": wl.data_seconds(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        tracer.write(trace_path)
        result["trace"] = {
            "op_times": tracer.op_times(),
            "self_s": tracer.self_times(),
            "counts": dict(tracer.counts),
            "path": str(trace_path),
        }
    return result


def _replay(wl, i: int, tracer) -> str | None:
    try:
        with tracer.op(i):
            wl.replay(i, tracer)
    except Exception:  # report, keep the loop going
        traceback.print_exc()
        return f"op {i}: traced replay raised"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("command", choices=("prepare", "measure", "golden"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--first-op", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-path", type=Path)
    args = parser.parse_args(argv)

    if args.command == "prepare":
        from workloads import WORKLOADS

        _emit(WORKLOADS[args.workload](args.dir, args.seed).prepare())
        return 0

    wl, setup, warmup_error = set_up(args.workload, args.dir, args.seed)
    if args.command == "golden":
        from workloads import digest

        record = {"model": digest(wl.model_path)} if wl.uses_model else {}
        for i in GOLDEN_OPS:
            if i:
                _, error = run_op(wl, i)
                if error:
                    raise SystemExit(error)
            record[str(i)] = wl.digests(wl.out)
        _emit(record)
        return 0 if warmup_error is None else 1

    warmup_error = warmup_error or golden_error(wl, 0)
    result = measure(wl, args.seconds, args.first_op, bool(args.trace), args.trace_path)
    if warmup_error:
        result["errors"].insert(0, warmup_error)
    result["attempted"] += 1
    result["failed"] += warmup_error is not None
    result["setup"] = setup
    result["sizes"] = wl.sizes
    result["environment"] = environment()
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
