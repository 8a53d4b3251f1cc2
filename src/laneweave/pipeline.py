"""The file-level pipeline: tour CSVs in, segments, calibrated models and
CSV text out, plus the generation timing bench.

`_fork_map` is the one place the package uses more than one process: it
maps the tours of ingest_segments, and the row ranges of a long profile
in format_profile_csv, over forked children, one per CPU, each handing
its results back in an anonymous memory file. Where memory files
(os.memfd_create) are missing, as off Linux, both run in one process.

Input CSV schema, one file per tour: header t,dist_left,dist_right,v_lon
with an optional trailing lane_id column; t in seconds, distances in
meters, velocity in km/h, rows sorted by t.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from contextlib import ExitStack
from functools import partial
from itertools import repeat
from pathlib import Path
from typing import BinaryIO, NoReturn

import numpy as np

from .core import DriveLog, OffsetSeries, RunConfig
from .errors import ArgumentUsageError, InsufficientDataError, SchemaError
from .generator import TwoLevelModel, coarse_profile, generate_profile, read_input
from .markov import CoarseModel, count_transitions, discretize, transitions_from_counts
from .noise import cap, extract_fine, fit_kernel, generate_noise
from .preprocessing import Segment, extract_segments, resample

CSV_COLUMNS = ("t", "dist_left", "dist_right", "v_lon")
# rows parsed per float() pass; bounds the transient list of cell strings
CSV_CHUNK_ROWS = 1024
# fewest profile rows a share formats: timing the writer alone on a shared
# 2-vCPU Xeon host, two shares took 8192 rows from 20.2 to 17.9 ms, but
# 4096 rows from 10.4 to 11.3 ms, the fork and the hand-back of the text
# costing more than they saved
FORK_MIN_ROWS = 4096


def read_drive_log_csv(path) -> DriveLog:
    """Parse one tour CSV; structural problems raise SchemaError naming
    the offending column and 1-based data row.

    Blank lines are skipped (they still count in row numbers) and an
    empty lane_id cell means unknown (NaN). Every cell goes through
    float(), a chunk of rows at a time; on any failure the rows are
    checked again one by one to report the first error in file order.
    """
    path = Path(path)
    lines = read_input(path, "input").splitlines()
    if not lines:
        raise SchemaError(f"{path}: empty file, expected a header row")
    header = tuple(cell.strip() for cell in lines[0].split(","))
    if header not in (CSV_COLUMNS, CSV_COLUMNS + ("lane_id",)):
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
    lanes = ["" if math.isnan(lane) else repr(lane) for lane in log.lane_id.tolist()]
    columns = (log.t, log.dist_left, log.dist_right, log.v_lon)
    rows = [
        f"{t!r},{left!r},{right!r},{v!r},{lane}\n"
        for t, left, right, v, lane in zip(*(c.tolist() for c in columns), lanes)
    ]
    return ",".join(CSV_COLUMNS + ("lane_id",)) + "\n" + "".join(rows)


def format_profile_csv(series: OffsetSeries) -> str:
    """The profile as t,x CSV text. Rows are formatted in ranges of at
    least FORK_MIN_ROWS, so a profile of twice that or more is formatted
    on every CPU, and the ranges are joined in order."""
    ranges = max(1, len(series) // FORK_MIN_ROWS)
    bounds = [len(series) * k // ranges for k in range(ranges + 1)]
    chunks = _fork_map(partial(_format_rows, series.times(), series.values), zip(bounds, bounds[1:]))
    return "t,x\n" + "".join(chunks)


def _format_rows(times: np.ndarray, values: np.ndarray, rows: tuple[int, int]) -> str:
    start, stop = rows
    pairs = zip(times[start:stop].tolist(), values[start:stop].tolist())
    return "".join([f"{t!r},{x!r}\n" for t, x in pairs])


def ingest_segments(paths, config: RunConfig) -> list[Segment]:
    """Segments of every tour, tour by tour in argument order.

    With several tours and several CPUs, the tours are read in shares,
    the calling process reading the first (see _fork_map). An error is
    the one the serial loop raises: that of the first failing tour in
    argument order.
    """
    per_tour = _fork_map(partial(_ingest_tour, config=config), paths)
    return [segment for segments in per_tour for segment in segments]


def _worker_count(items: int) -> int:
    """Shares _fork_map cuts this many items into: one per CPU in this
    process's affinity mask (so `taskset` limits them), at most one per
    item, and 1 (no fork) without memory files (os.memfd_create) or an
    affinity mask to count, as off Linux."""
    if not (hasattr(os, "memfd_create") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(items, len(os.sched_getaffinity(0)))


def _fork_map(fn, items) -> list:
    """[fn(item) for item in items], computed in _worker_count(len(items))
    contiguous shares: the calling process maps the first, and one
    os.fork() child maps each other share and pickles its results into an
    anonymous memory file, which the calling process reads once every
    child has ended. Raises the exception the serial loop would: the
    first in item order, or ChildProcessError for a child that ended
    without a result. Every child is reaped and every memory file closed
    before this returns or raises. Shares no child could be forked for (no
    memory file or process to be had) are mapped in the calling process,
    after the children's.

    fork copies only the calling thread, so a caller running threads of
    its own should pass a single item.
    """
    items = list(items)
    shares = max(1, _worker_count(len(items)))
    bounds = [len(items) * k // shares for k in range(shares + 1)]
    children = []  # (pid, its memory file), in item order
    with ExitStack() as memory_files:
        try:
            for start, stop in zip(bounds[1:], bounds[2:]):
                try:
                    memory = memory_files.enter_context(open(os.memfd_create("laneweave"), "w+b"))
                    pid = os.fork()
                except OSError:
                    break
                if pid == 0:
                    _map_share_and_exit(fn, items[start:stop], memory)
                children.append((pid, memory))
            results = [fn(item) for item in items[: bounds[1]]]
        finally:
            statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
        for (pid, memory), status in zip(children, statuses):
            memory.seek(0)
            payload = memory.read()
            if status != 0 or not payload:
                raise ChildProcessError(f"forked child {pid} ended without a result (wait status {status})")
            share, error = pickle.loads(payload)
            if error is not None:
                raise error
            results += share
    return results + [fn(item) for item in items[bounds[len(children) + 1] :]]


def _map_share_and_exit(fn, share: list, memory: BinaryIO) -> NoReturn:
    """In a forked child: pickle (results, None) or (None, the first
    exception) into the memory file, then leave by os._exit, so the child
    never returns into the parent's code nor flushes the parent's
    buffers."""
    code = 1
    try:
        try:
            outcome = [fn(item) for item in share], None
        except Exception as exc:
            outcome = None, exc
        pickle.dump(outcome, memory, pickle.HIGHEST_PROTOCOL)
        memory.flush()
        code = 0
    finally:
        os._exit(code)


def _ingest_tour(path, config: RunConfig) -> list[Segment]:
    track = resample(read_drive_log_csv(path), config.sample_rate)
    return extract_segments(
        track, config, jump_threshold=config.jump_threshold, guard_steps=config.guard_steps
    )


def calibrate_from_segments(
    segments: list[Segment], config: RunConfig, metadata: dict | None = None
) -> tuple[TwoLevelModel, dict]:
    """Full calibration: transition estimation plus the spectral fit.

    Returns the model and a summary with segment counts, usable minutes,
    per-row visit totals, the repaired rows, and the spectral fit residual.
    """
    if not segments:
        raise InsufficientDataError("no road-following segments in the input data")
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
        # rows never left in the data: transitions_from_counts gave each
        # a step toward the nearest visited bin
        "repaired_rows": np.flatnonzero(visits == 0).tolist(),
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
    The pair runs full first in even repetitions and coarse first in odd
    ones, so a host slowing down or speeding up within a pair does not
    bias every difference the same way.
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
        times = {}
        for phase in ("full", "coarse") if rep % 2 == 0 else ("coarse", "full"):
            start = time.perf_counter()
            if phase == "full":
                generate_profile(model, 0.0, duration, rep)
            else:
                coarse_profile(model, initial_state, steps, np.random.default_rng(rep))
            times[phase] = time.perf_counter() - start

        start = time.perf_counter()
        generate_noise(model.fine, steps, np.random.default_rng(rep))
        noise = min(noise, time.perf_counter() - start)

        full = min(full, times["full"])
        coarse = min(coarse, times["coarse"])
        paired_diffs.append(times["full"] - times["coarse"])
    return {
        "steps": steps,
        "repetitions": repetitions,
        "full_s": full,
        "coarse_s": coarse,
        "noise_s": noise,
        "saving_s": float(np.median(paired_diffs)),
        "speedup_vs_realtime": duration / full,
    }
