"""The file-level pipeline: tour CSVs in, segments, calibrated models and
CSV text out, plus the generation timing bench.

Input CSV schema, one file per tour: header t,dist_left,dist_right,v_lon
with an optional trailing lane_id column; t in seconds, distances in
meters, velocity in km/h, rows sorted by t.
"""

from __future__ import annotations

import math
import os
import time
from itertools import repeat
from pathlib import Path
from typing import NoReturn

import numpy as np

from .core import DriveLog, OffsetSeries, RunConfig
from .errors import ArgumentUsageError, CalibrationError, SchemaError
from .generator import TwoLevelModel, coarse_profile, generate_profile, read_input
from .markov import CoarseModel, count_transitions, discretize, transitions_from_counts
from .noise import cap, extract_fine, fit_kernel, generate_noise
from .preprocessing import Segment, extract_segments, resample

CSV_COLUMNS = ("t", "dist_left", "dist_right", "v_lon")
# rows parsed per float() pass; bounds the transient list of cell strings
CSV_CHUNK_ROWS = 1024


def read_drive_log_csv(path) -> DriveLog:
    """Parse one tour CSV; structural problems raise SchemaError naming
    the offending column and 1-based data row.

    Blank lines are skipped (they still count in row numbers) and an
    empty lane_id cell means unknown (NaN). Every cell goes through
    float(), a chunk of rows at a time; on any failure the rows are
    checked again one by one to report the first error in file order.
    """
    path = Path(path)
    lines = read_input(path, "input", SchemaError).splitlines()
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
    lanes = ["" if math.isnan(lane) else repr(lane) for lane in log.lane_id.tolist()]
    columns = (log.t, log.dist_left, log.dist_right, log.v_lon)
    rows = [
        f"{t!r},{left!r},{right!r},{v!r},{lane}\n"
        for t, left, right, v, lane in zip(*(c.tolist() for c in columns), lanes)
    ]
    return ",".join(CSV_COLUMNS + ("lane_id",)) + "\n" + "".join(rows)


def format_profile_csv(series: OffsetSeries) -> str:
    rows = [f"{t!r},{x!r}\n" for t, x in zip(series.times().tolist(), series.values.tolist())]
    return "t,x\n" + "".join(rows)


def ingest_segments(paths, config: RunConfig) -> list[Segment]:
    """Segments of every tour, tour by tour in argument order.

    With several tours and several CPUs in this process's affinity mask,
    each tour is read in a forked worker process, up to one per CPU (so
    `taskset` limits them); fork copies only the calling thread, so a
    caller running threads of its own should pass one tour at a time.
    An error is the one the serial loop raises: that of the first
    failing tour in argument order.
    """
    paths = list(paths)
    workers = _worker_count(len(paths))
    if workers < 2:
        per_tour = list(map(_ingest_tour, paths, repeat(config)))
    else:
        # imported here, so that the serial path, and with it every
        # one-tour command, does not load them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # forked, not spawned: a spawned worker imports numpy and the
        # package again, which costs more than reading a tour
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            # map yields in argument order, and once a tour raises it
            # cancels the tours not yet started
            per_tour = list(pool.map(_ingest_tour, paths, repeat(config)))
    return [segment for segments in per_tour for segment in segments]


def _worker_count(tours: int) -> int:
    """Processes ingest_segments reads tours in: 1 (the serial loop)
    without fork or an affinity mask to count."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(tours, len(os.sched_getaffinity(0)))


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
