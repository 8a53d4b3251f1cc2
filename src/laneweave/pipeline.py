"""The file-level pipeline: tour CSVs in, segments, calibrated models,
evaluation reports and CSV text out.

`_fork_map`, the one place the package uses more than one process, maps
tours, evaluate's modes and a long profile's row ranges over forked
children, one per CPU (in one process off Linux).

Input CSV schema, one file per tour: header t,dist_left,dist_right,v_lon
with an optional trailing lane_id column; t in seconds, distances in
meters, velocity in km/h, rows sorted by t.
"""

from __future__ import annotations

import math
import os
import pickle
from contextlib import ExitStack
from functools import partial
from itertools import chain
from pathlib import Path
from typing import BinaryIO, NoReturn

import numpy as np

from .core import MAX_MAGNITUDE, MAX_SAMPLES, DriveLog, OffsetSeries, RunConfig
from .errors import InsufficientDataError, SchemaError
from .evaluation import EvalMode, check_modes, report_builder, report_json, summarize
from .generator import TwoLevelModel, atomic_write_text, input_errors
from .markov import CoarseModel, count_transitions, discretize, transitions_from_counts
from .noise import cap, extract_fine, fit_windows, window_magnitudes
from .preprocessing import Segment, extract_segments, resample

CSV_COLUMNS = ("t", "dist_left", "dist_right", "v_lon")
# characters of tour text read and parsed at a time, which bounds the
# transient lines and cell strings; at twice this, reading a 50-minute
# tour peaked at 1.7 MiB, not 1.1 MiB, and was no faster
CSV_BLOCK_CHARS = 1 << 15
# Longest tour line, so that no line is held whole before it is refused;
# a row of five float reprs takes at most about 120 characters.
MAX_LINE_CHARS = 4096
# fewest profile rows a share formats: below it the fork and the hand-back
# cost more than the split saves
FORK_MIN_ROWS = 4096


def read_drive_log_csv(path) -> DriveLog:
    """Parse one tour CSV; structural problems raise SchemaError naming
    the offending column and 1-based data row. Blank lines are skipped
    (they still count in row numbers); an empty lane_id cell is NaN.

    The file is read once, in blocks (see _tour_lines), so that beyond the
    parsed columns one block's text, lines and cells are held. Each
    column grows in a bytearray, which the returned log views. A block
    that fails any check is checked again row by row (see
    _raise_first_error); the blocks before it passed, so its first error
    is the first in file order.
    """
    path = Path(path)
    blocks = _tour_lines(path)
    first = next(blocks, None)
    if first is None:
        raise SchemaError(f"{path}: empty file, expected a header row")
    if len(first[0]) > MAX_LINE_CHARS:
        raise SchemaError(f"{path}: header is longer than {MAX_LINE_CHARS} characters", row=0)
    header = tuple(cell.strip() for cell in first[0].split(","))
    if header not in (CSV_COLUMNS, CSV_COLUMNS + ("lane_id",)):
        raise SchemaError(
            f"{path}: header must be {','.join(CSV_COLUMNS)}[,lane_id], got {','.join(header)}"
        )
    width = len(header)
    has_lane = width == len(CSV_COLUMNS) + 1

    columns = [bytearray() for _ in header]
    last_t = -math.inf
    row = 0  # of the last line of the blocks accepted
    for lines in chain([first[1:]], blocks):
        if row + len(lines) > MAX_SAMPLES or max(map(len, lines), default=0) > MAX_LINE_CHARS:
            _raise_first_error(path, header, lines, row, last_t)
        rows = list(filter(str.strip, lines))
        if rows:
            # each row, not only the total, must have width cells, or a short
            # row and a long one would shift the cells between them: a line
            # holds no "\n", so the n - 1 joins fall on multiples of width only then
            cells = ",\n".join(rows).split(",")
            row_starts = "".join(cells[width::width]).count("\n")
            aligned = len(cells) == width * len(rows) and row_starts == len(rows) - 1
            column_cells = [cells[k::width] for k in range(width)]
            if has_lane:
                column_cells[-1] = [c if c.strip() else "nan" for c in column_cells[-1]]
            try:
                values = [np.fromiter(map(float, c), np.float64, len(rows)) for c in column_cells]
            except ValueError:
                _raise_first_error(path, header, lines, row, last_t)
            t = values[0]
            # the magnitude bound (which NaN fails) goes first, so that no
            # step between timestamps, nor the span resample sizes its grid
            # from, overflows
            if not (aligned and (np.abs(t) <= MAX_MAGNITUDE).all() and t[0] > last_t and (t[1:] > t[:-1]).all()):
                _raise_first_error(path, header, lines, row, last_t)
            last_t = t[-1]
            for column, column_values in zip(columns, values):
                column += column_values.tobytes()
        row += len(lines)

    # the header's columns are DriveLog's fields, in order
    return DriveLog(*map(np.frombuffer, columns), tour_id=path.stem)


def _tour_lines(path: Path):
    """The lines of a tour file in order, header first, in non-empty lists,
    about one per CSV_BLOCK_CHARS characters read: the pieces
    str.splitlines() cuts its UTF-8, universal-newline text into, less a
    leading byte-order mark, but a line is cut once past MAX_LINE_CHARS,
    so none is held whole past the bound. A missing, unreadable or
    non-UTF-8 file raises SchemaError as generator.read_input does (a
    codec byte position counts from the start of the buffer decoded)."""
    with input_errors(path, "input"), open(path, encoding="utf-8") as file:
        # the line carried into the next block starts as the first
        # character, unless that is a byte-order mark
        tail = file.read(1).removeprefix("\ufeff")
        while True:
            block = file.read(CSV_BLOCK_CHARS)
            lines = (tail + block).splitlines()
            # a block that ends inside a line (a line break splits to [""])
            # leaves that line's start for the next, unless it is already
            # too long; at the end of the file it is the last line
            inside = block and block[-1].splitlines()[0]
            tail = lines.pop() if inside and len(lines[-1]) <= MAX_LINE_CHARS else ""
            if lines:
                yield lines
            if not block:
                return


def _raise_first_error(path: Path, header: tuple, lines: list, row: int, previous_t: float) -> NoReturn:
    """Check a block's lines one by one, numbered from row + 1 and after
    the last accepted timestamp previous_t (-inf before the first row),
    raising the first SchemaError among them: a row number past
    MAX_SAMPLES or a line past MAX_LINE_CHARS (blank lines count), then
    field count, each cell, and the timestamp. Should every line pass,
    the block's checks and these disagree, and AssertionError says so."""
    for row_number, line in enumerate(lines, start=row + 1):
        def error(problem: str, column: str | None = None) -> SchemaError:
            return SchemaError(f"{path}: row {row_number}{problem}", column=column, row=row_number)

        if row_number > MAX_SAMPLES:
            raise error(f" is past the {MAX_SAMPLES} rows a tour may hold")
        if len(line) > MAX_LINE_CHARS:
            raise error(f" is longer than {MAX_LINE_CHARS} characters")
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise error(f" has {len(cells)} fields, expected {len(header)}")
        for name, cell in zip(header, cells):
            cell = cell.strip()
            if name == "lane_id" and cell == "":
                continue
            try:
                value = float(cell)
            except ValueError:
                raise error(f", column {name!r}: cannot parse {cell!r}", name) from None
            if name == "t":
                t = value
        if not math.isfinite(t):
            raise error(f": timestamp {t!r} is not finite", "t")
        if abs(t) > MAX_MAGNITUDE:
            raise error(f", column 't': timestamp {t!r} has magnitude above {MAX_MAGNITUDE:g}", "t")
        if t <= previous_t:
            raise error(": timestamps must be strictly increasing", "t")
        previous_t = t
    raise AssertionError(f"{path}: rows {row + 1}-{row + len(lines)} fail a block check but no row check")


def format_drive_log_csv(log: DriveLog) -> str:
    lanes = ["" if math.isnan(lane) else repr(lane) for lane in log.lane_id.tolist()]
    columns = (log.t, log.dist_left, log.dist_right, log.v_lon)
    rows = [
        f"{t!r},{left!r},{right!r},{v!r},{lane}\n"
        for t, left, right, v, lane in zip(*(c.tolist() for c in columns), lanes)
    ]
    return ",".join(CSV_COLUMNS + ("lane_id",)) + "\n" + "".join(rows)


def format_profile_csv(series: OffsetSeries) -> str:
    """The profile as t,x CSV text, formatted in _fork_map's shares, in
    row ranges of at least FORK_MIN_ROWS joined in order."""
    ranges = max(1, len(series) // FORK_MIN_ROWS)
    bounds = [len(series) * k // ranges for k in range(ranges + 1)]
    chunks = _fork_map(partial(_format_rows, series.times(), series.values), zip(bounds, bounds[1:]))
    return "t,x\n" + "".join(chunks)


def _format_rows(times: np.ndarray, values: np.ndarray, rows: tuple[int, int]) -> str:
    start, stop = rows
    pairs = zip(times[start:stop].tolist(), values[start:stop].tolist())
    return "".join([f"{t!r},{x!r}\n" for t, x in pairs])


def ingest_segments(paths, config: RunConfig) -> list[Segment]:
    """Segments of every tour, tour by tour in argument order, read in
    _fork_map's shares. An error is that of the first failing tour in
    argument order, as in the serial loop."""
    per_tour = _fork_map(partial(_ingest_tour, config=config), paths)
    return [segment for segments in per_tour for segment in segments]


def calibrate_tours(paths, config: RunConfig, metadata: dict) -> tuple[TwoLevelModel, dict]:
    """calibrate_from_statistics on the tours, each reduced to its
    tour_statistics in the _fork_map share that reads it; an error is
    that of the first failing tour, as in ingest_segments."""
    records = _fork_map(lambda path: tour_statistics(_ingest_tour(path, config), config), paths)
    return calibrate_from_statistics(records, config, metadata)


def evaluate_tours(paths, modes, model: TwoLevelModel, config: RunConfig, rng_seed, out_dir) -> list[str]:
    """evaluate on the tours' segments from one report_builder, made
    before any fork; each _fork_map share writes its modes' report files
    under out_dir and returns their console lines. An error is the first
    mode's to fail, but another share may have written."""
    check_modes(modes)
    build = report_builder(ingest_segments(paths, config), model, rng_seed, snippet_duration=config.snippet_duration)
    out_dir = Path(out_dir)

    def write(mode: EvalMode) -> str:
        report = build(mode)
        atomic_write_text(out_dir / f"report_{mode.value}.json", report_json(report, config))
        atomic_write_text(out_dir / f"summary_{mode.value}.csv", summarize(report))
        worst = max(report.ks, key=report.ks.get)
        return f"mode={mode.value} snippets={report.snippet_count} max_ks={report.ks[worst]:.4f} ({worst})"

    return _fork_map(write, modes)


def _worker_count(items: int) -> int:
    """Shares _fork_map cuts this many items into: one per CPU in the
    affinity mask (so `taskset` limits them), at most one per item, and 1
    without os.memfd_create or an affinity mask, as off Linux."""
    if not (hasattr(os, "memfd_create") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(items, len(os.sched_getaffinity(0)))


def _fork_map(fn, items) -> list:
    """[fn(item) for item in items], in _worker_count(len(items))
    contiguous shares: the calling process maps the first, and an
    os.fork() child each other, pickling its results (for evaluate_tours,
    a mode's console line) into a memory file read once every child has
    ended. Raises what the serial loop would: the first exception in item
    order, or ChildProcessError for a child that ended without a result.
    Every child is reaped and every memory file closed before this returns
    or raises. Shares no child could be forked for (no memory file or
    process to be had) are mapped in the calling process, after the
    children's.

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
    return extract_segments(track, config, jump_threshold=config.jump_threshold, guard_steps=config.guard_steps)


def tour_statistics(segments: list[Segment], config: RunConfig) -> tuple:
    """What calibration keeps of a tour's segments: the transition counts
    (n_c x n_c), each spectral window's |rfft| in window order, the step
    total (the capped residual has as many samples) and the segment count."""
    params = config.model_params()
    counts = count_transitions((discretize(seg.series.values, params.n_c) for seg in segments), params.n_c)
    capped = [cap(extract_fine(seg.series, params), params.cap_threshold).values for seg in segments]
    return counts, window_magnitudes(capped, config.window_length), sum(map(len, segments)), len(segments)


def calibrate_from_segments(
    segments: list[Segment], config: RunConfig, metadata: dict | None = None
) -> tuple[TwoLevelModel, dict]:
    """calibrate_from_statistics on the segments, taken as one tour."""
    return calibrate_from_statistics([tour_statistics(segments, config)], config, metadata)


def calibrate_from_statistics(
    records: list, config: RunConfig, metadata: dict | None = None
) -> tuple[TwoLevelModel, dict]:
    """Transition estimation plus the spectral fit on one or more
    tour_statistics records, folded in order. Returns the model and a
    summary: segment count, usable minutes, row visits, repaired rows and
    fit diagnostics."""
    per_tour_counts, windows, steps, segments = zip(*records)
    if not sum(segments):
        raise InsufficientDataError("no road-following segments in the input data")
    params = config.model_params()
    counts = sum(per_tour_counts)
    coarse = CoarseModel.from_params(params, transitions_from_counts(counts))
    fine, fit = fit_windows(windows, sum(steps), sum(segments), params, config.knot_count, config.window_length)
    visits = counts.sum(axis=1)
    model = TwoLevelModel(params=params, coarse=coarse, fine=fine, metadata=dict(metadata or {}))
    summary = {
        "segment_count": sum(segments),
        "usable_minutes": sum(steps) * params.dt / 60.0,
        "row_visits": visits.tolist(),
        # rows never left in the data: transitions_from_counts gave each
        # a step toward the nearest visited bin
        "repaired_rows": np.flatnonzero(visits == 0).tolist(),
        "spectral_windows": fit.window_count,
        "fit_residual": fit.residual,
        "knot_values": fit.knot_values.tolist(),
    }
    return model, summary
