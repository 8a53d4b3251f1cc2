"""Brute-force reference implementations, deliberately sharing no logic
with the package (only its data and error types): plain Python loops,
fsum, manual order statistics, one numpy binary search per chain step,
a cell-by-cell CSV reader, and the one-column population summary; and
the former forms of a few checks and counts, kept to compare against:
the per-row comma count, the timestamp check through np.diff, and one
np.add.at per segment of transitions."""

import math
from pathlib import Path

import numpy as np

from laneweave import pipeline
from laneweave.core import MAX_MAGNITUDE, DriveLog
from laneweave.errors import SchemaError
from laneweave.evaluation import QUANTILE_LADDER

CSV_COLUMNS = ("t", "dist_left", "dist_right", "v_lon")


def brute_force_quantile(values, q):
    xs = sorted(float(v) for v in values)
    n = len(xs)
    h = (n - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, n - 1)
    g = h - lo
    return xs[lo] * (1.0 - g) + xs[hi] * g


def brute_force_metrics(values):
    xs = [float(v) for v in values]
    n = len(xs)
    mean = math.fsum(xs) / n
    var = math.fsum((v - mean) ** 2 for v in xs) / n
    diffs = [b - a for a, b in zip(xs, xs[1:])]
    dmean = math.fsum(diffs) / len(diffs)
    dvar = math.fsum((d - dmean) ** 2 for d in diffs) / len(diffs)
    return {
        "x_max": max(xs),
        "x_min": min(xs),
        "mean": mean,
        "std": math.sqrt(var),
        "median": brute_force_quantile(xs, 0.5),
        "q25": brute_force_quantile(xs, 0.25),
        "q75": brute_force_quantile(xs, 0.75),
        "range": max(xs) - min(xs),
        "mean_diff_10": dmean * 10.0,
        "std_diff_10": math.sqrt(dvar) * 10.0,
    }


def population_summary(values):
    """Count, min, mean, max and the quantile ladder of one metric column,
    reduced on its own."""
    out = {
        "count": int(values.size),
        "min": float(values.min()),
        "mean": float(values.mean()),
        "max": float(values.max()),
    }
    for level, q in zip(QUANTILE_LADDER, np.quantile(values, QUANTILE_LADDER)):
        out[f"q{int(round(level * 100)):02d}"] = float(q)
    return out


def brute_force_smooth(values, taps):
    """Renormalized truncated convolution by explicit loops."""
    n = len(values)
    half = len(taps) // 2
    out = []
    for i in range(n):
        acc = 0.0
        weight = 0.0
        for m, tap in enumerate(taps):
            j = i + (m - half)
            if 0 <= j < n:
                acc += tap * values[j]
                weight += tap
        out.append(acc / weight)
    return out


def brute_force_ks(sample_a, sample_b):
    """sup |F_a - F_b| over the pooled points, by counting."""
    a = sorted(float(v) for v in sample_a)
    b = sorted(float(v) for v in sample_b)
    best = 0.0
    for point in a + b:
        fa = sum(1 for v in a if v <= point) / len(a)
        fb = sum(1 for v in b if v <= point) / len(b)
        best = max(best, abs(fa - fb))
    return best


def brute_force_chain_path(cum_rows, initial_state, uniforms):
    """Sequential chain walk: per step, np.searchsorted (side="right") on
    the current state's cumulative row, clamped to the last state."""
    cum_rows = np.asarray(cum_rows, dtype=np.float64)
    n_c = cum_rows.shape[0]
    out = np.empty(len(uniforms) + 1, dtype=np.int64)
    out[0] = state = initial_state
    for i, u in enumerate(uniforms):
        state = min(int(np.searchsorted(cum_rows[state], u, side="right")), n_c - 1)
        out[i + 1] = state
    return out


def rows_have_width(chunk, width):
    """True when every line of the chunk has width - 1 commas, counted
    row by row."""
    return [line.count(",") for line in chunk].count(width - 1) == len(chunk)


def timestamps_increase(t):
    """The timestamp check DriveLog made through the steps of np.diff."""
    with np.errstate(invalid="ignore", over="ignore"):
        return bool(np.all(np.diff(t) > 0))


def add_at_transitions(state_segments, n_c):
    """a->b step counts, one np.add.at per segment of two or more states."""
    counts = np.zeros((n_c, n_c), dtype=np.int64)
    for seg in state_segments:
        seg = np.asarray(seg, dtype=np.int64)
        if seg.size < 2:
            continue
        if np.any((seg < 0) | (seg >= n_c)):
            raise ValueError("state index out of range")
        np.add.at(counts, (seg[:-1], seg[1:]), 1)
    return counts


def _check_line_bounds(path, row_number, line):
    """The tour reader's bounds on one line (row 0 is the header), read
    from the pipeline module when called, so that a test patching them
    patches both readers."""
    if row_number > pipeline.MAX_TOUR_ROWS:
        raise SchemaError(
            f"{path}: row {row_number} is past the {pipeline.MAX_TOUR_ROWS} rows a tour may hold",
            row=row_number,
        )
    if len(line) > pipeline.MAX_LINE_CHARS:
        where = f"row {row_number}" if row_number else "header"
        raise SchemaError(
            f"{path}: {where} is longer than {pipeline.MAX_LINE_CHARS} characters",
            row=row_number,
        )


def brute_force_read_drive_log_csv(path):
    """The row-by-row tour CSV reader: the whole text read at once, every
    cell stripped and put through float() one at a time, checking each
    row, and each line against the row and line bounds, as it is read."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except FileNotFoundError:
        raise SchemaError(f"input file not found: {path}") from None
    if not lines:
        raise SchemaError(f"{path}: empty file, expected a header row")
    _check_line_bounds(path, 0, lines[0])
    header = tuple(cell.strip() for cell in lines[0].split(","))
    if header[: len(CSV_COLUMNS)] != CSV_COLUMNS or header not in (
        CSV_COLUMNS,
        CSV_COLUMNS + ("lane_id",),
    ):
        raise SchemaError(
            f"{path}: header must be {','.join(CSV_COLUMNS)}[,lane_id], got {','.join(header)}"
        )
    has_lane = len(header) == len(CSV_COLUMNS) + 1

    columns = [[] for _ in header]
    previous_t = None
    for row_number, line in enumerate(lines[1:], start=1):
        _check_line_bounds(path, row_number, line)
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise SchemaError(
                f"{path}: row {row_number} has {len(cells)} fields, expected {len(header)}",
                row=row_number,
            )
        for col, (name, cell) in enumerate(zip(header, cells)):
            cell = cell.strip()
            if name == "lane_id" and cell == "":
                columns[col].append(np.nan)
                continue
            try:
                columns[col].append(float(cell))
            except ValueError:
                raise SchemaError(
                    f"{path}: row {row_number}, column {name!r}: cannot parse {cell!r}",
                    column=name,
                    row=row_number,
                ) from None
        t = columns[0][-1]
        if not math.isfinite(t):
            raise SchemaError(
                f"{path}: row {row_number}: timestamp {t!r} is not finite",
                column="t",
                row=row_number,
            )
        if abs(t) > MAX_MAGNITUDE:
            raise SchemaError(
                f"{path}: row {row_number}, column 't': "
                f"timestamp {t!r} has magnitude above {MAX_MAGNITUDE:g}",
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

    return DriveLog(
        t=columns[0],
        dist_left=columns[1],
        dist_right=columns[2],
        v_lon=columns[3],
        lane_id=columns[4] if has_lane else None,
        tour_id=path.stem,
    )
