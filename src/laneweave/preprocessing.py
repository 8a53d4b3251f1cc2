"""Turn raw drive logs into clean, uniformly sampled road-following
segments usable for calibration and evaluation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MAX_SAMPLES, DriveLog, ModelParams, OffsetSeries, RunConfig, relative_offset
from .errors import InsufficientDataError, SchemaError

# rows resample checks, and grid points it fills, at a time, which bounds
# its temporaries
RESAMPLE_SLICE = 1 << 11


@dataclass(frozen=True, eq=False)
class ResampledTrack:
    """Offset and velocity on the uniform model grid; the offset is NaN
    exactly where the grid point is invalid."""

    start_t: float
    dt: float
    offsets: np.ndarray
    velocity: np.ndarray
    lane_ids: np.ndarray
    source_tour: str = ""

    def __len__(self) -> int:
        return self.offsets.size


@dataclass(frozen=True, eq=False)
class Segment:
    """A maximal clean run of road-following, ready for calibration."""

    start_t: float
    series: OffsetSeries
    source_tour: str = ""

    def __len__(self) -> int:
        return len(self.series)


def resample(log: DriveLog, target_rate: float) -> ResampledTrack:
    """Linear interpolation of offset and velocity onto the grid t0 + i/rate.

    Grid points beyond the last source timestamp are not emitted. A grid
    point is valid only if the source samples it interpolates between are
    valid; invalid samples are never interpolated across. Offsets are
    worked out only at the source rows that bracket grid points.
    """
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    t = log.t
    n_valid = sum(
        int(log.valid_mask(slice(k, k + RESAMPLE_SLICE)).sum()) for k in range(0, t.size, RESAMPLE_SLICE)
    )
    if n_valid < 2:
        raise InsufficientDataError(f"tour {log.tour_id!r}: need at least 2 valid samples, got {n_valid}")

    span = (t[-1] - t[0]) * target_rate
    if not span < MAX_SAMPLES:
        raise SchemaError(
            f"tour {log.tour_id!r} spans {float(t[-1] - t[0])!r} s, more than "
            f"{MAX_SAMPLES} grid points at {target_rate:g} Hz"
        )

    n_grid = int(np.floor(span + 1e-9)) + 1
    offsets, velocity, lane_ids = np.empty(n_grid), np.empty(n_grid), np.empty(n_grid)
    for start in range(0, n_grid, RESAMPLE_SLICE):
        grid = t[0] + np.arange(start, min(start + RESAMPLE_SLICE, n_grid)) / target_rate
        left = np.clip(np.searchsorted(t, grid, side="right") - 1, 0, t.size - 2)
        rows = np.stack((left, left + 1))  # the rows bracketing each point
        t_left, t_right = t[rows]
        weight = np.clip((grid - t_left) / (t_right - t_left), 0.0, 1.0)
        points = slice(start, start + grid.size)
        offsets[points] = _lerp(weight, *_offsets_at(log, rows))
        velocity[points] = _lerp(weight, *log.v_lon[rows])
        lane_ids[points] = log.lane_id[left]

    return ResampledTrack(float(t[0]), 1.0 / target_rate, offsets, velocity, lane_ids, log.tour_id)


def _offsets_at(log: DriveLog, rows: np.ndarray) -> np.ndarray:
    """Offsets at the source rows, NaN at invalid ones."""
    valid = log.valid_mask(rows)
    out = np.full(rows.shape, np.nan)
    rows = rows[valid]
    out[valid] = relative_offset(log.dist_left[rows], log.dist_right[rows])
    return out


def _lerp(weight: np.ndarray, at_left: np.ndarray, at_right: np.ndarray) -> np.ndarray:
    # Exact grid hits take the sample value, bit-exact and safe from a NaN
    # neighbor. An infinite velocity (of an invalid sample) or two near
    # float max may blend to NaN or overflow, where the offset is NaN or
    # the speed past v_min anyway, so numpy's warning is noise.
    with np.errstate(invalid="ignore", over="ignore"):
        blended = (1.0 - weight) * at_left + weight * at_right
    return np.where(weight <= 1e-12, at_left, np.where(weight >= 1.0 - 1e-12, at_right, blended))


def extract_segments(
    track: ResampledTrack,
    params: ModelParams,
    *,
    jump_threshold: float = RunConfig.jump_threshold,
    guard_steps: int = RunConfig.guard_steps,
) -> list[Segment]:
    """Cut the track at slow driving, invalid samples, and lane changes,
    returning the remaining maximal runs of at least two steps.

    A lane change shows up as an offset jump above jump_threshold between
    consecutive steps or as a lane-id switch; guard_steps samples on each
    side of such a cut are dropped as well, since the approach and
    departure phases contaminate in-lane behavior. Values inside the
    returned segments are taken from the track unaltered, at step params.dt.
    """
    if abs(track.dt * params.sample_rate - 1.0) > 1e-9:
        raise ValueError("track rate does not match params.sample_rate")
    n = track.offsets.size
    with np.errstate(invalid="ignore"):
        keep = np.isfinite(track.offsets) & (track.velocity >= params.v_min)
        jump = np.abs(np.diff(track.offsets)) > jump_threshold
    lane = track.lane_ids
    lane_switch = np.isfinite(lane[:-1]) & np.isfinite(lane[1:]) & (lane[:-1] != lane[1:])
    for i in np.flatnonzero(jump | lane_switch):
        keep[max(0, i - guard_steps + 1) : min(n, i + 1 + guard_steps)] = False

    segments = []
    for start, stop in _true_runs(keep):
        if stop - start >= 2:
            segments.append(
                Segment(
                    start_t=track.start_t + start * track.dt,
                    series=OffsetSeries(params.dt, track.offsets[start:stop].copy()),
                    source_tour=track.source_tour,
                )
            )
    return segments


def _true_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) pairs of the maximal True runs in a boolean mask."""
    edges = np.flatnonzero(np.diff(np.concatenate([[0], mask.astype(np.int8), [0]])))
    return list(zip(edges[::2], edges[1::2]))
