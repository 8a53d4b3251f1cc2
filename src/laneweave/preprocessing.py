"""Turn raw drive logs into clean, uniformly sampled road-following
segments usable for calibration and evaluation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DriveLog, ModelParams, OffsetSeries, RunConfig, relative_offset
from .errors import EmptySeriesError, SchemaError

# Most grid points resample builds from one tour, about 23 days at 5 Hz;
# each point holds a dozen float64 working values.
MAX_GRID_POINTS = 10_000_000


@dataclass(frozen=True, eq=False)
class ResampledTrack:
    """Offset and velocity on the uniform model grid; NaN where invalid."""

    start_t: float
    dt: float
    offsets: np.ndarray
    velocity: np.ndarray
    lane_ids: np.ndarray
    valid: np.ndarray
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
    valid; invalid samples are never interpolated across.
    """
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    valid_src = log.valid_mask()
    n_valid = int(valid_src.sum())
    if n_valid < 2:
        raise EmptySeriesError(f"tour {log.tour_id!r}: need at least 2 valid samples, got {n_valid}")

    t = log.t
    span = (t[-1] - t[0]) * target_rate
    if not span < MAX_GRID_POINTS:
        raise SchemaError(
            f"tour {log.tour_id!r} spans {float(t[-1] - t[0])!r} s, more than "
            f"{MAX_GRID_POINTS} grid points at {target_rate:g} Hz"
        )
    offsets_src = np.full(t.size, np.nan)
    offsets_src[valid_src] = relative_offset(log.dist_left[valid_src], log.dist_right[valid_src])

    n_grid = int(np.floor(span + 1e-9)) + 1
    grid = t[0] + np.arange(n_grid) / target_rate
    left = np.clip(np.searchsorted(t, grid, side="right") - 1, 0, t.size - 2)
    weight = np.clip((grid - t[left]) / (t[left + 1] - t[left]), 0.0, 1.0)
    on_left = weight <= 1e-12
    on_right = weight >= 1.0 - 1e-12

    def lerp(column: np.ndarray) -> np.ndarray:
        # Exact grid hits take the sample value directly; this keeps a NaN
        # neighbor from poisoning the multiply and the value bit-exact.
        blended = (1.0 - weight) * column[left] + weight * column[left + 1]
        return np.where(on_left, column[left], np.where(on_right, column[left + 1], blended))

    valid = np.where(
        on_left,
        valid_src[left],
        np.where(on_right, valid_src[left + 1], valid_src[left] & valid_src[left + 1]),
    )
    return ResampledTrack(
        start_t=float(t[0]),
        dt=1.0 / target_rate,
        offsets=lerp(offsets_src),
        velocity=lerp(log.v_lon),
        lane_ids=log.lane_id[left],
        valid=valid.astype(bool),
        source_tour=log.tour_id,
    )


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
    returned segments are taken from the track unaltered.
    """
    if abs(track.dt * params.sample_rate - 1.0) > 1e-9:
        raise ValueError("track rate does not match params.sample_rate")
    n = track.offsets.size
    with np.errstate(invalid="ignore"):
        keep = track.valid & (track.velocity >= params.v_min)
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
                    series=OffsetSeries(track.dt, track.offsets[start:stop].copy()),
                    source_tour=track.source_tour,
                )
            )
    return segments


def _true_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) pairs of the maximal True runs in a boolean mask."""
    edges = np.flatnonzero(np.diff(np.concatenate([[0], mask.astype(np.int8), [0]])))
    return list(zip(edges[::2], edges[1::2]))
