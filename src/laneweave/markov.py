"""Coarse lateral drift: position discretization, transition-matrix
calibration, seeded chain sampling, and Gaussian smoothing of the
stepwise state track."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .core import SIGMA_FLOOR_STEPS, SeedLike, as_generator
from .errors import CalibrationError

ROW_SUM_TOL = 1e-9


def state_centers(n_c: int) -> np.ndarray:
    """Centers of the n_c equal-width position bins covering [-0.5, 0.5]."""
    return -0.5 + 1.0 / (2 * n_c) + np.arange(n_c) / n_c


def discretize(x, n_c: int):
    """Map positions to bin indices.

    Bins are half-open on the right with the last one closed; values
    outside [-0.5, 0.5] clamp to the boundary bins.
    """
    idx = np.floor((np.asarray(x, dtype=np.float64) + 0.5) * n_c)
    idx = np.clip(idx, 0, n_c - 1).astype(np.int64)
    if idx.ndim == 0:
        return int(idx)
    return idx


def gaussian_kernel(sigma: float, support: float, dt: float) -> np.ndarray:
    """Odd-length, symmetric taps summing to one: a zero-mean Gaussian
    sampled at step offsets and cut at +-support."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if support < dt:
        raise ValueError("support must cover at least one step")
    m = int(round(support / dt))
    # below dt / 64 (SIGMA_FLOOR_STEPS) every tap but the centre one is at
    # most exp(-2048), which is 0.0 in float64 anyway; the floor keeps
    # sigma**2 from underflowing to 0, which would make the centre tap 0 / 0
    sigma = max(sigma, dt * SIGMA_FLOOR_STEPS)
    offsets = np.arange(-m, m + 1) * dt
    taps = np.exp(-(offsets**2) / (2.0 * sigma**2))
    return taps / taps.sum()


def smooth_values(values: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Convolve with symmetric taps; near the edges the kernel is truncated
    to the in-range taps and renormalized, so constants map to themselves."""
    values = np.asarray(values, dtype=np.float64)
    taps = np.asarray(taps, dtype=np.float64)
    if values.size == 0:
        return values.copy()
    half = taps.size // 2
    num = np.convolve(values, taps, mode="full")[half : half + values.size]
    den = np.convolve(np.ones(values.size), taps, mode="full")[half : half + values.size]
    return num / den


def count_transitions(state_segments: Iterable[np.ndarray], n_c: int) -> np.ndarray:
    """Count a->b steps within each segment; segment boundaries contribute nothing."""
    counts = np.zeros((n_c, n_c), dtype=np.int64)
    for seg in state_segments:
        seg = np.asarray(seg, dtype=np.int64)
        if seg.size < 2:
            continue
        if np.any((seg < 0) | (seg >= n_c)):
            raise ValueError("state index out of range")
        np.add.at(counts, (seg[:-1], seg[1:]), 1)
    return counts


def transitions_from_counts(counts: np.ndarray) -> np.ndarray:
    """Maximum-likelihood row normalization of the visited rows.

    A row the data never leaves moves with probability 1 one bin toward
    the nearest visited bin (on a tie, toward the lane centre, and from
    the centre bin itself toward the lower one), so no walk is trapped in
    a state the data does not describe: every state reaches a visited one
    within n_c steps.
    """
    counts = np.asarray(counts, dtype=np.float64)
    totals = counts.sum(axis=1)
    if totals.sum() == 0:
        raise CalibrationError("no state transitions in the calibration data")
    n_c = counts.shape[0]
    transition = np.zeros((n_c, n_c), dtype=np.float64)
    seen = totals > 0
    transition[seen] = counts[seen] / totals[seen, None]
    visited = np.flatnonzero(seen).tolist()
    centre = (n_c - 1) / 2
    for row in np.flatnonzero(~seen).tolist():
        target = min(visited, key=lambda v: (abs(v - row), abs(v - centre)))
        transition[row, row + (1 if target > row else -1)] = 1.0
    return transition


def estimate_transitions(state_segments: Iterable[np.ndarray], n_c: int) -> np.ndarray:
    return transitions_from_counts(count_transitions(state_segments, n_c))


@dataclass(frozen=True, eq=False)
class CoarseModel:
    """Calibrated drift model: bin transition matrix plus smoothing setup."""

    n_c: int
    dt: float
    transition: np.ndarray
    smoothing_sigma: float
    smoothing_support: float

    def __post_init__(self):
        transition = np.asarray(self.transition, dtype=np.float64)
        if transition.shape != (self.n_c, self.n_c):
            raise ValueError(
                f"transition matrix must be {self.n_c}x{self.n_c}, got {transition.shape}"
            )
        if not np.all(np.isfinite(transition)):
            raise ValueError("transition probabilities must be finite")
        if np.any(transition < -1e-12) or np.any(transition > 1.0 + 1e-12):
            raise ValueError("transition probabilities must lie in [0, 1]")
        sums = transition.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)
        if bad.size:
            raise ValueError(
                f"transition row {int(bad[0])} sums to {sums[bad[0]]!r}, expected 1"
            )
        object.__setattr__(self, "transition", transition)

    @cached_property
    def state_centers(self) -> np.ndarray:
        return state_centers(self.n_c)

    @cached_property
    def smoothing_taps(self) -> np.ndarray:
        return gaussian_kernel(self.smoothing_sigma, self.smoothing_support, self.dt)

    @cached_property
    def _cumulative_rows(self) -> list[list[float]]:
        return np.cumsum(self.transition, axis=1).tolist()


def sample_chain(model: CoarseModel, initial_state: int, n_steps: int, rng: SeedLike) -> np.ndarray:
    """Sample a state-index path of n_steps starting at initial_state.

    One uniform per step is drawn vectorized from the generator; each
    step moves to the first state whose cumulative probability exceeds
    its uniform, clamped to the last state when a row sums short of 1.
    Paths repeat bit for bit under the same seed.
    """
    if not 0 <= initial_state < model.n_c:
        raise ValueError(f"initial state {initial_state} outside [0, {model.n_c})")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    uniforms = as_generator(rng).random(n_steps - 1)
    rows = model._cumulative_rows
    last = model.n_c - 1
    state = int(initial_state)
    path = [state]
    append = path.append
    for u in uniforms.tolist():
        state = bisect_right(rows[state], u)
        if state > last:
            state = last
        append(state)
    return np.array(path, dtype=np.int64)

