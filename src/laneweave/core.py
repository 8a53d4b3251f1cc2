"""Shared domain types and the lane-geometry offset conversion.

The relative lateral position is dimensionless: 0 is the lane center,
-0.5 puts the vehicle center over the left lane marking, +0.5 over the
right one.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import Union

import numpy as np

from .errors import ArgumentUsageError, InvalidSampleError

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator, None]

_LOG_COLUMNS = ("t", "dist_left", "dist_right", "v_lon", "lane_id")
# Upper bounds checked before anything is sized from the parameters:
# the transition matrix holds n_c**2 entries, and the Gaussian smoothing
# kernel has 2 * round(smoothing_support / dt) + 1 taps.
MAX_N_C = 1000
MAX_SMOOTHING_STEPS = 500
# Step range in which markov.gaussian_kernel's squared sigma (floored at
# SIGMA_FLOOR_STEPS steps of dt) and squared offsets (up to
# MAX_SMOOTHING_STEPS steps) stay normal floats; outside it taps are NaN.
SIGMA_FLOOR_STEPS = 1 / 64
MIN_DT, MAX_DT = 1e-150, 1e150
# Largest cap_threshold, which calibration makes the fine model's noise
# halfwidth: noise.generate_noise draws from a range twice as wide.
MAX_NOISE_HALFWIDTH = sys.float_info.max / 2


@dataclass(frozen=True)
class ModelParams:
    """Parameter set shared by calibration, generation, and evaluation.

    Each field takes the type of its default: an integer field refuses a
    bool or non-integer with TypeError, a float field a bool or
    non-finite number with ValueError.
    """

    n_c: int = 20
    dt: float = 0.2
    smoothing_sigma: float = 0.6
    smoothing_support: float = 1.0
    cap_threshold: float = 0.03
    v_min: float = 40.0
    sample_rate: float = 5.0
    snippet_duration: float = 10.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, int):
                if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                    raise TypeError(f"{f.name} must be an integer, got {value!r}")
            elif isinstance(value, bool) or not math.isfinite(value):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        if not 2 <= self.n_c <= MAX_N_C:
            raise ValueError(f"n_c must lie in [2, {MAX_N_C}], got {self.n_c}")
        if not MIN_DT <= self.dt <= MAX_DT:
            raise ValueError(f"dt must lie in [{MIN_DT:g}, {MAX_DT:g}], got {self.dt}")
        if not 0 < self.smoothing_sigma <= self.smoothing_support:
            raise ValueError("smoothing_sigma must be positive and at most smoothing_support")
        if not 1 <= self.smoothing_support / self.dt <= MAX_SMOOTHING_STEPS:
            raise ValueError(
                f"smoothing_support must cover 1 to {MAX_SMOOTHING_STEPS} steps of dt, "
                f"got {self.smoothing_support / self.dt:g}"
            )
        if not 0 < self.cap_threshold <= MAX_NOISE_HALFWIDTH:
            raise ValueError(
                f"cap_threshold must lie in (0, {MAX_NOISE_HALFWIDTH:g}], got {self.cap_threshold!r}"
            )
        if abs(self.sample_rate * self.dt - 1.0) > 1e-9:
            raise ValueError(
                f"sample_rate ({self.sample_rate} Hz) and dt ({self.dt} s) disagree"
            )


@dataclass(frozen=True)
class RunConfig(ModelParams):
    """Effective knobs of a run: model parameters plus pipeline settings."""

    knot_count: int = 6
    window_length: int = 256
    jump_threshold: float = 0.25
    guard_steps: int = 10

    def __post_init__(self):
        super().__post_init__()
        for name, low in (("knot_count", 2), ("window_length", 2), ("guard_steps", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.jump_threshold <= 0:
            raise ValueError(f"jump_threshold must be positive, got {self.jump_threshold!r}")
        # the spectral fit places knot_count knots on the window's rFFT bins
        if self.knot_count > self.window_length // 2 + 1:
            raise ValueError(f"knot_count {self.knot_count} exceeds the window's frequency bins")

    def model_params(self) -> ModelParams:
        return ModelParams(**{f.name: getattr(self, f.name) for f in fields(ModelParams)})

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class OffsetSeries:
    """Uniformly sampled relative lateral positions, one value per step."""

    dt: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("series values must be one-dimensional")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size

    @property
    def duration(self) -> float:
        return self.values.size * self.dt

    def times(self) -> np.ndarray:
        return np.arange(self.values.size) * self.dt


@dataclass(frozen=True, eq=False)
class DriveLog:
    """Columnar drive log of one recorded tour. lane_id is NaN where unknown."""

    t: np.ndarray
    dist_left: np.ndarray
    dist_right: np.ndarray
    v_lon: np.ndarray
    lane_id: np.ndarray = field(default=None)
    tour_id: str = ""

    def __post_init__(self):
        if self.lane_id is None:
            object.__setattr__(self, "lane_id", np.full(np.asarray(self.t).size, np.nan))
        for name in _LOG_COLUMNS:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        n = self.t.size
        if any(getattr(self, name).size != n for name in _LOG_COLUMNS):
            raise ValueError("drive-log columns differ in length")
        if n >= 2 and not np.all(np.diff(self.t) > 0):
            raise ValueError("drive-log timestamps must be strictly increasing")

    def __len__(self) -> int:
        return self.t.size

    def valid_mask(self) -> np.ndarray:
        """True where the sample yields a usable lane position."""
        return (
            np.isfinite(self.t)
            & np.isfinite(self.v_lon)
            & _usable_distances(self.dist_left, self.dist_right)
        )


def _usable_distances(dl: np.ndarray, dr: np.ndarray) -> np.ndarray:
    """True where both marking distances are finite and nonnegative and
    their sum, the lane width, is positive."""
    with np.errstate(invalid="ignore", over="ignore"):
        return np.isfinite(dl) & np.isfinite(dr) & (dl >= 0.0) & (dr >= 0.0) & (dl + dr > 0.0)


def relative_offset(dist_left, dist_right):
    """Relative lateral position from the two marking distances.

    The mapping is (dist_left - dist_right) / (2 * (dist_left + dist_right)):
    antisymmetric under swapping the arguments, invariant under scaling
    both, and always within [-0.5, 0.5] for nonnegative inputs.
    """
    dl = np.asarray(dist_left, dtype=np.float64)
    dr = np.asarray(dist_right, dtype=np.float64)
    bad = ~_usable_distances(dl, dr)
    if np.any(bad):
        flat = int(np.argmax(np.atleast_1d(bad)))
        raise InvalidSampleError(
            float(np.atleast_1d(dl)[flat]), float(np.atleast_1d(dr)[flat])
        )
    out = (dl - dr) / (2.0 * (dl + dr))
    if out.ndim == 0:
        return float(out)
    return out


def as_generator(seed: SeedLike) -> np.random.Generator:
    """Normalize an int, SeedSequence, Generator, or None to a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def seed_children(seed, n: int) -> list[np.random.SeedSequence]:
    """Derive n independent child seeds from a master seed."""
    if isinstance(seed, numbers.Integral) and seed < 0:
        raise ArgumentUsageError(f"seed must be non-negative, got {seed}")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return ss.spawn(n)
