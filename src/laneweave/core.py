"""Shared domain types and the lane-geometry offset conversion.

The relative lateral position is dimensionless: 0 is the lane center,
-0.5 puts the vehicle center over the left lane marking, +0.5 over the
right one.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, field, fields
from typing import Union

import numpy as np

from .errors import ArgumentUsageError

# a seed that seed_children splits; check_seed refuses any other
MasterSeed = Union[int, np.random.SeedSequence, None]

_LOG_COLUMNS = ("t", "dist_left", "dist_right", "v_lon", "lane_id")
# Upper bounds checked before anything is sized from the parameters:
# the transition matrix holds n_c**2 entries, and the Gaussian smoothing
# kernel has 2 * round(smoothing_support / dt) + 1 taps.
MAX_N_C = 1000
MAX_SMOOTHING_STEPS = 500
# markov.gaussian_kernel floors sigma at this many steps of dt
SIGMA_FLOOR_STEPS = 1 / 64
# Largest magnitude of every float parameter, fine-model number and fine
# output bound: the square of any bounded number, or the product of two,
# stays finite, and with dt >= 1 / MAX_MAGNITUDE the floored sigma squares
# to a normal float. So no kernel, spectral floor or metric overflows.
MAX_MAGNITUDE = 1e150


def within_magnitude(value) -> bool:
    """True for a real number, not a bool, of magnitude at most MAX_MAGNITUDE.
    A rational (an int included) is compared exactly, so 10**400 raises no
    OverflowError; any other real as a float64, so a float32 cannot cast
    the bound to float32 infinity."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    if not isinstance(value, numbers.Rational):
        value = float(value)
    return abs(value) <= MAX_MAGNITUDE


@dataclass(frozen=True)
class ModelParams:
    """Parameter set shared by calibration, generation, and evaluation.

    Each field takes the type of its default: an integer field refuses a
    bool or non-integer with TypeError, a float field a bool, a non-number
    or a number of magnitude above MAX_MAGNITUDE with ValueError.
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
            elif not within_magnitude(value):
                raise ValueError(
                    f"{f.name} must be a number of magnitude at most {MAX_MAGNITUDE:g}, got {value!r}"
                )
        if not 2 <= self.n_c <= MAX_N_C:
            raise ValueError(f"n_c must lie in [2, {MAX_N_C}], got {self.n_c}")
        if self.dt < 1 / MAX_MAGNITUDE:
            raise ValueError(f"dt must be at least {1 / MAX_MAGNITUDE:g}, got {self.dt}")
        if not 0 < self.smoothing_sigma <= self.smoothing_support:
            raise ValueError("smoothing_sigma must be positive and at most smoothing_support")
        if not 1 <= self.smoothing_support / self.dt <= MAX_SMOOTHING_STEPS:
            raise ValueError(
                f"smoothing_support must cover 1 to {MAX_SMOOTHING_STEPS} steps of dt, "
                f"got {self.smoothing_support / self.dt:g}"
            )
        if self.cap_threshold <= 0:
            raise ValueError(f"cap_threshold must be positive, got {self.cap_threshold!r}")
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
        # pairwise, so that no float64 array of steps is built
        if not (self.t[1:] > self.t[:-1]).all():
            raise ValueError("drive-log timestamps must be strictly increasing")

    def __len__(self) -> int:
        return self.t.size

    def valid_mask(self, rows: slice = slice(None)) -> np.ndarray:
        """True where the sample yields a usable lane position, over the
        given rows (all by default)."""
        return (
            np.isfinite(self.t[rows])
            & np.isfinite(self.v_lon[rows])
            & _usable_distances(self.dist_left[rows], self.dist_right[rows])
        )


def _usable_distances(dl: np.ndarray, dr: np.ndarray) -> np.ndarray:
    """True where both marking distances are nonnegative and their sum,
    the lane width, is positive and finite (so both are finite too)."""
    with np.errstate(invalid="ignore", over="ignore"):
        width = dl + dr
        return (dl >= 0.0) & (dr >= 0.0) & (width > 0.0) & np.isfinite(width)


def relative_offset(dist_left, dist_right):
    """Relative lateral position from the two marking distances.

    The mapping is (dist_left - dist_right) / (2 * (dist_left + dist_right)):
    antisymmetric under swapping the arguments, invariant under scaling
    both, and always within [-0.5, 0.5] for nonnegative inputs. Halving
    the quotient, not doubling a width that may overflow, gives the same bits.
    """
    dl = np.asarray(dist_left, dtype=np.float64)
    dr = np.asarray(dist_right, dtype=np.float64)
    bad = ~_usable_distances(dl, dr)
    if np.any(bad):
        flat = int(np.argmax(np.atleast_1d(bad)))
        left, right = float(np.atleast_1d(dl)[flat]), float(np.atleast_1d(dr)[flat])
        raise ArgumentUsageError(f"invalid marking distances: left={left!r} right={right!r}")
    out = (dl - dr) / (dl + dr) * 0.5
    if out.ndim == 0:
        return float(out)
    return out


def check_seed(seed) -> None:
    """Refuse anything but a non-negative integer, a SeedSequence or None."""
    if not (
        seed is None
        or isinstance(seed, np.random.SeedSequence)
        or (isinstance(seed, numbers.Integral) and seed >= 0)
    ):
        raise ArgumentUsageError(
            f"seed must be non-negative, got {seed!r}; a seed is an integer, a SeedSequence or None"
        )


def seed_children(seed: MasterSeed, n: int) -> list[np.random.SeedSequence]:
    """Derive n independent child seeds from a master seed."""
    check_seed(seed)
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return ss.spawn(n)
