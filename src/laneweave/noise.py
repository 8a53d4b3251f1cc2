"""Fine lateral jitter: residual extraction from measurements, capping,
spectral fitting of the shaping kernel against a uniform-noise floor,
and seeded noise generation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import MAX_NOISE_HALFWIDTH, ModelParams, OffsetSeries, RunConfig, SeedLike, as_generator
from .errors import CalibrationError
from .markov import discretize, gaussian_kernel, smooth_values, state_centers

OVERLAP = 0.5  # fraction shared by consecutive spectral windows
KERNEL_HALF_SUPPORT = 2.0  # seconds
DENSE_SIZE = 4096  # response samples behind kernel_from_damping
# Longest kernel a FineModel accepts: every kernel kernel_from_damping
# builds fits (at most the whole dense response on each side), and each
# generated step costs one multiply per tap.
MAX_KERNEL_TAPS = 2 * DENSE_SIZE


@dataclass(frozen=True, eq=False)
class FineModel:
    """Fitted jitter model: shaping taps plus the uniform driving noise."""

    kernel_taps: np.ndarray
    dt: float
    noise_halfwidth: float

    def __post_init__(self):
        taps = np.asarray(self.kernel_taps, dtype=np.float64)
        if taps.ndim != 1 or taps.size < 1:
            raise ValueError("kernel taps must be a non-empty 1-D array")
        if taps.size > MAX_KERNEL_TAPS:
            raise ValueError(f"{taps.size} kernel taps exceed the limit of {MAX_KERNEL_TAPS}")
        if not np.all(np.isfinite(taps)):
            raise ValueError("kernel taps must be finite")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not 0 < self.noise_halfwidth <= MAX_NOISE_HALFWIDTH:
            raise ValueError(
                f"noise_halfwidth must lie in (0, {MAX_NOISE_HALFWIDTH:g}], got {self.noise_halfwidth!r}"
            )
        object.__setattr__(self, "kernel_taps", taps)
        if not math.isfinite(self.output_bound):
            raise ValueError(
                f"noise_halfwidth {self.noise_halfwidth!r} times the taps' L1 norm is not finite"
            )

    @property
    def output_bound(self) -> float:
        """Worst-case |output|: halfwidth times the taps' L1 norm."""
        with np.errstate(over="ignore"):
            return self.noise_halfwidth * float(np.abs(self.kernel_taps).sum())


@dataclass(frozen=True, eq=False)
class SpectrumFit:
    """Diagnostics of the spectral fit behind a FineModel."""

    frequencies: np.ndarray
    measured_magnitude: np.ndarray
    noise_floor_c: float
    knot_frequencies: np.ndarray
    knot_values: np.ndarray
    window_count: int
    residual: float

    def __post_init__(self):
        kf = np.asarray(self.knot_frequencies, dtype=np.float64)
        kv = np.asarray(self.knot_values, dtype=np.float64)
        if kf.size != kv.size or kf.size < 2:
            raise ValueError("need matching knot frequency/value arrays of length >= 2")
        if np.any(np.diff(kf) <= 0):
            raise ValueError("knot frequencies must be strictly increasing")
        if np.any(kv < 0):
            raise ValueError("knot values must be nonnegative")
        object.__setattr__(self, "knot_frequencies", kf)
        object.__setattr__(self, "knot_values", kv)

    def damping_at(self, frequencies) -> np.ndarray:
        """Piecewise-linear gain evaluated at the given frequencies."""
        return np.interp(frequencies, self.knot_frequencies, self.knot_values)


def measured_coarse(x: np.ndarray, params: ModelParams) -> OffsetSeries:
    """Smoothed stepwise track underlying measured values: they are
    snapped to the bin-center grid the chain lives on, then smoothed."""
    snapped = state_centers(params.n_c)[discretize(x, params.n_c)]
    taps = gaussian_kernel(params.smoothing_sigma, params.smoothing_support, params.dt)
    return OffsetSeries(params.dt, smooth_values(snapped, taps))


def extract_fine(x_meas: OffsetSeries, params: ModelParams) -> OffsetSeries:
    """Residual of a measured series after removing its snapped-and-smoothed
    coarse track. Adding the two back reproduces the input exactly."""
    x = x_meas.values
    coarse = measured_coarse(x, params)
    return OffsetSeries(params.dt, x - coarse.values)


def cap(phi: OffsetSeries, threshold: float) -> OffsetSeries:
    """Clip to [-threshold, +threshold]; peaks beyond the band couple the
    residual to the coarse track and are removed before fitting."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    return OffsetSeries(phi.dt, np.clip(phi.values, -threshold, threshold))


def average_magnitude_spectrum(
    segments: Sequence[np.ndarray],
    window_length: int = RunConfig.window_length,
    *,
    dt: float,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Mean rFFT magnitude over fixed rectangular windows.

    Windows advance by window_length * (1 - OVERLAP) samples and never
    span a boundary between segments. Returns (frequencies, magnitude,
    window count).
    """
    if window_length < 2:
        raise ValueError("window_length must be >= 2")
    hop = max(1, int(round(window_length * (1.0 - OVERLAP))))
    acc = np.zeros(window_length // 2 + 1)
    count = 0
    for v in segments:
        for start in range(0, v.size - window_length + 1, hop):
            acc += np.abs(np.fft.rfft(v[start : start + window_length]))
            count += 1
    if count == 0:
        raise CalibrationError(
            f"no segment provides a complete {window_length}-sample spectral window"
        )
    return np.fft.rfftfreq(window_length, dt), acc / count, count


def uniform_noise_floor(halfwidth: float, window_length: int) -> float:
    """Expected rFFT magnitude of iid uniform noise on [-halfwidth, +halfwidth].

    For n iid zero-mean samples of variance v, an interior DFT bin is
    complex Gaussian with per-component variance n*v/2, so its magnitude
    is Rayleigh-distributed with mean sqrt(pi*n*v)/2; here v = halfwidth^2/3.
    """
    return halfwidth * math.sqrt(math.pi * window_length / 12.0)


def kernel_from_damping(knot_frequencies, knot_values, dt: float) -> np.ndarray:
    """Finite symmetric taps realizing a piecewise-linear magnitude response.

    The response is sampled on a dense grid, inverse-transformed with zero
    phase, truncated to +-KERNEL_HALF_SUPPORT seconds, and cosine-tapered
    over the outer quarter so the cut ends reach zero.
    """
    freqs = np.fft.rfftfreq(DENSE_SIZE, dt)
    magnitude = np.interp(freqs, knot_frequencies, knot_values)
    impulse = np.fft.irfft(magnitude)
    half = int(round(KERNEL_HALF_SUPPORT / dt))
    taps = np.concatenate([impulse[-half:], impulse[: half + 1]])
    ramp_len = max(2, taps.size // 4)
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(ramp_len) / ramp_len))
    taper = np.ones(taps.size)
    taper[:ramp_len] = ramp
    taper[-ramp_len:] = ramp[::-1]
    return taps * taper


def _hat_basis(frequencies: np.ndarray, knot_frequencies: np.ndarray) -> np.ndarray:
    basis = np.zeros((frequencies.size, knot_frequencies.size))
    for j in range(knot_frequencies.size):
        unit = np.zeros(knot_frequencies.size)
        unit[j] = 1.0
        basis[:, j] = np.interp(frequencies, knot_frequencies, unit)
    return basis


def fit_kernel(
    phi_corr_segments: Sequence[OffsetSeries],
    params: ModelParams,
    knot_count: int = RunConfig.knot_count,
    window_length: int = RunConfig.window_length,
) -> tuple[FineModel, SpectrumFit]:
    """Fit the shaping kernel to capped residual segments.

    The averaged magnitude spectrum is divided by the uniform-noise floor
    and approximated by a piecewise-linear gain over knot_count knots on
    [0, Nyquist] via least squares, clipped at zero; the taps then come
    from kernel_from_damping.
    """
    if knot_count < 2:
        raise ValueError("knot_count must be >= 2")
    seg_values = [s.values for s in phi_corr_segments]
    total = sum(v.size for v in seg_values)
    required = 8 * window_length
    if total < required:
        raise CalibrationError(
            f"insufficient data for the spectral fit: {total} capped samples "
            f"across {len(seg_values)} segments, need at least {required}"
        )
    freqs, measured, n_windows = average_magnitude_spectrum(
        seg_values, window_length, dt=params.dt
    )
    floor = uniform_noise_floor(params.cap_threshold, window_length)
    ratio = measured / floor
    knot_freqs = np.linspace(0.0, params.sample_rate / 2.0, knot_count)
    basis = _hat_basis(freqs, knot_freqs)
    solution, *_ = np.linalg.lstsq(basis, ratio, rcond=None)
    knot_values = np.clip(solution, 0.0, None)
    scale = np.linalg.norm(ratio)
    residual = float(np.linalg.norm(basis @ knot_values - ratio) / scale) if scale > 0 else 0.0
    taps = kernel_from_damping(knot_freqs, knot_values, params.dt)
    fine = FineModel(
        kernel_taps=taps,
        dt=params.dt,
        noise_halfwidth=params.cap_threshold,
    )
    fit = SpectrumFit(
        frequencies=freqs,
        measured_magnitude=measured,
        noise_floor_c=floor,
        knot_frequencies=knot_freqs,
        knot_values=knot_values,
        window_count=n_windows,
        residual=residual,
    )
    return fine, fit


def generate_noise(model: FineModel, n_steps: int, rng: SeedLike) -> OffsetSeries:
    """Shaped noise: uniform draws on [-r, +r] convolved with the taps.

    A kernel-length warm-up prefix is drawn so the output is stationary
    from step 0; the same seed always yields the same series.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    gen = as_generator(rng)
    taps = model.kernel_taps
    drive = gen.uniform(-model.noise_halfwidth, model.noise_halfwidth, n_steps + taps.size - 1)
    return OffsetSeries(model.dt, np.convolve(drive, taps, mode="valid"))
