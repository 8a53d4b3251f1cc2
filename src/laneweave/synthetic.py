"""Ground-truth factory: models with known parameters and drive logs
simulated from them, closing the loop for round-trip calibration tests
without any recorded data."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DriveLog, ModelParams
from .errors import ArgumentUsageError, SyntheticSpecError
from .generator import TwoLevelModel, generate_profile
from .markov import CoarseModel
from .noise import FineModel, kernel_from_damping

TRANSITION_FAMILIES = ("banded", "identity", "uniform", "explicit")
KERNEL_FAMILIES = ("reference", "zero", "identity", "given")

# Flat-then-decaying gain over [0, Nyquist]; the stock nontrivial jitter
# spectrum used when no explicit taps are supplied.
REFERENCE_DAMPING = (1.0, 1.0, 0.8, 0.5, 0.3, 0.2)


@dataclass(frozen=True, eq=False)
class SyntheticSpec:
    """Recipe for a ground-truth model and its simulated tours."""

    n_c: int = ModelParams.n_c
    dt: float = ModelParams.dt
    family: str = "banded"
    stay_probability: float = 0.9
    transition: np.ndarray | None = None
    kernel: str = "reference"
    kernel_taps: np.ndarray | None = None
    seed: int = 0


def banded_transition(n_c: int, stay_probability: float) -> np.ndarray:
    """Random-walk rows: stay with probability p, split the rest between
    the two neighbors; at the edges the off-grid share reflects inward."""
    if not 0.0 <= stay_probability <= 1.0:
        raise SyntheticSpecError(f"stay probability {stay_probability!r} outside [0, 1]")
    move = 1.0 - stay_probability
    transition = np.zeros((n_c, n_c))
    for i in range(n_c):
        transition[i, i] = stay_probability
        lower = i - 1 if i > 0 else i + 1
        upper = i + 1 if i < n_c - 1 else i - 1
        transition[i, lower] += move / 2.0
        transition[i, upper] += move / 2.0
    return transition


def reference_kernel_taps(params: ModelParams) -> np.ndarray:
    knot_freqs = np.linspace(0.0, params.sample_rate / 2.0, len(REFERENCE_DAMPING))
    return kernel_from_damping(knot_freqs, np.asarray(REFERENCE_DAMPING), params.dt)


def make_model(spec: SyntheticSpec) -> TwoLevelModel:
    """Deterministic ground-truth model for the given recipe."""
    try:
        params = ModelParams(n_c=spec.n_c, dt=spec.dt, sample_rate=1.0 / spec.dt)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SyntheticSpecError(f"invalid model parameters: {exc}") from None

    if spec.family == "banded":
        transition = banded_transition(spec.n_c, spec.stay_probability)
    elif spec.family == "identity":
        transition = np.eye(spec.n_c)
    elif spec.family == "uniform":
        transition = np.full((spec.n_c, spec.n_c), 1.0 / spec.n_c)
    elif spec.family == "explicit":
        if spec.transition is None:
            raise SyntheticSpecError("family 'explicit' requires a transition matrix")
        transition = np.asarray(spec.transition, dtype=np.float64)
    else:
        raise SyntheticSpecError(
            f"unknown transition family {spec.family!r}; valid: {', '.join(TRANSITION_FAMILIES)}"
        )

    if spec.kernel == "reference":
        taps = reference_kernel_taps(params)
    elif spec.kernel == "zero":
        taps = np.zeros(1)
    elif spec.kernel == "identity":
        taps = np.ones(1)
    elif spec.kernel == "given":
        if spec.kernel_taps is None:
            raise SyntheticSpecError("kernel 'given' requires explicit taps")
        taps = np.asarray(spec.kernel_taps, dtype=np.float64)
    else:
        raise SyntheticSpecError(
            f"unknown kernel family {spec.kernel!r}; valid: {', '.join(KERNEL_FAMILIES)}"
        )

    try:
        coarse = CoarseModel(
            n_c=spec.n_c,
            dt=spec.dt,
            transition=transition,
            smoothing_sigma=params.smoothing_sigma,
            smoothing_support=params.smoothing_support,
        )
        fine = FineModel(
            kernel_taps=taps,
            dt=spec.dt,
            noise_halfwidth=params.cap_threshold,
        )
    except ValueError as exc:
        raise SyntheticSpecError(str(exc)) from None

    metadata = {
        "source": "synthetic",
        "family": spec.family,
        "stay_probability": spec.stay_probability,
        "kernel": spec.kernel,
        "seed": spec.seed,
    }
    return TwoLevelModel(params=params, coarse=coarse, fine=fine, metadata=metadata)


def simulate_drive_log(
    model: TwoLevelModel,
    duration: float,
    lane_width: float,
    seed,
    *,
    initial_offset: float = 0.0,
    v_lon: float = 120.0,
) -> DriveLog:
    """Invert the offset convention: emit marking distances for a generated
    profile at the model rate, with constant longitudinal velocity."""
    if not 0 < lane_width < math.inf:
        raise ArgumentUsageError(f"lane_width must be positive and finite, got {lane_width!r}")
    profile = generate_profile(model, initial_offset, duration, seed)
    x = profile.values
    return DriveLog(
        t=np.arange(x.size) * model.params.dt,
        dist_left=lane_width * (0.5 + x),
        dist_right=lane_width * (0.5 - x),
        v_lon=np.full(x.size, float(v_lon)),
        lane_id=np.full(x.size, np.nan),
        tour_id=f"synthetic-{seed}",
    )
