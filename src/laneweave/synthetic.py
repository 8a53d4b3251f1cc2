"""Ground-truth factory: models with known parameters and drive logs
simulated from them, closing the loop for round-trip calibration tests
without any recorded data."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DriveLog, MasterSeed, ModelParams
from .errors import ArgumentUsageError
from .generator import TwoLevelModel, generate_profile
from .markov import CoarseModel
from .noise import FineModel, kernel_from_damping

# Flat-then-decaying gain over [0, Nyquist]: the jitter spectrum of the
# reference kernel family.
REFERENCE_DAMPING = (1.0, 1.0, 0.8, 0.5, 0.3, 0.2)


@dataclass(frozen=True, eq=False)
class SyntheticSpec:
    """Recipe for a ground-truth model and its simulated tours."""

    n_c: int = ModelParams.n_c
    dt: float = ModelParams.dt
    family: str = "banded"
    stay_probability: float = 0.9
    kernel: str = "reference"
    seed: int = 0


def banded_transition(n_c: int, stay_probability: float) -> np.ndarray:
    """Random-walk rows: stay with probability p, split the rest between
    the two neighbors; at the edges the off-grid share reflects inward."""
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


# builders of each family's transition matrix, from (n_c, stay
# probability), and of each kernel's taps, from the model parameters
TRANSITION_BUILDERS = {
    "banded": banded_transition,
    "uniform": lambda n_c, p: np.full((n_c, n_c), 1.0 / n_c),
    "identity": lambda n_c, p: np.eye(n_c),
}
KERNEL_BUILDERS = {
    "reference": reference_kernel_taps,
    "zero": lambda params: np.zeros(1),
    "identity": lambda params: np.ones(1),
}
# in the order synth --help lists them
TRANSITION_FAMILIES = tuple(TRANSITION_BUILDERS)
KERNEL_FAMILIES = tuple(KERNEL_BUILDERS)


def make_model(spec: SyntheticSpec) -> TwoLevelModel:
    """Deterministic ground-truth model for the given recipe."""
    try:
        params = ModelParams(n_c=spec.n_c, dt=spec.dt, sample_rate=1.0 / spec.dt)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ArgumentUsageError(f"invalid model parameters: {exc}") from None
    # checked for every family: each writes it into the model's metadata
    if not 0.0 <= spec.stay_probability <= 1.0:
        raise ArgumentUsageError(f"stay probability {spec.stay_probability!r} outside [0, 1]")
    if spec.family not in TRANSITION_FAMILIES:
        raise ArgumentUsageError(
            f"unknown transition family {spec.family!r}; valid: {', '.join(TRANSITION_FAMILIES)}"
        )
    if spec.kernel not in KERNEL_FAMILIES:
        raise ArgumentUsageError(
            f"unknown kernel family {spec.kernel!r}; valid: {', '.join(KERNEL_FAMILIES)}"
        )
    # every spec that passes the checks above builds valid parts: each
    # family's rows sum to 1 within ROW_SUM_TOL, and ModelParams keeps the
    # default 1 s smoothing support within 500 steps, so dt >= 0.002 and
    # the reference kernel has at most 2001 taps
    transition = TRANSITION_BUILDERS[spec.family](spec.n_c, spec.stay_probability)
    coarse = CoarseModel.from_params(params, transition)
    taps = KERNEL_BUILDERS[spec.kernel](params)
    fine = FineModel(kernel_taps=taps, noise_halfwidth=params.cap_threshold)

    metadata = {
        "source": "synthetic",
        "family": spec.family,
        "stay_probability": spec.stay_probability,
        "kernel": spec.kernel,
        "seed": spec.seed,
    }
    return TwoLevelModel(params=params, coarse=coarse, fine=fine, metadata=metadata)


def simulate_drive_log(
    model: TwoLevelModel, duration: float, lane_width: float, seed: MasterSeed
) -> DriveLog:
    """Invert the offset convention: emit marking distances for a profile
    generated from the lane centre at the model rate, at a constant 120 km/h."""
    if not 0 < lane_width < math.inf:
        raise ArgumentUsageError(f"lane_width must be positive and finite, got {lane_width!r}")
    profile = generate_profile(model, 0.0, duration, seed)
    x = profile.values
    return DriveLog(
        t=np.arange(x.size) * model.params.dt,
        dist_left=lane_width * (0.5 + x),
        dist_right=lane_width * (0.5 - x),
        v_lon=np.full(x.size, 120.0),
        lane_id=np.full(x.size, np.nan),
        tour_id=f"synthetic-{seed}",
    )
