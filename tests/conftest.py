import contextlib
import dataclasses
import os

import pytest

from laneweave.core import ModelParams, RunConfig
from laneweave.noise import FineModel
from laneweave.pipeline import calibrate_from_segments
from laneweave.preprocessing import extract_segments, resample
from laneweave.synthetic import (
    SyntheticSpec,
    make_model,
    reference_kernel_taps,
    simulate_drive_log,
)

# Pinned seeds: stochastic bounds below are checked deterministically.
TOUR_SEED = 6
GENTLE_SEED = 0
EVAL_SEED = 42

TOUR_SECONDS = 3000.0  # 50 minutes at 5 Hz
LANE_WIDTH = 3.6


@pytest.fixture
def params() -> ModelParams:
    return ModelParams()


@pytest.fixture
def config() -> RunConfig:
    return RunConfig()


def _segments_for(model, seed):
    log = simulate_drive_log(model, TOUR_SECONDS, LANE_WIDTH, seed)
    track = resample(log, model.params.sample_rate)
    return extract_segments(track, model.params)


@pytest.fixture(scope="session")
def reference_model():
    """Ground truth for round trips: banded chain p=0.9 with the stock kernel."""
    return make_model(SyntheticSpec(seed=TOUR_SEED))


@pytest.fixture(scope="session")
def tour_segments(reference_model):
    return _segments_for(reference_model, TOUR_SEED)


@pytest.fixture(scope="session")
def calibrated(tour_segments):
    """(model, summary) calibrated on the reference tour."""
    return calibrate_from_segments(tour_segments, RunConfig())


@pytest.fixture(scope="session")
def gentle_model():
    """Slow drift, half-amplitude jitter: a tame lane-keeping profile."""
    model = make_model(SyntheticSpec(stay_probability=0.98, seed=GENTLE_SEED))
    params = model.params
    return dataclasses.replace(
        model, fine=FineModel(reference_kernel_taps(params) * 0.5, params.cap_threshold)
    )


@pytest.fixture(scope="session")
def gentle_segments(gentle_model):
    return _segments_for(gentle_model, GENTLE_SEED)


@contextlib.contextmanager
def _pipe_holding(data: bytes):
    read_end, write_end = os.pipe()
    try:
        with open(write_end, "wb") as writer:
            writer.write(data)
        yield f"/dev/fd/{read_end}"
    finally:
        os.close(read_end)


@pytest.fixture(scope="session")
def pipe_holding():
    """A context manager giving the /dev/fd path of a pipe's read end
    that holds data (under the 64 KiB a pipe buffers) and whose write end
    is closed, so that the path can be read once, to its end."""
    if not os.path.isdir("/dev/fd"):
        pytest.skip("no /dev/fd to name a pipe by")
    return _pipe_holding
