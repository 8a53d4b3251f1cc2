"""The benchmark in perfbench/ reaches the program through fixed module
attributes: its traced replay swaps the functions named in
tracing.PATCH_POINTS for timing wrappers, its workloads call a few names
bound in laneweave.cli, and its replays call library functions with the
argument names they pass. A binding that moves or disappears, or a call
shape that changes, breaks `--trace 1` runs, which only the slow
perfbench self-test runs."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from laneweave import cli, evaluation, generator, markov, noise, preprocessing
from laneweave.core import ModelParams, RunConfig
from laneweave.markov import CoarseModel
from laneweave.synthetic import SyntheticSpec, make_model, simulate_drive_log

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CLI_NAMES = ("read_drive_log_csv", "format_profile_csv", "RunConfig", "_utc_now", "main")


def _patch_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.PATCH_POINTS


@pytest.mark.parametrize("module_name, attr", [point[:2] for point in _patch_points()])
def test_patch_point_resolves(module_name, attr):
    module = importlib.import_module(f"laneweave.{module_name}")
    assert callable(getattr(module, attr, None)), f"laneweave.{module_name}.{attr}"


@pytest.mark.parametrize("name", CLI_NAMES)
def test_cli_binds_workload_name(name):
    assert hasattr(cli, name), f"laneweave.cli.{name}"


def test_replay_calls_keep_their_shape():
    """The calibrate and evaluate replays' library calls, made as
    perfbench/workloads.py makes them, on a two-minute synthetic tour
    (a short spectral window, so that it holds enough of them)."""
    config = RunConfig(knot_count=4, window_length=16)
    params = config.model_params()
    log = simulate_drive_log(make_model(SyntheticSpec(seed=1)), 120.0, 3.6, 1)
    track = preprocessing.resample(log, config.sample_rate)
    segments = preprocessing.extract_segments(
        track, params, jump_threshold=config.jump_threshold, guard_steps=config.guard_steps
    )
    states = [markov.discretize(seg.series.values, params.n_c) for seg in segments]
    coarse = CoarseModel(
        n_c=params.n_c,
        dt=params.dt,
        transition=markov.transitions_from_counts(markov.count_transitions(states, params.n_c)),
        smoothing_sigma=params.smoothing_sigma,
        smoothing_support=params.smoothing_support,
    )
    capped = [noise.cap(noise.extract_fine(seg.series, params), params.cap_threshold) for seg in segments]
    fine, fit = noise.fit_kernel(capped, params, knot_count=config.knot_count, window_length=config.window_length)
    assert fit.window_count > 0
    model = generator.TwoLevelModel(params=params, coarse=coarse, fine=fine, metadata={})
    report = evaluation.run_mode(evaluation.EvalMode.parse("full"), segments, model, 3)
    assert report.to_dict()["snippet_count"] == report.snippet_count > 0
    assert ModelParams().snippet_duration > 0
