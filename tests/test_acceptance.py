"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Stochastic bounds run under pinned seeds (conftest), so
every check is deterministic.

Run with: pytest tests/test_acceptance.py -v -s
"""

import hashlib
import json
import time

import numpy as np

from laneweave.cli import main
from laneweave.core import OffsetSeries, seed_children
from laneweave.evaluation import (
    METRIC_NAMES,
    EvalMode,
    compute_metrics,
    ks_critical_value,
    run_mode,
)
from laneweave.generator import bench_generation, generate_profile
from laneweave.markov import gaussian_kernel, smooth_values
from laneweave.noise import (
    average_magnitude_spectrum,
    extract_fine,
    generate_noise,
    measured_coarse,
    uniform_noise_floor,
)
from laneweave.synthetic import REFERENCE_DAMPING

from _oracles import brute_force_metrics
from conftest import EVAL_SEED

WALL_LIMIT_S = 1.0
SPEEDUP_FLOOR = 3600.0
SPEEDUP_TARGET = 10_000.0


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\n[criterion {criterion:02d}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def test_criterion_01_generation_speed(reference_model):
    """An 18000-step profile must generate in at most 1 s single-threaded."""
    generate_profile(reference_model, 0.0, 3600.0, 0)  # warm path end to end
    wall = min(
        _timed(lambda r=r: generate_profile(reference_model, 0.0, 3600.0, r))
        for r in range(3)
    )
    speedup = 3600.0 / wall
    _report(
        1,
        wall <= WALL_LIMIT_S and speedup >= SPEEDUP_FLOOR,
        f"18000 steps in {wall * 1e3:.2f} ms, {speedup:,.0f}x realtime "
        f"(limit {WALL_LIMIT_S:.1f} s / {SPEEDUP_FLOOR:,.0f}x; target {SPEEDUP_TARGET:,.0f}x"
        f"{' met' if speedup >= SPEEDUP_TARGET else ' missed'})",
    )


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_02_offline_noise_saving(reference_model):
    """Full generation must cost measurably more than the drift alone."""
    # about one single pair in ten reads <= 0 on a shared host; the median
    # of 5 pairs did so in 1-2% of calls, the median of 15 in none of 210
    row = bench_generation(reference_model, 200_000, 15)
    _report(
        2,
        row["saving_s"] > 0.0 and row["noise_s"] > 0.0,
        f"full={row['full_s'] * 1e3:.2f} ms, "
        f"coarse-only={row['coarse_s'] * 1e3:.2f} ms, "
        f"paired saving={row['saving_s'] * 1e3:.2f} ms "
        f"({row['saving_s'] / row['full_s']:.1%} of full)",
    )


def test_criterion_03_calibration_round_trip(reference_model, calibrated):
    """A 50-minute banded tour must calibrate back to its ground truth."""
    model, summary = calibrated
    visits = np.asarray(summary["row_visits"])
    tv = 0.5 * np.abs(model.coarse.transition - reference_model.coarse.transition).sum(axis=1)
    heavy = visits >= 1000
    worst_tv = float(tv[heavy].max())
    truth = np.asarray(REFERENCE_DAMPING)
    fitted = np.asarray(summary["knot_values"])
    knot_rel = float(np.linalg.norm(fitted - truth) / np.linalg.norm(truth))
    _report(
        3,
        heavy.any() and worst_tv <= 0.05 and knot_rel <= 0.15,
        f"{int(heavy.sum())} rows with >=1e3 visits, worst TV {worst_tv:.4f} (limit 0.05); "
        f"damping knots within {knot_rel:.1%} relative L2 (limit 15%)",
    )


def test_criterion_04_stochasticity_invariants(calibrated):
    """Row sums, kernel normalization, and the smoothing hull must hold."""
    model, _ = calibrated
    row_err = float(np.abs(model.coarse.transition.sum(axis=1) - 1.0).max())
    taps = gaussian_kernel(0.6, 1.0, 0.2)
    tap_err = abs(float(taps.sum()) - 1.0)
    rng = np.random.default_rng(404)
    hull_ok = True
    for _ in range(200):
        values = rng.uniform(-0.5, 0.5, rng.integers(1, 80))
        out = smooth_values(values, taps)
        hull_ok &= out.min() >= values.min() - 1e-12 and out.max() <= values.max() + 1e-12
    _report(
        4,
        row_err <= 1e-9 and tap_err <= 1e-12 and hull_ok,
        f"max row-sum error {row_err:.2e} (limit 1e-9), kernel sum error {tap_err:.2e} "
        f"(limit 1e-12), smoothing stayed inside the input hull on 200 random series",
    )


def test_criterion_05_decomposition_losslessness(params):
    """Residual plus snapped-and-smoothed track must reproduce the input."""
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-0.5, 0.5, rng.integers(2, 200))
        reconstructed = (
            extract_fine(OffsetSeries(params.dt, x), params).values
            + measured_coarse(x, params).values
        )
        worst = max(worst, float(np.abs(reconstructed - x).max()))
    _report(5, worst <= 1e-12, f"worst reconstruction error {worst:.2e} over 100 series (limit 1e-12)")


def test_criterion_06_metric_oracle_equivalence():
    """All ten metrics must match an independent brute-force reference."""
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(1000):
        values = rng.uniform(-0.5, 0.5, rng.integers(2, 80))
        ours = compute_metrics(values)
        reference = np.array([brute_force_metrics(values)[name] for name in METRIC_NAMES])
        worst = max(worst, float(np.abs(ours - reference).max()))
    hand = compute_metrics(np.array([0.0, 0.1, 0.2]))[METRIC_NAMES.index("mean_diff_10")]
    hand_ok = abs(hand - 1.0) <= 1e-12
    _report(
        6,
        worst <= 1e-12 and hand_ok,
        f"worst metric deviation {worst:.2e} over 1000 snippets (limit 1e-12); "
        f"hand case mean_diff_10={hand}",
    )


def test_criterion_07_spectral_consistency(calibrated):
    """Generated jitter must reproduce c times the fitted damping."""
    model, summary = calibrated
    params = model.params
    fine = model.fine
    knot_freqs = np.linspace(0.0, params.sample_rate / 2.0, len(summary["knot_values"]))
    acc = np.zeros(256 // 2 + 1)
    total = 0
    freqs = None
    for k in range(100):
        out = generate_noise(fine, 16384, np.random.default_rng([707, k]))
        freqs, mag, count = average_magnitude_spectrum([out], 256, dt=params.dt)
        acc += mag * count
        total += count
    measured = acc / total
    floor = uniform_noise_floor(fine.noise_halfwidth, 256)
    target = floor * np.interp(freqs, knot_freqs, np.asarray(summary["knot_values"]))
    rel = float(np.linalg.norm(measured - target) / np.linalg.norm(target))
    _report(
        7,
        rel <= 0.10,
        f"relative L2 between generated spectrum and c*damping: {rel:.1%} "
        f"(limit 10%, {total} windows over 100 seeded runs)",
    )


def test_criterion_08_full_model_self_consistency(reference_model, tour_segments):
    """Full-mode evaluation against the generating model: KS below the 1%
    critical value on at least 8 of the 10 metrics."""
    report = run_mode(EvalMode.FULL, tour_segments, reference_model, EVAL_SEED)
    critical = ks_critical_value(report.snippet_count, report.snippet_count, alpha=0.01)
    below = sum(1 for value in report.ks.values() if value < critical)
    _report(
        8,
        report.snippet_count >= 250 and below >= 8,
        f"{below}/10 metrics below the 1% critical value {critical:.4f} "
        f"with {report.snippet_count} snippets per population",
    )


def test_criterion_09_shift_independence(gentle_model, gentle_segments):
    """Time-shifting the capped residual must leave metric means nearly
    unchanged: within 5% of each metric's population std."""
    report = run_mode(EvalMode.SHIFT_TEST, gentle_segments, gentle_model, EVAL_SEED)
    worst_name, worst_ratio = None, -1.0
    for j, name in enumerate(METRIC_NAMES):
        real = report.real[:, j]
        art = report.artificial[:, j]
        spread = float(real.std())
        ratio = abs(float(real.mean() - art.mean())) / spread if spread > 0 else 0.0
        if ratio > worst_ratio:
            worst_name, worst_ratio = name, ratio
    _report(
        9,
        worst_ratio <= 0.05,
        f"worst mean shift {worst_ratio:.2%} of population std ({worst_name}), limit 5%",
    )


def _pipeline(root):
    """Criterion 10's seeded CLI pipeline: synth, calibrate, generate, evaluate."""
    root.mkdir()
    tour = root / "tour.csv"
    model = root / "model.json"
    profile = root / "profile.csv"
    reports = root / "reports"
    assert main(["synth", "--minutes", "10", "--seed", "6", "--out", str(tour)]) == 0
    assert main(["calibrate", "--input", str(tour), "--out", str(model)]) == 0
    assert (
        main(
            [
                "generate",
                "--model",
                str(model),
                "--x0",
                "0.1",
                "--duration",
                "600",
                "--seed",
                "11",
                "--out",
                str(profile),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "evaluate",
                "--model",
                str(model),
                "--input",
                str(tour),
                "--modes",
                "shift,coarse,fine,full",
                "--seed",
                "12",
                "--out",
                str(reports),
            ]
        )
        == 0
    )
    return root


def test_criterion_10_end_to_end_determinism(tmp_path):
    """Two identical seeded CLI pipelines must produce byte-identical
    outputs (the model file compared after dropping its timestamp)."""

    def normalized_model(path):
        document = json.loads(path.read_text())
        document["metadata"].pop("created_at", None)
        return json.dumps(document, sort_keys=True)

    first = _pipeline(tmp_path / "run1")
    second = _pipeline(tmp_path / "run2")

    identical = (first / "tour.csv").read_bytes() == (second / "tour.csv").read_bytes()
    identical &= normalized_model(first / "model.json") == normalized_model(second / "model.json")
    identical &= (first / "profile.csv").read_bytes() == (second / "profile.csv").read_bytes()
    for mode in ("shift", "coarse", "fine", "full"):
        for name in (f"report_{mode}.json", f"summary_{mode}.csv"):
            identical &= (first / "reports" / name).read_bytes() == (
                second / "reports" / name
            ).read_bytes()
    _report(
        10,
        identical,
        "tour, model (timestamp excluded), profile, and all eight report files byte-identical",
    )


# sha256 of each criterion-10 output (Python 3.11, numpy 2.4.6, x86-64).
# A change to any of them changes what a seed produces: re-record only on
# purpose. The model is hashed as saved, minus its creation timestamp.
PIPELINE_DIGESTS = {
    "tour.csv": "bf1d1d1cc3343919f75d2e78f3feec1db8d3344b1736756d98a2c165c041c8ba",
    "model.json": "a4f61cb6ec09025cc462c5874fbe9ed4fe67583312d8faa33dbd2bf471aac2e5",
    "profile.csv": "472c729e059a0f86709c5da8bddf6c9ecc83976729c43b6d10cc04414071a53d",
    "report_shift.json": "a5bb365c46f9c1b3598e6590ceceb3b0e2a4cfc2000405c4afbf7ec947b7c2e0",
    "summary_shift.csv": "101e487e96be601e08dfdf7a614d493241a8cbeada18f2732c13a3ad0b649d1a",
    "report_coarse.json": "38cd44fb5764152b73233baa4856fca15ddb6a7772ae7e7099ea1b11c68fc835",
    "summary_coarse.csv": "53a346efcd5dbf9985e64bff86bcdca645dba92d43082832827fb841f6f0a464",
    "report_fine.json": "20670ffcc67aff9ac6177759c609936da3e5c786b089955ce16d664f05ccb0c3",
    "summary_fine.csv": "d84781d3bbde1eb331fab6297130eb1ad845bf181a50d89755971ebb6bf2bb96",
    "report_full.json": "c33db5bf5b85017a69ebecf382ad7b6274d84f2d3edafd6d74880eb1bb40a49c",
    "summary_full.csv": "fc8a1d2d092fe661eab9f7c7133cfd42732f50d67d14d5169332715ab98321d0",
}


def test_pipeline_outputs_match_recorded_digests(tmp_path):
    """Criterion 10's outputs must stay byte-identical across code changes,
    not just between two runs of the same code."""
    root = _pipeline(tmp_path / "run")
    model = json.loads((root / "model.json").read_text())
    del model["metadata"]["created_at"]
    contents = {"model.json": (json.dumps(model, indent=2) + "\n").encode()}
    for name in ("tour.csv", "profile.csv"):
        contents[name] = (root / name).read_bytes()
    for mode in ("shift", "coarse", "fine", "full"):
        for name in (f"report_{mode}.json", f"summary_{mode}.csv"):
            contents[name] = (root / "reports" / name).read_bytes()
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in contents.items()}
    assert digests == PIPELINE_DIGESTS
