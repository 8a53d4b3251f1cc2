import numpy as np
import pytest
from hypothesis import given, strategies as st

from laneweave.core import OffsetSeries
from laneweave.errors import InsufficientDataError
from laneweave.markov import gaussian_kernel, state_centers
from laneweave.noise import (
    FineModel,
    average_magnitude_spectrum,
    cap,
    extract_fine,
    fit_kernel,
    generate_noise,
    kernel_from_damping,
    measured_coarse,
    uniform_noise_floor,
)


def series(values, dt=0.2):
    return OffsetSeries(dt, np.asarray(values, dtype=float))


@pytest.fixture
def reference_taps(params):
    knots = np.linspace(0.0, params.sample_rate / 2, 6)
    return kernel_from_damping(knots, np.array([1.0, 1.0, 0.8, 0.5, 0.3, 0.2]), params.dt)


class TestExtractFine:
    def test_constant_at_state_center_is_zero(self, params):
        center = state_centers(params.n_c)[4]
        phi = extract_fine(series(np.full(50, center)), params)
        assert np.allclose(phi.values, 0.0, atol=1e-15)

    def test_constant_off_center(self, params):
        phi = extract_fine(series(np.full(50, 0.03)), params)
        assert np.allclose(phi.values, 0.005, atol=1e-12)

    def test_step_between_adjacent_centers_peaks_at_half_height(self, params):
        taps = gaussian_kernel(params.smoothing_sigma, params.smoothing_support, params.dt)
        step = np.concatenate([np.full(30, -0.475), np.full(30, -0.425)])
        phi = extract_fine(series(step), params).values
        height = 0.05
        expected_peak = height * (0.5 - taps[taps.size // 2] / 2)
        assert phi.max() == pytest.approx(expected_peak, abs=1e-12)
        assert phi.min() == pytest.approx(-expected_peak, abs=1e-12)

    def test_decomposition_is_lossless(self, params):
        rng = np.random.default_rng(21)
        for _ in range(100):
            x = rng.uniform(-0.5, 0.5, rng.integers(2, 120))
            phi = extract_fine(series(x), params).values
            coarse = measured_coarse(x, params).values
            assert np.abs((phi + coarse) - x).max() <= 1e-12


class TestCap:
    def test_within_band_unchanged(self):
        out = cap(series([0.01, -0.02]), 0.03)
        assert np.allclose(out.values, [0.01, -0.02])

    def test_upper_clip(self):
        assert cap(series([0.08]), 0.03).values[0] == pytest.approx(0.03)

    def test_lower_clip(self):
        assert cap(series([-0.5]), 0.03).values[0] == pytest.approx(-0.03)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            cap(series([0.0]), 0.0)

    @given(st.lists(st.floats(-1, 1), min_size=1, max_size=30))
    def test_idempotent(self, values):
        once = cap(series(values), 0.03)
        twice = cap(once, 0.03)
        assert np.array_equal(once.values, twice.values)

    @given(st.lists(st.floats(-1, 1), min_size=2, max_size=30))
    def test_order_preserving(self, values):
        out = cap(series(values), 0.03).values
        order = np.argsort(values, kind="stable")
        assert np.all(np.diff(out[order]) >= 0)


class TestSpectrumEstimation:
    def test_windows_do_not_span_segments(self, params):
        segs = [np.zeros(300), np.zeros(300)]
        _, _, count = average_magnitude_spectrum(segs, 256, dt=params.dt)
        # (300-256)//128+1 = 1 window per segment; one long 600 would give 3
        assert count == 2

    def test_zero_windows_raise(self, params):
        with pytest.raises(InsufficientDataError):
            average_magnitude_spectrum([np.zeros(100)], 256, dt=params.dt)

    def test_noise_floor_matches_monte_carlo(self):
        rng = np.random.default_rng(13)
        mags = [
            np.abs(np.fft.rfft(rng.uniform(-0.03, 0.03, 256)))[1:-1].mean()
            for _ in range(600)
        ]
        assert uniform_noise_floor(0.03, 256) == pytest.approx(np.mean(mags), rel=0.02)


class TestKernelFromDamping:
    def test_taps_shape_and_symmetry(self, reference_taps):
        assert reference_taps.size == 21  # +-2 s at 0.2 s steps
        assert np.allclose(reference_taps, reference_taps[::-1], atol=1e-15)

    def test_ends_tapered_to_zero(self, reference_taps):
        assert reference_taps[0] == 0.0
        assert reference_taps[-1] == 0.0

    def test_response_matches_target(self, params, reference_taps):
        knots = np.linspace(0.0, params.sample_rate / 2, 6)
        target_values = np.array([1.0, 1.0, 0.8, 0.5, 0.3, 0.2])
        buf = np.zeros(256)
        half = reference_taps.size // 2
        buf[: half + 1] = reference_taps[half:]
        buf[-half:] = reference_taps[:half]
        achieved = np.abs(np.fft.rfft(buf))
        target = np.interp(np.fft.rfftfreq(256, params.dt), knots, target_values)
        rel = np.linalg.norm(achieved - target) / np.linalg.norm(target)
        assert rel <= 0.02


class TestFitKernel:
    def test_recovers_known_kernel(self, params, reference_taps):
        rng = np.random.default_rng(17)
        segs = []
        for _ in range(4):
            drive = rng.uniform(-0.03, 0.03, 4000 + reference_taps.size - 1)
            segs.append(series(np.convolve(drive, reference_taps, mode="valid")))
        fine, fit = fit_kernel(segs, params)
        truth = np.array([1.0, 1.0, 0.8, 0.5, 0.3, 0.2])
        rel = np.linalg.norm(fit.knot_values - truth) / np.linalg.norm(truth)
        assert rel <= 0.15
        assert fine.kernel_taps.size == 21

    def test_white_input_fits_flat_unit_damping(self, params):
        rng = np.random.default_rng(18)
        segs = [series(rng.uniform(-0.03, 0.03, 8000)) for _ in range(2)]
        _, fit = fit_kernel(segs, params)
        assert np.abs(fit.knot_values - 1.0).max() <= 0.10

    def test_zero_signal_fits_zero(self, params):
        fine, fit = fit_kernel([series(np.zeros(4096))], params)
        assert np.allclose(fit.knot_values, 0.0, atol=1e-12)
        noise = generate_noise(fine, 1000, np.random.default_rng(3))
        assert np.abs(noise).max() <= 1e-12

    def test_insufficient_data_names_shortfall(self, params):
        with pytest.raises(InsufficientDataError, match="2048"):
            fit_kernel([series(np.zeros(500))], params)

    def test_knot_grid_spans_nyquist(self, params):
        _, fit = fit_kernel([series(np.zeros(4096))], params)
        assert fit.knot_frequencies[0] == 0.0
        assert fit.knot_frequencies[-1] == pytest.approx(params.sample_rate / 2)


class TestGenerateNoise:
    def test_identity_kernel_is_raw_uniform(self):
        model = FineModel(np.ones(1), 0.03)
        out = generate_noise(model, 10_000, np.random.default_rng(5))
        assert np.abs(out).max() <= 0.03
        assert np.abs(out).max() > 0.029  # nearly reaches the bound

    def test_two_tap_average_has_half_lag_one_autocorrelation(self):
        model = FineModel(np.array([0.5, 0.5]), 0.03)
        out = generate_noise(model, 100_000, np.random.default_rng(6))
        centered = out - out.mean()
        rho = (centered[1:] * centered[:-1]).mean() / centered.var()
        assert rho == pytest.approx(0.5, abs=0.02)

    def test_convolution_bound_always_holds(self, reference_taps):
        model = FineModel(reference_taps, 0.03)
        out = generate_noise(model, 50_000, np.random.default_rng(7))
        assert np.abs(out).max() <= model.output_bound + 1e-15

    def test_mean_is_stationary_near_zero(self, reference_taps):
        model = FineModel(reference_taps, 0.03)
        out = generate_noise(model, 1_000_000, np.random.default_rng(8))
        # var(mean) ~ (r^2/3) * (sum taps)^2 / n for the summed drive
        se = 0.03 * abs(reference_taps.sum()) / np.sqrt(3 * out.size)
        assert abs(out.mean()) <= 3 * se

    def test_deterministic_per_seed(self, reference_taps):
        model = FineModel(reference_taps, 0.03)
        a = generate_noise(model, 1000, np.random.default_rng(9))
        b = generate_noise(model, 1000, np.random.default_rng(9))
        assert isinstance(a, np.ndarray) and a.shape == (1000,)
        assert np.array_equal(a, b)

    def test_spectral_consistency_with_fitted_damping(self, params, reference_taps):
        rng = np.random.default_rng(19)
        segs = [
            series(np.convolve(rng.uniform(-0.03, 0.03, 6000 + reference_taps.size - 1),
                               reference_taps, mode="valid"))
            for _ in range(3)
        ]
        fine, fit = fit_kernel(segs, params)
        acc = np.zeros(129)
        total = 0
        for k in range(20):
            out = generate_noise(fine, 8192, np.random.default_rng([55, k]))
            freqs, mag, count = average_magnitude_spectrum([out], 256, dt=params.dt)
            acc += mag * count
            total += count
        measured = acc / total
        target = uniform_noise_floor(params.cap_threshold, 256) * np.interp(
            freqs, fit.knot_frequencies, fit.knot_values
        )
        rel = np.linalg.norm(measured - target) / np.linalg.norm(target)
        assert rel <= 0.10

    def test_rejects_zero_steps(self, reference_taps):
        model = FineModel(reference_taps, 0.03)
        with pytest.raises(ValueError):
            generate_noise(model, 0, np.random.default_rng(0))


class TestFineModelValidation:
    def test_rejects_empty_taps(self):
        with pytest.raises(ValueError):
            FineModel(np.array([]), 0.03)

    def test_rejects_nonfinite_taps(self):
        with pytest.raises(ValueError):
            FineModel(np.array([np.inf]), 0.03)

    def test_rejects_nonpositive_halfwidth(self):
        with pytest.raises(ValueError):
            FineModel(np.ones(1), 0.0)
