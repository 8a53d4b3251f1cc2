import numpy as np
import pytest

from laneweave.core import ModelParams, relative_offset
from laneweave.errors import SyntheticSpecError
from laneweave.generator import generate_profile
from laneweave.synthetic import (
    SyntheticSpec,
    banded_transition,
    make_model,
    simulate_drive_log,
)


def test_spec_defaults_are_the_model_defaults():
    spec = SyntheticSpec()
    assert (spec.n_c, spec.dt) == (ModelParams.n_c, ModelParams.dt)
    assert make_model(spec).params == ModelParams()


class TestTransitionFamilies:
    def test_banded_hand_rows(self):
        t = banded_transition(3, 0.9)
        assert np.allclose(t[0], [0.9, 0.1, 0.0])
        assert np.allclose(t[1], [0.05, 0.9, 0.05])
        assert np.allclose(t[2], [0.0, 0.1, 0.9])

    def test_banded_rows_stochastic(self):
        t = banded_transition(20, 0.7)
        assert np.allclose(t.sum(axis=1), 1.0)

    def test_identity_family_absorbs(self):
        model = make_model(SyntheticSpec(family="identity", kernel="zero"))
        profile = generate_profile(model, -0.3, 20.0, 4)
        assert np.ptp(profile.values) <= 1e-15
        assert profile.values[0] == pytest.approx(-0.275)

    def test_uniform_family(self):
        model = make_model(SyntheticSpec(family="uniform"))
        assert np.allclose(model.coarse.transition, 0.05)

    def test_explicit_family(self):
        explicit = np.eye(4)
        model = make_model(SyntheticSpec(n_c=4, family="explicit", transition=explicit))
        assert np.array_equal(model.coarse.transition, explicit)

    def test_explicit_requires_matrix(self):
        with pytest.raises(SyntheticSpecError):
            make_model(SyntheticSpec(family="explicit"))

    def test_invalid_explicit_matrix(self):
        bad = np.full((4, 4), 0.3)
        with pytest.raises(SyntheticSpecError):
            make_model(SyntheticSpec(n_c=4, family="explicit", transition=bad))

    def test_unknown_family(self):
        with pytest.raises(SyntheticSpecError):
            make_model(SyntheticSpec(family="circular"))

    def test_bad_stay_probability(self):
        with pytest.raises(SyntheticSpecError):
            make_model(SyntheticSpec(stay_probability=1.5))


class TestKernelFamilies:
    def test_zero_kernel_silences_noise(self):
        model = make_model(SyntheticSpec(kernel="zero"))
        assert np.array_equal(model.fine.kernel_taps, [0.0])

    def test_identity_kernel(self):
        model = make_model(SyntheticSpec(kernel="identity"))
        assert np.array_equal(model.fine.kernel_taps, [1.0])

    def test_given_requires_taps(self):
        with pytest.raises(SyntheticSpecError):
            make_model(SyntheticSpec(kernel="given"))

    def test_unknown_kernel(self):
        with pytest.raises(SyntheticSpecError):
            make_model(SyntheticSpec(kernel="triangular"))

    def test_reference_kernel_is_default(self):
        model = make_model(SyntheticSpec())
        assert model.fine.kernel_taps.size == 21


class TestSimulateDriveLog:
    def test_emission_mapping_at_lane_center(self):
        # x = 0 sits exactly between the markings; the generated profile
        # holds the nearest bin center, so check the mapping directly.
        model = make_model(SyntheticSpec(family="identity", kernel="zero"))
        log = simulate_drive_log(model, 10.0, 3.6, 0, initial_offset=0.0)
        assert np.allclose(log.dist_left + log.dist_right, 3.6)
        assert np.allclose(log.dist_left, 3.6 * (0.5 + 0.025))  # bin center 0.025
        assert relative_offset(1.8, 1.8) == 0.0

    def test_left_marking_convention(self):
        model = make_model(SyntheticSpec(family="identity", kernel="zero"))
        log = simulate_drive_log(model, 10.0, 3.6, 0, initial_offset=-0.5)
        # -0.5 discretizes to the first bin center -0.475
        assert np.allclose(log.dist_left, 3.6 * (0.5 - 0.475))
        assert np.allclose(log.dist_right, 3.6 * (0.5 + 0.475))

    def test_round_trip_recovers_profile_exactly(self, reference_model):
        log = simulate_drive_log(reference_model, 60.0, 3.6, 42)
        profile = generate_profile(reference_model, 0.0, 60.0, 42)
        recovered = relative_offset(log.dist_left, log.dist_right)
        assert np.abs(recovered - profile.values).max() <= 1e-12

    def test_constant_velocity_and_rate(self, reference_model):
        log = simulate_drive_log(reference_model, 10.0, 3.6, 0, v_lon=90.0)
        assert np.allclose(log.v_lon, 90.0)
        assert len(log) == 50
        assert np.allclose(np.diff(log.t), 0.2)

    def test_lane_width_must_be_positive(self, reference_model):
        with pytest.raises(ValueError):
            simulate_drive_log(reference_model, 10.0, 0.0, 0)

    def test_deterministic_per_seed(self, reference_model):
        a = simulate_drive_log(reference_model, 10.0, 3.6, 5)
        b = simulate_drive_log(reference_model, 10.0, 3.6, 5)
        assert np.array_equal(a.dist_left, b.dist_left)


def test_csv_loop_closes(tmp_path, reference_model):
    from laneweave.pipeline import format_drive_log_csv, read_drive_log_csv

    log = simulate_drive_log(reference_model, 30.0, 3.6, 3)
    path = tmp_path / "tour.csv"
    path.write_text(format_drive_log_csv(log))
    loaded = read_drive_log_csv(path)
    assert np.array_equal(loaded.t, log.t)
    assert np.array_equal(loaded.dist_left, log.dist_left)
    assert np.array_equal(loaded.dist_right, log.dist_right)
    assert np.array_equal(loaded.v_lon, log.v_lon)
