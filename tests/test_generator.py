import dataclasses
import json
import os
import stat
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from laneweave.core import ModelParams
from laneweave.errors import ArgumentUsageError, SchemaError
from laneweave.generator import (
    TwoLevelModel,
    atomic_write_text,
    coarse_profile,
    derive_streams,
    generate_profile,
    load_model,
    model_from_dict,
    model_to_dict,
    read_input,
    save_model,
)
from laneweave.markov import COPIED_SETTINGS, CoarseModel, discretize
from laneweave.noise import generate_noise
from laneweave.synthetic import SyntheticSpec, banded_transition, make_model


@pytest.fixture
def degenerate_model():
    return make_model(SyntheticSpec(family="identity", kernel="zero"))


class TestGenerateProfile:
    def test_degenerate_model_holds_initial_bin_center(self, degenerate_model):
        profile = generate_profile(degenerate_model, 0.12, 10.0, 0)
        assert np.allclose(profile.values, 0.125)

    def test_ten_seconds_gives_fifty_steps(self, reference_model):
        assert len(generate_profile(reference_model, 0.0, 10.0, 0)) == 50

    def test_one_hour_gives_18000_steps(self, reference_model):
        assert len(generate_profile(reference_model, 0.0, 3600.0, 0)) == 18000

    def test_same_seed_bit_identical(self, reference_model):
        a = generate_profile(reference_model, 0.1, 60.0, 77).values
        b = generate_profile(reference_model, 0.1, 60.0, 77).values
        assert np.array_equal(a, b)

    def test_generator_seed_is_refused(self, reference_model):
        with pytest.raises(ArgumentUsageError, match="seed"):
            generate_profile(reference_model, 0.0, 10.0, np.random.default_rng(77))

    def test_jitter_independent_of_transition_matrix(self, reference_model):
        # Same seed, different chain: the jitter component must not move.
        other = make_model(SyntheticSpec(family="uniform"))
        n = 500
        jitters = []
        for model in (reference_model, other):
            rng_coarse, rng_fine = derive_streams(31)
            drift = coarse_profile(model, discretize(0.0, 20), n, rng_coarse)
            jitter = generate_noise(model.fine, n, rng_fine)
            profile = generate_profile(model, 0.0, n * 0.2, 31).values
            assert np.array_equal(profile, drift + jitter)
            jitters.append(jitter)
        assert np.array_equal(jitters[0], jitters[1])

    def test_output_bound(self, reference_model):
        profile = generate_profile(reference_model, 0.4, 400.0, 5).values
        bound = 0.475 + reference_model.fine.output_bound
        assert np.abs(profile).max() <= bound + 1e-12

    def test_occupancy_matches_stationary_distribution(self, reference_model):
        params = reference_model.params
        profile = generate_profile(reference_model, 0.0, 1e6 * params.dt, 123).values
        occupied = np.bincount(discretize(profile, params.n_c), minlength=params.n_c)
        occupied = occupied / profile.size
        transition = reference_model.coarse.transition
        evals, evecs = np.linalg.eig(transition.T)
        pi = np.real(evecs[:, np.argmax(np.real(evals))])
        pi /= pi.sum()
        assert 0.5 * np.abs(occupied - pi).sum() <= 0.02

    def test_invalid_arguments(self, reference_model):
        with pytest.raises(ValueError):
            generate_profile(reference_model, 0.6, 10.0, 0)
        with pytest.raises(ValueError):
            generate_profile(reference_model, 0.0, 0.05, 0)

class TestModelConsistency:
    # params differing from the coarse model's copy in one setting each
    @pytest.mark.parametrize(
        "changes",
        [{"n_c": 10}, {"dt": 0.1}, {"smoothing_sigma": 0.2}, {"smoothing_support": 2.0}],
        ids=COPIED_SETTINGS,
    )
    def test_copied_setting_mismatch_rejected(self, reference_model, changes):
        name = next(iter(changes))
        params = dataclasses.replace(reference_model.params, **changes)
        with pytest.raises(ValueError, match=f"^coarse model and params disagree on {name}$"):
            TwoLevelModel(params, reference_model.coarse, reference_model.fine)


class TestPersistence:
    def test_from_params_model_round_trips_to_the_same_bytes(self, reference_model, tmp_path):
        # settings off the defaults, so that a setting lost on the way shows
        params = ModelParams(n_c=7, dt=0.25, smoothing_sigma=0.3, smoothing_support=0.75)
        coarse = CoarseModel.from_params(params, banded_transition(7, 0.8))
        model = TwoLevelModel(params, coarse, reference_model.fine)
        save_model(model, tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json")
        assert [getattr(loaded.coarse, name) for name in COPIED_SETTINGS] == [7, 0.25, 0.3, 0.75]
        assert loaded.params == params and loaded.params.sample_rate == 4.0
        a = generate_profile(model, 0.1, 60.0, 5).values
        assert a.tobytes() == generate_profile(loaded, 0.1, 60.0, 5).values.tobytes()

    def test_round_trip_profiles_bit_identical(self, reference_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(reference_model, path)
        loaded = load_model(path)
        a = generate_profile(reference_model, 0.2, 120.0, 9).values
        b = generate_profile(loaded, 0.2, 120.0, 9).values
        assert np.array_equal(a, b)

    def test_round_trip_preserves_every_number(self, reference_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(reference_model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.coarse.transition, reference_model.coarse.transition)
        assert np.array_equal(loaded.fine.kernel_taps, reference_model.fine.kernel_taps)
        assert loaded.params == reference_model.params
        assert loaded.metadata == reference_model.metadata

    @settings(max_examples=50, deadline=None)
    @given(dt=st.floats(0.002, 1.0))
    def test_rate_within_tolerance_loads_as_one_over_dt(self, reference_model, dt):
        doc = model_to_dict(reference_model)
        doc["params"].update(dt=dt, sample_rate=(1 / dt) * (1 + 5e-10))
        params = model_from_dict(doc).params
        assert params.dt == dt and params.sample_rate == 1 / dt

    def test_row_sum_violation_names_row(self, reference_model):
        doc = model_to_dict(reference_model)
        n_c = reference_model.params.n_c
        doc["coarse"]["transition"][2 * n_c + 2] -= 0.1  # row 2 now sums to 0.9
        with pytest.raises(SchemaError, match="row 2"):
            model_from_dict(doc)

    def test_unsupported_version(self, reference_model):
        doc = model_to_dict(reference_model)
        doc["version"] = 999
        with pytest.raises(SchemaError, match="version"):
            model_from_dict(doc)

    def test_missing_section(self, reference_model):
        doc = model_to_dict(reference_model)
        del doc["fine"]
        with pytest.raises(SchemaError, match="fine"):
            model_from_dict(doc)

    def test_wrong_transition_length(self, reference_model):
        doc = model_to_dict(reference_model)
        doc["coarse"]["transition"] = doc["coarse"]["transition"][:-1]
        with pytest.raises(SchemaError, match="entries"):
            model_from_dict(doc)

    def test_state_centers_must_match_grid(self, reference_model):
        doc = model_to_dict(reference_model)
        doc["coarse"]["state_centers"][0] += 1e-6
        with pytest.raises(SchemaError, match="state_centers"):
            model_from_dict(doc)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("coarse", "transition", ["a"] * 400),
            ("coarse", "state_centers", {"a": 1}),
            ("fine", "kernel_taps", {"a": 1}),
            ("fine", "noise_halfwidth", [1.0]),
        ],
    )
    def test_non_numeric_field_is_format_error(self, reference_model, section, key, value):
        doc = model_to_dict(reference_model)
        doc[section][key] = value
        with pytest.raises(SchemaError):
            model_from_dict(doc)

    def test_reading_a_model_allocates_about_its_size(self, calibrated, tmp_path):
        # a read of MAX_INPUT_BYTES + 1 at once allocated all 64 MiB first
        path = tmp_path / "model.json"
        save_model(calibrated[0], path)
        tracemalloc.start()
        try:
            load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size < peak < 1 << 20

    def test_a_file_of_several_reads_is_decoded_whole(self, tmp_path):
        # after the 7 bytes of '{"n": "', each 64 KiB read ends inside an é
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n": "é" * (3 << 16)}, ensure_ascii=False), encoding="utf-8")
        assert read_input(path, "config") == {"n": "é" * (3 << 16)}

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError, match="not found"):
            load_model(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{broken")
        with pytest.raises(SchemaError, match="JSON"):
            load_model(path)

    def test_file_is_valid_json_document(self, reference_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(reference_model, path)
        doc = json.loads(path.read_text())
        assert doc["version"] == 1
        assert set(doc["params"]) == {
            "n_c",
            "dt",
            "smoothing_sigma",
            "smoothing_support",
            "cap_threshold",
            "v_min",
            "sample_rate",
        }
        assert len(doc["coarse"]["transition"]) == 400


class TestAtomicWrite:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_mode_follows_umask(self, tmp_path, umask, mode):
        path = tmp_path / "out.txt"
        previous = os.umask(umask)
        try:
            # the kernel applies the umask, so the process-wide one is never read or set
            with mock.patch.object(os, "umask", side_effect=AssertionError("os.umask called")):
                atomic_write_text(path, "t,x\n")
        finally:
            os.umask(previous)
        assert stat.S_IMODE(path.stat().st_mode) == mode
        assert path.read_text() == "t,x\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_refused_write_removes_only_the_directories_it_made(self, tmp_path):
        (tmp_path / "kept").mkdir()
        path = tmp_path / "kept" / "newdir" / "sub" / ("p" * 300 + ".csv")
        with pytest.raises(ArgumentUsageError, match="File name too long"):
            atomic_write_text(path, "t,x\n")
        assert os.listdir(tmp_path) == ["kept"]
        assert os.listdir(tmp_path / "kept") == []

    def test_refused_rename_removes_the_temp_file(self, tmp_path):
        with mock.patch.object(os, "replace", side_effect=PermissionError(13, "Permission denied")):
            with pytest.raises(ArgumentUsageError, match="Permission denied"):
                atomic_write_text(tmp_path / "out.txt", "t,x\n")
        assert not list(tmp_path.glob(".out.txt.*.tmp"))


def test_banded_transition_matches_hand_rows():
    t = banded_transition(3, 0.9)
    assert np.allclose(t[0], [0.9, 0.1, 0.0])
    assert np.allclose(t[1], [0.05, 0.9, 0.05])
    assert np.allclose(t[2], [0.0, 0.1, 0.9])
