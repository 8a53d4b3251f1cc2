import math

import numpy as np
import pytest
import hypothesis.extra.numpy as hnp
from hypothesis import given, settings, strategies as st

from laneweave.errors import InsufficientDataError
from laneweave.markov import (
    CoarseModel,
    count_transitions,
    discretize,
    gaussian_kernel,
    sample_chain,
    smooth_values,
    state_centers,
    transitions_from_counts,
)
from laneweave.synthetic import banded_transition

from _oracles import add_at_transitions, brute_force_smooth


def _model(transition, n_c=None):
    transition = np.asarray(transition, dtype=float)
    return CoarseModel(
        n_c=n_c or transition.shape[0],
        dt=0.2,
        transition=transition,
        smoothing_sigma=0.6,
        smoothing_support=1.0,
    )


class TestDiscretize:
    def test_lower_boundary(self):
        assert discretize(-0.5, 20) == 0

    def test_upper_boundary_closed(self):
        assert discretize(0.5, 20) == 19

    def test_shared_edge_goes_up(self):
        assert discretize(0.0, 20) == 10

    def test_clamping(self):
        assert discretize(-0.7, 20) == 0
        assert discretize(0.7, 20) == 19

    def test_array(self):
        out = discretize(np.array([-0.5, 0.0, 0.5]), 20)
        assert out.tolist() == [0, 10, 19]

    @given(st.integers(min_value=2, max_value=40))
    def test_round_trip_identity_on_states(self, n_c):
        states = np.arange(n_c)
        centers = state_centers(n_c)
        assert np.array_equal(discretize(centers, n_c), states)


class TestStateCenters:
    def test_first_center(self):
        assert state_centers(20)[0] == pytest.approx(-0.475)

    def test_last_center(self):
        assert state_centers(20)[19] == pytest.approx(0.475)

    def test_middle_center(self):
        assert np.allclose(state_centers(20)[[10, 10]], [0.025, 0.025])

    def test_centers_increasing_within_range(self):
        centers = state_centers(20)
        assert np.all(np.diff(centers) > 0)
        assert centers[0] > -0.5 and centers[-1] < 0.5


class TestGaussianKernel:
    def test_tap_count_and_sum(self):
        taps = gaussian_kernel(0.6, 1.0, 0.2)
        assert taps.size == 11
        assert abs(taps.sum() - 1.0) <= 1e-12

    def test_center_is_maximum(self):
        taps = gaussian_kernel(0.6, 1.0, 0.2)
        assert taps.argmax() == taps.size // 2

    def test_edge_to_center_ratio(self):
        taps = gaussian_kernel(0.6, 1.0, 0.2)
        ratio = taps[0] / taps[taps.size // 2]
        assert ratio == pytest.approx(math.exp(-1.0 / (2 * 0.36)), abs=1e-12)

    def test_symmetry(self):
        taps = gaussian_kernel(0.45, 1.4, 0.2)
        assert np.allclose(taps, taps[::-1], atol=0)

    @pytest.mark.parametrize("sigma", [1e-3, 1e-156, 1e-200, 5e-324])
    def test_narrow_sigma_leaves_the_centre_tap(self, sigma):
        taps = gaussian_kernel(sigma, 1.0, 0.2)
        assert taps.tolist() == [0.0] * 5 + [1.0] + [0.0] * 5

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            gaussian_kernel(0.0, 1.0, 0.2)
        with pytest.raises(ValueError):
            gaussian_kernel(0.5, 0.1, 0.2)


class TestSmooth:
    def test_constant_preserved_everywhere(self):
        out = smooth_values(np.full(30, 0.3), gaussian_kernel(0.6, 1.0, 0.2))
        assert np.allclose(out, 0.3, atol=1e-15)

    def test_interior_impulse_reproduces_taps(self):
        taps = gaussian_kernel(0.6, 1.0, 0.2)
        values = np.zeros(31)
        values[15] = 1.0
        out = smooth_values(values, taps)
        assert np.allclose(out[10:21], taps, atol=1e-15)

    def test_step_becomes_monotone_ramp(self):
        taps = gaussian_kernel(0.6, 1.0, 0.2)
        values = np.concatenate([np.full(20, -0.475), np.full(20, -0.425)])
        out = smooth_values(values, taps)
        assert np.all(np.diff(out) >= -1e-15)
        assert out[0] == pytest.approx(-0.475)
        assert out[-1] == pytest.approx(-0.425)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        taps = gaussian_kernel(0.6, 1.0, 0.2)
        values = rng.uniform(-0.5, 0.5, 40)
        expected = brute_force_smooth(values.tolist(), taps.tolist())
        assert np.allclose(smooth_values(values, taps), expected, atol=1e-12)

    def test_stays_within_input_hull(self):
        rng = np.random.default_rng(6)
        taps = gaussian_kernel(0.6, 1.0, 0.2)
        for _ in range(20):
            values = rng.uniform(-0.5, 0.5, rng.integers(1, 50))
            out = smooth_values(values, taps)
            assert out.min() >= values.min() - 1e-12
            assert out.max() <= values.max() + 1e-12

    def test_short_series_handled(self):
        taps = gaussian_kernel(0.6, 1.0, 0.2)
        assert smooth_values(np.array([0.2]), taps) == pytest.approx([0.2])
        assert np.allclose(smooth_values(np.array([0.1, 0.1]), taps), 0.1)


class TestEstimateTransitions:
    def test_hand_counted_single_sequence(self):
        t = transitions_from_counts(count_transitions([np.array([0, 0, 1, 1, 0])], 2))
        assert np.allclose(t, [[0.5, 0.5], [0.5, 0.5]])

    def test_self_transitions_only(self):
        # only bin 3 is visited: every other row steps one bin toward it
        t = transitions_from_counts(count_transitions([np.array([3, 3, 3, 3])], 8))
        expected = np.zeros((8, 8))
        expected[3, 3] = 1.0
        for row in (0, 1, 2):
            expected[row, row + 1] = 1.0
        for row in (4, 5, 6, 7):
            expected[row, row - 1] = 1.0
        assert np.array_equal(t, expected)

    def test_edge_row_on_a_tie_steps_toward_the_centre(self):
        # bin 2 is as far from bin 0 as from bin 4; the centre is bin 2
        counts = np.zeros((5, 5), dtype=np.int64)
        counts[0, 0] = counts[4, 4] = 1
        t = transitions_from_counts(counts)
        assert t[1].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
        assert t[3].tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]
        assert t[2].tolist() == [0.0, 1.0, 0.0, 0.0, 0.0]
        counts = np.zeros((6, 6), dtype=np.int64)
        counts[0, 0] = counts[4, 4] = 1
        assert transitions_from_counts(counts)[2].tolist() == [0.0, 0.0, 0.0, 1.0, 0.0, 0.0]

    @settings(max_examples=200, deadline=None)
    @given(
        counts=st.integers(2, 9)
        .flatmap(lambda n: hnp.arrays(np.int64, (n, n), elements=st.integers(0, 3)))
        .filter(lambda counts: counts.sum() > 0)
    )
    def test_repaired_chain_traps_no_walk(self, counts):
        n_c = counts.shape[0]
        t = transitions_from_counts(counts)
        visited = counts.sum(axis=1) > 0
        assert np.array_equal(t[visited], counts[visited] / counts[visited].sum(axis=1, keepdims=True))
        assert np.abs(t.sum(axis=1) - 1.0).max() <= 1e-12
        step = (t > 0).astype(np.int64)
        # states reachable in exactly k steps, k = 1..n_c
        frontier = np.eye(n_c, dtype=np.int64)
        reaches_visited = visited.copy()
        for _ in range(n_c):
            frontier = np.minimum(frontier @ step, 1)
            reaches_visited |= (frontier[:, visited] > 0).any(axis=1)
        assert reaches_visited.all()
        # a state lies in a closed class when every state it reaches leads
        # back to it; no such class is made of repaired states alone
        reach = np.eye(n_c, dtype=np.int64)
        for _ in range(n_c):
            reach = np.minimum(reach + reach @ step, 1)
        for i in np.flatnonzero(np.all((reach == 0) | (reach.T > 0), axis=1)):
            members = (reach[i] > 0) & (reach[:, i] > 0)
            assert visited[members].any()

    def test_segment_boundary_not_counted(self):
        t = transitions_from_counts(count_transitions([np.array([0, 1]), np.array([1, 0])], 2))
        assert t[0, 1] == 1.0
        assert t[1, 0] == 1.0

    def test_no_transitions_raises(self):
        with pytest.raises(InsufficientDataError):
            transitions_from_counts(count_transitions([np.array([4])], 8))

    def test_rows_stochastic_on_random_data(self):
        rng = np.random.default_rng(7)
        segs = [rng.integers(0, 12, size=200) for _ in range(5)]
        t = transitions_from_counts(count_transitions(segs, 12))
        assert np.all(np.abs(t.sum(axis=1) - 1.0) <= 1e-9)
        assert t.min() >= 0.0 and t.max() <= 1.0

    def test_counts_reject_out_of_range(self):
        with pytest.raises(ValueError):
            count_transitions([np.array([0, 5])], 3)

    @given(
        n_c=st.integers(2, 6),
        segments=st.lists(st.lists(st.integers(-1, 6), max_size=8), max_size=6),
    )
    def test_counts_match_one_add_at_per_segment(self, n_c, segments):
        # empty and one-state segments count nothing and are not checked
        segments = [np.array(seg, dtype=np.int64) for seg in segments]
        try:
            expected = add_at_transitions(segments, n_c)
        except ValueError:
            with pytest.raises(ValueError, match="state index out of range"):
                count_transitions(segments, n_c)
            return
        counts = count_transitions(segments, n_c)
        assert counts.dtype == np.int64 and counts.shape == (n_c, n_c)
        assert np.array_equal(counts, expected)

    def test_recovers_known_chain(self):
        # >= 1e5 transitions from a known banded chain; rows visited often
        # must estimate back within 0.05 total variation.
        true = banded_transition(20, 0.9)
        model = _model(true)
        states = sample_chain(model, 10, 200_000, np.random.default_rng(123))
        estimated = transitions_from_counts(count_transitions([states], 20))
        visits = np.bincount(states[:-1], minlength=20)
        tv = 0.5 * np.abs(estimated - true).sum(axis=1)
        heavy = visits >= 1000
        assert heavy.any()
        assert tv[heavy].max() <= 0.05


class TestSampleChain:
    def test_identity_matrix_absorbs(self):
        path = sample_chain(_model(np.eye(20)), 7, 100, np.random.default_rng(0))
        assert np.all(path == 7)

    def test_deterministic_alternation(self):
        path = sample_chain(_model([[0.0, 1.0], [1.0, 0.0]]), 0, 4, np.random.default_rng(0))
        assert path.tolist() == [0, 1, 0, 1]

    def test_uniform_rows_occupancy(self):
        n_c = 20
        model = _model(np.full((n_c, n_c), 1.0 / n_c))
        path = sample_chain(model, 0, 1_000_000, np.random.default_rng(99))
        freq = np.bincount(path, minlength=n_c) / path.size
        assert np.abs(freq - 1.0 / n_c).max() <= 0.005

    def test_same_seed_bit_identical(self):
        model = _model(banded_transition(20, 0.9))
        a = sample_chain(model, 5, 10_000, np.random.default_rng(2024))
        b = sample_chain(model, 5, 10_000, np.random.default_rng(2024))
        assert np.array_equal(a, b)

    def test_invalid_arguments(self):
        model = _model(np.eye(4))
        with pytest.raises(ValueError):
            sample_chain(model, 4, 10, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_chain(model, 0, 0, np.random.default_rng(0))


class TestCoarseModelValidation:
    def test_bad_row_sum_names_row(self):
        transition = np.eye(5)
        transition[3, 3] = 0.9
        with pytest.raises(ValueError, match="row 3"):
            _model(transition)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            _model(np.eye(4), n_c=5)

    def test_entries_outside_unit_interval(self):
        transition = np.eye(3)
        transition[0] = [1.5, -0.5, 0.0]
        with pytest.raises(ValueError):
            _model(transition)
