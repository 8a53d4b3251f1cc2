import math
from dataclasses import fields

import numpy as np
import pytest
import hypothesis.extra.numpy as hnp
from hypothesis import given, strategies as st

from laneweave.core import (
    DriveLog,
    ModelParams,
    OffsetSeries,
    RunConfig,
    relative_offset,
)
from laneweave.errors import ArgumentUsageError

from _oracles import timestamps_increase

distances = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


class TestRelativeOffset:
    def test_symmetric_placement_is_center(self):
        assert relative_offset(1.8, 1.8) == 0.0

    def test_over_left_marking(self):
        assert relative_offset(0.0, 3.6) == -0.5

    def test_over_right_marking(self):
        assert relative_offset(3.6, 0.0) == 0.5

    def test_negative_distance_rejected(self):
        with pytest.raises(ArgumentUsageError, match=r"left=-0\.1 right=2\.0"):
            relative_offset(-0.1, 2.0)

    def test_zero_width_rejected(self):
        with pytest.raises(ArgumentUsageError):
            relative_offset(0.0, 0.0)

    def test_nan_rejected(self):
        with pytest.raises(ArgumentUsageError):
            relative_offset(float("nan"), 1.0)

    def test_array_input(self):
        out = relative_offset(np.array([1.8, 0.0]), np.array([1.8, 3.6]))
        assert np.allclose(out, [0.0, -0.5])

    @given(distances, distances)
    def test_antisymmetric(self, a, b):
        if a + b <= 0:
            return
        assert relative_offset(a, b) == pytest.approx(-relative_offset(b, a), abs=1e-15)

    @given(distances, distances, st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariant(self, a, b, c):
        if a + b <= 0 or (c * a + c * b) <= 0:
            return
        assert relative_offset(c * a, c * b) == pytest.approx(relative_offset(a, b), abs=1e-12)

    def test_width_past_half_the_largest_float(self):
        # doubling this width overflows; halving the quotient does not
        assert relative_offset(1.7e308, 1.0) == 0.5
        assert relative_offset(1.0, 1.7e308) == -0.5
        assert relative_offset(1.2e308, 0.5e308) == pytest.approx(0.7 / 1.7 / 2, rel=1e-15)

    def test_width_past_the_largest_float_rejected(self):
        with pytest.raises(ArgumentUsageError):
            relative_offset(1.7e308, 1.7e308)
        log = DriveLog(t=[0.0, 1.0], dist_left=[1.7e308, 1.7e308], dist_right=[1.0, 1.7e308], v_lon=[80.0, 80.0])
        assert log.valid_mask().tolist() == [True, False]

    @given(
        st.floats(min_value=0.0, max_value=1e300),
        st.floats(min_value=0.0, max_value=1e300),
    )
    def test_same_bits_as_the_doubled_width(self, a, b):
        if a + b <= 0:
            return
        assert relative_offset(a, b) == (a - b) / (2.0 * (a + b))

    @given(distances, distances)
    def test_bounded(self, a, b):
        if a + b <= 0:
            return
        assert -0.5 <= relative_offset(a, b) <= 0.5


class TestModelParams:
    def test_defaults(self):
        p = ModelParams()
        assert p.n_c == 20
        assert p.dt == 0.2
        assert p.smoothing_sigma == 0.6
        assert p.smoothing_support == 1.0
        assert p.cap_threshold == 0.03
        assert p.v_min == 40.0
        assert p.sample_rate == 5.0
        assert p.snippet_duration == 10.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_c": 1},
            {"dt": 0.0},
            {"smoothing_support": 0.1},
            {"cap_threshold": 0.0},
            {"sample_rate": 4.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams.from_dict(kwargs)

    @pytest.mark.parametrize("n_c", [20.0, True, "20"])
    def test_n_c_must_be_integer(self, n_c):
        with pytest.raises(TypeError, match="n_c"):
            ModelParams(n_c=n_c)

    def test_numpy_integer_n_c_accepted(self):
        assert ModelParams(n_c=np.int64(12)).n_c == 12

    @pytest.mark.parametrize("name", ["dt", "smoothing_sigma", "smoothing_support", "v_min"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, True])
    def test_float_fields_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            ModelParams(**{name: value})

    def test_consistent_rate_accepted(self):
        # the rate is worked out from dt, and a given one is checked against it
        assert ModelParams(dt=0.1).sample_rate == 10.0
        assert ModelParams.from_dict({"dt": 0.1, "sample_rate": 10.0}) == ModelParams(dt=0.1)
        with pytest.raises(TypeError):
            ModelParams(dt=0.1, sample_rate=10.0)


# each RunConfig field with the wrong values for the type of its default;
# sample_rate, worked out from dt, is checked where a dict of settings gives one
WRONG_TYPED = [
    (f.name, value, TypeError if isinstance(f.default, int) else ValueError)
    for f in fields(RunConfig)
    for value in ([True, 2.0, "2"] if isinstance(f.default, int) else [math.nan, math.inf, True])
]


@pytest.mark.parametrize(
    "name, value, error", WRONG_TYPED, ids=[f"{name}={value!r}" for name, value, _ in WRONG_TYPED]
)
def test_every_field_is_checked_by_its_type(name, value, error):
    with pytest.raises(error, match=name):
        RunConfig.from_dict({name: value})


class TestOffsetSeries:
    def test_basic(self):
        s = OffsetSeries(0.2, [0.0, 0.1, 0.2])
        assert len(s) == 3
        assert np.allclose(s.times(), [0.0, 0.2, 0.4])
        assert s.values.dtype == np.float64

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            OffsetSeries(0.2, np.zeros((2, 2)))

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            OffsetSeries(0.0, [0.0])


class TestDriveLog:
    def test_timestamps_must_increase(self):
        with pytest.raises(ValueError):
            DriveLog(t=[0.0, 0.0], dist_left=[1, 1], dist_right=[1, 1], v_lon=[50, 50])

    def test_column_length_mismatch(self):
        with pytest.raises(ValueError):
            DriveLog(t=[0.0, 1.0], dist_left=[1], dist_right=[1, 1], v_lon=[50, 50])

    def test_valid_mask(self):
        log = DriveLog(
            t=[0.0, 1.0, 2.0, 3.0],
            dist_left=[1.8, -0.2, np.nan, 0.0],
            dist_right=[1.8, 2.0, 1.0, 0.0],
            v_lon=[80.0, 80.0, 80.0, 80.0],
        )
        assert log.valid_mask().tolist() == [True, False, False, False]

    @given(
        hnp.arrays(
            np.float64,
            st.integers(0, 6),
            elements=st.one_of(
                st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]),
                st.floats(allow_subnormal=True),
            ),
        )
    )
    def test_timestamps_checked_as_their_steps_are(self, t):
        # pairwise comparison and the sign of np.diff agree on every pair
        # of float64s, NaN, infinities, signed zeros and overflow included
        columns = dict(dist_left=np.ones(t.size), dist_right=np.ones(t.size), v_lon=np.ones(t.size))
        try:
            DriveLog(t=t, **columns)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == timestamps_increase(t)
