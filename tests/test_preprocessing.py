from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from laneweave import preprocessing
from laneweave.core import DriveLog, ModelParams
from laneweave.errors import InsufficientDataError
from laneweave.preprocessing import extract_segments, resample

LANE_WIDTH = 3.6


def log_from_offsets(t, offsets, v_lon, lane_id=None, tour_id="test"):
    offsets = np.asarray(offsets, dtype=float)
    return DriveLog(
        t=t,
        dist_left=LANE_WIDTH * (0.5 + offsets),
        dist_right=LANE_WIDTH * (0.5 - offsets),
        v_lon=v_lon,
        lane_id=lane_id,
        tour_id=tour_id,
    )


def track_from_offsets(offsets, v_lon=None, lane_id=None, rate=5.0):
    offsets = np.asarray(offsets, dtype=float)
    if v_lon is None:
        v_lon = np.full(offsets.size, 100.0)
    t = np.arange(offsets.size) / rate
    return resample(log_from_offsets(t, offsets, v_lon, lane_id), rate)


class TestResample:
    def test_grid_coincides_with_samples(self):
        track = track_from_offsets([0.0, 0.1])
        assert np.allclose(track.offsets, [0.0, 0.1], atol=1e-15)
        assert track.dt == pytest.approx(0.2)

    def test_intermediate_sample_dropped_by_grid(self):
        log = log_from_offsets([0.0, 0.1, 0.2], [0.0, 0.04, 0.1], [100.0] * 3)
        track = resample(log, 5.0)
        assert np.allclose(track.offsets, [0.0, 0.1], atol=1e-15)

    def test_linear_interpolation_between_samples(self):
        log = log_from_offsets([0.0, 0.3], [0.0, 0.3], [100.0, 100.0])
        track = resample(log, 5.0)
        assert np.allclose(track.offsets, [0.0, 0.2], atol=1e-12)

    def test_grid_never_extends_past_source(self):
        log = log_from_offsets([0.0, 0.55], [0.0, 0.1], [100.0, 100.0])
        track = resample(log, 5.0)
        assert len(track) == 3  # 0.0, 0.2, 0.4

    def test_velocity_interpolated(self):
        log = log_from_offsets([0.0, 0.4], [0.0, 0.0], [80.0, 120.0])
        track = resample(log, 5.0)
        assert np.allclose(track.velocity, [80.0, 100.0, 120.0])

    def test_too_few_valid_samples(self):
        log = DriveLog(t=[0.0], dist_left=[1.8], dist_right=[1.8], v_lon=[90.0])
        with pytest.raises(InsufficientDataError):
            resample(log, 5.0)
        bad = DriveLog(
            t=[0.0, 0.1, 0.2],
            dist_left=[-1.0, -1.0, 1.8],
            dist_right=[1.8, 1.8, 1.8],
            v_lon=[90.0] * 3,
        )
        with pytest.raises(InsufficientDataError):
            resample(bad, 5.0)

    def test_invalid_sample_invalidates_bracketed_grid_points(self):
        t = np.array([0.0, 0.15, 0.45, 0.6])
        log = log_from_offsets(t, [0.0, 0.0, 0.0, 0.0], [100.0] * 4)
        log = DriveLog(
            t=t,
            dist_left=[1.8, -1.0, 1.8, 1.8],  # second sample invalid
            dist_right=[1.8, 1.8, 1.8, 1.8],
            v_lon=[100.0] * 4,
        )
        track = resample(log, 5.0)
        # grid 0.0 valid (exact hit), 0.2 and 0.4 straddle/touch the bad sample
        assert np.isfinite(track.offsets).tolist() == [True, False, False, True]
        assert not np.isnan(track.offsets[0])

    def test_infinite_velocity_beside_a_grid_hit_warns_nothing(self):
        # 0 * inf in the blend of an exact hit is a numpy invalid-value
        # warning, which the test configuration turns into an error
        log = log_from_offsets([0.0, 0.2, 0.4], [0.0, 0.0, 0.0], [100.0, np.inf, 100.0])
        assert resample(log, 5.0).velocity.tolist() == [100.0, np.inf, 100.0]

    def test_idempotent_on_target_grid(self):
        rng = np.random.default_rng(8)
        offsets = rng.uniform(-0.45, 0.45, 200)
        track1 = track_from_offsets(offsets)
        log2 = log_from_offsets(np.arange(len(track1)) / 5.0, track1.offsets, track1.velocity)
        track2 = resample(log2, 5.0)
        assert len(track2) == len(track1)
        assert np.abs(track2.offsets - track1.offsets).max() <= 1e-12

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            resample(log_from_offsets([0.0, 0.2], [0, 0], [100, 100]), 0.0)

    @settings(deadline=None)
    @given(
        steps=st.lists(st.sampled_from([0.05, 0.1, 0.15, 0.2, 0.35]), min_size=1, max_size=24),
        cells=st.data(),
        slice_rows=st.integers(1, 7),
    )
    def test_row_slices_change_no_bit(self, steps, cells, slice_rows):
        n = len(steps) + 1
        distance = st.sampled_from([1.8, 0.0, -0.3, 2.5, np.nan, np.inf, 1.7e308])
        log = DriveLog(
            t=np.cumsum([0.0, *steps]),
            dist_left=cells.draw(st.lists(distance, min_size=n, max_size=n)),
            dist_right=cells.draw(st.lists(distance, min_size=n, max_size=n)),
            v_lon=cells.draw(st.lists(st.sampled_from([80.0, 30.0, np.nan, np.inf]), min_size=n, max_size=n)),
        )

        def outcome():
            try:
                track = resample(log, 5.0)
            except InsufficientDataError as exc:
                return str(exc)
            return track.offsets.tobytes(), track.velocity.tobytes(), track.lane_ids.tobytes()

        whole = outcome()
        with mock.patch.object(preprocessing, "RESAMPLE_SLICE_ROWS", slice_rows):
            assert outcome() == whole


class TestExtractSegments:
    def test_clean_track_is_one_segment(self, params):
        segments = extract_segments(track_from_offsets(np.zeros(60)), params)
        assert len(segments) == 1
        assert len(segments[0]) == 60
        assert segments[0].start_t == 0.0

    def test_slow_driving_splits(self, params):
        v = np.full(60, 100.0)
        v[20:30] = 35.0
        segments = extract_segments(track_from_offsets(np.zeros(60), v), params)
        assert [len(s) for s in segments] == [20, 30]
        assert segments[1].start_t == pytest.approx(30 * 0.2)

    def test_offset_jump_cuts_with_guard(self, params):
        offsets = np.concatenate([np.full(30, 0.40), np.full(30, -0.45)])
        segments = extract_segments(track_from_offsets(offsets), params, guard_steps=10)
        # cut between 29 and 30, minus ten guard steps on each side
        assert [len(s) for s in segments] == [20, 20]
        assert np.allclose(segments[0].series.values, 0.40)
        assert np.allclose(segments[1].series.values, -0.45)

    def test_lane_id_switch_cuts(self, params):
        lane = np.concatenate([np.ones(30), np.full(30, 2.0)])
        segments = extract_segments(
            track_from_offsets(np.zeros(60), lane_id=lane), params, guard_steps=2
        )
        assert [len(s) for s in segments] == [28, 28]

    def test_invalid_samples_break_runs(self, params):
        t = np.arange(40) / 5.0
        dist_left = np.full(40, 1.8)
        dist_left[17] = -1.0
        log = DriveLog(
            t=t,
            dist_left=dist_left,
            dist_right=np.full(40, 1.8),
            v_lon=np.full(40, 90.0),
        )
        segments = extract_segments(resample(log, 5.0), params)
        assert len(segments) == 2
        assert sum(len(s) for s in segments) == 39

    def test_short_runs_dropped(self, params):
        v = np.full(5, 100.0)
        v[1:4] = 10.0  # leaves two 1-step runs
        assert extract_segments(track_from_offsets(np.zeros(5), v), params) == []

    def test_values_are_unaltered_subsequence(self, params):
        rng = np.random.default_rng(9)
        offsets = rng.uniform(-0.45, 0.45, 300)
        v = np.where(rng.random(300) < 0.1, 20.0, 100.0)
        track = track_from_offsets(offsets, v)
        segments = extract_segments(track, params)
        for seg in segments:
            start = int(round(seg.start_t / track.dt))
            expected = track.offsets[start : start + len(seg)]
            assert np.array_equal(seg.series.values, expected)

    def test_no_segment_violates_rules(self, params):
        rng = np.random.default_rng(10)
        offsets = np.cumsum(rng.normal(0.0, 0.08, 500)).clip(-0.5, 0.5)
        v = np.where(rng.random(500) < 0.05, 30.0, 90.0)
        segments = extract_segments(track_from_offsets(offsets, v), params)
        for seg in segments:
            jumps = np.abs(np.diff(seg.series.values))
            assert jumps.max(initial=0.0) <= 0.25
            assert len(seg) >= 2

    def test_rate_mismatch_rejected(self, params):
        track = track_from_offsets(np.zeros(10), rate=10.0)
        with pytest.raises(ValueError):
            extract_segments(track, params)

    def test_segments_take_the_model_step(self):
        # the rate agrees with dt within ModelParams' tolerance, so the
        # grid step 1 / sample_rate differs from dt in its last digits
        params = ModelParams(
            dt=1000.0, sample_rate=0.0010000000005, smoothing_sigma=1000.0, smoothing_support=1000.0
        )
        t = np.arange(10) * 1000.0
        track = resample(log_from_offsets(t, np.zeros(10), np.full(10, 80.0)), params.sample_rate)
        assert track.dt != params.dt
        (segment,) = extract_segments(track, params)
        assert segment.series.dt == params.dt
        assert segment.start_t == 0.0 and len(segment) == 10

    def test_source_tour_propagated(self, params):
        track = track_from_offsets(np.zeros(10))
        assert extract_segments(track, params)[0].source_tour == "test"

