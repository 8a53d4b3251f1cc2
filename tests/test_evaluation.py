import json
from unittest import mock

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from laneweave import evaluation
from laneweave.core import OffsetSeries, RunConfig
from laneweave.errors import ArgumentUsageError, InsufficientDataError
from laneweave.evaluation import (
    METRIC_NAMES,
    EvalMode,
    EvaluationReport,
    Population,
    compute_metrics,
    evaluate,
    ks_critical_value,
    ks_distance,
    parse_modes,
    report_json,
    run_mode,
    split_snippets,
    summarize,
)
from laneweave.generator import TwoLevelModel
from laneweave.markov import discretize, state_centers
from laneweave.noise import measured_coarse
from laneweave.preprocessing import Segment
from laneweave.synthetic import SyntheticSpec, make_model

from _oracles import brute_force_ks, brute_force_metrics, population_summary


def series(values, dt=0.2):
    return OffsetSeries(dt, np.asarray(values, dtype=float))


def segment(values, dt=0.2):
    return Segment(start_t=0.0, series=series(values, dt), source_tour="test")


def column(metrics, name):
    return metrics[..., METRIC_NAMES.index(name)]


SPECIAL_VALUES = (np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308)
metric_values = (
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from(SPECIAL_VALUES)
    | st.floats(-1.0, 1.0).map(lambda v: round(v, 2))
)


@st.composite
def populations(draw, count=None):
    """(count, 10) metric rows: up to 20 rows drawn value by value, or
    normal draws (rounded to 2 decimals or not), or 0.0, -0.0 and 1.0 at
    random, with special values placed among them."""
    if count is None:
        count = draw(st.integers(0, 20) | st.integers(0, 300))
    if count <= 20 and draw(st.booleans()):
        return draw(hnp.arrays(np.float64, (count, len(METRIC_NAMES)), elements=metric_values))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (count, len(METRIC_NAMES))
    kind = draw(st.sampled_from(["normal", "rounded", "signed zeros"]))
    if kind == "signed zeros":
        rows = rng.choice([0.0, -0.0, 1.0], shape)
    else:
        rows = rng.normal(0.0, 1.0, shape)
        if kind == "rounded":
            rows = rows.round(2)
    if count:
        for _ in range(draw(st.integers(0, 6))):
            i, j = draw(st.integers(0, count - 1)), draw(st.integers(0, len(METRIC_NAMES) - 1))
            rows[i, j] = draw(st.sampled_from(SPECIAL_VALUES))
    return rows


def same_bits(a, b) -> bool:
    return type(a) is type(b) and np.float64(a).tobytes() == np.float64(b).tobytes()


class TestComputeMetrics:
    def test_hand_checked_ramp(self):
        m = compute_metrics(np.array([0.0, 0.1, 0.2]))
        assert m.shape == (len(METRIC_NAMES),)
        assert column(m, "x_max") == pytest.approx(0.2)
        assert column(m, "x_min") == 0.0
        assert column(m, "mean") == pytest.approx(0.1)
        assert column(m, "median") == pytest.approx(0.1)
        assert column(m, "range") == pytest.approx(0.2)
        assert column(m, "mean_diff_10") == pytest.approx(1.0)

    def test_constant_series(self):
        m = compute_metrics(np.array([0.1, 0.1, 0.1]))
        assert column(m, "std") == pytest.approx(0.0, abs=1e-12)
        assert column(m, "range") == 0.0
        assert column(m, "mean_diff_10") == 0.0
        assert column(m, "std_diff_10") == pytest.approx(0.0, abs=1e-12)

    def test_single_negative_diff(self):
        assert column(compute_metrics(np.array([0.2, 0.0])), "mean_diff_10") == pytest.approx(-2.0)

    def test_too_short(self):
        with pytest.raises(ArgumentUsageError):
            compute_metrics(np.array([0.1]))
        with pytest.raises(ArgumentUsageError):
            compute_metrics(np.zeros((3, 1)))

    def test_matches_brute_force_on_random_snippets(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            values = rng.uniform(-0.5, 0.5, rng.integers(2, 80))
            ours = compute_metrics(values)
            reference = brute_force_metrics(values)
            expected = np.array([reference[name] for name in METRIC_NAMES])
            assert np.abs(ours - expected).max() <= 1e-12

    def test_order_invariants_hold(self):
        rng = np.random.default_rng(24)
        m = compute_metrics(rng.uniform(-0.5, 0.5, (200, 50)))
        x_min, q25, median, q75, x_max = (
            column(m, name) for name in ("x_min", "q25", "median", "q75", "x_max")
        )
        assert np.all((x_min <= q25) & (q25 <= median) & (median <= q75) & (q75 <= x_max))
        assert np.all(column(m, "range") >= 0.0)
        assert np.all(column(m, "std") >= 0.0) and np.all(column(m, "std_diff_10") >= 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        stack=st.tuples(st.integers(1, 8), st.integers(2, 60)).flatmap(
            lambda shape: hnp.arrays(np.float64, shape, elements=st.floats(-0.5, 0.5))
        )
    )
    def test_stack_matches_row_by_row(self, stack):
        stacked = compute_metrics(stack)
        assert stacked.shape == (stack.shape[0], len(METRIC_NAMES))
        assert np.array_equal(stacked, np.array([compute_metrics(row) for row in stack]))
        for row, metrics in zip(stack, stacked):
            reference = brute_force_metrics(row)
            expected = np.array([reference[name] for name in METRIC_NAMES])
            assert np.abs(metrics - expected).max() <= 1e-12


class TestSplitSnippets:
    def test_whole_multiple(self):
        snippets = split_snippets([segment(np.zeros(600))], 10.0)
        assert len(snippets) == 12
        assert all(len(s) == 50 for s in snippets)

    def test_short_segment_yields_nothing(self):
        assert split_snippets([segment(np.zeros(49))], 10.0) == []

    def test_remainders_dropped_per_segment(self):
        segments = [segment(np.zeros(125)), segment(np.zeros(155))]
        assert len(split_snippets(segments, 10.0)) == 5

    def test_duration_must_be_step_multiple(self):
        with pytest.raises(ValueError):
            split_snippets([segment(np.zeros(100))], 10.1)


class TestKolmogorovSmirnov:
    def test_identical_samples(self):
        a = np.arange(10.0)
        assert ks_distance(a, a) == 0.0

    def test_disjoint_samples(self):
        assert ks_distance([1.0, 2.0], [5.0, 6.0]) == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            a = rng.normal(0, 1, rng.integers(5, 40))
            b = rng.normal(0.3, 1.2, rng.integers(5, 40))
            assert ks_distance(a, b) == pytest.approx(brute_force_ks(a, b), abs=1e-12)

    def test_critical_value_scales(self):
        assert ks_critical_value(100, 100, 0.01) > ks_critical_value(100, 100, 0.05)
        assert ks_critical_value(400, 400, 0.01) < ks_critical_value(100, 100, 0.01)
        assert ks_critical_value(250, 250, 0.01) == pytest.approx(0.1456, abs=5e-4)


class TestRunMode:
    def test_mode_parsing(self):
        assert EvalMode.parse("shift") is EvalMode.SHIFT_TEST
        assert EvalMode.parse("FULL") is EvalMode.FULL
        assert EvalMode.parse("coarse_only") is EvalMode.COARSE_ONLY
        with pytest.raises(ValueError, match="valid modes"):
            EvalMode.parse("sideways")

    def test_shift_on_zero_fine_data_is_exact(self, reference_model):
        center = state_centers(20)[12]
        segments = [segment(np.full(500, center))]
        report = run_mode(EvalMode.SHIFT_TEST, segments, reference_model, 0)
        assert report.snippet_count == 10
        assert np.array_equal(report.real, report.artificial)
        assert all(v == 0.0 for v in report.ks.values())

    def test_full_degenerate_model_on_constant_data(self):
        model = make_model(SyntheticSpec(family="identity", kernel="zero"))
        center = state_centers(20)[12]
        report = run_mode(EvalMode.FULL, [segment(np.full(200, center))], model, 1)
        for name in ("x_max", "x_min", "mean", "median", "q25", "q75"):
            j = METRIC_NAMES.index(name)
            assert np.allclose(report.artificial[:, j], center)
        for name in ("range", "mean_diff_10", "std_diff_10", "std"):
            j = METRIC_NAMES.index(name)
            assert np.allclose(report.artificial[:, j], 0.0)
        assert all(v == 0.0 for v in report.ks.values())

    def test_circular_shift_preserves_value_multiset(self, gentle_model, gentle_segments):
        params = gentle_model.params
        seg = gentle_segments[0]
        capped = np.clip(
            seg.series.values - measured_coarse(seg.series.values, params).values,
            -params.cap_threshold,
            params.cap_threshold,
        )
        shifted = np.roll(capped, int(round(5.0 / params.dt)))
        assert np.array_equal(np.sort(shifted), np.sort(capped))
        assert shifted.mean() == pytest.approx(capped.mean(), abs=1e-15)

    def test_populations_paired_and_aligned(self, gentle_model, gentle_segments):
        report = run_mode(EvalMode.FULL, gentle_segments, gentle_model, 42)
        assert report.real.shape == report.artificial.shape
        params = gentle_model.params
        bin_width = 1.0 / params.n_c
        # the chain is seeded from the real first value: quantization alone
        # stays within half a bin
        for seg in gentle_segments:
            x = seg.series.values
            for start in range(0, x.size - 50 + 1, 50):
                x0 = x[start]
                center = state_centers(params.n_c)[discretize(x0, params.n_c)]
                assert abs(center - x0) <= bin_width / 2 + 1e-12
        # realized starts on this tame model stay within one bin width
        j_mean = METRIC_NAMES.index("mean")
        assert report.real[:, j_mean].size == report.snippet_count

    def test_full_realized_starts_stay_aligned(self, gentle_model, gentle_segments):
        # Realized first values carry, on top of the half-bin quantization,
        # the jitter bound and the smoothed drift of the first half-kernel of
        # chain steps (at most one bin per step for a banded chain).
        from laneweave.core import seed_children
        from laneweave.generator import generate_profile

        params = gentle_model.params
        bin_width = 1.0 / params.n_c
        taps = gentle_model.coarse.smoothing_taps
        half = taps.size // 2
        forward = taps[half:] / taps[half:].sum()
        drift_allowance = float((forward * np.arange(half + 1)).sum()) * bin_width
        bound = bin_width / 2 + gentle_model.fine.output_bound + drift_allowance

        starts = []
        for seg in gentle_segments:
            x = seg.series.values
            starts.extend(x[s] for s in range(0, x.size - 50 + 1, 50))
        children = seed_children(42, len(starts))
        worst = 0.0
        for x0, child in zip(starts, children):
            art = generate_profile(gentle_model, float(x0), 10.0, child).values
            worst = max(worst, abs(float(art[0] - x0)))
        assert worst <= bound

    @pytest.mark.parametrize("mode", list(EvalMode))
    def test_real_side_is_metrics_of_split_snippets(self, gentle_model, gentle_segments, mode):
        report = run_mode(mode, gentle_segments, gentle_model, 5)
        windows = np.array([s.values for s in split_snippets(gentle_segments, 10.0)])
        assert np.array_equal(report.real, compute_metrics(windows))
        assert report.artificial.shape == report.real.shape

    def test_seed_children_spawned_once(self, gentle_model, gentle_segments):
        with mock.patch.object(evaluation, "seed_children", wraps=evaluation.seed_children) as spy:
            evaluate(list(EvalMode), gentle_segments, gentle_model, 0)
        assert spy.call_count == 1

    def test_shared_children_give_each_mode_its_own_report(self, gentle_model, gentle_segments):
        # full spawns from each child; the modes after it draw the same
        modes = [EvalMode.FULL, EvalMode.FINE_ONLY, EvalMode.COARSE_ONLY, EvalMode.SHIFT_TEST]
        for report in evaluate(modes, gentle_segments, gentle_model, 5):
            alone = run_mode(report.mode, gentle_segments, gentle_model, 5)
            assert np.array_equal(report.artificial, alone.artificial)

    def test_repeated_mode_is_refused(self, gentle_model, gentle_segments):
        with pytest.raises(ArgumentUsageError, match="'full' is given more than once"):
            parse_modes("full,shift,FULL")
        with pytest.raises(ArgumentUsageError, match="'coarse' is given more than once"):
            evaluate([EvalMode.COARSE_ONLY] * 2, gentle_segments, gentle_model, 0)
        assert parse_modes("shift,full") == [EvalMode.SHIFT_TEST, EvalMode.FULL]

    def test_seed_sequence_gives_the_rows_of_its_int(self, gentle_model, gentle_segments):
        by_int = evaluate(list(EvalMode), gentle_segments, gentle_model, 3)
        by_sequence = evaluate(list(EvalMode), gentle_segments, gentle_model, np.random.SeedSequence(3))
        for a, b in zip(by_int, by_sequence):
            assert np.array_equal(a.artificial, b.artificial)
            assert (a.seed, b.seed) == (3, None)

    @pytest.mark.parametrize("seed", [np.random.default_rng(3), -1, 2.0])
    def test_unusable_seed_is_refused_before_the_segments(self, reference_model, seed):
        # these segments give no snippets, which would be an InsufficientDataError
        with pytest.raises(ArgumentUsageError, match="seed"):
            evaluate(list(EvalMode), [segment(np.zeros(10))], reference_model, seed)

    def test_seeded_repeatability(self, gentle_model, gentle_segments):
        a = run_mode(EvalMode.FULL, gentle_segments, gentle_model, 7)
        b = run_mode(EvalMode.FULL, gentle_segments, gentle_model, 7)
        assert np.array_equal(a.artificial, b.artificial)

    def test_coarse_and_fine_modes_run(self, gentle_model, gentle_segments):
        for mode in (EvalMode.COARSE_ONLY, EvalMode.FINE_ONLY):
            report = run_mode(mode, gentle_segments, gentle_model, 3)
            assert report.snippet_count >= 250
            assert set(report.ks) == set(METRIC_NAMES)


    def test_no_snippets_is_an_error(self, reference_model):
        with pytest.raises(InsufficientDataError):
            run_mode(EvalMode.FULL, [segment(np.zeros(10))], reference_model, 0)

    def test_dt_mismatch_rejected(self, reference_model):
        with pytest.raises(ValueError):
            run_mode(EvalMode.FULL, [segment(np.zeros(100), dt=0.1)], reference_model, 0)


class TestSummarize:
    def test_row_cardinality(self, gentle_model, gentle_segments):
        report = run_mode(EvalMode.SHIFT_TEST, gentle_segments, gentle_model, 0)
        text = summarize(report)
        lines = text.strip().splitlines()
        assert len(lines) == 1 + 2 * len(METRIC_NAMES)
        header = lines[0].split(",")
        assert header[:6] == ["metric", "population", "count", "min", "mean", "max"]
        assert header[6] == "q05" and header[-1] == "q95"

    def test_identical_populations_give_identical_rows(self, reference_model):
        center = state_centers(20)[12]
        report = run_mode(EvalMode.SHIFT_TEST, [segment(np.full(200, center))], reference_model, 0)
        lines = summarize(report).strip().splitlines()[1:]
        for real_line, art_line in zip(lines[::2], lines[1::2]):
            assert real_line.split(",")[2:] == art_line.split(",")[2:]

    def test_each_population_summarized_once(self, gentle_model, gentle_segments):
        config = RunConfig()
        batched = evaluation._population_summaries
        with mock.patch.object(evaluation, "_population_summaries", wraps=batched) as spy:
            reports = evaluate(list(EvalMode), gentle_segments, gentle_model, 0)
            texts = [(report_json(report, config), summarize(report)) for report in reports]
        # the real population once for all four modes, then each artificial one
        summarized = [call.args[0] for call in spy.call_args_list]
        assert len(summarized) == 1 + len(reports)
        assert sum(rows is reports[0].real for rows in summarized) == 1
        for report in reports:
            assert report.real_population is reports[0].real_population
            assert sum(rows is report.artificial for rows in summarized) == 1
        # the report's summaries are copied out, not shared
        document = reports[0].to_dict()
        document["metrics"]["mean"]["real_summary"]["min"] = 99.0
        assert summarize(reports[0]) == texts[0][1]
        assert report_json(reports[0], config) == texts[0][0]
        real_mean = reports[0].to_dict()["metrics"]["mean"]["real_summary"]
        assert real_mean == population_summary(reports[0].real[:, 2])

    @settings(max_examples=200, deadline=None)
    @given(rows=populations())
    def test_batched_summaries_match_the_oracle(self, rows):
        with np.errstate(all="ignore"):
            if rows.shape[0] == 0:
                # an empty column has no min; evaluate never builds one
                with pytest.raises(ValueError):
                    population_summary(rows[:, 0])
                with pytest.raises(ValueError):
                    evaluation._population_summaries(rows)
                return
            batched = evaluation._population_summaries(rows)
            assert len(batched) == len(METRIC_NAMES)
            for j, summary in enumerate(batched):
                expected = population_summary(rows[:, j])
                assert list(summary) == list(expected)
                assert all(same_bits(summary[key], expected[key]) for key in expected)

    @settings(max_examples=100, deadline=None)
    @given(
        real=populations(),
        data=st.data(),
        mode=st.sampled_from(list(EvalMode)),
        seed=st.none() | st.integers(0, 2**63),
        ks=st.lists(metric_values, min_size=len(METRIC_NAMES), max_size=len(METRIC_NAMES)),
    )
    def test_report_json_is_the_indented_document(self, real, data, mode, seed, ks):
        artificial = data.draw(populations(count=real.shape[0]))
        report = EvaluationReport(
            mode, Population(real), Population(artificial), dict(zip(METRIC_NAMES, ks)), seed
        )
        config = RunConfig()
        with np.errstate(all="ignore"):
            if real.shape[0] == 0:
                with pytest.raises(ValueError):
                    report.to_dict()
                with pytest.raises(ValueError):
                    report_json(report, config)
                return
            document = report.to_dict()
            document["config"] = config.to_dict()
            assert report_json(report, config) == json.dumps(document, indent=2) + "\n"

    def test_report_to_dict_is_json_ready(self, gentle_model, gentle_segments):
        import json

        report = run_mode(EvalMode.FINE_ONLY, gentle_segments, gentle_model, 1)
        document = report.to_dict()
        text = json.dumps(document)
        assert '"mode": "fine"' in text
        metric = document["metrics"]["mean"]
        assert len(metric["real"]) == report.snippet_count
        assert "q50" in metric["real_summary"]
