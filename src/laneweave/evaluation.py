"""Validation protocol: snippet extraction, the ten per-snippet metrics,
four paired real-vs-artificial evaluation modes, and distribution
comparison via the two-sample Kolmogorov-Smirnov distance."""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import MasterSeed, OffsetSeries, RunConfig, check_seed, seed_children
from .errors import ArgumentUsageError, InsufficientDataError
from .generator import MAX_PROFILE_STEPS, TwoLevelModel, coarse_profile, generate_profile
from .markov import discretize
from .noise import generate_noise, measured_coarse
from .preprocessing import Segment

METRIC_NAMES = (
    "x_max",
    "x_min",
    "mean",
    "std",
    "median",
    "q25",
    "q75",
    "range",
    "mean_diff_10",
    "std_diff_10",
)

QUANTILE_LADDER = tuple(round(0.05 * k, 2) for k in range(1, 20))
LADDER_KEYS = tuple(f"q{int(round(level * 100)):02d}" for level in QUANTILE_LADDER)

SHIFT_SECONDS = 5.0


class EvalMode(str, Enum):
    SHIFT_TEST = "shift"
    COARSE_ONLY = "coarse"
    FINE_ONLY = "fine"
    FULL = "full"

    @classmethod
    def parse(cls, name: str) -> "EvalMode":
        key = str(name).strip().lower()
        for mode in cls:
            if key in (mode.value, mode.name.lower()):
                return mode
        valid = ", ".join(mode.value for mode in cls)
        raise ArgumentUsageError(f"unknown evaluation mode {name!r}; valid modes: {valid}")


def parse_modes(names: str) -> list[EvalMode]:
    """The modes of a comma-separated list, in its order; each may appear once."""
    modes = [EvalMode.parse(name) for name in names.split(",")]
    _refuse_repeated(modes)
    return modes


def _refuse_repeated(modes: Sequence[EvalMode]) -> None:
    for k, mode in enumerate(modes):
        if mode in modes[:k]:
            raise ArgumentUsageError(f"evaluation mode {mode.value!r} is given more than once")


def compute_metrics(values) -> np.ndarray:
    """Evaluate the ten statistics along the last axis: a snippet of w
    samples gives a (10,) vector, a (count, w) stack a (count, 10) array,
    with columns in METRIC_NAMES order.

    Quantiles interpolate linearly between order statistics, standard
    deviations use population normalization, and the diff metrics are the
    mean and standard deviation of consecutive differences scaled by 10.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 0 or values.shape[-1] < 2:
        raise ArgumentUsageError(f"snippets need at least 2 samples, got shape {values.shape}")
    diffs = np.diff(values)
    q25, median, q75 = np.quantile(values, [0.25, 0.5, 0.75], axis=-1)
    x_max = values.max(axis=-1)
    x_min = values.min(axis=-1)
    columns = (
        x_max,
        x_min,
        values.mean(axis=-1),
        values.std(axis=-1),
        median,
        q25,
        q75,
        x_max - x_min,
        diffs.mean(axis=-1) * 10.0,
        diffs.std(axis=-1) * 10.0,
    )
    return np.stack(columns, axis=-1)


def window_steps(duration: float, dt: float) -> int:
    """Samples per snippet window; the duration must be a whole multiple
    of dt covering from the two samples the metrics need up to the
    longest profile generate_profile builds for the artificial side."""
    steps = duration / dt
    w = round(steps) if math.isfinite(steps) else 0
    if not 2 <= w <= MAX_PROFILE_STEPS or abs(steps - w) > 1e-6:
        raise ArgumentUsageError(
            f"snippet duration {duration} is not a multiple of dt {dt} "
            f"covering 2 to {MAX_PROFILE_STEPS} steps"
        )
    return w


def _windows(values: np.ndarray, w: int) -> np.ndarray:
    """Consecutive non-overlapping windows as a (count, w) block; the
    trailing remainder shorter than w is dropped."""
    return values[: values.size // w * w].reshape(-1, w)


def split_snippets(segments: Sequence[Segment], duration: float) -> list[OffsetSeries]:
    """Consecutive non-overlapping windows per segment, as evaluate cuts them."""
    snippets = []
    for seg in segments:
        series = seg.series
        w = window_steps(duration, series.dt)
        snippets.extend(OffsetSeries(series.dt, row) for row in _windows(series.values, w))
    return snippets


def ks_distance(sample_a, sample_b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a = np.sort(np.asarray(sample_a, dtype=np.float64))
    b = np.sort(np.asarray(sample_b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("cannot compare empty samples")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def ks_critical_value(n: int, m: int, alpha: float = 0.01) -> float:
    """Asymptotic two-sample rejection threshold at significance alpha."""
    if n < 1 or m < 1:
        raise ValueError("sample sizes must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c * math.sqrt((n + m) / (n * m))


@dataclass(frozen=True, eq=False)
class Population:
    """One side's metric rows, a (snippet_count, 10) array in METRIC_NAMES
    column order, with the summaries and JSON list texts the report files
    are made of, each built on first use. The reports of one evaluate call
    share one real Population, so its summaries and texts are built once."""

    rows: np.ndarray

    @cached_property
    def summaries(self) -> list[dict]:
        """The summary of each metric column, in METRIC_NAMES order."""
        return _population_summaries(self.rows)

    @cached_property
    def list_texts(self) -> list[str]:
        """Each metric column as compact JSON text, by the C encoder."""
        return [json.dumps(column) for column in self.rows.T.tolist()]


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    """Paired metric populations for one mode, with per-metric KS distances.

    Row i of both sides belongs to the same real snippet.
    """

    mode: EvalMode
    real_population: Population
    artificial_population: Population
    ks: dict[str, float]
    seed: int | None

    @property
    def real(self) -> np.ndarray:
        return self.real_population.rows

    @property
    def artificial(self) -> np.ndarray:
        return self.artificial_population.rows

    @property
    def snippet_count(self) -> int:
        return self.real.shape[0]

    def to_dict(self) -> dict:
        return self._document(self.real.T.tolist(), self.artificial.T.tolist())

    def _document(self, real_columns: Sequence, artificial_columns: Sequence) -> dict:
        """The report document, with the given values in place of each
        side's metric lists."""
        metrics = {}
        for j, name in enumerate(METRIC_NAMES):
            metrics[name] = {
                "ks_distance": self.ks[name],
                "real_summary": dict(self.real_population.summaries[j]),
                "artificial_summary": dict(self.artificial_population.summaries[j]),
                "real": real_columns[j],
                "artificial": artificial_columns[j],
            }
        return {
            "mode": self.mode.value,
            "snippet_count": self.snippet_count,
            "seed": self.seed,
            "metrics": metrics,
        }


# report_json's stand-in for metric list k: NUL and a number. No other
# string of the document holds a NUL, which json.dumps writes as \u0000.
_LIST_SLOT = re.compile(r'"\\u0000(\d+)"')


def report_json(report: EvaluationReport, config: RunConfig) -> str:
    """The text of a report file: exactly json.dumps(document, indent=2)
    plus a newline, where document is report.to_dict() with
    config.to_dict() under "config".

    Each metric list is written by the C encoder (Population.list_texts,
    which words NaN and the infinities as the indenting encoder does) and
    indented here; the rest goes through json.dumps. A list's text is
    placed by a numbered stand-in string, and no number's text holds the
    ", " that separates its items.
    """
    count = len(METRIC_NAMES)
    slots = [f"\0{k}" for k in range(2 * count)]
    document = report._document(slots[:count], slots[count:])
    document["config"] = config.to_dict()
    texts = report.real_population.list_texts + report.artificial_population.list_texts
    pieces = _LIST_SLOT.split(json.dumps(document, indent=2))
    out = [pieces[0]]
    for k, after in zip(pieces[1::2], pieces[2::2]):
        line = out[-1][out[-1].rfind("\n") + 1 :]
        out += [_indented_list(texts[int(k)], line[: len(line) - len(line.lstrip(" "))]), after]
    out.append("\n")
    return "".join(out)


def _indented_list(text: str, indent: str) -> str:
    """A compact JSON list of at least one item as json.dumps(indent=2)
    lays it out on a line indented by indent."""
    item = "\n" + indent + "  "
    return "[" + item + text[1:-1].replace(", ", "," + item) + "\n" + indent + "]"


def _population_summaries(rows: np.ndarray) -> list[dict]:
    """Count, min, mean, max and the quantile ladder of each column of a
    (count, 10) population, with the bits that summarizing each column
    alone gives.

    The means and the quantile ladders of all columns come from one
    reduction each over the contiguous transpose, whose rows reduce in
    the order the strided columns do. Min and max reduce each strided
    column: on the contiguous transpose, or along axis 0, numpy's SIMD
    loops can return 0.0 where the column gives -0.0.
    """
    columns = np.ascontiguousarray(rows.T)
    lows = [float(column.min()) for column in rows.T]
    highs = [float(column.max()) for column in rows.T]
    means = columns.mean(axis=1).tolist()
    ladders = np.quantile(columns, QUANTILE_LADDER, axis=1).T.tolist()
    return [
        {"count": rows.shape[0], "min": low, "mean": mean, "max": high, **dict(zip(LADDER_KEYS, ladder))}
        for low, mean, high, ladder in zip(lows, means, highs, ladders)
    ]


def run_mode(
    mode: EvalMode,
    real_segments: Sequence[Segment],
    model: TwoLevelModel,
    rng_seed: MasterSeed = 0,
    *,
    snippet_duration: float | None = None,
) -> EvaluationReport:
    """The report of evaluate for a single mode."""
    (report,) = evaluate([mode], real_segments, model, rng_seed, snippet_duration=snippet_duration)
    return report


def evaluate(
    modes: Sequence[EvalMode],
    real_segments: Sequence[Segment],
    model: TwoLevelModel,
    rng_seed: MasterSeed = 0,
    *,
    snippet_duration: float | None = None,
) -> list[EvaluationReport]:
    """Build the paired artificial population of each mode and compare,
    one report per mode in the given order; each mode may appear once.

    The real side (the snippets, their measured drift and capped residual,
    their metrics, and the summaries and JSON texts of those) is built once
    and shared by every mode. Every real snippet gets an artificial
    counterpart of the same length and initial offset. One child seed per
    snippet is spawned from rng_seed once, and every mode draws snippet i
    from child i, so reports repeat exactly under the same seed. With an
    int seed each mode gets the children it would get alone; with None the
    modes share one entropy draw. The reports record an int seed, and null
    for None or a SeedSequence.
    """
    modes = list(modes)
    _refuse_repeated(modes)
    check_seed(rng_seed)
    params = model.params
    duration = params.snippet_duration if snippet_duration is None else snippet_duration
    w = window_steps(duration, params.dt)
    shift_steps = int(round(SHIFT_SECONDS / params.dt))

    tracks = []
    for seg in real_segments:
        if abs(seg.series.dt - params.dt) > 1e-12:
            raise ValueError("segment dt does not match the model dt")
        x = seg.series.values
        drift = measured_coarse(x, params).values
        tracks.append((x, drift, np.clip(x - drift, -params.cap_threshold, params.cap_threshold)))
    blocks = [tuple(_windows(v, w) for v in track) for track in tracks]
    if not any(len(windows) for windows, _, _ in blocks):
        raise InsufficientDataError("no snippets: every segment is shorter than the snippet window")
    real, drift, capped = (np.concatenate(parts) for parts in zip(*blocks))
    real_rows = compute_metrics(real)
    real_population = Population(real_rows)
    seed = int(rng_seed) if isinstance(rng_seed, numbers.Integral) else None
    children = seed_children(rng_seed, real.shape[0])

    reports = []
    for mode in modes:
        if mode is EvalMode.SHIFT_TEST:
            shifted = [_windows(np.roll(c, shift_steps), w) for _, _, c in tracks]
            art = drift + np.concatenate(shifted)
        elif mode is EvalMode.COARSE_ONLY:
            initial = discretize(real[:, 0], params.n_c).tolist()
            coarse = [
                coarse_profile(model, state, w, np.random.default_rng(child))
                for state, child in zip(initial, children)
            ]
            art = np.array(coarse) + capped
        elif mode is EvalMode.FINE_ONLY:
            noise = [
                generate_noise(model.fine, w, np.random.default_rng(child))
                for child in children
            ]
            art = drift + np.array(noise)
        else:
            starts = np.clip(real[:, 0], -0.5, 0.5).tolist()
            profiles = [
                generate_profile(model, x0, duration, child).values
                for x0, child in zip(starts, children)
            ]
            art = np.array(profiles)

        art_rows = compute_metrics(art)
        ks = {
            name: ks_distance(real_rows[:, j], art_rows[:, j])
            for j, name in enumerate(METRIC_NAMES)
        }
        reports.append(EvaluationReport(mode, real_population, Population(art_rows), ks, seed))
    return reports


def summarize(report: EvaluationReport) -> str:
    """Plot-ready CSV: one row per (metric, population) with min, mean,
    max, and the q05..q95 quantile ladder."""
    if report.snippet_count == 0:
        raise InsufficientDataError("report holds no snippets")
    header = ["metric", "population", "count", "min", "mean", "max", *LADDER_KEYS]
    lines = [",".join(header)]
    sides = (("real", report.real_population), ("artificial", report.artificial_population))
    for j, name in enumerate(METRIC_NAMES):
        for side, population in sides:
            summary = population.summaries[j]
            cells = [name, side, str(summary["count"])]
            cells += [repr(summary[key]) for key in ("min", "mean", "max", *LADDER_KEYS)]
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
