"""Brute-force reference implementations, deliberately sharing no code
with the package: plain Python loops, fsum, manual order statistics, and
one numpy binary search per chain step."""

import math

import numpy as np


def brute_force_quantile(values, q):
    xs = sorted(float(v) for v in values)
    n = len(xs)
    h = (n - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, n - 1)
    g = h - lo
    return xs[lo] * (1.0 - g) + xs[hi] * g


def brute_force_metrics(values):
    xs = [float(v) for v in values]
    n = len(xs)
    mean = math.fsum(xs) / n
    var = math.fsum((v - mean) ** 2 for v in xs) / n
    diffs = [b - a for a, b in zip(xs, xs[1:])]
    dmean = math.fsum(diffs) / len(diffs)
    dvar = math.fsum((d - dmean) ** 2 for d in diffs) / len(diffs)
    return {
        "x_max": max(xs),
        "x_min": min(xs),
        "mean": mean,
        "std": math.sqrt(var),
        "median": brute_force_quantile(xs, 0.5),
        "q25": brute_force_quantile(xs, 0.25),
        "q75": brute_force_quantile(xs, 0.75),
        "range": max(xs) - min(xs),
        "mean_diff_10": dmean * 10.0,
        "std_diff_10": math.sqrt(dvar) * 10.0,
    }


def brute_force_smooth(values, taps):
    """Renormalized truncated convolution by explicit loops."""
    n = len(values)
    half = len(taps) // 2
    out = []
    for i in range(n):
        acc = 0.0
        weight = 0.0
        for m, tap in enumerate(taps):
            j = i + (m - half)
            if 0 <= j < n:
                acc += tap * values[j]
                weight += tap
        out.append(acc / weight)
    return out


def brute_force_ks(sample_a, sample_b):
    """sup |F_a - F_b| over the pooled points, by counting."""
    a = sorted(float(v) for v in sample_a)
    b = sorted(float(v) for v in sample_b)
    best = 0.0
    for point in a + b:
        fa = sum(1 for v in a if v <= point) / len(a)
        fb = sum(1 for v in b if v <= point) / len(b)
        best = max(best, abs(fa - fb))
    return best


def brute_force_chain_path(cum_rows, initial_state, uniforms):
    """Sequential chain walk: per step, np.searchsorted (side="right") on
    the current state's cumulative row, clamped to the last state."""
    cum_rows = np.asarray(cum_rows, dtype=np.float64)
    n_c = cum_rows.shape[0]
    out = np.empty(len(uniforms) + 1, dtype=np.int64)
    out[0] = state = initial_state
    for i, u in enumerate(uniforms):
        state = min(int(np.searchsorted(cum_rows[state], u, side="right")), n_c - 1)
        out[i + 1] = state
    return out
