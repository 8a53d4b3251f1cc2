"""A fixed calibration kernel, timed next to every op to gauge how fast
the machine runs at that moment.

On a shared host the same code can run 1.5x slower for minutes at a time
because other tenants contend for the hardware; CPU time slows with wall
time, so no clock excludes it. An op's time divided by the time of this
kernel, measured just before and just after it, cancels most of that.
The kernel does the kinds of work the program does: parse CSV text into
floats in Python, sort, scan and interpolate numpy arrays, and loop in
Python. Its inputs are fixed, and it never touches laneweave, so a change
to the program cannot change it.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(20240527)
_ARRAY = _rng.normal(size=50_000)
_CSV = "\n".join(",".join(f"{x:.6f}" for x in row) for row in _rng.normal(size=(1500, 5)))


def reference_s() -> float:
    """Run the kernel once; returns its wall time."""
    start = time.perf_counter()
    columns: list[list[float]] = [[] for _ in range(5)]
    for line in _CSV.splitlines():
        for column, cell in zip(columns, line.split(",")):
            column.append(float(cell.strip()))
    np.asarray(columns)
    ordered = np.sort(_ARRAY)
    np.cumsum(_ARRAY)
    np.interp(_ARRAY, ordered, _ARRAY)
    total = 0
    for k in range(20_000):
        total += k * k
    return time.perf_counter() - start
