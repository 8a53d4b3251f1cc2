"""Spans around calls into laneweave's public functions, recorded from
the benchmark's side by swapping module attributes for timing wrappers
while a traced replay runs. The program itself is not instrumented.

A span is (op, id, parent, name, start, end); spans of one operation
share `op`. They stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import importlib
import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np


# (module, attribute, layer, counter). A function is patched at every
# module binding the replayed code calls it through, so nested calls
# (the chain walk inside run_mode, say) get spans too. A counter maps
# (args, result) to the work counts recorded at that boundary.
PATCH_POINTS = (
    ("cli", "read_drive_log_csv", "cli.read_drive_log_csv", lambda a, r: {"rows": len(r)}),
    ("cli", "format_profile_csv", "cli.format_profile_csv", lambda a, r: {"rows": len(a[0])}),
    # outputs are ASCII, so characters are bytes
    ("generator", "atomic_write_text", "generator.atomic_write_text", lambda a, r: {"bytes": len(a[1])}),
    ("generator", "load_model", "generator.load_model", None),
    ("generator", "save_model", "generator.save_model", None),
    ("generator", "generate_profile", "generator.generate_profile", None),
    ("evaluation", "generate_profile", "generator.generate_profile", None),
    ("generator", "sample_chain", "markov.sample_chain", lambda a, r: {"calls": 1, "steps": r.size}),
    ("generator", "smooth_values", "markov.smooth_values", None),
    ("noise", "smooth_values", "markov.smooth_values", None),
    ("generator", "generate_noise", "noise.generate_noise", lambda a, r: {"samples": len(r)}),
    ("evaluation", "generate_noise", "noise.generate_noise", lambda a, r: {"samples": len(r)}),
    ("preprocessing", "resample", "preprocessing.resample", lambda a, r: {"grid_points": len(r)}),
    ("preprocessing", "extract_segments", "preprocessing.extract_segments",
     lambda a, r: {"segments": len(r), "kept_samples": sum(len(s) for s in r)}),
    ("markov", "discretize", "markov.discretize", None),
    ("markov", "count_transitions", "markov.count_transitions", None),
    ("markov", "transitions_from_counts", "markov.transitions_from_counts",
     lambda a, r: {"identity_rows": int((np.asarray(a[0]).sum(axis=1) == 0).sum())}),
    ("noise", "extract_fine", "noise.extract_fine", None),
    ("noise", "cap", "noise.cap", None),
    ("noise", "fit_kernel", "noise.fit_kernel", lambda a, r: {"spectral_windows": r[1].window_count}),
    ("evaluation", "compute_metrics", "evaluation.compute_metrics", lambda a, r: {"calls": 1}),
    ("evaluation", "ks_distance", "evaluation.ks_distance", None),
    ("evaluation", "summarize", "evaluation.summarize", None),
)

ROOT_SPAN = "op"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._op: int | None = None

    @contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((self._op, sid, parent, name, start, end))

    def _wrap(self, name: str, fn, counter):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for stat, n in counter(args, result).items():
                    self.counts[f"{name}.{stat}"] += n
            return result

        return traced

    @contextmanager
    def op(self, index: int):
        """Trace one operation: patch every layer boundary, open its root span."""
        saved = []
        try:
            for module_name, attr, name, counter in PATCH_POINTS:
                module = importlib.import_module(f"laneweave.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, counter))
            self._op = index
            with self.span(ROOT_SPAN):
                yield
        finally:
            self._op = None
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def op_times(self) -> list[float]:
        return [end - start for _, _, _, name, start, end in self.spans if name == ROOT_SPAN]

    def self_times(self) -> dict[str, float]:
        """Total self time per layer: span duration minus the time its
        child spans cover. The root span's self time is what no layer
        accounts for."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for _, sid, _, name, start, end in self.spans:
            totals[name] += (end - start) - child_time[sid]
        return dict(totals)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump({"fields": ["op", "id", "parent", "name", "start", "end"],
                       "spans": self.spans}, handle)
