"""Compose the drift and jitter models into full offset profiles and
time their generation, persist calibrated models as versioned JSON
documents, and read and write the files around them."""

from __future__ import annotations

import io
import json
import math
import os
import tempfile
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields
from itertools import takewhile
from pathlib import Path

import numpy as np

from .core import MasterSeed, ModelParams, OffsetSeries, seed_children
from .errors import ArgumentUsageError, SchemaError
from .markov import COPIED_SETTINGS, CoarseModel, discretize, sample_chain, smooth_values, state_centers
from .noise import FineModel, generate_noise

FORMAT_VERSION = 1
# Longest profile generate_profile builds: about 23 days at 5 Hz. Each
# step holds a few float64 working arrays, and its CSV row ~40 bytes.
MAX_PROFILE_STEPS = 10_000_000
# Largest model or config file read (64 MiB): the largest valid model
# file, n_c = 1000 with 21-character entries at indent=2, is about 27 MB.
MAX_INPUT_BYTES = 64 << 20

# the snippet duration describes the evaluated data, not the model
_PARAM_FILE_FIELDS = tuple(f.name for f in fields(ModelParams) if f.name != "snippet_duration")


@dataclass(frozen=True, eq=False)
class TwoLevelModel:
    """Calibrated pair of drift and jitter models plus provenance metadata."""

    params: ModelParams
    coarse: CoarseModel
    fine: FineModel
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in COPIED_SETTINGS:
            if getattr(self.coarse, name) != getattr(self.params, name):
                raise ValueError(f"coarse model and params disagree on {name}")


def derive_streams(seed: MasterSeed) -> tuple[np.random.Generator, np.random.Generator]:
    """Split a master seed into independent (coarse, fine) streams.

    The split never consumes coarse draws, so regenerating with the same
    seed but a different transition matrix leaves the jitter unchanged,
    and the jitter may be drawn offline ahead of time.
    """
    coarse_seed, fine_seed = seed_children(seed, 2)
    return np.random.default_rng(coarse_seed), np.random.default_rng(fine_seed)


def coarse_profile(
    model: TwoLevelModel, initial_state: int, n_steps: int, rng: np.random.Generator
) -> np.ndarray:
    """Smoothed drift track from a fresh chain sample."""
    states = sample_chain(model.coarse, initial_state, n_steps, rng)
    return smooth_values(model.coarse.state_centers[states], model.coarse.smoothing_taps)


def generate_profile(
    model: TwoLevelModel, initial_offset: float, duration: float, seed: MasterSeed
) -> OffsetSeries:
    """Full artificial offset profile: drift plus independent jitter.

    The step count is duration rounded to whole steps; the output is a
    pure function of (model, initial_offset, duration, seed).
    """
    params = model.params
    if not -0.5 <= initial_offset <= 0.5:
        raise ArgumentUsageError(f"initial offset {initial_offset!r} outside [-0.5, 0.5]")
    if not params.dt <= duration < math.inf:
        raise ArgumentUsageError(f"duration {duration!r} must be finite and at least one step")
    steps = duration / params.dt
    if steps > MAX_PROFILE_STEPS:
        raise ArgumentUsageError(f"duration {duration!r} s exceeds {MAX_PROFILE_STEPS} steps")
    n_steps = round(steps)
    rng_coarse, rng_fine = derive_streams(seed)
    drift = coarse_profile(model, discretize(initial_offset, params.n_c), n_steps, rng_coarse)
    jitter = generate_noise(model.fine, n_steps, rng_fine)
    return OffsetSeries(params.dt, drift + jitter)


def bench_generation(model: TwoLevelModel, steps: int, repetitions: int) -> dict:
    """Wall times for full, drift-only, and jitter-only generation.

    Phase times are best-of-N; the offline-noise saving is the median of
    the per-repetition paired (full - coarse) differences, which keeps
    its sign meaningful when scheduler noise exceeds the jitter share.
    The pair runs full first in even repetitions and coarse first in odd
    ones, so a host slowing down or speeding up within a pair does not
    bias every difference the same way.
    """
    if steps < 1 or repetitions < 1:
        raise ArgumentUsageError("steps and repetitions must be positive")
    params = model.params
    duration = steps * params.dt
    initial_state = discretize(0.0, params.n_c)
    generate_profile(model, 0.0, duration, 0)  # warm-up
    full = coarse = noise = float("inf")
    paired_diffs = []
    for rep in range(repetitions):
        times = {}
        for phase in ("full", "coarse") if rep % 2 == 0 else ("coarse", "full"):
            start = time.perf_counter()
            if phase == "full":
                generate_profile(model, 0.0, duration, rep)
            else:
                coarse_profile(model, initial_state, steps, np.random.default_rng(rep))
            times[phase] = time.perf_counter() - start

        start = time.perf_counter()
        generate_noise(model.fine, steps, np.random.default_rng(rep))
        noise = min(noise, time.perf_counter() - start)

        full = min(full, times["full"])
        coarse = min(coarse, times["coarse"])
        paired_diffs.append(times["full"] - times["coarse"])
    return {
        "steps": steps,
        "repetitions": repetitions,
        "full_s": full,
        "coarse_s": coarse,
        "noise_s": noise,
        "saving_s": float(np.median(paired_diffs)),
        "speedup_vs_realtime": duration / full,
    }


def _current_umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory plus rename. The file
    gets the mode a plain open() would give it: 0666 less the umask.
    A path that names a directory is refused before anything is written
    (os.replace would replace a symlink to one); a path the system
    refuses, such as one under a file, with too long a name or without
    permission, raises ArgumentUsageError. A failed write leaves behind
    neither its temp file nor the parent directories made for it."""
    path = Path(path)
    tmp = None
    made = []  # parent directories missing before the write, deepest first
    try:
        made = list(takewhile(lambda parent: not parent.exists(), path.parents))
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.is_dir():
            raise ArgumentUsageError(f"cannot write {path}: it is a directory")
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.chmod(tmp, 0o666 & ~_current_umask())
        os.replace(tmp, path)
        tmp, made = None, []
    except OSError as exc:
        under_file = isinstance(exc, (FileExistsError, NotADirectoryError))
        reason = f"{path.parent} is not a directory" if under_file else exc.strerror
        raise ArgumentUsageError(f"cannot write {path}: {reason}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        for parent in made:
            with suppress(OSError):  # no longer empty, or never made
                parent.rmdir()


@contextmanager
def input_errors(path, kind: str):
    """Turn a missing, unreadable or non-UTF-8 input file into SchemaError
    naming the kind of file."""
    try:
        yield
    except FileNotFoundError:
        raise SchemaError(f"{kind} file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {kind} file {path}: {exc}") from None


def read_input(path, kind: str):
    """The JSON document a model or config file holds, decoded as
    Path.read_text() would. A missing, unreadable, non-UTF-8, malformed or
    oversized file (past MAX_INPUT_BYTES, counted on its one read, so a
    pipe too) raises SchemaError with a message naming the kind of file."""
    with input_errors(path, kind), open(path, "rb") as file:
        data = file.read(MAX_INPUT_BYTES + 1)
        if len(data) > MAX_INPUT_BYTES:
            raise SchemaError(f"{kind} file {path} is larger than {MAX_INPUT_BYTES} bytes")
        text = io.TextIOWrapper(io.BytesIO(data)).read()
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"{kind} file is not valid JSON: {exc}") from None


def model_to_dict(model: TwoLevelModel) -> dict:
    params = model.params
    return {
        "version": FORMAT_VERSION,
        "params": {name: getattr(params, name) for name in _PARAM_FILE_FIELDS},
        "coarse": {
            "transition": model.coarse.transition.reshape(-1).tolist(),
            "state_centers": model.coarse.state_centers.tolist(),
        },
        "fine": {
            "kernel_taps": model.fine.kernel_taps.tolist(),
            "noise_halfwidth": model.fine.noise_halfwidth,
        },
        "metadata": dict(model.metadata),
    }


def _require(doc: dict, key: str, context: str = "model file"):
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaError(f"{context} is missing field {key!r}")
    return doc[key]


def _is_number(value) -> bool:
    """A JSON number; json.loads reads true and false as bools, which are ints."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require_floats(doc: dict, key: str, context: str) -> np.ndarray:
    value = _require(doc, key, context)
    if not (isinstance(value, list) and all(map(_is_number, value))):
        raise SchemaError(f"{context} field {key!r} must be a list of numbers")
    try:
        return np.array(value, dtype=np.float64)
    except OverflowError:
        raise SchemaError(f"{context} field {key!r} holds a number past float range") from None


def model_from_dict(doc: dict) -> TwoLevelModel:
    version = _require(doc, "version")
    if version != FORMAT_VERSION:
        raise SchemaError(f"unsupported model format version {version!r}")
    raw_params = _require(doc, "params")
    try:
        params = ModelParams(**{name: raw_params[name] for name in _PARAM_FILE_FIELDS})
    except KeyError as exc:
        raise SchemaError(f"params section is missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"invalid params: {exc}") from None

    raw_coarse = _require(doc, "coarse")
    flat = _require_floats(raw_coarse, "transition", "coarse section")
    if flat.size != params.n_c * params.n_c:
        raise SchemaError(
            f"coarse.transition has {flat.size} entries, expected {params.n_c * params.n_c}"
        )
    try:
        coarse = CoarseModel.from_params(params, flat.reshape(params.n_c, params.n_c))
    except ValueError as exc:
        raise SchemaError(f"invalid coarse model: {exc}") from None
    centers = _require_floats(raw_coarse, "state_centers", "coarse section")
    if centers.size != params.n_c or not np.allclose(
        centers, state_centers(params.n_c), rtol=0.0, atol=1e-12
    ):
        raise SchemaError("coarse.state_centers do not match the n_c bin grid")

    raw_fine = _require(doc, "fine")
    taps = _require_floats(raw_fine, "kernel_taps", "fine section")
    halfwidth = _require(raw_fine, "noise_halfwidth", "fine section")
    if not _is_number(halfwidth):
        raise SchemaError("fine section field 'noise_halfwidth' must be a number")
    try:
        fine = FineModel(kernel_taps=taps, noise_halfwidth=float(halfwidth))
    except (ValueError, OverflowError) as exc:
        raise SchemaError(f"invalid fine model: {exc}") from None

    metadata = doc.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise SchemaError("metadata must be a JSON object")
    return TwoLevelModel(params=params, coarse=coarse, fine=fine, metadata=metadata)


def save_model(model: TwoLevelModel, destination) -> None:
    """Serialize to JSON with full float precision, written atomically."""
    atomic_write_text(destination, json.dumps(model_to_dict(model), indent=2) + "\n")


def load_model(source) -> TwoLevelModel:
    return model_from_dict(read_input(Path(source), "model"))
