"""Two-layer stochastic modeling of a vehicle's lateral position within
its lane: a smoothed discrete-state chain for the coarse drift plus
spectrally shaped noise for the fine jitter.

Calibrate from recorded tours (or synthetic ground truth), generate
artificial offset profiles, and evaluate them against real data with the
paired snippet-metric protocol.
"""

from .core import (
    DriveLog,
    ModelParams,
    OffsetSeries,
    relative_offset,
)
from .evaluation import (
    METRIC_NAMES,
    EvalMode,
    EvaluationReport,
    compute_metrics,
    evaluate,
    ks_critical_value,
    ks_distance,
    report_json,
    run_mode,
    split_snippets,
    summarize,
)
from .generator import (
    TwoLevelModel,
    generate_profile,
    load_model,
    save_model,
)
from .markov import (
    CoarseModel,
    discretize,
    gaussian_kernel,
    sample_chain,
    state_centers,
)
from .noise import (
    FineModel,
    SpectrumFit,
    cap,
    extract_fine,
    fit_kernel,
    generate_noise,
    measured_coarse,
)
from .preprocessing import Segment, extract_segments, resample
from .synthetic import SyntheticSpec, make_model, simulate_drive_log

__version__ = "0.1.0"

__all__ = [
    "CoarseModel",
    "DriveLog",
    "EvalMode",
    "EvaluationReport",
    "FineModel",
    "METRIC_NAMES",
    "ModelParams",
    "OffsetSeries",
    "Segment",
    "SpectrumFit",
    "SyntheticSpec",
    "TwoLevelModel",
    "cap",
    "compute_metrics",
    "discretize",
    "evaluate",
    "extract_fine",
    "extract_segments",
    "fit_kernel",
    "gaussian_kernel",
    "generate_noise",
    "generate_profile",
    "ks_critical_value",
    "ks_distance",
    "load_model",
    "make_model",
    "measured_coarse",
    "relative_offset",
    "report_json",
    "resample",
    "run_mode",
    "sample_chain",
    "save_model",
    "simulate_drive_log",
    "split_snippets",
    "state_centers",
    "summarize",
    "__version__",
]
