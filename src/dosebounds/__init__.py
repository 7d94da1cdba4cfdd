"""Partial-identification bounds for continuous-treatment dose response.

Fits nominal outcome and propensity models, bounds how far hidden
confounding can move the dose-response curve under a chosen sensitivity
model, and benchmarks the resulting ignorance intervals on semi-synthetic
trials.

The top level holds the documented API; everything else stays in its
submodule (``benchmark``, ``checks``, ``cli``, ``estimator``, ``fileio``,
``models``, ``seeds``, ``sensitivity``, ``specfun``).
"""

from .benchmark import (
    TrialConfig,
    generate_trial,
    run_benchmark,
    sensitivity_model_for,
    synthetic_raw,
    true_apo,
)
from .estimator import (
    DegenerateDrawsError,
    IntervalCurve,
    apo_band_matrix,
    apo_interval,
    cacd_interval,
    capo_interval,
    extremize,
    outcome_draws,
)
from .models import FittedModels, TrainConfig, fit_outcome, fit_propensity
from .seeds import derive_seed
from .sensitivity import (
    CMSM,
    BetaPropensity,
    BinaryMSM,
    DeltaMSM,
    DivisorEngine,
    PartialIdentificationError,
    Uniform,
)

__version__ = "0.1.0"

__all__ = [
    "TrialConfig",
    "generate_trial",
    "run_benchmark",
    "sensitivity_model_for",
    "synthetic_raw",
    "true_apo",
    "DegenerateDrawsError",
    "IntervalCurve",
    "apo_band_matrix",
    "apo_interval",
    "cacd_interval",
    "capo_interval",
    "extremize",
    "outcome_draws",
    "FittedModels",
    "TrainConfig",
    "fit_outcome",
    "fit_propensity",
    "derive_seed",
    "CMSM",
    "BetaPropensity",
    "BinaryMSM",
    "DeltaMSM",
    "DivisorEngine",
    "PartialIdentificationError",
    "Uniform",
]
