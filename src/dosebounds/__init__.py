"""Partial-identification bounds for continuous-treatment dose response.

Fits nominal outcome and propensity models, bounds how far hidden
confounding can move the dose-response curve under a chosen sensitivity
model, and benchmarks the resulting ignorance intervals on semi-synthetic
trials.
"""

from .benchmark import (
    DEFAULT_METHODS,
    MethodScore,
    TrialConfig,
    TrialData,
    TrialReport,
    TrialResult,
    calibrate_gamma,
    coverage,
    divergence_cost,
    generate_trial,
    ks_uniform,
    quantile_normalize,
    run_benchmark,
    sensitivity_model_for,
    synthetic_raw,
    true_apo,
    write_summary_json,
    write_trials_csv,
)
from .checks import CheckResult, run_suites
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
from .models import (
    FittedModels,
    OutcomeModel,
    PropensityModel,
    TrainConfig,
    fit_outcome,
    fit_propensity,
    load_model,
    save_model,
)
from .seeds import derive_seed, substream
from .sensitivity import (
    CMSM,
    BetaCompound,
    BetaPropensity,
    BinaryMSM,
    DeltaMSM,
    DivisorEngine,
    PartialIdentificationError,
    Uniform,
    compound,
    lambda_expectation_bounds,
    trust_params,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_METHODS",
    "MethodScore",
    "TrialConfig",
    "TrialData",
    "TrialReport",
    "TrialResult",
    "calibrate_gamma",
    "coverage",
    "divergence_cost",
    "generate_trial",
    "ks_uniform",
    "quantile_normalize",
    "run_benchmark",
    "sensitivity_model_for",
    "synthetic_raw",
    "true_apo",
    "write_summary_json",
    "write_trials_csv",
    "CheckResult",
    "run_suites",
    "DegenerateDrawsError",
    "IntervalCurve",
    "apo_band_matrix",
    "apo_interval",
    "cacd_interval",
    "capo_interval",
    "extremize",
    "outcome_draws",
    "FittedModels",
    "OutcomeModel",
    "PropensityModel",
    "TrainConfig",
    "fit_outcome",
    "fit_propensity",
    "load_model",
    "save_model",
    "derive_seed",
    "substream",
    "CMSM",
    "BetaCompound",
    "BetaPropensity",
    "BinaryMSM",
    "DeltaMSM",
    "DivisorEngine",
    "PartialIdentificationError",
    "Uniform",
    "compound",
    "lambda_expectation_bounds",
    "trust_params",
    "__version__",
]
