"""Semi-synthetic benchmark comparing sensitivity models on dose-response bounds.

A trial projects some raw covariate matrix onto k synthetic columns (visible
confounders, a treatment, hidden confounders), quantile-normalizes them to
uniform marginals, mixes them through a random linear or quadratic form into
a Bernoulli outcome probability, and withholds the hidden half from the
fitted models.  Each sensitivity model is then calibrated to the smallest
gamma whose pooled outcome bounds cover the target share of the true
dose-response curve, and scored by how much information the resulting
ignorance band gives away (average Bernoulli KL from truth to the points of
the band).  Lower cost at equal coverage is better.

Calibration builds about 2 sqrt(n) of the n gamma columns: coverage is
nondecreasing in gamma, so a two-stage search (``calibrate_gamma``) finds the
first crossing.  Every probe set holds at least two columns and ends at
gamma_max, which keeps the Beta-compound 1F1 tables, and so every score,
bitwise equal to those of a full sweep.

Trials are independent: every trial derives its own named random substreams
from the benchmark seed, so reports are bit-identical across reruns.  They
run one after another on the calling thread: the work holds the interpreter
lock, and a thread pool made runs slower, not faster.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .estimator import IntervalCurve, apo_band_matrix
from .models import (
    FittedModels,
    TrainConfig,
    fit_outcome,
    fit_propensity,
    require_integer_fields,
    require_real_fields,
)
from .seeds import derive_seed, substream
from .sensitivity import CMSM, BinaryMSM, DeltaMSM, DivisorEngine, Uniform
from .specfun import erf
from . import fileio

__all__ = [
    "PROB_CLAMP",
    "DEFAULT_METHODS",
    "TrialConfig",
    "TrialData",
    "MethodScore",
    "TrialResult",
    "TrialReport",
    "quantile_normalize",
    "synthetic_raw",
    "generate_trial",
    "true_apo",
    "divergence_cost",
    "coverage",
    "ks_uniform",
    "sensitivity_model_for",
    "calibrate_gamma",
    "run_benchmark",
    "write_trials_csv",
    "write_summary_json",
]

# Bernoulli bounds are clamped this far inside [0, 1] before KL integrals;
# the divergence diverges at {0, 1}.
PROB_CLAMP = 1e-6

DEFAULT_METHODS = ("deltamsm", "cmsm", "uniform", "binarymsm")

_METHOD_MODELS = {
    "deltamsm": lambda: DeltaMSM("balanced-beta"),
    "cmsm": CMSM,
    "uniform": Uniform,
    "binarymsm": BinaryMSM,
}


def sensitivity_model_for(method: str):
    """The sensitivity model a benchmark method name stands for."""
    try:
        factory = _METHOD_MODELS[method]
    except KeyError:
        known = ", ".join(sorted(_METHOD_MODELS))
        raise ValueError(f"unknown method {method!r}; expected one of {known}") from None
    return factory()


@dataclass(frozen=True)
class TrialConfig:
    """One benchmark setting; k = n_confounders + 1 synthetic columns."""

    n_confounders: int = 10
    form: str = "quadratic"
    n_train: int = 750
    n_test: int = 250
    t_grid_size: int = 100
    gamma_grid_size: int = 100
    gamma_max: float = 2.5
    target_coverage: float = 0.9
    seed: int = 0

    def __post_init__(self):
        require_integer_fields(
            self, "n_confounders", "n_train", "n_test", "t_grid_size", "gamma_grid_size", "seed"
        )
        require_real_fields(self, "gamma_max", "target_coverage")
        if self.n_confounders < 2 or self.n_confounders % 2 != 0:
            raise ValueError("n_confounders must be even and >= 2 (half stay hidden)")
        if self.form not in ("linear", "quadratic"):
            raise ValueError(f"form must be 'linear' or 'quadratic', got {self.form!r}")
        if self.n_train < 1 or self.n_test < 1:
            raise ValueError("n_train and n_test must be positive")
        if self.t_grid_size < 2 or self.gamma_grid_size < 2:
            raise ValueError("grids need at least two points")
        if not (self.gamma_max >= 1.0 and math.isfinite(self.gamma_max)):
            raise ValueError("gamma_max must be finite and >= 1")
        if not (0.0 <= self.target_coverage <= 1.0):
            raise ValueError("target_coverage must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def k(self) -> int:
        return self.n_confounders + 1

    @property
    def treatment_index(self) -> int:
        return self.k // 2

    def dose_grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.t_grid_size)

    def gamma_grid(self) -> np.ndarray:
        return np.linspace(1.0, self.gamma_max, self.gamma_grid_size)


@dataclass(frozen=True)
class TrialData:
    """One generated trial with its frozen ground-truth machinery.

    ``v_matrix`` columns are <visible confounders, treatment, hidden
    confounders>, each quantile-normalized into (0, 1).  Only the visible
    block (plus treatment and outcome) may reach fitted models; the hidden
    block exists for ground-truth evaluation.
    """

    v_matrix: np.ndarray
    y: np.ndarray
    mixing: np.ndarray
    location: float
    scale: float
    train_idx: np.ndarray
    test_idx: np.ndarray
    treatment_index: int

    @property
    def k(self) -> int:
        return self.v_matrix.shape[1]

    def visible(self, idx) -> np.ndarray:
        return self.v_matrix[np.asarray(idx), : self.treatment_index]

    def treatments(self, idx) -> np.ndarray:
        return self.v_matrix[np.asarray(idx), self.treatment_index]

    def outcomes(self, idx) -> np.ndarray:
        return self.y[np.asarray(idx)]


def quantile_normalize(column) -> np.ndarray:
    """Map values to averaged-rank / (n + 1), strictly inside (0, 1)."""
    column = np.asarray(column, dtype=float)
    if column.ndim != 1 or len(column) < 2:
        raise ValueError("quantile_normalize needs a 1-d column of length >= 2")
    _, inverse, counts = np.unique(column, return_inverse=True, return_counts=True)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    average_rank = starts + (counts + 1) / 2.0
    return average_rank[inverse] / (len(column) + 1.0)


def synthetic_raw(n_rows: int, n_cols: int, seed: int, n_factors: int | None = None) -> np.ndarray:
    """Stand-in covariate matrix with correlated, non-Gaussian columns.

    Draws a Gaussian copula from a random low-rank-plus-diagonal covariance
    and pushes each column through a random monotone warp so marginals vary.
    """
    if n_rows < 2 or n_cols < 1:
        raise ValueError("synthetic_raw needs n_rows >= 2 and n_cols >= 1")
    if n_factors is None:
        n_factors = max(1, (n_cols + 3) // 4)
    rng = substream(seed, "raw")
    loadings = rng.normal(size=(n_cols, n_factors))
    noise_scale = rng.uniform(0.2, 1.0, size=n_cols)
    z = rng.normal(size=(n_rows, n_factors)) @ loadings.T
    z += rng.normal(size=(n_rows, n_cols)) * np.sqrt(noise_scale)
    warp = rng.integers(0, 3, size=n_cols)
    out = np.empty_like(z)
    for j in range(n_cols):
        col = z[:, j]
        if warp[j] == 1:
            col = np.exp(col / 2.0)
        elif warp[j] == 2:
            col = col**3
        out[:, j] = col
    return out


def _norm_cdf(z):
    return 0.5 * (1.0 + erf(np.asarray(z, dtype=float) / math.sqrt(2.0)))


def _pre_activation(rows: np.ndarray, mixing: np.ndarray, treatment_index: int) -> np.ndarray:
    """u per row, with the treatment coordinate upscaled by (k - 1) first."""
    scaled = np.array(rows, dtype=float, copy=True)
    scaled[:, treatment_index] *= scaled.shape[1] - 1
    if mixing.ndim == 1:
        return scaled @ mixing
    return np.einsum("ij,jk,ik->i", scaled, mixing, scaled)


def generate_trial(raw, config: TrialConfig) -> TrialData:
    """Build one trial from a raw covariate matrix.

    Projects a seeded row subsample through k i.i.d.-normal directions,
    quantile-normalizes each projection, mixes them into the pre-activation
    u, standardizes u by its median and mean absolute deviation, squashes
    through the normal CDF into an outcome probability, and samples the
    Bernoulli outcomes.  The first n_train subsampled rows form the train
    split, the remainder the test split.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2 or raw.shape[1] < 1:
        raise ValueError("raw data must be a 2-d matrix")
    n_rows = config.n_train + config.n_test
    if len(raw) < n_rows:
        raise ValueError(f"raw data has {len(raw)} rows; the trial needs {n_rows}")
    rows = substream(config.seed, "rows").choice(len(raw), size=n_rows, replace=False)
    selected = raw[rows]
    directions = substream(config.seed, "projections").normal(size=(raw.shape[1], config.k))
    projections = selected @ directions
    v_matrix = np.column_stack(
        [quantile_normalize(projections[:, j]) for j in range(config.k)]
    )
    mix_rng = substream(config.seed, "mixing")
    if config.form == "linear":
        mixing = mix_rng.normal(size=config.k)
    else:
        mixing = mix_rng.normal(size=(config.k, config.k))
    u = _pre_activation(v_matrix, mixing, config.treatment_index)
    location = float(np.median(u))
    scale = float(np.mean(np.abs(u - location)))
    if not scale > 0.0:
        raise ValueError("degenerate trial: pre-activation has zero spread")
    u_star = _norm_cdf((u - location) / scale)
    y = (substream(config.seed, "outcomes").uniform(size=n_rows) < u_star).astype(float)
    return TrialData(
        v_matrix=v_matrix,
        y=y,
        mixing=mixing,
        location=location,
        scale=scale,
        train_idx=np.arange(config.n_train),
        test_idx=np.arange(config.n_train, n_rows),
        treatment_index=config.treatment_index,
    )


def true_apo(trial: TrialData, t_grid) -> np.ndarray:
    """Ground-truth average dose response over the trial's test rows.

    Sets every test row's treatment coordinate to each grid dose (keeping
    visible and hidden confounders fixed) and averages the frozen outcome
    probabilities.
    """
    rows = np.array(trial.v_matrix[trial.test_idx], dtype=float, copy=True)
    out = np.empty(len(np.asarray(t_grid)))
    for i, t in enumerate(np.asarray(t_grid, dtype=float)):
        rows[:, trial.treatment_index] = t
        u = _pre_activation(rows, trial.mixing, trial.treatment_index)
        out[i] = float(np.mean(_norm_cdf((u - trial.location) / trial.scale)))
    return out


def _effective_bounds(lo, hi, undefined):
    """Scoring view of a band: clamped, with flagged points fully widened."""
    widen = np.asarray(undefined, dtype=bool) | ~np.isfinite(lo) | ~np.isfinite(hi)
    lo = np.where(widen, PROB_CLAMP, np.clip(lo, PROB_CLAMP, 1.0 - PROB_CLAMP))
    hi = np.where(widen, 1.0 - PROB_CLAMP, np.clip(hi, PROB_CLAMP, 1.0 - PROB_CLAMP))
    return lo, hi


def _kl_band(p, lo, hi):
    """Average KL(Bern(p) || Bern(q)) over q in [lo, hi], elementwise.

    Uses the antiderivatives  int ln q dq = q ln q - q  and
    int ln(1-q) dq = -(1-q) ln(1-q) - q;  intervals narrower than 1e-9
    collapse to the midpoint KL to dodge cancellation in the quotient.
    """
    neg_entropy = p * np.log(p) + (1.0 - p) * np.log1p(-p)
    width = hi - lo
    mid = 0.5 * (lo + hi)
    point = neg_entropy - p * np.log(mid) - (1.0 - p) * np.log1p(-mid)
    int_ln_q = (hi * np.log(hi) - hi) - (lo * np.log(lo) - lo)
    int_ln_1mq = (-(1.0 - hi) * np.log1p(-hi) - hi) - (-(1.0 - lo) * np.log1p(-lo) - lo)
    with np.errstate(invalid="ignore", divide="ignore"):
        averaged = neg_entropy - (p * int_ln_q + (1.0 - p) * int_ln_1mq) / width
    return np.where(width > 1e-9, averaged, point)


def divergence_cost(p_true, curve: IntervalCurve) -> float:
    """Information given away by the band: mean over doses of the average
    Bernoulli KL from the true probability to the band's points.

    Bounds (and the true probabilities) are clamped to
    [PROB_CLAMP, 1 - PROB_CLAMP]; flagged points count as the fully
    ignorant clamped interval.  Zero iff the band degenerates to the truth
    everywhere.  Table-style reports multiply by 1000.
    """
    p = np.clip(np.asarray(p_true, dtype=float), PROB_CLAMP, 1.0 - PROB_CLAMP)
    lo, hi = _effective_bounds(curve.lo, curve.hi, curve.undefined_mask)
    return float(np.mean(_kl_band(p, lo, hi)))


def coverage(p_true, curve: IntervalCurve) -> float:
    """Share of grid points whose true value the band contains.

    Flagged points count as covered: their interval is vacuously unbounded.
    """
    p = np.asarray(p_true, dtype=float)
    if p.shape != curve.lo.shape:
        raise ValueError("p_true must match the curve grid")
    with np.errstate(invalid="ignore"):
        inside = (curve.lo <= p) & (p <= curve.hi)
    return float(np.mean(inside | curve.undefined_mask))


def ks_uniform(values) -> float:
    """Kolmogorov-Smirnov statistic of a sample against Uniform(0, 1)."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 0:
        raise ValueError("ks_uniform needs a non-empty sample")
    grid = np.arange(n, dtype=float)
    return float(max(np.max((grid + 1.0) / n - x), np.max(x - grid / n)))


@dataclass(frozen=True)
class MethodScore:
    method: str
    gamma_star: float
    coverage: float
    cost: float
    flags: tuple[str, ...] = ()

    @property
    def cost_x1000(self) -> float:
        return 1000.0 * self.cost


@dataclass(frozen=True)
class TrialResult:
    trial_id: int
    scores: tuple[MethodScore, ...]
    error: str | None = None


@dataclass(frozen=True)
class TrialReport:
    methods: tuple[str, ...]
    results: tuple[TrialResult, ...]
    summary: dict


def _outcome_prob_matrix(outcome_model, test_x, t_grid) -> np.ndarray:
    return np.array([outcome_model.predict(test_x, float(t)) for t in t_grid])


def _trial_tables(trial: TrialData, models: FittedModels, config: TrialConfig):
    """(propensity params, outcome-probability matrix, true APO) on the test rows."""
    t_grid = config.dose_grid()
    test_x = trial.visible(trial.test_idx)
    return (
        models.propensity.predict(test_x),
        _outcome_prob_matrix(models.outcome, test_x, t_grid),
        true_apo(trial, t_grid),
    )


def _calibrate_from_tables(
    method, propensity_params, prob_matrix, p_true, t_grid, gammas, target,
    trust_precision=None,
) -> MethodScore:
    engine = DivisorEngine(
        sensitivity_model_for(method), propensity_params, trust_precision=trust_precision
    )

    def probe(cols):
        """(lo, hi, undefined, coverage) at ascending gamma columns ``cols``."""
        lo, hi, undefined = apo_band_matrix(engine, prob_matrix, t_grid, gammas[cols])
        with np.errstate(invalid="ignore"):
            inside = (lo <= p_true[:, None]) & (p_true[:, None] <= hi)
        return lo, hi, undefined, np.mean(inside | undefined, axis=0)

    # stage 1: every step-th column, counted back from gamma_max; the step is
    # ceil(sqrt(n)), except that a two-gamma grid probes both columns at once
    last = len(gammas) - 1
    step = min(math.isqrt(last) + 1, last)
    cols = np.arange(last % step, last + 1, step)
    band = probe(cols)
    reached = band[3] >= target
    calibrated = bool(reached[-1])
    j = int(np.argmax(reached)) if calibrated else len(cols) - 1
    # stage 2: the columns between the last coarse miss and the first coarse
    # hit, probed together with gamma_max again
    between = np.arange(cols[j - 1] + 1 if j else 0, cols[j])
    if calibrated and between.size:
        fine_cols = np.append(between, last)
        fine = probe(fine_cols)
        fine_reached = fine[3][:-1] >= target
        if fine_reached.any():
            cols, band, j = fine_cols, fine, int(np.argmax(fine_reached))
    lo, hi, undefined, covered = (part[..., j] for part in band)
    flags = [] if calibrated else ["uncalibrated"]
    if undefined.any():
        flags.append("undefined_points")
    if calibrated:
        curve = IntervalCurve(t_grid, lo, hi, "apo", undefined)
    else:
        # the only band such a method can certify is the vacuous one
        curve = IntervalCurve(
            t_grid, np.zeros_like(t_grid), np.ones_like(t_grid), "apo",
            np.zeros(len(t_grid), dtype=bool),
        )
    return MethodScore(
        method=method,
        gamma_star=float(gammas[cols[j]]),
        coverage=float(covered),
        cost=divergence_cost(p_true, curve),
        flags=tuple(flags),
    )


def calibrate_gamma(
    method: str,
    trial: TrialData,
    models: FittedModels,
    config: TrialConfig,
    trust_precision=None,
) -> MethodScore:
    """Smallest grid gamma reaching the target coverage, and its cost.

    Coverage is nondecreasing in gamma (bands nest, and points that lose
    their divisor floor stay flagged), so the first crossing is the optimum
    and a search finds it.  With s = ceil(sqrt(n)) for n grid gammas, stage 1
    builds the bands of every s-th column counted back from gamma_max; if
    gamma_max misses the target, the method is uncalibrated.  Stage 2 builds
    the columns strictly between the last coarse column that misses and the
    first that reaches, plus gamma_max again; the pick is the first of them
    that reaches, else that coarse column.  Each stage ends at gamma_max
    with at least two columns because a column's DeltaMSM band depends on
    the set it is computed with: the 1F1 term count follows the largest
    gamma, and a one-column table goes through a matrix-vector product that
    sums in another order.  So every probed column equals the full sweep's
    bit for bit.
    A method that never reaches the target keeps the largest gamma, takes an
    "uncalibrated" flag, and is charged for the fully ignorant band: the cost
    measures the price of the target coverage, and a band that never attains
    it only certifies the vacuous interval.
    """
    return _calibrate_from_tables(
        method, *_trial_tables(trial, models, config), config.dose_grid(),
        config.gamma_grid(), config.target_coverage, trust_precision=trust_precision,
    )


def _run_trial(trial_id, raw, config, methods, train_config, trust_precision=None) -> TrialResult:
    trial_config = replace(config, seed=derive_seed(config.seed, "trial", trial_id))
    trial = generate_trial(raw, trial_config)
    fit_seed = derive_seed(config.seed, "fit", trial_id)
    fit_config = replace(train_config or TrainConfig(), seed=fit_seed)
    train_x = trial.visible(trial.train_idx)
    train_t = trial.treatments(trial.train_idx)
    models = FittedModels(
        outcome=fit_outcome(train_x, train_t, trial.outcomes(trial.train_idx), fit_config),
        propensity=fit_propensity(train_x, train_t, fit_config),
    )
    tables = _trial_tables(trial, models, config)
    t_grid = config.dose_grid()
    gammas = config.gamma_grid()
    scores = tuple(
        _calibrate_from_tables(
            method, *tables, t_grid, gammas, config.target_coverage,
            trust_precision=trust_precision,
        )
        for method in methods
    )
    return TrialResult(trial_id=trial_id, scores=scores)


def run_benchmark(
    config: TrialConfig,
    raw,
    methods=DEFAULT_METHODS,
    n_trials: int = 50,
    train_config: TrainConfig | None = None,
    n_workers: int = 1,
    trust_precision=None,
) -> TrialReport:
    """Generate, fit, calibrate, and score ``n_trials`` independent trials.

    Trial i reseeds the config with a substream derived from (seed, i), so
    the report is a pure function of (config, raw, methods, n_trials).  Per
    trial failures are recorded on the result instead of aborting the run.
    Trials run serially on the calling thread: a trial holds the interpreter
    lock for almost all of its work, and on a 2-core machine a thread pool
    made 24 default-scale trials take 2.7 s wall on two workers and 3.9 s on
    four, against 2.2 s on one.  ``n_workers`` accepts only 1; the keyword
    goes once perfbench stops passing it.
    """
    if n_workers != 1:
        raise ValueError(f"n_workers must be 1 (trials run serially), got {n_workers!r}")
    methods = tuple(methods)
    if not methods:
        raise ValueError("run_benchmark needs at least one method")
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    for method in methods:
        sensitivity_model_for(method)
    raw = np.asarray(raw, dtype=float)
    results = []
    for trial_id in range(n_trials):
        try:
            result = _run_trial(trial_id, raw, config, methods, train_config, trust_precision)
        except Exception as exc:
            result = TrialResult(trial_id, (), f"{type(exc).__name__}: {exc}")
        results.append(result)
    results = tuple(results)
    return TrialReport(
        methods=methods, results=results, summary=_summarize(config, methods, results)
    )


def _summarize(config, methods, results) -> dict:
    completed = [r for r in results if r.error is None]
    stats = {
        name: {
            "costs": [], "gammas": [], "coverages": [], "ratios": [],
            "credit": 0.0, "uncalibrated": 0,
        }
        for name in methods
    }
    for result in completed:
        costs = np.array([score.cost for score in result.scores])
        best = float(costs.min())
        winners = costs == best
        share = 1.0 / int(winners.sum())
        for score, is_best in zip(result.scores, winners):
            entry = stats[score.method]
            entry["costs"].append(score.cost)
            entry["gammas"].append(score.gamma_star)
            entry["coverages"].append(score.coverage)
            if is_best:
                entry["credit"] += share
                entry["ratios"].append(1.0)
            else:
                entry["ratios"].append(math.inf if best == 0.0 else score.cost / best)
            if "uncalibrated" in score.flags:
                entry["uncalibrated"] += 1

    def mean_std(values):
        if not values:
            return None, None
        arr = np.asarray(values, dtype=float)
        return float(arr.mean()), float(arr.std())

    per_method = {}
    for name in methods:
        entry = stats[name]
        mean_cost, std_cost = mean_std(entry["costs"])
        mean_ratio, std_ratio = mean_std(entry["ratios"])
        mean_gamma, _ = mean_std(entry["gammas"])
        mean_cov, _ = mean_std(entry["coverages"])
        per_method[name] = {
            "mean_cost_x1000": None if mean_cost is None else 1000.0 * mean_cost,
            "std_cost_x1000": None if std_cost is None else 1000.0 * std_cost,
            "pct_best": None if not completed else 100.0 * entry["credit"] / len(completed),
            "mean_ratio_to_best": mean_ratio,
            "std_ratio_to_best": std_ratio,
            "mean_gamma_star": mean_gamma,
            "mean_coverage": mean_cov,
            "n_uncalibrated": entry["uncalibrated"],
        }
    return {
        "schema": "dosebounds-benchmark-summary-v1",
        "config": asdict(config),
        "methods": list(methods),
        "n_trials": len(results),
        "n_failed": len(results) - len(completed),
        "errors": {str(r.trial_id): r.error for r in results if r.error is not None},
        "per_method": per_method,
    }


def write_trials_csv(path: str, report: TrialReport) -> None:
    """Per-trial rows: trial_id, method, gamma_star, coverage, cost_x1000, flags."""
    rows = []
    for result in report.results:
        if result.error is not None:
            rows.append(
                [result.trial_id, "failed", math.nan, math.nan, math.nan,
                 result.error.replace(",", ";")]
            )
            continue
        for score in result.scores:
            rows.append(
                [
                    result.trial_id,
                    score.method,
                    score.gamma_star,
                    score.coverage,
                    score.cost_x1000,
                    "|".join(score.flags),
                ]
            )
    fileio.write_csv(
        path, ["trial_id", "method", "gamma_star", "coverage", "cost_x1000", "flags"], rows
    )


def write_summary_json(path: str, report: TrialReport) -> None:
    fileio.write_json(path, report.summary)
