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

Calibration bisects the coverage curve, not whole gamma grids: a dose's
band nests as gamma grows, so a dose covered at one gamma column stays
covered at every later one, and coverage never falls.  One bisection over
n columns (``_calibrate_from_tables``) takes at most ceil(log2(n + 1))
rounds, each building one column on only the doses whose verdict the
columns built so far leave open; one last call fills in the picked column.
A band point does not depend on which other points share its call, so
every score equals that of a full sweep bit for bit.

Trials are independent: every trial derives its own named random substreams
from the benchmark seed, so reports are bit-identical across reruns.  They
run one after another on the calling thread: the work holds the interpreter
lock, and a thread pool made runs slower, not faster.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .estimator import IntervalCurve, _band_points, _outcome_prob_matrix
# perfbench's tracer patches apo_band_matrix here; no benchmark code calls it
from .estimator import apo_band_matrix  # noqa: F401
from .models import (
    FittedModels,
    TrainConfig,
    fit_outcome,
    fit_propensity,
    require_integer,
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
    "sensitivity_model_for",
    "run_benchmark",
    "write_trials_csv",
    "write_summary_json",
]

# Bernoulli bounds are clamped this far inside [0, 1] before KL integrals;
# the divergence diverges at {0, 1}.
PROB_CLAMP = 1e-6

_METHOD_MODELS = {"deltamsm": DeltaMSM, "cmsm": CMSM, "uniform": Uniform, "binarymsm": BinaryMSM}

DEFAULT_METHODS = tuple(_METHOD_MODELS)


def sensitivity_model_for(method: str):
    """The sensitivity model a benchmark method name stands for."""
    # checked first: a list as a method name would raise TypeError on the lookup
    if not isinstance(method, str):
        raise ValueError(f"method names must be strings, got {method!r}")
    try:
        factory = _METHOD_MODELS[method]
    except KeyError:
        known = ", ".join(sorted(_METHOD_MODELS))
        raise ValueError(f"unknown method {method!r}; expected one of {known}") from None
    return factory()


def _checked_methods(methods) -> tuple[str, ...]:
    """``methods`` as a tuple, once it is non-empty and names known methods,
    each once: a repeated method would take extra shares of every tie."""
    methods = tuple(methods)
    if not methods:
        raise ValueError("at least one method is needed")
    for method in methods:
        sensitivity_model_for(method)
    repeated = sorted({method for method in methods if methods.count(method) > 1})
    if repeated:
        raise ValueError(f"duplicate methods: {', '.join(map(repr, repeated))}")
    return methods


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
        # float() keeps the grid float64 for a numpy float32 gamma_max
        return np.linspace(1.0, float(self.gamma_max), self.gamma_grid_size)


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


def synthetic_raw(n_rows: int, n_cols: int, seed: int) -> np.ndarray:
    """Stand-in covariate matrix with correlated, non-Gaussian columns.

    Draws a Gaussian copula from a random covariance of rank ceil(n_cols / 4)
    plus a diagonal, and pushes each column through a random monotone warp
    so marginals vary.
    """
    if n_rows < 2 or n_cols < 1:
        raise ValueError("synthetic_raw needs n_rows >= 2 and n_cols >= 1")
    n_factors = (n_cols + 3) // 4
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


def _dose_polynomial(rows: np.ndarray, mixing: np.ndarray, treatment_index: int):
    """(A, B, C) per row with pre-activation A + B t + C t^2 at dose t, upscaled to (k - 1) t."""
    up, j = rows.shape[1] - 1, treatment_index
    s0 = np.array(rows, dtype=float, copy=True)  # the rows at dose 0
    s0[:, j] = 0.0
    if mixing.ndim == 1:  # u = s m
        return s0 @ mixing, up * mixing[j], 0.0
    cross = s0 @ (mixing[:, j] + mixing[j])  # u = s' M s
    return np.sum(s0 @ mixing * s0, axis=1), up * cross, up * up * mixing[j, j]


def generate_trial(raw, config: TrialConfig) -> TrialData:
    """Build one trial from a raw covariate matrix.

    Projects a seeded row subsample through k i.i.d.-normal directions,
    quantile-normalizes each projection, mixes them into the pre-activation
    u (``_dose_polynomial`` at each row's dose), standardizes u by its median
    and mean absolute deviation, squashes through the normal CDF into an
    outcome probability, and samples the Bernoulli outcomes.  The first
    n_train subsampled rows form the train split, the remainder the test
    split.
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
    a, b, c = _dose_polynomial(v_matrix, mixing, config.treatment_index)
    t = v_matrix[:, config.treatment_index]
    u = a + t * (b + c * t)
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
    probabilities, in one expression over the (dose, row) grid of each row's
    ``_dose_polynomial``.  A dose's value does not depend on the other doses.
    """
    a, b, c = _dose_polynomial(trial.v_matrix[trial.test_idx], trial.mixing, trial.treatment_index)
    t = np.asarray(t_grid, dtype=float)[:, None]
    u = a + t * (b + c * t)
    return np.mean(_norm_cdf((u - trial.location) / trial.scale), axis=1)


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


def _covers(p, lo, hi, undefined):
    """Per point: the band contains the true value, or the point is flagged
    (its interval is vacuously unbounded)."""
    with np.errstate(invalid="ignore"):
        return ((lo <= p) & (p <= hi)) | undefined


def coverage(p_true, lo, hi, undefined):
    """Share of doses whose true value the band over the dose grid of
    ``p_true`` contains, flagged points counted as covered (``_covers``).
    """
    p = np.asarray(p_true, dtype=float)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    undefined = np.asarray(undefined, dtype=bool)
    if not p.shape == lo.shape == hi.shape == undefined.shape:
        raise ValueError("p_true, lo, hi and undefined must share the dose grid's shape")
    return np.mean(_covers(p, lo, hi, undefined))


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
    method, propensity_params, prob_matrix, p_true, t_grid, gammas, target
) -> MethodScore:
    """Smallest grid gamma reaching the target coverage, and its cost.

    A dose's band nests as gamma grows, and a point that loses its divisor
    floor stays flagged, so a dose covered at one column stays covered at
    every later column, and coverage never falls.  One bisection over the
    columns finds the first that reaches the target, halving the open range
    each round, so n gammas take at most ceil(log2(n + 1)) rounds.  Two
    per-dose masks hold what the built columns decide: doses covered at a
    column left of the open range, and doses missed at one right of it.  A
    round's one ``_band_points`` call builds the middle column on the other
    doses only, and compares the share of covered doses, known and built,
    with the target.  One more call builds the picked column's skipped doses,
    whose whole band gives the reported coverage, the flags and the cost.
    A method that never reaches the target keeps the largest gamma, takes an
    "uncalibrated" flag, and its band is scored with every point flagged,
    which ``_effective_bounds`` widens to the fully ignorant clamped interval:
    the cost measures the price of the target coverage, and a band that never
    attains it only certifies the vacuous interval.
    """
    engine = DivisorEngine(sensitivity_model_for(method), propensity_params)

    def build(dose_idx, gamma):
        return _band_points(engine, prob_matrix, t_grid, dose_idx, np.full(len(dose_idx), gamma))

    n = len(gammas)
    # doses covered at a built column left of [left, right), or missed right of it
    covered, missed = np.zeros((2, len(t_grid)), dtype=bool)
    # the first column reaching the target lies in [left, right]; n means none
    left, right = 0, n
    while left < right:
        mid = (left + right) // 2
        open_doses = np.flatnonzero(~(covered | missed))
        band = build(open_doses, gammas[mid])
        verdict = covered.copy()
        verdict[open_doses] = _covers(p_true[open_doses], *band)
        reached = np.mean(verdict) >= target
        # a search that never reaches the target ends on column n - 1
        if reached or mid == n - 1:
            pick, built, picked_band = mid, open_doses, band
        if reached:
            missed, right = ~verdict, mid
        else:
            covered, left = verdict, mid + 1
    skipped = np.setdiff1d(np.arange(len(t_grid)), built)
    order = np.argsort(np.concatenate([built, skipped]))
    lo, hi, undefined = (
        np.concatenate(parts)[order] for parts in zip(picked_band, build(skipped, gammas[pick]))
    )
    calibrated = left < n
    flags = [] if calibrated else ["uncalibrated"]
    if undefined.any():
        flags.append("undefined_points")
    return MethodScore(
        method=method,
        gamma_star=float(gammas[pick]),
        coverage=float(coverage(p_true, lo, hi, undefined)),
        cost=divergence_cost(p_true, IntervalCurve(t_grid, lo, hi, undefined | (not calibrated))),
        flags=tuple(flags),
    )


def _run_trial(trial_id, raw, config, methods, train_config) -> TrialResult:
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
        _calibrate_from_tables(method, *tables, t_grid, gammas, config.target_coverage)
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
) -> TrialReport:
    """Generate, fit, calibrate, and score ``n_trials`` independent trials.

    Trial i reseeds the config with a substream derived from (seed, i), so
    the report is a pure function of (config, raw, methods, n_trials).
    ``methods`` must name known methods, each once (``ValueError``
    otherwise).  Per trial failures are recorded on the result instead of
    aborting the run.
    Trials run serially on the calling thread: a trial holds the interpreter
    lock for almost all of its work, and on a 2-core machine a thread pool
    made 24 default-scale trials take 2.7 s wall on two workers and 3.9 s on
    four, against 2.2 s on one.  ``n_workers`` accepts only 1; the keyword
    goes once perfbench stops passing it.
    """
    if n_workers != 1:
        raise ValueError(f"n_workers must be 1 (trials run serially), got {n_workers!r}")
    methods = _checked_methods(methods)
    require_integer("n_trials", n_trials)
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    raw = np.asarray(raw, dtype=float)
    results = []
    for trial_id in range(n_trials):
        try:
            result = _run_trial(trial_id, raw, config, methods, train_config)
        except Exception as exc:
            result = TrialResult(trial_id, (), f"{type(exc).__name__}: {exc}")
        results.append(result)
    results = tuple(results)
    return TrialReport(
        methods=methods, results=results, summary=_summarize(config, methods, results)
    )


def _summarize(config, methods, results) -> dict:
    completed = [r for r in results if r.error is None]
    # (completed trials x methods) tables; a trial scores methods in order
    cost, gamma, cover = (
        np.array([[getattr(score, field) for score in r.scores] for r in completed])
        .reshape(len(completed), len(methods))
        for field in ("cost", "gamma_star", "coverage")
    )
    best = cost.min(axis=1, keepdims=True)
    winners = cost == best
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(winners, 1.0, cost / best)  # inf where best is 0
    # tied winners split a trial's credit; summed over trials in order
    credit = (winners / winners.sum(axis=1, keepdims=True)).sum(axis=0)

    def mean_std(table, j):
        if not completed:
            return None, None
        return float(table[:, j].mean()), float(table[:, j].std())

    per_method = {}
    for j, name in enumerate(methods):
        mean_cost, std_cost = mean_std(cost, j)
        with np.errstate(invalid="ignore"):  # a column holding inf has std NaN
            mean_ratio, std_ratio = mean_std(ratio, j)
        per_method[name] = {
            "mean_cost_x1000": None if mean_cost is None else 1000.0 * mean_cost,
            "std_cost_x1000": None if std_cost is None else 1000.0 * std_cost,
            "pct_best": None if not completed else 100.0 * float(credit[j]) / len(completed),
            "mean_ratio_to_best": mean_ratio,
            "std_ratio_to_best": std_ratio,
            "mean_gamma_star": mean_std(gamma, j)[0],
            "mean_coverage": mean_std(cover, j)[0],
            "n_uncalibrated": sum("uncalibrated" in r.scores[j].flags for r in completed),
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
