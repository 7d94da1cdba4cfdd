"""Nuisance models: a Bernoulli outcome head and a Beta propensity head.

Both are linear models squashed through heavily stretched sigmoids, trained
with a hand-rolled ADAM on minibatches.  The stretch of 100 keeps the
sigmoids near-linear over a wide input range, which is also why the default
learning rate is an unusual 10: parameter-space steps that large correspond
to small moves in output space.  Fits are bit-reproducible: zero
initialization, a fixed batch partition order, and batch shuffling drawn
from a named substream of the config seed.  ADAM's moment decay rates and
its denominator guard are the usual values, fixed as the module constants
``ADAM_BETA1`` = 0.9, ``ADAM_BETA2`` = 0.999 and ``ADAM_EPSILON`` = 1e-8.

ADAM takes gradient-only steps: ``_outcome_grad`` and ``_propensity_grad``
never evaluate the loss.  A fit hands ``_adam`` its gradient and a tuple of
equally long per-row arrays, built once per fit (the outcome features; the
covariates, log(t) and log(1 - t)).  Each epoch gathers every array's rows
in one shuffled order once, and a step passes the gradient contiguous slices
of them, one batch of the same rows from every array.  A propensity step
makes one ``digamma`` call.
``outcome_loss_grad`` and ``propensity_loss_grad`` return the loss plus that
same gradient, bit for bit; they serve the gradient self-check, the
finite-difference tests and perfbench's layer counts, not training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seeds import substream
from .sensitivity import BetaPropensity
from .specfun import digamma, log_gamma

__all__ = [
    "TrainConfig",
    "OutcomeModel",
    "PropensityModel",
    "FittedModels",
    "fit_outcome",
    "fit_propensity",
    "outcome_loss_grad",
    "propensity_loss_grad",
    "model_payload",
]

STRETCH = 100.0
PROPENSITY_CAP = 100.0
TREATMENT_CLEARANCE = 1e-6
_PARAM_EDGE = 1e-7  # keeps predicted Beta parameters strictly inside (0, cap)
_FORMAT_VERSION = 1
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


def require_integer(name: str, value) -> None:
    """Reject a value that is not an int or numpy integer; bools and whole
    floats such as 4.0 count as non-integers."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def require_integer_fields(config, *names: str) -> None:
    """``require_integer`` on each named field of ``config``."""
    for name in names:
        require_integer(name, getattr(config, name))


def require_real_fields(config, *names: str) -> None:
    """Reject a named field that is not an int or a float (numpy ones too);
    bools count as non-numbers."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise ValueError(f"{name} must be a number, got {value!r}")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 10.0
    batches: int = 4
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        require_integer_fields(self, "batches", "epochs", "seed")
        require_real_fields(self, "learning_rate")
        # nan fails both comparisons, and json reads Infinity and NaN
        if not (0.0 < self.learning_rate < math.inf) or self.batches < 1 or self.epochs < 0:
            raise ValueError("0 < learning_rate < inf, batches >= 1, epochs >= 0 required")


def _sigmoid(u):
    shrink = np.exp(-np.abs(u))
    return np.where(u >= 0.0, 1.0, shrink) / (1.0 + shrink)


def _softplus(u):
    return np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))


def _features(x, t):
    x2 = np.atleast_2d(np.asarray(x, dtype=float))
    return np.column_stack([x2, np.broadcast_to(np.asarray(t, dtype=float), (x2.shape[0],))])


def _logit(x, weights, bias):
    """The stretched pre-activation (x . w + b) / STRETCH of one head."""
    return (x @ weights + bias) / STRETCH


@dataclass(frozen=True)
class OutcomeModel:
    """p(y=1 | x, t) = sigmoid((w . [x, t] + b) / STRETCH)."""

    weights: np.ndarray
    bias: float
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.weights.ndim != 1 or len(self.weights) < 1:
            raise ValueError("weights must cover the covariates plus the treatment")

    @property
    def n_covariates(self) -> int:
        return len(self.weights) - 1

    def predict(self, x, t):
        feats = _features(x, t)
        if feats.shape[1] != len(self.weights):
            raise ValueError(
                f"expected {self.n_covariates} covariates, got {feats.shape[1] - 1}"
            )
        p = _sigmoid(_logit(feats, self.weights, self.bias))
        return float(p[0]) if np.ndim(x) == 1 and np.ndim(t) == 0 else p

    def outcome_support(self, x, t):
        p = self.predict(x, t)
        return np.array([0.0, 1.0]), np.array([1.0 - p, p])


@dataclass(frozen=True)
class PropensityModel:
    """Beta(alpha_bar(x), beta_bar(x)) heads, each PROPENSITY_CAP * sigmoid(u / STRETCH)."""

    alpha_weights: np.ndarray
    alpha_bias: float
    beta_weights: np.ndarray
    beta_bias: float
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "alpha_weights", np.asarray(self.alpha_weights, dtype=float))
        object.__setattr__(self, "beta_weights", np.asarray(self.beta_weights, dtype=float))
        if self.alpha_weights.shape != self.beta_weights.shape or self.alpha_weights.ndim != 1:
            raise ValueError("the two heads must weigh the same covariates")

    @property
    def n_covariates(self) -> int:
        return len(self.alpha_weights)

    def predict(self, x) -> BetaPropensity:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        x2 = np.atleast_2d(x)
        if x2.shape[1] != self.n_covariates:
            raise ValueError(f"expected {self.n_covariates} covariates, got {x2.shape[1]}")
        alpha = PROPENSITY_CAP * _sigmoid(_logit(x2, self.alpha_weights, self.alpha_bias))
        beta = PROPENSITY_CAP * _sigmoid(_logit(x2, self.beta_weights, self.beta_bias))
        alpha = np.clip(alpha, _PARAM_EDGE, PROPENSITY_CAP - _PARAM_EDGE)
        beta = np.clip(beta, _PARAM_EDGE, PROPENSITY_CAP - _PARAM_EDGE)
        if single:
            return BetaPropensity(float(alpha[0]), float(beta[0]))
        return BetaPropensity(alpha, beta)


@dataclass(frozen=True)
class FittedModels:
    outcome: OutcomeModel
    propensity: PropensityModel


def _outcome_grad(params, feats, y):
    """Gradient of the mean Bernoulli negative log-likelihood (no loss)."""
    u = _logit(feats, params[:-1], params[-1])
    dz = (_sigmoid(u) - y) / (STRETCH * len(y))
    return np.concatenate([feats.T @ dz, [dz.sum()]])


def outcome_loss_grad(params, x, t, y):
    """Mean Bernoulli negative log-likelihood and its parameter gradient.

    ``params`` stacks the feature weights (treatment last) and then the bias.
    """
    params = np.asarray(params, dtype=float)
    feats = _features(x, t)
    y = np.asarray(y, dtype=float)
    u = _logit(feats, params[:-1], params[-1])
    loss = float(np.mean(_softplus(u) - y * u))
    return loss, _outcome_grad(params, feats, y)


def _beta_heads(params, x2):
    """Gates and (alpha, beta) of the two Beta heads at stacked ``params``."""
    d = x2.shape[1]
    gate_a = _sigmoid(_logit(x2, params[:d], params[d]))
    gate_b = _sigmoid(_logit(x2, params[d + 1 : 2 * d + 1], params[2 * d + 1]))
    return gate_a, gate_b, PROPENSITY_CAP * gate_a, PROPENSITY_CAP * gate_b


def _propensity_grad(params, x2, ln_t, ln_1mt):
    """Gradient of the mean Beta negative log-likelihood (no loss).

    Takes log(t) and log(1 - t) so that a fit computes them once.  One
    ``digamma`` call covers alpha, beta and alpha + beta; it is elementwise,
    so this equals three separate calls bit for bit.
    """
    gate_a, gate_b, alpha, beta = _beta_heads(params, x2)
    psi_a, psi_b, psi_sum = np.split(digamma(np.concatenate([alpha, beta, alpha + beta])), 3)
    n = len(ln_t)
    dl_da = (psi_a - psi_sum - ln_t) / n
    dl_db = (psi_b - psi_sum - ln_1mt) / n
    da_du = PROPENSITY_CAP * gate_a * (1.0 - gate_a) / STRETCH
    db_du = PROPENSITY_CAP * gate_b * (1.0 - gate_b) / STRETCH
    pull_a = dl_da * da_du
    pull_b = dl_db * db_du
    return np.concatenate([x2.T @ pull_a, [pull_a.sum()], x2.T @ pull_b, [pull_b.sum()]])


def propensity_loss_grad(params, x, t):
    """Mean Beta negative log-likelihood and its gradient through the gates.

    ``params`` stacks alpha-head weights, alpha bias, beta-head weights, beta
    bias.  Treatments must already sit strictly inside (0, 1).
    """
    params = np.asarray(params, dtype=float)
    x2 = np.atleast_2d(np.asarray(x, dtype=float))
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0) or np.any(t >= 1.0):
        raise ValueError("treatments must lie strictly inside (0, 1)")
    d = x2.shape[1]
    if len(params) != 2 * d + 2:
        raise ValueError(f"expected {2 * d + 2} parameters, got {len(params)}")
    _, _, alpha, beta = _beta_heads(params, x2)
    ln_t = np.log(t)
    ln_1mt = np.log1p(-t)
    loss = float(
        np.mean(
            log_gamma(alpha) + log_gamma(beta) - log_gamma(alpha + beta)
            - (alpha - 1.0) * ln_t - (beta - 1.0) * ln_1mt
        )
    )
    return loss, _propensity_grad(params, x2, ln_t, ln_1mt)


def _adam(grad_fn, params, data, config: TrainConfig) -> np.ndarray:
    """ADAM on ``grad_fn(params, *batch)``, a batch being the same rows of
    every array in ``data``."""
    n_samples = len(data[0])
    rng = substream(config.seed, "batch-shuffle")
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    step = 0
    # np.array_split's partition, computed once; batches beyond n_samples
    # would be empty, so there are at most n_samples of them
    spans = [
        (part[0], part[-1] + 1)
        for part in np.array_split(np.arange(n_samples), min(config.batches, n_samples))
    ]
    for _ in range(config.epochs):
        order = rng.permutation(n_samples)
        shuffled = [array[order] for array in data]
        for start, stop in spans:
            grad = grad_fn(params, *(array[start:stop] for array in shuffled))
            step += 1
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
            m_hat = m / (1.0 - ADAM_BETA1**step)
            v_hat = v / (1.0 - ADAM_BETA2**step)
            params = params - config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return params


def fit_outcome(x, t, y, config: TrainConfig | None = None) -> OutcomeModel:
    """Fit the Bernoulli outcome head on (covariates, treatment, outcome)."""
    config = config or TrainConfig()
    x2 = np.atleast_2d(np.asarray(x, dtype=float))
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (len(x2) == len(t) == len(y)) or len(y) == 0:
        raise ValueError("x, t, y must be non-empty and equally long")
    if np.any((y != 0.0) & (y != 1.0)):
        raise ValueError("outcomes must be binary")
    flags = []
    if np.all(y == y[0]):
        flags.append("constant_outcome")

    params = _adam(_outcome_grad, np.zeros(x2.shape[1] + 2), (_features(x2, t), y), config)
    return OutcomeModel(weights=params[:-1], bias=float(params[-1]), flags=tuple(flags))


def fit_propensity(x, t, config: TrainConfig | None = None) -> PropensityModel:
    """Fit the Beta propensity heads on (covariates, treatment)."""
    config = config or TrainConfig()
    x2 = np.atleast_2d(np.asarray(x, dtype=float))
    t = np.asarray(t, dtype=float)
    if len(x2) != len(t) or len(t) == 0:
        raise ValueError("x and t must be non-empty and equally long")
    flags = []
    clamped = np.clip(t, TREATMENT_CLEARANCE, 1.0 - TREATMENT_CLEARANCE)
    if np.any(clamped != t):
        flags.append("clamped_treatments")

    d = x2.shape[1]
    data = (x2, np.log(clamped), np.log1p(-clamped))
    params = _adam(_propensity_grad, np.zeros(2 * d + 2), data, config)
    return PropensityModel(
        alpha_weights=params[:d],
        alpha_bias=float(params[d]),
        beta_weights=params[d + 1 : 2 * d + 1],
        beta_bias=float(params[2 * d + 1]),
        flags=tuple(flags),
    )


def model_payload(model) -> dict:
    """JSON-ready dict for a single model, version tag included."""
    if isinstance(model, OutcomeModel):
        return {
            "format_version": _FORMAT_VERSION,
            "kind": "outcome",
            "weights": [float(w) for w in model.weights],
            "bias": float(model.bias),
            "stretch": STRETCH,
            "flags": list(model.flags),
        }
    if isinstance(model, PropensityModel):
        return {
            "format_version": _FORMAT_VERSION,
            "kind": "propensity",
            "alpha_weights": [float(w) for w in model.alpha_weights],
            "alpha_bias": float(model.alpha_bias),
            "beta_weights": [float(w) for w in model.beta_weights],
            "beta_bias": float(model.beta_bias),
            "cap": PROPENSITY_CAP,
            "stretch": STRETCH,
            "flags": list(model.flags),
        }
    raise ValueError(f"cannot serialize {type(model).__name__}")
