"""Divisor bounds under sensitivity models for continuous treatments.

The central object is the divisor ``d`` that deflates an observed outcome
density into the counterfactual one, ``p~(y | do(t), x) = p(y | t, x) / d``.
Each sensitivity model turns a violation budget ``gamma_factor`` (written
Gamma below, with Gamma = 1 meaning no hidden confounding) into an interval
``(d_lo, d_hi)`` around the ideal value 1, which ``DivisorEngine(model,
propensity, trust_precision).bounds(t, gamma_factor)`` returns as two arrays.

Doses live on [0, 1] and the nominal propensity is Beta(alpha_bar,
beta_bar), the family the fitted propensity head produces.  A dose on any
other scale is quantile-normalised into (0, 1) first, as the benchmark does
with ``benchmark.quantile_normalize``.

For the smoothness-bounded model (``DeltaMSM``) the odds of treatment given
a counterfactual outcome may drift away from the nominal propensity at a
log-rate of at most log(Gamma) per unit of treatment, anchored at the origin
of the treatment support.  The resulting interval is

    d_lo = E_q[Gamma^-|tau|] - log(Gamma) Gamma^|t| |E_q[tau - t]|
    d_hi = E_q[Gamma^+|tau|] + log(Gamma) Gamma^|t| |E_q[tau - t]|
           + (log(Gamma)^2 / 2) Gamma^|t| E_q[(tau - t)^2]

where q is the nominal propensity reweighed by a unimodal trust weight
peaking at the queried dose t.  With a Beta propensity and a Beta trust
weight, q is Beta again and every expectation has a closed form (1F1
series); the quadrature oracle in ``specfun`` reproduces every term, which
the test-suite exploits heavily.  The same construction with Gamma doses on
(0, inf) and Gaussian doses on the real line, closed forms included, is
kept in the history at commit 853bc33.

The alternatives ``CMSM`` (density-ratio budget), ``Uniform`` (a flat
divisor interval), and ``BinaryMSM`` (a dichotomized odds-ratio budget) are
the baselines the benchmark compares against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import specfun

__all__ = [
    "PartialIdentificationError",
    "BetaPropensity",
    "BetaTrust",
    "trust_params",
    "BetaCompound",
    "compound",
    "lambda_expectation_bounds",
    "DeltaMSM",
    "CMSM",
    "Uniform",
    "BinaryMSM",
    "SensitivityModel",
    "DivisorEngine",
]

# Trust precisions below this floor are numerically indistinguishable from a
# flat weight; the Beta heuristic can hit it when alpha_bar + beta_bar <= 2.
MIN_TRUST_PRECISION = 1e-6

# CMSM evaluates the nominal density no closer than this to 0 or 1, where a
# Beta density is exactly zero or unbounded.
_EDGE_CLEARANCE = 1e-6


class PartialIdentificationError(RuntimeError):
    """The requested bound does not exist (the interval is unbounded)."""


def _all_positive(*values) -> bool:
    return all(np.all(np.asarray(v, dtype=float) > 0.0) for v in values)


def _all_finite(*values) -> bool:
    return all(np.isfinite(np.asarray(v, dtype=float)).all() for v in values)


def _pow_log(base, exponent):
    """exponent * log(base) with the convention 0 * log(0) = 0."""
    base = np.asarray(base, dtype=float)
    exponent = np.asarray(exponent, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = exponent * np.log(base)
    return np.where(exponent == 0.0, 0.0, out)


# ---------------------------------------------------------------------------
# nominal propensity


@dataclass(frozen=True)
class BetaPropensity:
    """Beta(alpha_bar, beta_bar) treatment density on (0, 1).

    ``pdf(tau)`` is ``exp(log_kernel(tau) - log_normaliser)``: the kernel
    (a-1) log tau + (b-1) log(1 - tau) carries the dose, and the normaliser
    log B(a, b) does not.
    """

    alpha_bar: float | np.ndarray
    beta_bar: float | np.ndarray

    def __post_init__(self):
        if not _all_finite(self.alpha_bar, self.beta_bar) or not _all_positive(
            self.alpha_bar, self.beta_bar
        ):
            raise ValueError("Beta propensity requires finite alpha_bar > 0 and beta_bar > 0")

    @property
    def log_normaliser(self):
        a, b = self.alpha_bar, self.beta_bar
        return specfun.log_gamma(a) + specfun.log_gamma(b) - specfun.log_gamma(a + b)

    def log_kernel(self, tau):
        tau = np.asarray(tau, dtype=float)
        return _pow_log(tau, self.alpha_bar - 1.0) + _pow_log(1.0 - tau, self.beta_bar - 1.0)

    def pdf(self, tau):
        return np.exp(self.log_kernel(tau) - self.log_normaliser)

    @property
    def nominal_precision(self):
        """Heuristic ``DeltaMSM`` trust precision matched to this density's own scale."""
        return np.maximum(self.alpha_bar + self.beta_bar - 2.0, MIN_TRUST_PRECISION)

    def flipped(self) -> "BetaPropensity":
        """Density of 1 - T when T follows this law."""
        return BetaPropensity(self.beta_bar, self.alpha_bar)


# ---------------------------------------------------------------------------
# trust weights w_t(tau), normalized so that w_t(t) = 1


@dataclass(frozen=True)
class BetaTrust:
    """w(tau) proportional to tau^(a-1) (1-tau)^(b-1), with mode t and
    precision r, scaled so that w(t) = 1 (``weight`` divides by the kernel at t)."""

    t: float | np.ndarray
    a: float | np.ndarray
    b: float | np.ndarray

    def weight(self, tau):
        # evaluated anchored at t in log space: the exponent is <= 0 for any
        # tau, so large precisions r cannot overflow the kernel
        tau = np.asarray(tau, dtype=float)
        ea, eb = self.a - 1.0, self.b - 1.0
        log_w = (_pow_log(tau, ea) - _pow_log(self.t, ea)) + (
            _pow_log(1.0 - tau, eb) - _pow_log(1.0 - self.t, eb)
        )
        return np.exp(log_w)


def trust_params(t, r) -> BetaTrust:
    """Per-dose Beta trust weight with mode t in [0, 1] and precision r > 0."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    if not _all_finite(t, r) or not _all_positive(r):
        raise ValueError("trust_params requires finite t and r > 0")
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("Beta trust requires 0 <= t <= 1")
    return BetaTrust(t=t, a=r * t + 1.0, b=r * (1.0 - t) + 1.0)


# ---------------------------------------------------------------------------
# compound densities q(tau | t, x), the trust-reweighed nominal propensity


@dataclass(frozen=True)
class BetaCompound:
    """q = Beta(alpha + 1, beta + 1) stored via its shifted parameters."""

    alpha: float | np.ndarray
    beta: float | np.ndarray

    @property
    def shape_a(self):
        return self.alpha + 1.0

    @property
    def shape_b(self):
        return self.beta + 1.0

    @property
    def mean(self):
        return self.shape_a / (self.shape_a + self.shape_b)

    @property
    def variance(self):
        s = self.shape_a + self.shape_b
        return self.shape_a * self.shape_b / (s * s * (s + 1.0))

    def pdf(self, tau):
        return BetaPropensity(self.shape_a, self.shape_b).pdf(tau)


def compound(propensity: BetaPropensity, trust: BetaTrust) -> BetaCompound:
    """Normalized product of the nominal propensity and a trust weight.

    Both are Beta kernels, so the product is Beta again and only the
    parameters move.
    """
    return BetaCompound(
        alpha=propensity.alpha_bar + trust.a - 2.0,
        beta=propensity.beta_bar + trust.b - 2.0,
    )


def lambda_expectation_bounds(q: BetaCompound, gamma_factor):
    """(E_q[Gamma^-|tau|], E_q[Gamma^+|tau|]) in closed form.

    These bracket the expected likelihood distortion when the log-odds of
    treatment drift at rate at most log(Gamma) away from the anchor point.
    gamma_factor and q follow ``_beta_mgf_pair``'s rule: gamma varies only
    along axes before q's, or either one is a scalar.
    """
    gamma = _check_gamma(gamma_factor)
    s = np.log(gamma)
    up, mirror = _beta_mgf_pair(q, s)
    return np.exp(-s) * mirror, up


def _beta_mgf_pair(q: BetaCompound, s):
    """(E_q[e^(s tau)], E_q[e^(s (1 - tau))]) for s >= 0, shaped like q and s broadcast.

    With q = Beta(A, B) these are 1F1(A; A+B; s) and 1F1(B; A+B; s); since
    1 - tau ~ Beta(B, A), e^-s times the second is E_q[e^(-s tau)], which is
    Kummer's transformation.  Both come from one ``specfun.hyp1f1_grid``
    table over the s values and the shape pairs (A, A+B), (B, A+B).  The
    table is an outer product, so s may vary only along axes before q's (a
    gamma column against a row of instances, or either one a scalar);
    matched arrays raise ``ValueError``.  Under that rule the broadcast
    shape is s's varying axes followed by q's, so its C order runs over s
    in the outer index and q in the inner, as the table's rows and columns
    do.  Each half is therefore a reshaped slice of the table, holding the
    same bits as a gather of the matching entries.  Scalar s and q give
    floats.
    """
    a, b = np.broadcast_arrays(
        np.asarray(q.shape_a, dtype=float), np.asarray(q.shape_b, dtype=float)
    )
    s = np.asarray(s, dtype=float)
    ndim = max(s.ndim, a.ndim)
    s_dims = (1,) * (ndim - s.ndim) + s.shape
    q_dims = (1,) * (ndim - a.ndim) + a.shape
    split = max((i + 1 for i, n in enumerate(s_dims) if n != 1), default=0)
    if any(n != 1 for n in q_dims[:split]):
        raise ValueError(
            "s may vary only along axes before q's (a gamma column against a row "
            f"of instances); got s shape {s.shape} and q shape {a.shape}"
        )
    shape = s_dims[:split] + q_dims[split:]
    c = (a + b).ravel()
    table = specfun.hyp1f1_grid(np.concatenate([a.ravel(), b.ravel()]), np.concatenate([c, c]), s)
    # [()] turns a 0-d result into a float and leaves arrays as they are
    return table[:, : a.size].reshape(shape)[()], table[:, a.size :].reshape(shape)[()]


# ---------------------------------------------------------------------------
# sensitivity models and their divisor intervals


_DELTA_SCHEMES = ("beta", "balanced-beta")


@dataclass(frozen=True)
class DeltaMSM:
    """Bounded drift rate of the treatment log-odds per unit of dose."""

    scheme: str = "balanced-beta"

    def __post_init__(self):
        if self.scheme not in _DELTA_SCHEMES:
            raise ValueError(f"scheme must be one of {_DELTA_SCHEMES}, got {self.scheme!r}")


@dataclass(frozen=True)
class CMSM:
    """Bounded ratio between complete and nominal treatment densities."""


@dataclass(frozen=True)
class Uniform:
    """Flat divisor interval (1/Gamma, Gamma), ignoring the propensity."""


@dataclass(frozen=True)
class BinaryMSM:
    """Odds-ratio budget on the dichotomized treatment 1{T > threshold}."""

    threshold: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.threshold < 1.0):
            raise ValueError("threshold must lie strictly inside (0, 1)")


SensitivityModel = Union[DeltaMSM, CMSM, Uniform, BinaryMSM]


def _check_gamma(gamma_factor):
    """Validated gamma as an array; a gamma column sweeps a whole grid."""
    gamma = np.asarray(gamma_factor, dtype=float)
    if not np.all(np.isfinite(gamma)) or np.any(gamma < 1.0):
        raise ValueError(f"gamma_factor must be finite and >= 1, got {gamma_factor!r}")
    return gamma


class DivisorEngine:
    """Divisor-bound evaluator for one sensitivity model.

    Doses t lie in [0, 1] and the propensity is a ``BetaPropensity``; doses
    on another scale are quantile-normalised first.  Precomputes only what
    does not depend on (t, gamma_factor): the propensity's log-normaliser
    for ``CMSM``, so a dose sweep evaluates only the density kernel per
    dose, and the dichotomized propensities of ``BinaryMSM``; every
    ``bounds`` call is otherwise a pure function of its arguments.
    Propensity parameters may be arrays covering many instances at once, and
    gamma_factor may be a column of budgets; bounds then broadcast to
    (gammas, instances).  Only ``DeltaMSM`` reads ``trust_precision``
    (default ``nominal_precision``).
    """

    def __init__(
        self,
        model: SensitivityModel,
        propensity: BetaPropensity,
        trust_precision=None,
    ):
        self.model = model
        self.propensity = propensity
        if isinstance(model, DeltaMSM):
            if trust_precision is None:
                trust_precision = propensity.nominal_precision
            elif not _all_positive(trust_precision):
                raise ValueError("trust_precision must be positive")
            self.trust_precision = trust_precision
        elif isinstance(model, BinaryMSM):
            self._below = specfun.reg_inc_beta(
                propensity.alpha_bar, propensity.beta_bar, model.threshold
            )
        elif isinstance(model, CMSM):
            self._log_normaliser = propensity.log_normaliser
        elif not isinstance(model, Uniform):
            raise ValueError(f"unknown sensitivity model {type(model).__name__}")

    def bounds(self, t, gamma_factor):
        """(d_lo, d_hi) at dose t under budget gamma_factor; where d_lo <= 0
        the upper counterfactual bound is lost and only d_hi stays meaningful."""
        t = np.asarray(t, dtype=float)
        gamma = _check_gamma(gamma_factor)
        model = self.model
        if isinstance(model, DeltaMSM):
            return self._delta_bounds(t, gamma)
        if isinstance(model, CMSM):
            tau = np.clip(t, _EDGE_CLEARANCE, 1.0 - _EDGE_CLEARANCE)
            # the propensity's pdf, with its normaliser read once per engine
            density = np.exp(self.propensity.log_kernel(tau) - self._log_normaliser)
            return density / gamma, density * gamma
        if isinstance(model, Uniform):
            ones = np.ones(np.shape(self.propensity.alpha_bar))
            return ones / gamma, ones * gamma
        e = np.where(t > model.threshold, 1.0 - self._below, self._below)
        return 1.0 / (e + gamma * (1.0 - e)), gamma / (gamma * e + (1.0 - e))

    # -- DeltaMSM internals

    def _delta_bounds(self, t, gamma):
        prop = self.propensity
        q0 = compound(prop, trust_params(t, self.trust_precision))
        if self.model.scheme == "beta":
            return _anchored_divisor(q0, t, gamma, lambda_expectation_bounds(q0, gamma))
        # The flipped propensity Beta(beta_bar, alpha_bar) compounded at dose
        # 1 - t is the mirror Beta(B, A) of q0 = Beta(A, B), so one pair of
        # 1F1 series serves both anchors.
        s = np.log(gamma)
        up, mirror = _beta_mgf_pair(q0, s)
        down = np.exp(-s)
        lo0, hi0 = _anchored_divisor(q0, t, gamma, (down * mirror, up))
        q1 = BetaCompound(q0.beta, q0.alpha)
        lo1, hi1 = _anchored_divisor(q1, 1.0 - t, gamma, (down * up, mirror))
        return t * lo0 + (1.0 - t) * lo1, t * hi0 + (1.0 - t) * hi1


def _anchored_divisor(q: BetaCompound, t, gamma, power_bounds):
    """Divisor interval from q's moments and (E_q[Gamma^-|tau|], E_q[Gamma^|tau|])."""
    lo_e, hi_e = power_bounds
    s = np.log(gamma)
    growth = gamma ** np.abs(t)
    m1 = q.mean - t
    abs_m1 = np.abs(m1)
    m2 = q.variance + m1 * m1
    d_lo = lo_e - s * growth * abs_m1
    d_hi = hi_e + s * growth * abs_m1 + 0.5 * s * s * growth * m2
    return d_lo, d_hi
