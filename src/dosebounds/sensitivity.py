"""Divisor bounds under sensitivity models for continuous treatments.

The central object is the divisor ``d`` that deflates an observed outcome
density into the counterfactual one, ``p~(y | do(t), x) = p(y | t, x) / d``.
Each sensitivity model turns a violation budget ``gamma_factor`` (written
Gamma below, with Gamma = 1 meaning no hidden confounding) into an interval
``(d_lo, d_hi)`` around the ideal value 1, which ``DivisorEngine(model,
propensity).bounds(t, gamma_factor)`` returns as two arrays.

Doses live on [0, 1] and the nominal propensity is Beta(alpha_bar,
beta_bar), the family the fitted propensity head produces.  A dose on any
other scale is quantile-normalised into (0, 1) first, as the benchmark does
with ``benchmark.quantile_normalize``.

For the smoothness-bounded model (``DeltaMSM``) the odds of treatment given
a counterfactual outcome may drift away from the nominal propensity at a
log-rate of at most log(Gamma) per unit of treatment.  Anchored at the
origin of the treatment support, this gives the interval d0 = (d0_lo, d0_hi)

    d0_lo = E_q[Gamma^-|tau|] - log(Gamma) Gamma^|t| |E_q[tau - t]|
    d0_hi = E_q[Gamma^+|tau|] + log(Gamma) Gamma^|t| |E_q[tau - t]|
            + (log(Gamma)^2 / 2) Gamma^|t| E_q[(tau - t)^2]

where q = Beta(alpha_bar + r t, beta_bar + r (1 - t)) is the nominal
propensity reweighed by the trust weight tau^(r t) (1 - tau)^(r (1 - t)),
which peaks at the queried dose t with precision r: the propensity's own
``nominal_precision`` max(alpha_bar + beta_bar - 2, ``MIN_TRUST_PRECISION``).
``DeltaMSM`` balances both ends of [0, 1]: with d1 the mirror interval
anchored at 1 (the same construction at dose 1 - t under the mirrored
propensity Beta(beta_bar, alpha_bar), whose q has q's shapes swapped), its
divisor is

    d = t d0(t) + (1 - t) d1(t)

at both ends of the interval.  Every expectation has a closed form (1F1
series); the ``closed-forms`` suite in ``checks`` compares
``_folded_power_bounds``, which the engine runs for both anchors, with
adaptive quadrature.

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

# BinaryMSM dichotomizes the dose at the middle of its support.
BINARY_THRESHOLD = 0.5

# CMSM evaluates the nominal density no closer than this to 0 or 1, where a
# Beta density is exactly zero or unbounded.
_EDGE_CLEARANCE = 1e-6


class PartialIdentificationError(RuntimeError):
    """The requested bound does not exist (the interval is unbounded)."""


def _all_finite_positive(*values) -> bool:
    """Every entry lies in (0, inf); NaN fails both comparisons."""
    arrays = [np.asarray(v, dtype=float) for v in values]
    return all(((v > 0.0) & (v < np.inf)).all() for v in arrays)


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
        if not _all_finite_positive(self.alpha_bar, self.beta_bar):
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


# ---------------------------------------------------------------------------
# the DeltaMSM closed form on q = Beta(a, b)


def _compound_shapes(propensity: BetaPropensity, t, r):
    """Shape pair (a, b) of q, the propensity reweighed by the trust weight at t."""
    # written as trust shape + 1.0, less 2.0 for the product, + 1.0 for the
    # shape: the shorter alpha_bar + r * t rounds about 2% of random shapes
    # an ulp differently, which would move every stored reference
    return (
        propensity.alpha_bar + (r * t + 1.0) - 2.0 + 1.0,
        propensity.beta_bar + (r * (1.0 - t) + 1.0) - 2.0 + 1.0,
    )


def _folded_power_bounds(a, b, gamma):
    """(E_q[Gamma^-|tau|], E_q[Gamma^|tau|]) for q = Beta(a, b), then the same
    pair for its mirror Beta(b, a), all four from one ``_beta_mgf_pair`` table.

    With s = log(Gamma), up = E_q[e^(s tau)] and mirror = E_q[e^(s (1 - tau))],
    q's pair is (e^-s mirror, up); the mirror law is that of 1 - tau, so its
    pair is (e^-s up, mirror).  gamma and q follow ``_beta_mgf_pair``'s rule.
    """
    s = np.log(gamma)
    up, mirror = _beta_mgf_pair(a, b, s)
    down = np.exp(-s)
    return (down * mirror, up), (down * up, mirror)


def _beta_mgf_pair(a, b, s):
    """(E_q[e^(s tau)], E_q[e^(s (1 - tau))]) for q = Beta(a, b) and s >= 0,
    shaped like q and s broadcast.

    These are 1F1(a; a+b; s) and 1F1(b; a+b; s); since 1 - tau ~ Beta(b, a),
    e^-s times the second is E_q[e^(-s tau)], which is Kummer's
    transformation.  Both come from one ``specfun.hyp1f1_grid`` table over
    the s values and the shape pairs (a, a+b), (b, a+b).  Either s varies
    only along axes before q's (a gamma column against a row of instances,
    or either one a scalar), and one set of shapes serves every s; or s has
    shape (P, 1) against q of shape (P, N), and row i of q holds the shapes
    of s_i alone (matched (dose, gamma) points against instances).  Other
    shapes raise ``ValueError``.  Either way the broadcast shape runs over s
    in the outer index and q in the inner, as the table's rows and columns
    do, so each half is a reshaped slice of the table, holding the same bits
    as a gather of the matching entries.  Scalar s and q give floats.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    s = np.asarray(s, dtype=float)
    c = a + b
    if a.ndim == 2 and s.shape == (len(a), 1):
        shape = a.shape
        shapes, tops = np.concatenate([a, b], axis=1), np.concatenate([c, c], axis=1)
    else:
        ndim = max(s.ndim, a.ndim)
        s_dims = (1,) * (ndim - s.ndim) + s.shape
        q_dims = (1,) * (ndim - a.ndim) + a.shape
        split = max((i + 1 for i, n in enumerate(s_dims) if n != 1), default=0)
        if any(n != 1 for n in q_dims[:split]):
            raise ValueError(
                "s may vary only along axes before q's (a gamma column against a row "
                "of instances), or be a (P, 1) column against q of shape (P, N); "
                f"got s shape {s.shape} and q shape {a.shape}"
            )
        shape = s_dims[:split] + q_dims[split:]
        c = c.ravel()
        shapes, tops = np.concatenate([a.ravel(), b.ravel()]), np.concatenate([c, c])
    table = specfun.hyp1f1_grid(shapes, tops, s)
    half = table.shape[1] // 2
    # [()] turns a 0-d result into a float and leaves arrays as they are
    return table[:, :half].reshape(shape)[()], table[:, half:].reshape(shape)[()]


# ---------------------------------------------------------------------------
# sensitivity models and their divisor intervals


@dataclass(frozen=True)
class DeltaMSM:
    """Bounded drift rate of the treatment log-odds per unit of dose,
    balanced between anchors at both ends of [0, 1]."""


@dataclass(frozen=True)
class CMSM:
    """Bounded ratio between complete and nominal treatment densities."""


@dataclass(frozen=True)
class Uniform:
    """Flat divisor interval (1/Gamma, Gamma), ignoring the propensity."""


@dataclass(frozen=True)
class BinaryMSM:
    """Odds-ratio budget on the dichotomized treatment 1{T > BINARY_THRESHOLD}."""


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
    does not depend on (t, gamma_factor): the ``trust_precision`` of
    ``DeltaMSM``, always the propensity's ``nominal_precision``; the
    propensity's log-normaliser for ``CMSM``, so a dose sweep evaluates only
    the density kernel per dose; and the dichotomized propensities of
    ``BinaryMSM``.  Every ``bounds`` call is otherwise a pure function of
    its arguments.  Propensity parameters may be arrays covering many
    instances at once, and gamma_factor may be a column of budgets; bounds
    then broadcast to (gammas, instances).  ``bounds`` raises ``ValueError``
    for a dose outside [0, 1] or NaN, under every model.
    """

    def __init__(self, model: SensitivityModel, propensity: BetaPropensity):
        self.model = model
        self.propensity = propensity
        if isinstance(model, DeltaMSM):
            self.trust_precision = propensity.nominal_precision
        elif isinstance(model, BinaryMSM):
            self._below = specfun.reg_inc_beta(
                propensity.alpha_bar, propensity.beta_bar, BINARY_THRESHOLD
            )
        elif isinstance(model, CMSM):
            self._log_normaliser = propensity.log_normaliser
        elif not isinstance(model, Uniform):
            raise ValueError(f"unknown sensitivity model {type(model).__name__}")

    def bounds(self, t, gamma_factor):
        """(d_lo, d_hi) at dose t under budget gamma_factor; where d_lo <= 0
        the upper counterfactual bound is lost and only d_hi stays meaningful."""
        t = np.asarray(t, dtype=float)
        # NaN fails both comparisons; .all() on the mask is cheaper than np.all
        if not ((t >= 0.0) & (t <= 1.0)).all():
            raise ValueError(f"doses must lie in [0, 1], got {t!r}")
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
        e = np.where(t > BINARY_THRESHOLD, 1.0 - self._below, self._below)
        return 1.0 / (e + gamma * (1.0 - e)), gamma / (gamma * e + (1.0 - e))

    # -- DeltaMSM internals

    def _delta_bounds(self, t, gamma):
        a, b = _compound_shapes(self.propensity, t, self.trust_precision)
        # The mirrored propensity Beta(beta_bar, alpha_bar) at dose 1 - t has
        # q = Beta(b, a), so one pair of 1F1 series serves both anchors.
        power0, power1 = _folded_power_bounds(a, b, gamma)
        lo0, hi0 = _anchored_divisor(a, b, t, gamma, power0)
        lo1, hi1 = _anchored_divisor(b, a, 1.0 - t, gamma, power1)
        return t * lo0 + (1.0 - t) * lo1, t * hi0 + (1.0 - t) * hi1


def _anchored_divisor(a, b, t, gamma, power_bounds):
    """Divisor interval from the moments of q = Beta(a, b) and
    (E_q[Gamma^-|tau|], E_q[Gamma^|tau|])."""
    lo_e, hi_e = power_bounds
    s = np.log(gamma)
    growth = gamma ** np.abs(t)
    c = a + b
    m1 = a / c - t
    abs_m1 = np.abs(m1)
    m2 = a * b / (c * c * (c + 1.0)) + m1 * m1
    d_lo = lo_e - s * growth * abs_m1
    d_hi = hi_e + s * growth * abs_m1 + 0.5 * s * s * growth * m2
    return d_lo, d_hi
