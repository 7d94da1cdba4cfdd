"""Sharp interval estimates for dose-response quantities.

Counterfactual means are self-normalized importance-sampling ratios
sum_i w_i f_i / sum_i w_i whose weights are only known up to a box
[w_lo_i, w_hi_i]: ``outcome_draws`` folds the divisor interval
``(d_lo, d_hi)`` of ``DivisorEngine.bounds`` with the outcome model and
proposal density into three flat arrays ``(f, w_lo, w_hi)``, one entry per
draw.  ``extremize`` finds the exact extremum of the ratio over the box:
after sorting draws by f, the maximizing weight vector flips a prefix of
draws down to their lower bound and leaves the rest at their upper bound, so
a single sweep with running partial sums suffices (the threshold argument of
Kallus, Mao & Zhou, AISTATS 2019).

Binary outcomes, which every band below uses, need no sweep: with f in
{0, 1} the threshold always sits at the 0/1 boundary, so each bound is a
ratio of four sums of capped weights (``_bernoulli_extremes``).  The sorted
sweep serves ``extremize`` for continuous outcomes (``outcome_draws`` with a
proposal) and is the oracle the closed form is tested against.

One kernel, ``apo_band_matrix``, computes every binary-outcome band: it
pools the instances of a probability matrix into one closed-form band per
(dose, gamma) pair.  The curves are views of it at one gamma for a
``FittedModels``: ``capo_interval`` conditions on one covariate row,
``apo_interval`` pools a whole instance set, and ``cacd_interval`` turns a
CAPO band into a band on the derivative via conservative central differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sensitivity import DivisorEngine, PartialIdentificationError, SensitivityModel

__all__ = [
    "DegenerateDrawsError",
    "IntervalCurve",
    "extremize",
    "outcome_draws",
    "capo_interval",
    "apo_interval",
    "apo_band_matrix",
    "cacd_interval",
]


class DegenerateDrawsError(ValueError):
    """All upper weights vanish, so the ratio estimate is 0/0."""


# Importance weights p/(d g) blow up when a divisor bound is subnormal (for
# example a nominal density underflowing at the support edge).  Capping keeps
# every partial sum finite; a capped instance still dominates the pooled
# ratio, so the extremum moves by at most ~n max|f| / _WEIGHT_CAP.
_WEIGHT_CAP = 1e30


def _padded_cumsum(x: np.ndarray) -> np.ndarray:
    """out[..., k] = sum of x[..., :k]."""
    out = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,), dtype=float)
    np.cumsum(x, axis=-1, out=out[..., 1:])
    return out


def _padded_suffix_sum(x: np.ndarray) -> np.ndarray:
    """out[..., k] = sum of x[..., k:], accumulated from the last element."""
    out = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,), dtype=float)
    np.cumsum(x[..., ::-1], axis=-1, out=out[..., -2::-1])
    return out


def _max_ratio_sorted(f: np.ndarray, w_lo: np.ndarray, w_hi: np.ndarray) -> np.ndarray:
    """Maximum of sum(w f)/sum(w) over the weight box; f ascending on last axis.

    Starting from all-upper weights, dragging the smallest-f draws down to
    their lower weight raises the ratio for as long as the directional
    derivative sum_i w_i (f_j - f_i) stays negative; the first non-negative
    derivative ends the sweep.  The state after lowering the first k draws is
    a prefix sum of lower weights plus a suffix sum of upper weights, both
    tabulated once, so every test is O(1).  Summing the upper side directly
    from the end, rather than as the total minus a prefix, keeps each term's
    rounding relative to the draws it covers: an upper side of only f = 1
    draws then gives f S - P = 0 exactly.
    """
    sl = _padded_cumsum(w_lo)
    pl = _padded_cumsum(w_lo * f)
    sh = _padded_suffix_sum(w_hi)
    ph = _padded_suffix_sum(w_hi * f)
    delta = f * (sl[..., :-1] + sh[..., :-1]) - (pl[..., :-1] + ph[..., :-1])
    stop = delta >= 0.0
    n = f.shape[-1]
    prefix = np.where(stop.any(axis=-1), np.argmax(stop, axis=-1), n)
    pick = np.expand_dims(prefix, axis=-1)
    num = np.take_along_axis(pl, pick, -1) + np.take_along_axis(ph, pick, -1)
    den = np.take_along_axis(sl, pick, -1) + np.take_along_axis(sh, pick, -1)
    # an all-zero weight box (every instance masked out) yields NaN
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.squeeze(num / den, axis=-1)


def extremize(f, w_lo, w_hi, direction: str = "max") -> float:
    """Exact extremum of sum(w f)/sum(w) over the box w_lo <= w <= w_hi.

    ``f``, ``w_lo`` and ``w_hi`` are 1-d arrays with one entry per draw, as
    ``outcome_draws`` returns them.  Draws with equal ``f`` keep the order
    they are given in, so the result is a fixed function of the arrays.
    """
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    f, w_lo, w_hi = (np.asarray(a, dtype=float) for a in (f, w_lo, w_hi))
    if not (f.ndim == 1 and f.shape == w_lo.shape == w_hi.shape):
        raise ValueError("f, w_lo and w_hi must be 1-d arrays of one length")
    if f.size == 0:
        raise ValueError("extremize requires at least one draw")
    if not np.all(np.isfinite(f)):
        raise ValueError("draw statistic must be finite")
    if not (np.all(w_lo >= 0.0) and np.all(w_lo <= w_hi) and np.all(np.isfinite(w_hi))):
        raise ValueError("weights must satisfy 0 <= w_lo <= w_hi < inf")
    if not np.any(w_hi > 0.0):
        raise DegenerateDrawsError("all upper weights are zero")
    key = f if direction == "max" else -f
    order = np.argsort(key, kind="stable")
    value = _max_ratio_sorted(key[order], w_lo[order], w_hi[order])
    return float(value) if direction == "max" else -float(value)


def _bernoulli_extremes(p_one, d_lo, d_hi, valid=None):
    """(lo, hi) of the pooled ratio for exact binary-outcome draws.

    The last axis indexes instances; leading axes are batch dimensions (for
    example a whole gamma grid at once), and the inputs broadcast against
    each other, so a gamma column of divisors meets one row of
    probabilities.  The two outcome values per instance enumerate the
    support, so weights are p(y)/d under a counting-measure proposal.  With
    f in {0, 1} the sweep of ``_max_ratio_sorted`` always stops at the 0/1
    boundary: the maximum takes every one-draw at its upper weight and every
    zero-draw at its lower weight, the minimum the reverse.
    Hence

        hi = S_hi(1) / (S_hi(1) + S_lo(0)),  lo = S_lo(1) / (S_lo(1) + S_hi(0)),

    where S_hi(y) sums min(p(y) / d_lo, cap) and S_lo(y) sums
    min(p(y) / d_hi, cap) over instances.  When the side a ratio pushes up
    carries no weight at all (S_hi(1) = 0 for hi, S_hi(0) = 0 for lo), every
    admissible weight vector gives 0 (for hi) or 1 (for lo), which is what
    the sweep returns too.  ``valid`` removes instances whose divisor floor
    crossed zero from the sums; batch rows with no weight left come back as
    NaN.
    """
    p_one = np.asarray(p_one, dtype=float)
    keep = True if valid is None else valid

    def total(p, d):
        return np.minimum(p / d, _WEIGHT_CAP).sum(axis=-1, where=keep)

    p_zero = 1.0 - p_one
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        hi_one, lo_one = total(p_one, d_lo), total(p_one, d_hi)
        hi_zero, lo_zero = total(p_zero, d_lo), total(p_zero, d_hi)
        hi = np.where(
            hi_one > 0.0, hi_one / (hi_one + lo_zero), np.where(hi_zero > 0.0, 0.0, np.nan)
        )
        lo = np.where(
            hi_zero > 0.0, lo_one / (lo_one + hi_zero), np.where(hi_one > 0.0, 1.0, np.nan)
        )
    return lo, hi


def outcome_draws(
    outcome_model,
    t: float,
    x_subset,
    d_lo,
    d_hi,
    proposal=None,
    n_samples: int | None = None,
    rng: np.random.Generator | None = None,
    statistic: Callable | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted draws ``(f, w_lo, w_hi)`` for the instances in ``x_subset``
    at dose ``t``, ready for ``extremize(f, w_lo, w_hi, direction)``.

    The three flat float arrays hold one entry per (instance, draw), instance
    by instance.  Discrete outcome models (anything exposing
    ``outcome_support``) are enumerated exactly, so instances may contribute
    supports of different sizes.  Continuous models need a ``proposal`` with
    ``sample(n, rng)`` and ``density(y)`` plus an ``outcome_density(y, x, t)``
    method on the model; the same ``n_samples`` proposal draws are shared by
    every instance.  ``d_lo`` and ``d_hi`` come from ``DivisorEngine.bounds``
    (scalars or one entry per instance); a draw's weights are
    w_lo = min(p / d_hi, _WEIGHT_CAP) and w_hi = min(p / d_lo, _WEIGHT_CAP),
    with p the support probability or the importance ratio
    density / (proposal density x n_samples).
    ``statistic`` maps an array of outcomes elementwise to the quantity
    averaged (identity by default).
    """
    x_subset = np.atleast_2d(np.asarray(x_subset, dtype=float))
    d_lo = np.broadcast_to(np.asarray(d_lo, dtype=float), (len(x_subset),))
    d_hi = np.broadcast_to(np.asarray(d_hi, dtype=float), (len(x_subset),))
    if np.any(d_lo <= 0.0):
        raise PartialIdentificationError(
            "divisor lower bound is not positive; the outcome bound is undefined here"
        )
    if proposal is None:
        if not hasattr(outcome_model, "outcome_support"):
            raise ValueError(
                "outcome model has no finite support; supply a proposal density"
            )
        supports = [outcome_model.outcome_support(x, t) for x in x_subset]
        ys = [np.asarray(values, dtype=float) for values, _ in supports]
        base = [np.asarray(probs, dtype=float) for _, probs in supports]
    else:
        if n_samples is None or n_samples < 1:
            raise ValueError("continuous proposals need n_samples >= 1")
        rng = rng if rng is not None else np.random.default_rng()
        samples = np.asarray(proposal.sample(n_samples, rng), dtype=float)
        g = np.asarray(proposal.density(samples), dtype=float)
        if np.any(g <= 0.0):
            raise ValueError("proposal density must be positive at its own samples")
        base = [
            np.asarray(outcome_model.outcome_density(samples, x, t), dtype=float)
            / (g * n_samples)
            for x in x_subset
        ]
        ys = [samples] * len(base)
    sizes = [len(b) for b in base]
    # the leading empty array lets an empty instance set give empty arrays
    base = np.concatenate([np.empty(0), *base])
    y = np.concatenate([np.empty(0), *ys])
    f = np.asarray(y if statistic is None else statistic(y), dtype=float)
    w_lo = np.minimum(base / np.repeat(d_hi, sizes), _WEIGHT_CAP)
    w_hi = np.minimum(base / np.repeat(d_lo, sizes), _WEIGHT_CAP)
    return f, w_lo, w_hi


# slotted: callers keep curves by the hundred (gamma sweeps, benchmark
# harnesses), and each instance is about 60 bytes smaller without a __dict__
@dataclass(slots=True)
class IntervalCurve:
    """Lower/upper bound curves over a dose grid.

    ``undefined_mask`` marks grid points where at least one pooled instance
    lost its upper bound (divisor crossed zero); such points keep whatever
    bound the surviving instances give, or NaN when none survive, and should
    be read as vacuously wide.  ``one_sided`` (derivative curves only) marks
    endpoints computed with a one-sided difference.
    """

    t_grid: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    target: str
    undefined_mask: np.ndarray
    one_sided: np.ndarray | None = None

    def __post_init__(self):
        self.t_grid = np.asarray(self.t_grid, dtype=float)
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        self.undefined_mask = np.asarray(self.undefined_mask, dtype=bool)
        if not (self.t_grid.shape == self.lo.shape == self.hi.shape == self.undefined_mask.shape):
            raise ValueError("curve arrays must share one shape")
        if self.t_grid.ndim != 1 or len(self.t_grid) == 0:
            raise ValueError("t_grid must be a non-empty 1-d array")
        if np.any(np.diff(self.t_grid) <= 0.0):
            raise ValueError("t_grid must be strictly increasing")
        defined = ~self.undefined_mask
        if np.any(self.lo[defined] > self.hi[defined] + 1e-12):
            raise ValueError("lower curve exceeds upper curve")

    @property
    def width(self) -> np.ndarray:
        return self.hi - self.lo


def _one_gamma_curve(models, sens, x, t_grid, gamma_factor, trust_precision, target):
    """Column ``gamma_factor`` of ``apo_band_matrix`` for the rows ``x``."""
    t_grid = np.asarray(t_grid, dtype=float)
    probs = np.array([np.atleast_1d(models.outcome.predict(x, float(t))) for t in t_grid])
    engine = DivisorEngine(sens, models.propensity.predict(x), trust_precision=trust_precision)
    lo, hi, undefined = apo_band_matrix(engine, probs, t_grid, [gamma_factor])
    return IntervalCurve(t_grid, lo[:, 0], hi[:, 0], target, undefined[:, 0])


def capo_interval(
    models,
    sens: SensitivityModel,
    x,
    t_grid,
    gamma_factor: float,
    trust_precision=None,
) -> IntervalCurve:
    """Covariate-conditional outcome bounds over a dose grid."""
    x = np.asarray(x, dtype=float)
    return _one_gamma_curve(models, sens, x, t_grid, gamma_factor, trust_precision, "capo")


def apo_interval(
    models,
    sens: SensitivityModel,
    xs,
    t_grid,
    gamma_factor: float,
    trust_precision=None,
) -> IntervalCurve:
    """Population-averaged outcome bounds: draws of all instances are pooled
    into a single extremization per grid point."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if len(xs) == 0:
        raise ValueError("apo_interval needs at least one instance")
    return _one_gamma_curve(models, sens, xs, t_grid, gamma_factor, trust_precision, "apo")


def apo_band_matrix(engine: DivisorEngine, prob_matrix, t_grid, gamma_grid):
    """Pooled outcome bounds for every (dose, gamma) pair in one sweep.

    ``prob_matrix[i, j]`` holds P(Y=1 | x_j, t_grid[i]); the engine carries
    the per-instance propensity parameters.  Returns (lo, hi, undefined)
    arrays of shape (len(t_grid), len(gamma_grid)).  Each dose asks the
    engine for the whole gamma column at once, so divisors come back as
    (gammas, instances) tables that broadcast against the dose's row of
    probabilities.  Instances whose divisor floor crosses zero at a given
    (dose, gamma) are dropped from that pooled ratio and the point is
    flagged; when every instance drops, the bounds are NaN.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    gammas = np.asarray(gamma_grid, dtype=float)
    prob_matrix = np.atleast_2d(np.asarray(prob_matrix, dtype=float))
    if prob_matrix.shape[0] != len(t_grid):
        raise ValueError("prob_matrix must have one row per dose grid point")
    shape = (len(t_grid), len(gammas))
    lo = np.empty(shape)
    hi = np.empty(shape)
    undefined = np.zeros(shape, dtype=bool)
    gamma_col = gammas[:, None]
    for i, t in enumerate(t_grid):
        d_lo, d_hi = engine.bounds(t, gamma_col)
        valid = d_lo > 0.0
        undefined[i] = ~valid.all(axis=-1)
        lo[i], hi[i] = _bernoulli_extremes(prob_matrix[i], d_lo, d_hi, valid=valid)
    return lo, hi, undefined


def cacd_interval(capo_curve: IntervalCurve, h: float) -> IntervalCurve:
    """Conservative derivative bounds from a CAPO (or APO) band.

    Interior points use the worst-case central quotient
    (lo(t+h) - hi(t-h)) / (2h) (and its mirror image for the upper bound);
    points within ``h`` of an end fall back to one-sided quotients and are
    flagged.  ``h`` must equal a whole number of grid steps, at most half
    the number of grid points, so that every point has a neighbour ``h``
    away on at least one side.
    """
    if not (h > 0.0) or not math.isfinite(h):
        raise ValueError("h must be a positive finite step")
    grid = capo_curve.t_grid
    if len(grid) < 2:
        raise ValueError("derivative needs at least two grid points")
    spacing = np.diff(grid)
    dt = float(spacing[0])
    if np.any(np.abs(spacing - dt) > 1e-9 * max(dt, 1.0)):
        raise ValueError("derivative bounds need a uniform dose grid")
    steps = round(h / dt)
    if steps < 1 or abs(steps * dt - h) > 1e-9 * max(h, 1.0):
        raise ValueError(f"h={h!r} is not a whole number of grid steps (dt={dt!r})")
    n = len(grid)
    if 2 * steps > n:
        raise ValueError(
            f"h={h!r} is {steps} grid steps; a {n}-point grid allows at most {n // 2}"
        )
    i = np.arange(n)
    back = np.where(i >= steps, i - steps, i)
    fwd = np.where(i + steps < n, i + steps, i)
    one_sided = (back == i) | (fwd == i)
    span = np.where(one_sided, h, 2.0 * h)
    lo_in, hi_in, mask_in = capo_curve.lo, capo_curve.hi, capo_curve.undefined_mask
    lo = (lo_in[fwd] - hi_in[back]) / span
    hi = (hi_in[fwd] - lo_in[back]) / span
    mask = mask_in[fwd] | mask_in[back]
    return IntervalCurve(grid, lo, hi, "cacd", mask, one_sided=one_sided)
