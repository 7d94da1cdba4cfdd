"""Independent recomputations and output checks for the benchmark.

Nothing in this module imports dosebounds.  Every expected value is rebuilt
from the fitted heads' weights (as ``dosebounds.models.model_payload`` writes
them) with plain Python, numpy or mpmath, following the formulas the package
documents, so a fault in a package function cannot vouch for itself.  Each
``check_*`` function returns a list of problems; an empty list means the
output passed.
"""

from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np

# Constants the package documents and the recomputations must share.
PROB_CLAMP = 1e-6  # scoring clamp of dosebounds.benchmark.divergence_cost
PARAM_EDGE = 1e-7  # propensity parameters are clipped into (edge, cap - edge)
EDGE_CLEARANCE = 1e-6  # CMSM evaluates the nominal density this far inside (0, 1)
MIN_TRUST_PRECISION = 1e-6
BINARY_THRESHOLD = 0.5
WEIGHT_CAP = 1e30

# Two float64 pipelines that sum the same few hundred terms in another order
# agree to ~1e-14; a 1F1 off by 1e-6 moves a band by far more than this.
BAND_TOL = 1e-10
# A divisor floor this close to zero, relative to its ceiling, may land on
# either side of it in float64.
FLOOR_TOL = 1e-9


# ---------------------------------------------------------------------------
# fitted heads, recomputed from their payloads


def _sigmoid(z: float) -> float:
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def outcome_prob(outcome: dict, x_row, t: float) -> float:
    """P(Y=1 | x, t) of the outcome head, in plain Python."""
    w = outcome["weights"]
    u = math.fsum(wi * float(xi) for wi, xi in zip(w[:-1], x_row)) + w[-1] * float(t)
    return _sigmoid((u + outcome["bias"]) / outcome["stretch"])


def beta_params(propensity: dict, x_row) -> tuple[float, float]:
    """(alpha_bar, beta_bar) of the Beta propensity head, in plain Python."""
    cap, stretch = propensity["cap"], propensity["stretch"]
    out = []
    for head in ("alpha", "beta"):
        w = propensity[f"{head}_weights"]
        u = math.fsum(wi * float(xi) for wi, xi in zip(w, x_row)) + propensity[f"{head}_bias"]
        value = cap * _sigmoid(u / stretch)
        out.append(min(max(value, PARAM_EDGE), cap - PARAM_EDGE))
    return out[0], out[1]


def mean_prob_curve(outcome: dict, x_rows, t_grid) -> list[float]:
    """Plain mean of the outcome head's probabilities over rows, per dose."""
    return [
        math.fsum(outcome_prob(outcome, row, t) for row in x_rows) / len(x_rows)
        for t in t_grid
    ]


# ---------------------------------------------------------------------------
# divisor intervals (formulas of the dosebounds.sensitivity docstring)


def _anchored(a, b, r, t, gamma):
    """DeltaMSM divisor for Beta(a, b) anchored at t, with 1F1 from mpmath."""
    s = mpmath.log(gamma)
    shape_a = a + r * t  # compound of Beta(a, b) with the trust weight at t
    shape_b = b + r * (1 - t)
    c = shape_a + shape_b
    lo_e = mpmath.hyp1f1(shape_a, c, -s)
    hi_e = mpmath.hyp1f1(shape_a, c, s)
    var = shape_a * shape_b / (c * c * (c + 1))
    m1 = shape_a / c - t
    growth = gamma**t
    return (
        lo_e - s * growth * abs(m1),
        hi_e + s * growth * abs(m1) + s * s / 2 * growth * (var + m1 * m1),
    )


def divisor_interval(method: str, alpha: float, beta: float, t: float, gamma: float):
    """(d_lo, d_hi) of one instance with a Beta(alpha, beta) propensity.

    ``deltamsm`` is the balanced-beta scheme the benchmark and the CLI use:
    the anchored divisor of the propensity at t and of its mirror image at
    1 - t, mixed with weights t and 1 - t.
    """
    with mpmath.workdps(30):
        a, b, t, g = (mpmath.mpf(v) for v in (alpha, beta, t, gamma))
        if method == "uniform":
            lo, hi = 1 / g, g
        elif method == "cmsm":
            te = min(max(t, mpmath.mpf(EDGE_CLEARANCE)), 1 - mpmath.mpf(EDGE_CLEARANCE))
            density = te ** (a - 1) * (1 - te) ** (b - 1) / mpmath.beta(a, b)
            lo, hi = density / g, density * g
        elif method == "binarymsm":
            below = mpmath.betainc(a, b, 0, BINARY_THRESHOLD, regularized=True)
            e = 1 - below if t > BINARY_THRESHOLD else below
            lo, hi = 1 / (e + g * (1 - e)), g / (g * e + (1 - e))
        elif method == "deltamsm":
            r = max(a + b - 2, mpmath.mpf(MIN_TRUST_PRECISION))
            lo0, hi0 = _anchored(a, b, r, t, g)
            lo1, hi1 = _anchored(b, a, r, 1 - t, g)
            lo, hi = t * lo0 + (1 - t) * lo1, t * hi0 + (1 - t) * hi1
        else:
            raise ValueError(f"unknown method {method!r}")
        return float(lo), float(hi)


# ---------------------------------------------------------------------------
# pooled Bernoulli extremum over the weight box


def _weight_boxes(p, d_lo, d_hi):
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        one = (np.minimum(p / d_hi, WEIGHT_CAP), np.minimum(p / d_lo, WEIGHT_CAP))
        zero = (np.minimum((1 - p) / d_hi, WEIGHT_CAP), np.minimum((1 - p) / d_lo, WEIGHT_CAP))
    return one, zero


def vertex_band(p, d_lo, d_hi) -> tuple[float, float]:
    """(lo, hi) of sum(w f) / sum(w) over the box, f in {0, 1}, two draws each.

    The ratio N / (N + Z) rises with every weight of an f = 1 draw and falls
    with every weight of an f = 0 draw, so each extremum sits on one known
    vertex of the box.  ``brute_force_band`` confirms this on small boxes.
    Instances whose divisor floor is not positive leave the pool; an empty
    pool gives NaN, as the package documents.
    """
    d_lo = np.asarray(d_lo, dtype=float)
    keep = d_lo > 0.0
    if not keep.any():
        return math.nan, math.nan
    (one_lo, one_hi), (zero_lo, zero_hi) = _weight_boxes(
        np.asarray(p)[keep], d_lo[keep], np.asarray(d_hi, dtype=float)[keep]
    )
    n_hi, z_lo = math.fsum(one_hi), math.fsum(zero_lo)
    n_lo, z_hi = math.fsum(one_lo), math.fsum(zero_hi)
    return n_lo / (n_lo + z_hi), n_hi / (n_hi + z_lo)


def brute_force_band(p, d_lo, d_hi) -> tuple[float, float]:
    """The same extremum by enumerating all 4^n vertices (small n only)."""
    (one_lo, one_hi), (zero_lo, zero_hi) = _weight_boxes(p, d_lo, d_hi)
    n = len(one_lo)
    corners = np.array(list(itertools.product((0, 1), repeat=2 * n)), dtype=bool)
    w_one = np.where(corners[:, :n], one_hi, one_lo)
    w_zero = np.where(corners[:, n:], zero_hi, zero_lo)
    ratio = w_one.sum(axis=1) / (w_one.sum(axis=1) + w_zero.sum(axis=1))
    return float(ratio.min()), float(ratio.max())


# ---------------------------------------------------------------------------
# scoring


def _tanh_sinh_rule(h: float = 1.0 / 32.0, reach: float = 4.0):
    x = np.arange(-reach, reach + h / 2, h)
    arg = 0.5 * math.pi * np.sinh(x)
    nodes = np.tanh(arg)
    weights = h * 0.5 * math.pi * np.cosh(x) / np.cosh(arg) ** 2
    return nodes, weights


_TS_NODES, _TS_WEIGHTS = _tanh_sinh_rule()


def band_kl(p, lo, hi, undefined):
    """Average over q in [lo, hi] of KL(Bern(p) || Bern(q)), per grid point.

    Same scoring conventions as the package (probabilities clamped to
    [PROB_CLAMP, 1 - PROB_CLAMP], flagged or non-finite points widened to the
    whole clamped range, near-points scored at their midpoint), but the
    average is taken by tanh-sinh quadrature rather than by antiderivatives.
    """
    p = np.clip(np.asarray(p, dtype=float), PROB_CLAMP, 1 - PROB_CLAMP)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    widen = np.asarray(undefined, dtype=bool) | ~np.isfinite(lo) | ~np.isfinite(hi)
    lo = np.where(widen, PROB_CLAMP, np.clip(np.nan_to_num(lo), PROB_CLAMP, 1 - PROB_CLAMP))
    hi = np.where(widen, 1 - PROB_CLAMP, np.clip(np.nan_to_num(hi), PROB_CLAMP, 1 - PROB_CLAMP))

    def kl(q):
        return p[..., None] * np.log(p[..., None] / q) + (1 - p[..., None]) * np.log(
            (1 - p[..., None]) / (1 - q)
        )

    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    q = np.clip(mid[..., None] + half[..., None] * _TS_NODES, lo[..., None], hi[..., None])
    averaged = 0.5 * (kl(q) * _TS_WEIGHTS).sum(axis=-1)
    point = kl(mid[..., None])[..., 0]
    return np.where(hi - lo > 1e-9, averaged, point)


def coverage_range(p_true, lo, hi, undefined, tol: float = 1e-12) -> tuple[float, float]:
    """(fewest, most) grid points a band covers when ties within tol may fall
    either way; flagged points count as covered."""
    p = np.asarray(p_true, dtype=float)
    undefined = np.asarray(undefined, dtype=bool)
    with np.errstate(invalid="ignore"):
        surely = (lo + tol < p) & (p < hi - tol)
        maybe = (lo - tol <= p) & (p <= hi + tol)
    return float(np.mean(surely | undefined)), float(np.mean(maybe | undefined))


# ---------------------------------------------------------------------------
# checks


def check_true_apo(v_rows, mixing, location, scale, t_index, t_samples, apo_samples) -> list[str]:
    """Ground-truth curve of a quadratic-form trial at sampled doses,
    recomputed in plain Python."""
    problems = []
    mix = [[float(c) for c in row] for row in mixing]
    for t, got in zip(t_samples, apo_samples):
        total = 0.0
        for row in v_rows:
            v = [float(c) for c in row]
            v[t_index] = float(t) * (len(v) - 1)
            u = math.fsum(v[a] * mix[a][b] * v[b] for a in range(len(v)) for b in range(len(v)))
            z = (u - location) / scale
            total += 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        want = total / len(v_rows)
        if not abs(got - want) <= 1e-12 * abs(want):
            problems.append(f"true_apo at t={t:.4f}: {got!r} != plain-Python {want!r}")
    return problems


def check_band_point(method, alphas, betas, probs, t, gamma, lo, hi, where="") -> list[str]:
    """One (dose, gamma) point of a pooled band against the mpmath divisors.

    Returns no problem when some divisor floor sits within FLOOR_TOL of zero,
    relative to its ceiling, where float64 may legitimately keep or drop that
    instance.
    """
    d = np.array([divisor_interval(method, a, b, t, gamma) for a, b in zip(alphas, betas)])
    if np.any(np.abs(d[:, 0]) < FLOOR_TOL * np.abs(d[:, 1])):
        return []
    want_lo, want_hi = vertex_band(probs, d[:, 0], d[:, 1])
    problems = []
    for name, got, want in (("lo", lo, want_lo), ("hi", hi, want_hi)):
        both_nan = math.isnan(got) and math.isnan(want)
        if not both_nan and not abs(got - want) <= BAND_TOL:
            problems.append(
                f"{where}{method} {name} at t={t:.4f} gamma={gamma:.4f}: "
                f"{got!r} != recomputed {want!r}"
            )
    return problems


def check_collapse(lo, hi, where="") -> list[str]:
    """At gamma = 1 the band is a single point everywhere it is defined."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    worst = float(np.nanmax(np.abs(hi - lo))) if lo.size else 0.0
    if not worst <= 1e-12:
        return [f"{where}band does not collapse at gamma=1 (max width {worst:.3e})"]
    return []


def check_point_curve(lo, hi, want, where="", tol: float = 1e-12) -> list[str]:
    """A collapsed band equals an independently computed point curve."""
    gap = np.abs(np.asarray(lo, dtype=float) - np.asarray(want, dtype=float))
    gap = np.maximum(gap, np.abs(np.asarray(hi, dtype=float) - np.asarray(want, dtype=float)))
    worst = float(np.max(gap))
    if not worst <= tol:
        i = int(np.argmax(gap))
        return [f"{where}gamma=1 band {lo[i]!r} at grid point {i} != point value {want[i]!r} ({worst:.3e})"]
    return []


def check_ordered(lo, hi, undefined, where="") -> list[str]:
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    defined = ~np.asarray(undefined, dtype=bool)
    bad = defined & ~(lo <= hi + 1e-12)
    if bad.any():
        return [f"{where}lo > hi at {int(bad.sum())} grid points"]
    return []


def check_nested(bands, where="") -> list[str]:
    """Bands ordered by increasing gamma, each (lo, hi, undefined), must nest:
    a larger budget never narrows a band it leaves defined, and a flagged
    point stays flagged."""
    problems = []
    for (lo0, hi0, un0), (lo1, hi1, un1) in zip(bands, bands[1:]):
        un0, un1 = np.asarray(un0, dtype=bool), np.asarray(un1, dtype=bool)
        both = ~un0 & ~un1
        narrowed = both & ((np.asarray(lo1) > np.asarray(lo0) + 1e-12) | (np.asarray(hi1) < np.asarray(hi0) - 1e-12))
        if narrowed.any():
            problems.append(f"{where}bands do not nest at {int(narrowed.sum())} grid points")
        if (un0 & ~un1).any():
            problems.append(f"{where}a flagged point loses its flag at a larger gamma")
    return problems


def check_score(score, gammas, target, p_true, cols, lo, hi, undefined, where="") -> list[str]:
    """A method's reported gamma*, coverage, flags and cost against its band.

    ``lo``/``hi``/``undefined`` hold the band at the gamma-grid columns
    ``cols``, which must include gamma*, the grid point before it and the
    last one.  Coverage never falls as gamma grows (``check_nested``), so
    gamma* is right when its band reaches the target and the one before does
    not; a method that never reaches it keeps the last gamma, is flagged
    ``uncalibrated`` and is charged the cost of the vacuous band.
    """
    gammas = np.asarray(gammas, dtype=float)
    hits = np.flatnonzero(gammas == score.gamma_star)
    if len(hits) != 1:
        return [f"{where}gamma* {score.gamma_star!r} is not on the gamma grid"]
    pick = int(hits[0])
    column = {c: j for j, c in enumerate(cols)}
    j = column[pick]
    p_true = np.asarray(p_true, dtype=float)
    cov_min, cov_max = coverage_range(p_true, lo[:, j], hi[:, j], undefined[:, j])
    problems = []
    if not cov_min - 1e-12 <= score.coverage <= cov_max + 1e-12:
        problems.append(f"{where}coverage {score.coverage!r} outside recomputed [{cov_min}, {cov_max}]")
    if "uncalibrated" in score.flags:
        if pick != len(gammas) - 1:
            problems.append(f"{where}uncalibrated but gamma* is not the last grid gamma")
        if cov_min >= target:
            problems.append(f"{where}flagged uncalibrated although the last band covers {cov_min}")
        band = (np.zeros_like(p_true), np.ones_like(p_true), np.zeros(len(p_true), dtype=bool))
    else:
        if score.coverage < target or cov_max < target:
            problems.append(f"{where}coverage {score.coverage!r} at gamma* is below the target {target}")
        if pick > 0:
            prev_min, _ = coverage_range(
                p_true, lo[:, column[pick - 1]], hi[:, column[pick - 1]], undefined[:, column[pick - 1]]
            )
            if prev_min >= target:
                problems.append(f"{where}the grid gamma before gamma* already covers {prev_min}")
        band = (lo[:, j], hi[:, j], undefined[:, j])
    if ("undefined_points" in score.flags) != bool(np.any(undefined[:, j])):
        problems.append(f"{where}undefined_points flag disagrees with the band at gamma*")
    want = float(np.mean(band_kl(p_true, *band)))
    if not abs(score.cost - want) <= 1e-8 * want:
        problems.append(f"{where}cost {score.cost!r} != recomputed {want!r}")
    return problems


def check_slope_inside(t_grid, point, lo, hi, one_sided, undefined, steps: int, where="") -> list[str]:
    """A CACD band contains the central-difference slope of the point curve at
    interior grid points it leaves defined."""
    t_grid = np.asarray(t_grid, dtype=float)
    point = np.asarray(point, dtype=float)
    n = len(t_grid)
    idx = np.arange(steps, n - steps)
    slope = (point[idx + steps] - point[idx - steps]) / (t_grid[idx + steps] - t_grid[idx - steps])
    keep = ~np.asarray(one_sided, dtype=bool)[idx] & ~np.asarray(undefined, dtype=bool)[idx]
    tol = 1e-9 * np.maximum(1.0, np.abs(slope))
    outside = keep & ~((np.asarray(lo)[idx] - tol <= slope) & (slope <= np.asarray(hi)[idx] + tol))
    if outside.any():
        return [f"{where}CACD band misses the point-curve slope at {int(outside.sum())} interior points"]
    return []
