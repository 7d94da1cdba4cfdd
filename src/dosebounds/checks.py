"""Randomized self-check suites.

Each suite replays a correctness argument with fresh random inputs: the
divisor closed forms against adaptive quadrature (the Gauss-Kronrod
integrator below, which no run path calls), the weight-box extremizer
and the closed-form binary-outcome band against exhaustive vertex
enumeration, and the training gradients against central finite differences.
The test suite freezes the same comparisons at fixed seeds; the CLI exposes
them so any build can be re-validated at an arbitrary sample count.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import sensitivity
from .estimator import _WEIGHT_CAP, _bernoulli_extremes, extremize
from .models import outcome_loss_grad, propensity_loss_grad
from .seeds import substream
from .sensitivity import BetaPropensity
from .specfun import DomainError, NumericError

__all__ = [
    "QUADRATURE_ABS_TOL",
    "QUADRATURE_REL_TOL",
    "QUADRATURE_MAX_SUBDIVISIONS",
    "integrate",
    "CheckResult",
    "MAX_EXTREMIZER_N",
    "CLOSED_FORM_TOLERANCE",
    "EXTREMIZER_TOLERANCE",
    "GRADIENT_TOLERANCE",
    "GRADIENT_STEP",
    "SUITE_NAMES",
    "check_closed_forms",
    "check_extremizer",
    "check_gradients",
    "resolve_suite",
    "run_suites",
]

SUITE_NAMES = ("closed-forms", "extremizer", "gradients")

_MAX_REPORTED_FAILURES = 5

# Brute force enumerates all 2^n corners of the weight box in 2^n x n arrays:
# about 8 MB each at n = 16, 170 MB at 20 and past 3 GB at 24.
MAX_EXTREMIZER_N = 16

# Each suite passes when its worst error is at most its tolerance: relative
# for the closed forms and the gradients, absolute for the extremizer.
CLOSED_FORM_TOLERANCE = 1e-7
EXTREMIZER_TOLERANCE = 1e-12
GRADIENT_TOLERANCE = 1e-4
# central-difference step of the gradient check
GRADIENT_STEP = 1e-5


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one suite: worst observed error against its tolerance."""

    suite: str
    n_checked: int
    max_error: float
    tolerance: float
    failures: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance

    def describe(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        line = (
            f"{self.suite}: {verdict} ({self.n_checked} comparisons, "
            f"max error {self.max_error:.3e}, tolerance {self.tolerance:.1e})"
        )
        if self.failures:
            line += "\n" + "\n".join(f"  worst: {item}" for item in self.failures)
        return line


def resolve_suite(name: str) -> str:
    """``name`` itself when it names a suite; ValueError otherwise."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; expected one of {', '.join(SUITE_NAMES)}")
    return name


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod quadrature


# accuracy budget for ``integrate``
QUADRATURE_ABS_TOL = 1e-10
QUADRATURE_REL_TOL = 1e-9
QUADRATURE_MAX_SUBDIVISIONS = 2000

# 15-point Kronrod extension of 7-point Gauss-Legendre on [-1, 1].
_XGK = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144838258730,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
    ]
)
_WGK = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ]
)
_WG = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
    ]
)

_NODES = np.concatenate([-_XGK, _XGK[::-1], [0.0]])
_KRONROD_W = np.concatenate([_WGK[:-1], _WGK[:-1][::-1], [_WGK[-1]]])
_GAUSS_W = np.zeros(15)
for _i, _j in enumerate((1, 3, 5)):
    _GAUSS_W[_j] = _WG[_i]
    _GAUSS_W[13 - _j] = _WG[_i]
_GAUSS_W[14] = _WG[3]
del _i, _j


def _kronrod_cell(f, a: float, b: float) -> tuple[float, float]:
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fx = np.asarray(f(center + half * _NODES), dtype=float)
    if not np.isfinite(fx).all():
        raise NumericError(f"integrand is not finite inside [{a!r}, {b!r}]")
    resk = half * float(_KRONROD_W @ fx)
    resg = half * float(_GAUSS_W @ fx)
    resabs = abs(half) * float(_KRONROD_W @ np.abs(fx))
    mean = resk / (b - a)
    resasc = abs(half) * float(_KRONROD_W @ np.abs(fx - mean))
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    floor = 50.0 * np.finfo(float).eps * resabs
    if floor > 0.0:
        err = max(err, floor)
    return resk, err


def _adaptive(f, lo: float, hi: float) -> float:
    value, err = _kronrod_cell(f, lo, hi)
    total, total_err = value, err
    heap = [(-err, 0, lo, hi, value)]
    used = 0
    counter = 1
    while total_err > max(QUADRATURE_ABS_TOL, QUADRATURE_REL_TOL * abs(total)):
        if used >= QUADRATURE_MAX_SUBDIVISIONS:
            raise NumericError(
                f"quadrature used all {QUADRATURE_MAX_SUBDIVISIONS} subdivisions "
                f"(estimate {total!r}, error estimate {total_err:.3e})",
                value=total,
                error=total_err,
            )
        neg_err, _, a, b, v = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        v1, e1 = _kronrod_cell(f, a, mid)
        v2, e2 = _kronrod_cell(f, mid, b)
        total += (v1 + v2) - v
        total_err += (e1 + e2) - (-neg_err)
        heapq.heappush(heap, (-e1, counter, a, mid, v1))
        heapq.heappush(heap, (-e2, counter + 1, mid, b, v2))
        counter += 2
        used += 1
    return total


def integrate(f, lo: float, hi: float) -> float:
    """Definite integral of ``f`` over ``[lo, hi]`` to the module's tolerances.

    ``f`` takes a numpy array of abscissae and returns the matching array of
    values.  Both bounds must be finite.  The open Kronrod rule never
    evaluates ``f`` at the endpoints, so an integrable endpoint singularity
    is fine.
    """
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"integration bounds must be finite, got [{lo!r}, {hi!r}]")
    if not lo < hi:
        raise DomainError(f"integration requires lo < hi, got [{lo!r}, {hi!r}]")
    return _adaptive(f, lo, hi)


# ---------------------------------------------------------------------------
# suites


def _folded_power_expectation(q, gamma, sign):
    """E_q[gamma^(sign |tau|)] by adaptive quadrature over (0, 1)."""
    s = math.log(gamma)

    def integrand(tau):
        tau = np.asarray(tau, dtype=float)
        dens = q.pdf(tau)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.exp(sign * s * np.abs(tau)) * dens
        # the density underflows to zero long before the power overflows
        return np.where(dens > 0.0, vals, 0.0)

    return integrate(integrand, 0.0, 1.0)


def _draw_closed_form_case(rng):
    r = float(rng.uniform(0.5, 5.0))
    propensity = BetaPropensity(float(rng.uniform(0.8, 30.0)), float(rng.uniform(0.8, 30.0)))
    t = float(rng.uniform(0.02, 0.98))
    return propensity, t, r


def check_closed_forms(samples: int = 200, seed: int = 0) -> CheckResult:
    """Closed-form folded-power expectations versus adaptive quadrature.

    Draws random Beta propensity parameters, a dose in (0, 1) and a trust
    precision for each sample, then compares, at several budget levels, the
    four expectation bounds that ``DivisorEngine`` reads from
    ``sensitivity._folded_power_bounds``: both bounds for q = Beta(a, b), the
    shape pair the engine takes from ``sensitivity._compound_shapes``, and
    both for its mirror Beta(b, a), the q of the anchor at 1.  Errors are
    relative.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = substream(seed, "closed-forms")
    worst = 0.0
    failures = []
    n_checked = 0
    for _ in range(samples):
        propensity, t, r = _draw_closed_form_case(rng)
        a, b = sensitivity._compound_shapes(propensity, t, r)
        laws = (("", BetaPropensity(a, b)), ("mirror ", BetaPropensity(b, a)))
        for gamma in (1.1, 1.5, 2.5):
            pairs = sensitivity._folded_power_bounds(a, b, gamma)
            for (label, law), (lo, hi) in zip(laws, pairs):
                for side, got, sign in (("lo", lo, -1.0), ("hi", hi, 1.0)):
                    want = _folded_power_expectation(law, gamma, sign)
                    err = abs(got - want) / abs(want)
                    n_checked += 1
                    if err > worst:
                        worst = err
                    if err > CLOSED_FORM_TOLERANCE and len(failures) < _MAX_REPORTED_FAILURES:
                        failures.append(
                            f"q={law} gamma={gamma} {label}{side}: "
                            f"closed={got!r} quadrature={want!r} rel_err={err:.3e}"
                        )
    return CheckResult("closed-forms", n_checked, worst, CLOSED_FORM_TOLERANCE, tuple(failures))


def _vertex_extrema(f, w_lo, w_hi):
    """Extremes of sum(w f)/sum(w) over all corners of the weight box."""
    n = len(f)
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    weights = np.where(bits == 1, w_hi, w_lo)
    den = weights.sum(axis=1)
    ratios = (weights @ f)[den > 0.0] / den[den > 0.0]
    return float(ratios.min()), float(ratios.max())


def _bernoulli_vertex_extrema(p_one, d_lo, d_hi):
    """Vertex extremes of one pooled binary box over its instances with d_lo > 0 (NaN if none)."""
    keep = d_lo > 0.0
    if not keep.any():
        return math.nan, math.nan
    p_one, d_lo, d_hi = p_one[keep], d_lo[keep], d_hi[keep]
    probs = np.concatenate([1.0 - p_one, p_one])
    d_lo, d_hi = np.concatenate([d_lo, d_lo]), np.concatenate([d_hi, d_hi])
    with np.errstate(divide="ignore", over="ignore"):
        w_lo, w_hi = np.minimum(probs / d_hi, _WEIGHT_CAP), np.minimum(probs / d_lo, _WEIGHT_CAP)
    f = np.repeat([0.0, 1.0], len(p_one))
    return _vertex_extrema(f, w_lo, w_hi)


def _draw_bernoulli_box(n, rng):
    """Random binary-outcome box with certain outcomes, capped upper weights
    (tiny d_lo), zero lower weights (infinite d_hi) and dropped instances (d_lo < 0)."""
    p_one = rng.uniform(size=n)
    p_one[rng.uniform(size=n) < 0.2] = 0.0
    p_one[rng.uniform(size=n) < 0.2] = 1.0
    d_lo = rng.uniform(0.2, 2.0, size=n)
    d_lo[rng.uniform(size=n) < 0.15] = 1e-32
    d_hi = d_lo * rng.uniform(1.0, 4.0, size=n)
    d_hi[rng.uniform(size=n) < 0.15] = math.inf
    d_lo[rng.uniform(size=n) >= 0.8] *= -1.0
    return p_one, d_lo, d_hi


def _gap(got, want) -> float:
    """|got - want|; 0 when both are NaN, inf when only one is."""
    if math.isnan(got) or math.isnan(want):
        return 0.0 if math.isnan(got) and math.isnan(want) else math.inf
    return abs(got - want)


def check_extremizer(instances: int = 1000, max_n: int = 12, seed: int = 0) -> CheckResult:
    """Greedy ratio extremization, and the closed-form binary-outcome band,
    versus brute force over all 2^n vertices.

    Each instance makes four comparisons: ``extremize`` max and min on a
    random box of at most ``max_n`` draws, and ``_bernoulli_extremes`` lo and
    hi on a random pooled binary box of at most ``max_n // 2`` instances
    (drawn from a separate stream, so the generic boxes do not depend on it).
    """
    if instances < 1 or max_n < 1:
        raise ValueError("instances and max_n must be positive")
    if max_n > MAX_EXTREMIZER_N:
        raise ValueError(f"max_n must be at most {MAX_EXTREMIZER_N}, got {max_n}")
    rng = substream(seed, "extremizer")
    binary_rng = substream(seed, "extremizer", "bernoulli")
    worst = 0.0
    failures = []
    for _ in range(instances):
        n = int(rng.integers(1, max_n + 1))
        f = rng.normal(scale=2.0, size=n)
        if rng.uniform() < 0.2:
            f = np.round(f, 1)  # force ties
        w_lo = rng.uniform(0.0, 1.0, size=n)
        w_lo[rng.uniform(size=n) < 0.3] = 0.0
        w_hi = w_lo + rng.uniform(0.1, 1.0, size=n)
        want_min, want_max = _vertex_extrema(f, w_lo, w_hi)
        err = max(
            abs(extremize(f, w_lo, w_hi, "max") - want_max),
            abs(extremize(f, w_lo, w_hi, "min") - want_min),
        )
        if err > worst:
            worst = err
        if err > EXTREMIZER_TOLERANCE and len(failures) < _MAX_REPORTED_FAILURES:
            failures.append(f"n={n} f={f.tolist()} box=({w_lo.tolist()}, {w_hi.tolist()})")

        box = _draw_bernoulli_box(int(binary_rng.integers(1, max(1, max_n // 2) + 1)), binary_rng)
        got = _bernoulli_extremes(*box)[:2]
        want = _bernoulli_vertex_extrema(*box)
        err = max(_gap(float(g), w) for g, w in zip(got, want))
        if err > worst:
            worst = err
        if err > EXTREMIZER_TOLERANCE and len(failures) < _MAX_REPORTED_FAILURES:
            p_one, d_lo, d_hi = (v.tolist() for v in box)
            failures.append(f"bernoulli p_one={p_one} d_lo={d_lo} d_hi={d_hi}")
    return CheckResult("extremizer", 4 * instances, worst, EXTREMIZER_TOLERANCE, tuple(failures))


def _central_difference(loss, params):
    grad = np.empty_like(params)
    for i in range(len(params)):
        bumped = params.copy()
        bumped[i] = params[i] + GRADIENT_STEP
        up = loss(bumped)
        bumped[i] = params[i] - GRADIENT_STEP
        down = loss(bumped)
        grad[i] = (up - down) / (2.0 * GRADIENT_STEP)
    return grad


def check_gradients(points: int = 100, seed: int = 0) -> CheckResult:
    """Analytic training gradients versus central finite differences.

    The error is per-coordinate relative with a 1e-8 floor, matching
    |analytic - numeric| <= tol * |numeric| + 1e-8 * tol.
    """
    if points < 1:
        raise ValueError("points must be positive")
    rng = substream(seed, "gradients")
    x = rng.normal(size=(40, 3))
    t = rng.uniform(0.05, 0.95, size=40)
    y = (rng.uniform(size=40) < 0.5).astype(float)
    cases = [
        ("outcome", 5, lambda p: outcome_loss_grad(p, x, t, y)),
        ("propensity", 8, lambda p: propensity_loss_grad(p, x, t)),
    ]
    worst = 0.0
    failures = []
    for label, size, loss_grad in cases:
        for _ in range(points):
            params = rng.normal(scale=20.0, size=size)
            _, grad = loss_grad(params)
            numeric = _central_difference(lambda p: loss_grad(p)[0], params)
            err = float(np.max(np.abs(grad - numeric) / (np.abs(numeric) + 1e-8)))
            if err > worst:
                worst = err
            if err > GRADIENT_TOLERANCE and len(failures) < _MAX_REPORTED_FAILURES:
                failures.append(f"{label} params={params.tolist()} rel_err={err:.3e}")
    return CheckResult("gradients", 2 * points, worst, GRADIENT_TOLERANCE, tuple(failures))


def run_suites(
    names=None,
    samples: int = 200,
    instances: int = 1000,
    max_n: int = 12,
    points: int = 100,
    seed: int = 0,
) -> tuple[CheckResult, ...]:
    """Run the named suites (all of them by default) and collect results."""
    chosen = SUITE_NAMES if names is None else tuple(resolve_suite(n) for n in names)
    results = []
    for name in chosen:
        if name == "closed-forms":
            results.append(check_closed_forms(samples=samples, seed=seed))
        elif name == "extremizer":
            results.append(check_extremizer(instances=instances, max_n=max_n, seed=seed))
        else:
            results.append(check_gradients(points=points, seed=seed))
    return tuple(results)
