"""Randomized self-check suites.

Each suite replays a correctness argument with fresh random inputs: the
divisor closed forms against adaptive quadrature, the weight-box extremizer
and the closed-form binary-outcome band against exhaustive vertex
enumeration, and the training gradients against central finite differences.
The test suite freezes the same comparisons at fixed seeds; the CLI exposes
them so any build can be re-validated at an arbitrary sample count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import _WEIGHT_CAP, _bernoulli_extremes, extremize
from .models import outcome_loss_grad, propensity_loss_grad
from .seeds import substream
from .sensitivity import BetaPropensity, compound, lambda_expectation_bounds, trust_params
from .specfun import integrate

__all__ = [
    "CheckResult",
    "MAX_EXTREMIZER_N",
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


def _draw_scheme_case(rng):
    r = float(rng.uniform(0.5, 5.0))
    propensity = BetaPropensity(float(rng.uniform(0.8, 30.0)), float(rng.uniform(0.8, 30.0)))
    t = float(rng.uniform(0.02, 0.98))
    return propensity, t, r


def check_closed_forms(samples: int = 200, seed: int = 0, tolerance: float = 1e-7) -> CheckResult:
    """Closed-form folded-power expectations versus adaptive quadrature.

    Draws random Beta propensity parameters, a dose in (0, 1) and a trust
    precision for each sample, then compares both expectation bounds of the
    Beta compound at several budget levels.  Errors are relative.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = substream(seed, "closed-forms")
    worst = 0.0
    failures = []
    n_checked = 0
    for _ in range(samples):
        propensity, t, r = _draw_scheme_case(rng)
        q = compound(propensity, trust_params(t, r))
        for gamma in (1.1, 1.5, 2.5):
            lo, hi = lambda_expectation_bounds(q, gamma)
            for side, got in (("lo", lo), ("hi", hi)):
                want = _folded_power_expectation(q, gamma, -1.0 if side == "lo" else 1.0)
                err = abs(got - want) / abs(want)
                n_checked += 1
                if err > worst:
                    worst = err
                if err > tolerance and len(failures) < _MAX_REPORTED_FAILURES:
                    failures.append(
                        f"q={q} gamma={gamma} {side}: "
                        f"closed={got!r} quadrature={want!r} rel_err={err:.3e}"
                    )
    return CheckResult("closed-forms", n_checked, worst, tolerance, tuple(failures))


def _vertex_extrema(f, w_lo, w_hi):
    """Extremes of sum(w f)/sum(w) over all corners of the weight box."""
    n = len(f)
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    weights = np.where(bits == 1, w_hi, w_lo)
    den = weights.sum(axis=1)
    ratios = (weights @ f)[den > 0.0] / den[den > 0.0]
    return float(ratios.min()), float(ratios.max())


def _bernoulli_vertex_extrema(p_one, d_lo, d_hi, valid):
    """Vertex extremes of one pooled binary-outcome box; NaN when nothing is valid."""
    if not valid.any():
        return math.nan, math.nan
    p_one, d_lo, d_hi = p_one[valid], d_lo[valid], d_hi[valid]
    probs = np.concatenate([1.0 - p_one, p_one])
    d_lo, d_hi = np.concatenate([d_lo, d_lo]), np.concatenate([d_hi, d_hi])
    with np.errstate(divide="ignore", over="ignore"):
        w_lo, w_hi = np.minimum(probs / d_hi, _WEIGHT_CAP), np.minimum(probs / d_lo, _WEIGHT_CAP)
    f = np.repeat([0.0, 1.0], len(p_one))
    return _vertex_extrema(f, w_lo, w_hi)


def _draw_bernoulli_box(n, rng):
    """Random binary-outcome box with certain outcomes, capped upper weights
    (tiny d_lo), zero lower weights (infinite d_hi) and masked instances."""
    p_one = rng.uniform(size=n)
    p_one[rng.uniform(size=n) < 0.2] = 0.0
    p_one[rng.uniform(size=n) < 0.2] = 1.0
    d_lo = rng.uniform(0.2, 2.0, size=n)
    d_lo[rng.uniform(size=n) < 0.15] = 1e-32
    d_hi = d_lo * rng.uniform(1.0, 4.0, size=n)
    d_hi[rng.uniform(size=n) < 0.15] = math.inf
    valid = rng.uniform(size=n) < 0.8
    return p_one, d_lo, d_hi, valid


def _gap(got, want) -> float:
    """|got - want|; 0 when both are NaN, inf when only one is."""
    if math.isnan(got) or math.isnan(want):
        return 0.0 if math.isnan(got) and math.isnan(want) else math.inf
    return abs(got - want)


def check_extremizer(
    instances: int = 1000, max_n: int = 12, seed: int = 0, tolerance: float = 1e-12
) -> CheckResult:
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
        if err > tolerance and len(failures) < _MAX_REPORTED_FAILURES:
            failures.append(f"n={n} f={f.tolist()} box=({w_lo.tolist()}, {w_hi.tolist()})")

        box = _draw_bernoulli_box(int(binary_rng.integers(1, max(1, max_n // 2) + 1)), binary_rng)
        got = _bernoulli_extremes(*box)
        want = _bernoulli_vertex_extrema(*box)
        err = max(_gap(float(g), w) for g, w in zip(got, want))
        if err > worst:
            worst = err
        if err > tolerance and len(failures) < _MAX_REPORTED_FAILURES:
            failures.append(
                "bernoulli p_one={} d_lo={} d_hi={} valid={}".format(*(v.tolist() for v in box))
            )
    return CheckResult("extremizer", 4 * instances, worst, tolerance, tuple(failures))


def _central_difference(loss, params, step):
    grad = np.empty_like(params)
    for i in range(len(params)):
        bumped = params.copy()
        bumped[i] = params[i] + step
        up = loss(bumped)
        bumped[i] = params[i] - step
        down = loss(bumped)
        grad[i] = (up - down) / (2.0 * step)
    return grad


def check_gradients(
    points: int = 100, seed: int = 0, step: float = 1e-5, tolerance: float = 1e-4
) -> CheckResult:
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
            numeric = _central_difference(lambda p: loss_grad(p)[0], params, step)
            err = float(np.max(np.abs(grad - numeric) / (np.abs(numeric) + 1e-8)))
            if err > worst:
                worst = err
            if err > tolerance and len(failures) < _MAX_REPORTED_FAILURES:
                failures.append(f"{label} params={params.tolist()} rel_err={err:.3e}")
    return CheckResult("gradients", 2 * points, worst, tolerance, tuple(failures))


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
