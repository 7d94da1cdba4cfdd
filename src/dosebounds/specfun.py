"""Self-contained special functions and adaptive quadrature.

The adaptive Gauss-Kronrod integrator defined here is the reference oracle
for every closed-form expectation used by the sensitivity machinery, so this
module deliberately sticks to stdlib ``math`` plus numpy and implements the
remaining special functions directly:

* ``log_gamma`` and ``erf`` wrap ``math.lgamma`` / ``math.erf`` (vectorised),
* ``digamma`` shifts every argument by the same 10 recurrence steps, with
  no data test, then applies the asymptotic series; measured against
  mpmath, its error is at most 1e-15 * max(1, |psi(x)| + 1/x) on (0, 200],
* ``hyp1f1`` (confluent hypergeometric) uses the Taylor series with the
  Kummer reflection for negative arguments, summed until it converges; it
  is the elementwise oracle for ``hyp1f1_grid``,
* ``hyp1f1_grid`` tabulates 1F1(a; c; s) for 0 <= a <= c and s >= 0 over
  every (s, (a, c)) pair as one matrix product of scaled powers s^k/k! and
  Pochhammer ratios (a)_k/(c)_k.  Each term is at most s^k/k! and the sum is
  at least 1, so the tail after K terms is below s^K/K! / (1 - s/(K+1))
  relative; ``hyp1f1_terms`` fixes K from the largest s so that this bound
  is at most 2^-53, with no convergence test,
* ``reg_inc_beta`` uses the continued-fraction expansion,
* ``integrate`` is a globally adaptive 15-point Kronrod / 7-point Gauss rule
  with interval bisection; the closed forms it checks are expectations over
  doses in [0, 1], so both bounds must be finite.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "NumericError",
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "log_gamma",
    "digamma",
    "erf",
    "hyp1f1",
    "HYP1F1_TAIL_BOUND",
    "hyp1f1_terms",
    "hyp1f1_grid",
    "reg_inc_beta",
    "integrate",
]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of a function."""


class NumericError(ArithmeticError):
    """An iteration or subdivision budget ran out before reaching tolerance.

    Carries the best available partial result in ``value`` and, when known,
    an estimate of its error in ``error``.
    """

    def __init__(self, message: str, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


def _as_floats(x, name: str) -> tuple[np.ndarray, bool]:
    scalar = np.ndim(x) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} must be finite, got {x!r}")
    return arr, scalar


def _ret(values: np.ndarray, scalar: bool):
    return float(values[0]) if scalar else values


# ---------------------------------------------------------------------------
# pointwise special functions


def log_gamma(x):
    """Natural log of the gamma function for x > 0 (elementwise)."""
    arr, scalar = _as_floats(x, "x")
    if np.any(arr <= 0.0):
        raise DomainError("log_gamma requires x > 0")
    out = np.frompyfunc(math.lgamma, 1, 1)(arr).astype(float)
    return _ret(out, scalar)


def erf(x):
    """Error function on finite reals (elementwise)."""
    arr, scalar = _as_floats(x, "x")
    out = np.frompyfunc(math.erf, 1, 1)(arr).astype(float)
    return _ret(out, scalar)


# Asymptotic tail of psi(x): ln x - 1/(2x) - sum B_2k / (2k x^2k).
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
)
_DIGAMMA_SHIFT = 10


def digamma(x):
    """Logarithmic derivative of the gamma function for x > 0 (elementwise).

    Every argument takes the same fixed shift, with no data test:
    psi(x) = psi(x + 10) - sum_{j<10} 1/(x + j), then the asymptotic series
    at x + 10.  Measured against mpmath over (0, 200], the error is at most
    1e-15 * max(1, |psi(x)| + 1/x); the tests hold it to twice that.  The
    ten reciprocals form one (10, ...) table, and ``np.subtract.reduce``
    over its first axis takes them off one row at a time, in the order
    -1/x - 1/(x + 1) - ... - 1/(x + 9).  numpy sums pairwise only for
    ``add``, which would round a one-element call differently from a
    batched one; a subtract reduction has no pairwise path.  Each element
    thus sees the same operations whatever else is in the array: one call on
    a concatenation equals the concatenated per-part calls bit for bit, so
    batching is exact.
    """
    arr, scalar = _as_floats(x, "x")
    if np.any(arr <= 0.0):
        raise DomainError("digamma requires x > 0")
    steps = 1.0 / np.add.outer(np.arange(float(_DIGAMMA_SHIFT)), arr)
    np.negative(steps[0], out=steps[0])
    acc = np.subtract.reduce(steps, axis=0)
    work = arr + _DIGAMMA_SHIFT
    inv2 = 1.0 / (work * work)
    tail = np.zeros_like(work)
    for coeff in reversed(_DIGAMMA_TAIL):
        tail = inv2 * (coeff + tail)
    out = acc + np.log(work) - 0.5 / work - tail
    return _ret(out, scalar)


_HYP1F1_MAX_TERMS = 10_000


def hyp1f1(a, b, z):
    """Confluent hypergeometric function 1F1(a; b; z) for b > 0.

    Plain Taylor series in z; for z < 0 (where terms alternate) the Kummer
    reflection 1F1(a;b;z) = e^z 1F1(b-a;b;-z) restores an all-positive series
    whenever b > a.  Inputs broadcast elementwise.
    """
    aa, a_scalar = _as_floats(a, "a")
    bb, b_scalar = _as_floats(b, "b")
    zz, z_scalar = _as_floats(z, "z")
    if np.any(bb <= 0.0):
        raise DomainError("hyp1f1 requires b > 0")
    scalar = a_scalar and b_scalar and z_scalar
    aa, bb, zz = np.broadcast_arrays(aa, bb, zz)
    reflect = (zz < 0.0) & (bb - aa > 0.0)
    a_eff = np.where(reflect, bb - aa, aa)
    z_eff = np.where(reflect, -zz, zz)

    term = np.ones_like(z_eff)
    total = np.ones_like(z_eff)
    converged_streak = 0
    for k in range(_HYP1F1_MAX_TERMS):
        term = term * (a_eff + k) * z_eff / ((bb + k) * (k + 1.0))
        total = total + term
        if np.all(np.abs(term) <= 1e-16 * np.abs(total)):
            converged_streak += 1
            if converged_streak >= 2:
                break
        else:
            converged_streak = 0
    else:
        raise NumericError(
            f"hyp1f1 series did not converge within {_HYP1F1_MAX_TERMS} terms",
            value=_ret(np.where(reflect, np.exp(zz) * total, total).copy(), scalar),
        )
    out = np.where(reflect, np.exp(zz) * total, total)
    return _ret(np.ascontiguousarray(out), scalar)


# Relative truncation error that hyp1f1_terms guarantees: the unit roundoff
# of a double.
HYP1F1_TAIL_BOUND = 2.0**-53


def hyp1f1_terms(s_max: float) -> int:
    """Fewest terms K with K + 1 > s_max whose tail bound
    s^K/K! / (1 - s/(K+1)) is within ``HYP1F1_TAIL_BOUND`` for every
    0 <= s <= s_max (the bound grows with s)."""
    s_max = float(s_max)
    if not (0.0 <= s_max < math.inf):
        raise DomainError(f"hyp1f1_terms requires a finite s_max >= 0, got {s_max!r}")
    if s_max == 0.0:
        return 1
    log_s = math.log(s_max)
    log_bound = math.log(HYP1F1_TAIL_BOUND)
    k = max(1, math.floor(s_max))  # the geometric tail needs K + 1 > s
    while k * log_s - math.lgamma(k + 1.0) - math.log1p(-s_max / (k + 1.0)) > log_bound:
        k += 1
    return k


def hyp1f1_grid(a, c, s) -> np.ndarray:
    """Table of 1F1(a_j; c_j; s_i) over every s and every (a, c) pair.

    ``a`` and ``c`` broadcast to one flat list of shapes with 0 <= a <= c and
    c > 0; ``s`` is a flat list of arguments s >= 0.  Returns the
    (len(s), len(a)) matrix s_pow @ coeff with s_pow[i, k] = s_i^k / k! and
    coeff[k, j] = (a_j)_k / (c_j)_k, k < ``hyp1f1_terms(max s)``.  Callers
    reach negative arguments through Kummer's transformation (A&S 13.1.27),
    1F1(a; c; -s) = e^-s 1F1(c - a; c; s), which keeps every term positive.
    ``_pochhammer_table`` builds ``coeff`` row by row, with the bits of a
    ``np.cumprod`` down its columns.
    """
    a, c = np.broadcast_arrays(
        np.ravel(np.asarray(a, dtype=float)), np.ravel(np.asarray(c, dtype=float))
    )
    s = np.ravel(np.asarray(s, dtype=float))
    if not (np.isfinite(a).all() and np.isfinite(c).all() and np.isfinite(s).all()):
        raise DomainError("hyp1f1_grid requires finite arguments")
    if np.any(a < 0.0) or np.any(c < a) or np.any(c <= 0.0):
        raise DomainError("hyp1f1_grid requires 0 <= a <= c and c > 0")
    if np.any(s < 0.0):
        raise DomainError("hyp1f1_grid requires s >= 0; use Kummer's transformation")
    n_terms = hyp1f1_terms(s.max()) if s.size else 1
    k = np.arange(n_terms - 1, dtype=float)
    s_pow = np.ones((s.size, n_terms))
    np.cumprod(s[:, None] / (k + 1.0), axis=1, out=s_pow[:, 1:])
    return s_pow @ _pochhammer_table(a, c, n_terms)


def _pochhammer_table(a, c, n_terms: int) -> np.ndarray:
    """(n_terms, a.size) table of (a_j)_k / (c_j)_k for flat ``a`` and ``c``.

    Row k + 1 is row k times (a + k) / (c + k), one row at a time: the same
    products in the same order as ``np.cumprod`` over the ratios' first
    axis, so the same bits, but contiguous row operations instead of a
    strided accumulation down each column.
    """
    k = np.arange(n_terms - 1, dtype=float)
    ratio = (a + k[:, None]) / (c + k[:, None])
    coeff = np.ones((n_terms, a.size))
    for j in range(n_terms - 1):
        np.multiply(coeff[j], ratio[j], out=coeff[j + 1])
    return coeff


def _beta_cf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta, modified Lentz iteration.
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 301):
        m2 = 2 * m
        coeff = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + coeff * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + coeff / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        coeff = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + coeff * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + coeff / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise NumericError("incomplete beta continued fraction stalled", value=h)


def _reg_inc_beta_scalar(a: float, b: float, x: float) -> float:
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(x)):
        raise DomainError("reg_inc_beta requires finite arguments")
    if a <= 0.0 or b <= 0.0:
        raise DomainError("reg_inc_beta requires a > 0 and b > 0")
    if x < 0.0 or x > 1.0:
        raise DomainError("reg_inc_beta requires 0 <= x <= 1")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def reg_inc_beta(a, b, x):
    """Regularized incomplete beta function I_x(a, b) (elementwise)."""
    if np.ndim(a) == 0 and np.ndim(b) == 0 and np.ndim(x) == 0:
        return _reg_inc_beta_scalar(float(a), float(b), float(x))
    aa, bb, xx = np.broadcast_arrays(
        np.asarray(a, dtype=float), np.asarray(b, dtype=float), np.asarray(x, dtype=float)
    )
    out = np.empty(aa.shape, dtype=float)
    flat = out.ravel()
    for i, (ai, bi, xi) in enumerate(zip(aa.ravel(), bb.ravel(), xx.ravel())):
        flat[i] = _reg_inc_beta_scalar(float(ai), float(bi), float(xi))
    return out


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod quadrature


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy budget for ``integrate``."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


DEFAULT_QUADRATURE = QuadratureSpec()

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


def _eval_vectorized(f, x: np.ndarray) -> np.ndarray:
    try:
        y = np.asarray(f(x), dtype=float)
    except (TypeError, ValueError):
        return np.fromiter((float(f(v)) for v in x), dtype=float, count=x.size)
    if y.shape == x.shape:
        return y
    if y.ndim == 0:
        return np.full(x.shape, float(y))
    raise ValueError("integrand returned an array of unexpected shape")


def _kronrod_cell(f, a: float, b: float) -> tuple[float, float]:
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fx = _eval_vectorized(f, center + half * _NODES)
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


def _adaptive(f, lo: float, hi: float, spec: QuadratureSpec) -> float:
    value, err = _kronrod_cell(f, lo, hi)
    total, total_err = value, err
    heap = [(-err, 0, lo, hi, value)]
    used = 0
    counter = 1
    while total_err > max(spec.abs_tol, spec.rel_tol * abs(total)):
        if used >= spec.max_subdivisions:
            raise NumericError(
                f"quadrature used all {spec.max_subdivisions} subdivisions "
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


def integrate(f, lo: float, hi: float, spec: QuadratureSpec | None = None) -> float:
    """Definite integral of ``f`` over ``[lo, hi]`` to the requested tolerance.

    ``f`` should accept a numpy array of abscissae and return the matching
    array of values; plain scalar callables are looped over as a fallback.
    Both bounds must be finite.  The open Kronrod rule never evaluates ``f``
    at the endpoints, so an integrable endpoint singularity is fine.
    """
    spec = spec or DEFAULT_QUADRATURE
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"integration bounds must be finite, got [{lo!r}, {hi!r}]")
    if not lo < hi:
        raise DomainError(f"integration requires lo < hi, got [{lo!r}, {hi!r}]")
    return _adaptive(f, lo, hi, spec)
