"""Self-contained special functions on the run path.

Every function here is one that a benchmark trial or a ``bounds`` call
evaluates, except the scalar ``hyp1f1`` (its docstring says why it stays).
The module sticks to stdlib ``math`` plus numpy and implements the special
functions directly:

* ``log_gamma`` and ``erf`` wrap ``math.lgamma`` / ``math.erf`` (vectorised),
* ``digamma`` shifts every argument by the same 10 recurrence steps, with
  no data test, then applies the asymptotic series; measured against
  mpmath, its error is at most 1e-15 * max(1, |psi(x)| + 1/x) on (0, 200],
* ``hyp1f1`` (confluent hypergeometric) uses the Taylor series with the
  Kummer reflection for negative arguments, summed until it converges; it
  is the elementwise oracle for ``hyp1f1_grid``,
* ``hyp1f1_grid`` tabulates 1F1(a; c; s) for 0 <= a <= c and s >= 0 over
  each s and one table of shapes (one row shared by every s, or one row per
  s), one matrix-vector product of scaled powers s^k/k! and Pochhammer
  ratios (a)_k/(c)_k per s.  Each term is at most s^k/k! and the sum is at
  least 1, so the tail after K terms is below s^K/K! / (1 - s/(K+1)) relative;
  ``_hyp1f1_terms`` fixes each s's own K so that this bound is at most
  2^-53, with no convergence test,
* ``reg_inc_beta`` runs one modified Lentz iteration of the continued
  fraction over all its entries, each stopping at its own convergence.

The adaptive quadrature that checks the closed forms built on these lives
in ``checks``, next to its one user.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DomainError",
    "NumericError",
    "log_gamma",
    "digamma",
    "erf",
    "hyp1f1",
    "hyp1f1_grid",
    "reg_inc_beta",
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
    # one boxed float at a time, not an object array of true_apo's whole grid
    out = np.fromiter(map(math.erf, arr.ravel()), float, arr.size).reshape(arr.shape)
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

    No package code calls it: bands and divisors use ``hyp1f1_grid``, and
    this series is the tests' elementwise oracle for that table.  It stays
    here because perfbench's tracer patches ``specfun.hyp1f1`` by name; it
    moves to a test helper once the tracer patches ``hyp1f1_grid`` instead.
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


# Relative truncation error that _hyp1f1_terms guarantees: the unit roundoff
# of a double.
HYP1F1_TAIL_BOUND = 2.0**-53


def _hyp1f1_terms(s_max: float, start: int = 1) -> int:
    """Fewest terms K with K + 1 > s_max whose tail bound
    s^K/K! / (1 - s/(K+1)) is within ``HYP1F1_TAIL_BOUND`` for every
    0 <= s <= s_max (the bound grows with s).  K never falls as s_max grows,
    so a search may ``start`` from the K of any smaller s_max."""
    s_max = float(s_max)
    if not (0.0 <= s_max < math.inf):
        raise DomainError(f"_hyp1f1_terms requires a finite s_max >= 0, got {s_max!r}")
    if s_max == 0.0:
        return 1
    log_s = math.log(s_max)
    log_bound = math.log(HYP1F1_TAIL_BOUND)
    k = max(start, math.floor(s_max))  # the geometric tail needs K + 1 > s
    while k * log_s - math.lgamma(k + 1.0) - math.log1p(-s_max / (k + 1.0)) > log_bound:
        k += 1
    return k


def hyp1f1_grid(a, c, s) -> np.ndarray:
    """Table of 1F1(a; c; s_i) over every s and its (a, c) pairs.

    ``s`` is a flat list of arguments s >= 0.  ``a`` and ``c`` broadcast to
    one (rows, M) table of shapes, with rows 1 (one set shared by every s)
    or len(s) (a gamma paired with its dose's shapes); any array that is not
    2-d is flattened into the one shared row.  Always 0 <= a <= c and
    c > 0.  Returns the (len(s), M) table whose row i is one matrix-vector
    product, s_pow[i, :K_i] @ coeff_i[:K_i], with s_pow[i, k] = s_i^k / k!,
    coeff_i[k, j] = (a_j)_k / (c_j)_k over row i's shapes (the shared row,
    if there is one) and K_i = ``_hyp1f1_terms(s_i)``.  Each coeff_i is a
    contiguous (K, M) table and both tables fill their rows one after
    another, so row i holds the bits of the one-s call on its s and its
    shapes, whatever the other rows are.  Callers reach negative arguments
    through Kummer's transformation (A&S 13.1.27), 1F1(a; c; -s) =
    e^-s 1F1(c - a; c; s), which keeps every term positive.
    """
    a, c = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(c, dtype=float))
    s = np.ravel(np.asarray(s, dtype=float))
    if a.ndim != 2:
        a, c = a.reshape(1, -1), c.reshape(1, -1)
    elif len(a) not in (1, s.size):
        raise DomainError(f"hyp1f1_grid needs one row of shapes per s, got {len(a)} rows")
    if not (np.isfinite(a).all() and np.isfinite(c).all() and np.isfinite(s).all()):
        raise DomainError("hyp1f1_grid requires finite arguments")
    if np.any(a < 0.0) or np.any(c < a) or np.any(c <= 0.0):
        raise DomainError("hyp1f1_grid requires 0 <= a <= c and c > 0")
    if np.any(s < 0.0):
        raise DomainError("hyp1f1_grid requires s >= 0; use Kummer's transformation")
    terms, n_terms = np.ones(s.size, dtype=int), 1
    for i in np.argsort(s):  # up the sorted s, each count searched from the last
        n_terms = terms[i] = _hyp1f1_terms(s[i], n_terms)
    k = np.arange(n_terms - 1, dtype=float)
    s_pow = np.ones((s.size, n_terms))
    np.cumprod(s[:, None] / (k + 1.0), axis=1, out=s_pow[:, 1:])
    coeff = _pochhammer_table(a, c, n_terms)
    out = np.empty((s.size, a.shape[1]))
    # with 1 or len(s) tables, table i % len(a) is row i's own or the shared one
    for i, n in enumerate(terms):
        np.dot(s_pow[i, :n], coeff[i % len(a), :n], out=out[i])
    return out


# _pochhammer_table forms its ratios (a + k) / (c + k) for a slab of k values
# at a time, at most this many bytes: all k for one set of shapes over a few
# hundred instances, a few k for a block of matched points.  With all k in
# one slab, a default trial's DeltaMSM calibration faulted in about 29,000
# pages per call, as malloc returned its table-sized temporaries to the
# system, and took 2.8x the CPU time.
_RATIO_SLAB_BYTES = 1 << 17


def _pochhammer_table(a, c, n_terms: int) -> np.ndarray:
    """(..., n_terms, M) table of (a_j)_k / (c_j)_k for ``a`` and ``c`` of
    shape (..., M): one contiguous (n_terms, M) table per row of shapes.

    Row k + 1 is row k times (a + k) / (c + k), one row at a time: the same
    products in the same order as ``np.cumprod`` over the ratios' k axis,
    so the same bits, and the first K rows do not depend on n_terms or on
    the other rows of shapes.
    """
    coeff = np.empty(a.shape[:-1] + (n_terms, a.shape[-1]))
    steps = coeff.swapaxes(0, -2)  # steps[k] is row k of every table
    steps[0] = 1.0
    slab = max(1, _RATIO_SLAB_BYTES // (8 * a.size))
    for start in range(0, n_terms - 1, slab):
        k = np.arange(start, min(start + slab, n_terms - 1), dtype=float)
        k = k.reshape((-1,) + (1,) * a.ndim)
        ratios = a + k
        ratios /= c + k
        for j, ratio in enumerate(ratios, start):
            np.multiply(steps[j], ratio, out=steps[j + 1])
    return coeff


def _floored(v):
    # the modified Lentz iteration moves a zero denominator to 1e-300
    return np.where(np.abs(v) < 1e-300, 1e-300, v)


def _beta_cf(a, b, x):
    """Continued fraction of I_x(a, b) over 1-d arrays with x < (a + 1) / (a + b + 2),
    by the modified Lentz iteration.  An entry leaves at its own convergence
    and sees only elementwise operations, so its value never depends on the
    other entries."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = np.ones_like(x)
    d = 1.0 / _floored(1.0 - qab * x / qap)
    h = d
    out = np.empty_like(x)
    todo = np.arange(x.size)
    for m in range(1, 301):
        m2 = 2 * m
        for coeff in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 / _floored(1.0 + coeff * d)
            c = _floored(1.0 + coeff / c)
            delta = d * c
            h = h * delta
        done = np.abs(delta - 1.0) < 1e-15
        if done.any():
            out[todo[done]] = h[done]
            keep = ~done
            todo, a, b, x, qab, qap, qam, c, d, h = (
                w[keep] for w in (todo, a, b, x, qab, qap, qam, c, d, h)
            )
        if not todo.size:
            return out
    out[todo] = h
    raise NumericError("incomplete beta continued fraction stalled", value=out)


def reg_inc_beta(a, b, x):
    """Regularized incomplete beta function I_x(a, b) for a, b > 0 and
    0 <= x <= 1 (elementwise; inputs broadcast).

    Each entry takes the continued fraction on its faster side: I_x(a, b)
    below x = (a + 1) / (a + b + 2), else 1 - I_(1-x)(b, a).  A one-element
    call equals that entry of any batch bit for bit.  Raises
    ``NumericError`` when an entry has not converged after 300 steps.
    """
    aa, a_scalar = _as_floats(a, "a")
    bb, b_scalar = _as_floats(b, "b")
    xx, x_scalar = _as_floats(x, "x")
    if np.any(aa <= 0.0) or np.any(bb <= 0.0):
        raise DomainError("reg_inc_beta requires a > 0 and b > 0")
    if np.any((xx < 0.0) | (xx > 1.0)):
        raise DomainError("reg_inc_beta requires 0 <= x <= 1")
    shape = np.broadcast(aa, bb, xx).shape
    aa, bb, xx = (np.broadcast_to(w, shape).ravel() for w in (aa, bb, xx))
    inner = (xx > 0.0) & (xx < 1.0)
    z = np.where(inner, xx, 0.5)
    ln_ab, ln_a, ln_b = log_gamma(np.stack((aa + bb, aa, bb)))
    front = np.exp(ln_ab - ln_a - ln_b + aa * np.log(z) + bb * np.log1p(-z))
    flip = z >= (aa + 1.0) / (aa + bb + 2.0)
    p = np.where(flip, bb, aa)
    part = front * _beta_cf(p, np.where(flip, aa, bb), np.where(flip, 1.0 - z, z)) / p
    out = np.where(inner, np.where(flip, 1.0 - part, part), xx)
    return _ret(out.reshape(shape), a_scalar and b_scalar and x_scalar)
