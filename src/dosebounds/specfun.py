"""Self-contained special functions on the run path.

Every function here is one that a benchmark trial or a ``bounds`` call
evaluates.  The module sticks to stdlib ``math`` plus numpy and implements
the special functions directly:

* ``log_gamma`` and ``erf`` wrap ``math.lgamma`` / ``math.erf`` (vectorised),
* ``digamma`` shifts every argument by the same 10 recurrence steps, with
  no data test, then applies the asymptotic series; measured against
  mpmath, its error is at most 1e-15 * max(1, |psi(x)| + 1/x) on (0, 200],
* ``hyp1f1`` sums the Taylor series of 1F1(a; c; s) for 0 <= a <= c and
  s >= 0 entry by entry.  Each term is at most s^k/k! and the sum is at
  least 1, so the tail after K terms is below s^K/K! / (1 - s/(K+1))
  relative; ``_hyp1f1_terms`` fixes each s's own K so that this bound is at
  most 2^-53, with no convergence test,
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


def hyp1f1(a, c, s):
    """Confluent hypergeometric function 1F1(a; c; s) for 0 <= a <= c,
    c > 0 and s >= 0 (elementwise; inputs broadcast).

    Each entry sums its own K = ``_hyp1f1_terms(s)`` terms of the Taylor
    series in ascending k, from term_0 = 1 with
    term_(k+1) = term_k * ((a + k) / (c + k)) * (s / (k + 1)).  An entry
    sees only elementwise operations over its own K terms, so it holds the
    bits of its one-element call whatever else is in the call.  Callers
    reach negative arguments through Kummer's transformation (A&S 13.1.27),
    1F1(a; c; -s) = e^-s 1F1(c - a; c; s), which keeps every term positive.
    """
    a, c, s = (np.asarray(x, dtype=float) for x in (a, c, s))
    # NaN fails every comparison, so these also reject non-finite arguments
    if not ((a >= 0.0) & (a <= c) & (c > 0.0) & (c < math.inf)).all():
        raise DomainError("hyp1f1 requires finite a and c with 0 <= a <= c and c > 0")
    if not ((s >= 0.0) & (s < math.inf)).all():
        raise DomainError("hyp1f1 requires a finite s >= 0; use Kummer's transformation")
    # each s's own term count, searched up the sorted distinct values
    flat = s.ravel().tolist()
    n_terms, own_terms = 1, {}
    for value in sorted(set(flat)):
        n_terms = own_terms[value] = _hyp1f1_terms(value, n_terms)
    # steps[k] = s / (k + 1) while term k + 1 is one of the entry's own, else
    # 0, which ends its terms: from there on it adds exact zeros
    next_k = np.arange(1.0, n_terms).reshape((-1,) + (1,) * s.ndim)
    counts = np.reshape([own_terms[value] for value in flat], s.shape)
    steps = np.where(counts > next_k, s / next_k, 0.0)
    # buffers reused by every term: fresh temporaries of a calibration's
    # (2, points, instances) size took 2.5x the time, as each was faulted in
    ratio = np.empty(np.broadcast_shapes(a.shape, c.shape))
    shifted_c = np.empty(c.shape)
    term = np.ones(np.broadcast_shapes(ratio.shape, s.shape))
    total = term.copy()
    for k, step in enumerate(steps):
        np.add(a, k, out=ratio)
        ratio /= np.add(c, k, out=shifted_c)
        term *= ratio
        term *= step
        total += term
    return total if total.ndim else float(total)


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
