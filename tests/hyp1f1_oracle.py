"""The Taylor series of 1F1 with a convergence test: the tests' oracle for
``specfun.hyp1f1``, which sums a fixed term count per entry instead."""

import numpy as np

from dosebounds.specfun import DomainError, NumericError, _as_floats, _ret

_HYP1F1_MAX_TERMS = 10_000


def hyp1f1(a, b, z):
    """Confluent hypergeometric function 1F1(a; b; z) for b > 0.

    Plain Taylor series in z; for z < 0 (where terms alternate) the Kummer
    reflection 1F1(a;b;z) = e^z 1F1(b-a;b;-z) restores an all-positive series
    whenever b > a.  Inputs broadcast elementwise.

    It sums until two terms in a row fall below 1e-16 of the total, where
    ``specfun.hyp1f1`` sums a fixed term count per entry, so the tests use it
    as that series' independent oracle, also at negative arguments.
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
