import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dosebounds import specfun
from dosebounds.checks import integrate
from dosebounds.models import PROPENSITY_CAP
from dosebounds.specfun import (
    DomainError,
    NumericError,
    digamma,
    erf,
    hyp1f1,
    log_gamma,
    reg_inc_beta,
)
from dosebounds.specfun import _hyp1f1_terms as hyp1f1_terms
from hyp1f1_oracle import hyp1f1 as taylor


def beta_pdf(tau, a, b):
    lnb = log_gamma(a) + log_gamma(b) - log_gamma(a + b)
    return np.exp((a - 1.0) * np.log(tau) + (b - 1.0) * np.log1p(-tau) - lnb)


class TestLogGamma:
    def test_factorial_anchor(self):
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_half(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    def test_domain(self):
        for bad in (0.0, -1.5, math.nan):
            with pytest.raises(DomainError):
                log_gamma(bad)

    def test_array_input(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(log_gamma(xs), [0.0, 0.0, math.log(2.0), math.log(6.0)], atol=1e-14)


class TestDigamma:
    # exact decimal expansions, so each oracle value is correctly rounded
    EULER_GAMMA = Fraction("0.57721566490153286060651209008240243104215933593992")
    LN2 = Fraction("0.69314718055994530941723212145817656807550013436025")
    # digamma's stated bound, relative to max(1, |psi(x)| + 1/x) on
    # (0, 2 * PROPENSITY_CAP]; mpmath measures at most 1.0e-15 there
    BOUND = 2e-15

    def assert_within_bound(self, x, oracle, bound):
        x = np.asarray(x, dtype=float)
        oracle = np.asarray(oracle, dtype=float)
        scale = np.maximum(1.0, np.abs(oracle) + 1.0 / x)
        err = np.abs(digamma(x) - oracle) / scale
        assert err.max() <= bound, (x[err.argmax()], err.max())

    def test_euler_mascheroni(self):
        assert digamma(1.0) == pytest.approx(-0.5772156649015329, abs=1e-12)

    def test_recurrence(self):
        x = 3.7
        assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-12)

    def test_within_the_bound_at_integers(self):
        # psi(n) = -gamma + H_(n-1) for n = 1..200
        top = int(2 * PROPENSITY_CAP)
        psi = accumulate((Fraction(1, k) for k in range(1, top)), initial=-self.EULER_GAMMA)
        self.assert_within_bound(np.arange(1, top + 1), [float(v) for v in psi], self.BOUND)

    def test_within_the_bound_at_half_integers(self):
        # psi(n + 1/2) = -gamma - 2 ln 2 + sum_(k<=n) 2 / (2k - 1) for n = 0..199
        top = int(2 * PROPENSITY_CAP)
        start = -self.EULER_GAMMA - 2 * self.LN2
        psi = accumulate((Fraction(2, 2 * k - 1) for k in range(1, top)), initial=start)
        self.assert_within_bound(np.arange(top) + 0.5, [float(v) for v in psi], self.BOUND)

    def test_within_the_bound_near_zero(self):
        # psi(x) = -1/x - gamma + zeta(2) x - zeta(3) x^2 + O(x^3); the
        # dropped terms are below 1e-24 here
        x = np.geomspace(1e-300, 1e-8, 60)
        zeta2, zeta3 = math.pi**2 / 6.0, 1.2020569031595942
        oracle = -1.0 / x - float(self.EULER_GAMMA) + zeta2 * x - zeta3 * x * x
        self.assert_within_bound(x, oracle, self.BOUND)

    def test_matches_log_gamma_slope(self):
        # central differences of math.lgamma with a step of 1e-5 * x are the
        # independent oracle off the exact points; their own truncation and
        # rounding error is below 2e-10 on this range
        x = np.geomspace(1e-12, 2.0 * PROPENSITY_CAP, 1001)
        step = 1e-5 * x
        oracle = [(math.lgamma(v + h) - math.lgamma(v - h)) / (2.0 * h) for v, h in zip(x, step)]
        self.assert_within_bound(x, oracle, 1e-9)

    def test_batching_is_exact(self):
        # the propensity fit evaluates alpha, beta and alpha + beta in one call
        rng = np.random.default_rng(21)
        alpha = rng.uniform(0.0, PROPENSITY_CAP, 187)
        beta = np.geomspace(1e-12, PROPENSITY_CAP, 188)
        edges = np.array([9.999999999999998, 10.0, 2.0 * PROPENSITY_CAP])
        spread = rng.uniform(0.0, 2.0 * PROPENSITY_CAP, 3000)
        parts = [alpha, beta, alpha[:100] + beta[:100], edges, spread]
        whole = digamma(np.concatenate(parts))
        assert whole.tobytes() == np.concatenate([digamma(p) for p in parts]).tobytes()
        head = np.concatenate(parts[:4])
        one_by_one = np.array([digamma(float(v)) for v in head])
        assert one_by_one.tobytes() == whole[: len(head)].tobytes()

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma(0.0)
        with pytest.raises(DomainError):
            digamma(-3.0)


class TestErf:
    def test_quadrature_anchor(self):
        oracle = 2.0 / math.sqrt(math.pi) * integrate(lambda u: np.exp(-u * u), 0.0, 1.0)
        assert erf(1.0) == pytest.approx(oracle, abs=1e-10)

    @given(st.floats(-6.0, 6.0))
    @settings(max_examples=60, deadline=None)
    def test_odd_and_bounded(self, x):
        assert erf(-x) == pytest.approx(-erf(x), abs=1e-15)
        assert abs(erf(x)) <= 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            erf(math.inf)


class TestTaylorOracle:
    """The convergence-tested series that ``hyp1f1`` is checked against."""

    def test_at_zero(self):
        assert taylor(2.5, 6.0, 0.0) == 1.0

    def test_exponential_special_case(self):
        # 1F1(1; 2; z) = (e^z - 1) / z
        z = 0.8
        assert taylor(1.0, 2.0, z) == pytest.approx((math.exp(z) - 1.0) / z, rel=1e-12)

    def test_beta_mgf_anchor(self):
        oracle = integrate(lambda tau: np.exp(0.7 * tau) * beta_pdf(tau, 2.5, 3.5), 0.0, 1.0)
        assert taylor(2.5, 6.0, 0.7) == pytest.approx(oracle, abs=1e-8)

    def test_kummer_reflection_consistency(self):
        a, b, z = 1.7, 4.2, 1.1
        assert taylor(a, b, -z) == pytest.approx(math.exp(-z) * taylor(b - a, b, z), rel=1e-12)

    def test_beta_mgf_random_parameters(self):
        # moment generating function of Beta(A, B) equals 1F1(A; A+B; z)
        rng = np.random.default_rng(42)
        for _ in range(40):
            a = rng.uniform(0.5, 50.0)
            b = rng.uniform(0.5, 50.0)
            z = rng.uniform(-math.log(2.5), math.log(2.5))
            oracle = integrate(lambda tau: np.exp(z * tau) * beta_pdf(tau, a, b), 0.0, 1.0)
            assert taylor(a, a + b, z) == pytest.approx(oracle, rel=1e-7)

    def test_array_broadcast(self):
        a = np.array([1.0, 2.0, 3.0])
        out = taylor(a, a + 1.0, 0.3)
        expected = [taylor(float(ai), float(ai) + 1.0, 0.3) for ai in a]
        np.testing.assert_allclose(out, expected, rtol=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            taylor(1.0, 0.0, 0.5)
        with pytest.raises(DomainError):
            taylor(1.0, -2.0, 0.5)


def alternating_series(a, c, z):
    """1F1(a; c; z) for z < 0 as the plain alternating Taylor sum, no reflection."""
    term, terms = 1.0, [1.0]
    for k in range(400):
        term *= (a + k) * z / ((c + k) * (k + 1.0))
        terms.append(term)
    return math.fsum(terms)


# Compound Beta shapes of fitted heads: a = alpha_bar + r t and
# c = alpha_bar + beta_bar + r, with alpha_bar, beta_bar inside (0, PROPENSITY_CAP)
# and r up to the default trust precision alpha_bar + beta_bar - 2.
compound_shapes = st.tuples(
    st.floats(1e-7, PROPENSITY_CAP),
    st.floats(1e-7, PROPENSITY_CAP),
    st.floats(0.0, 1.0),
    st.floats(1e-6, 2.0 * PROPENSITY_CAP),
).map(lambda v: (v[0] + v[3] * v[2], v[0] + v[1] + v[3]))


def python_series(a, c, s):
    """``hyp1f1``'s sum for one entry in plain Python floats: its own term
    count, in ascending k, with the same products in the same order."""
    term = total = 1.0
    for k in range(hyp1f1_terms(s) - 1):
        term = term * ((a + k) / (c + k)) * (s / (k + 1.0))
        total += term
    return total


class TestHyp1F1:
    @given(st.lists(compound_shapes, min_size=1, max_size=6), st.floats(1.0, 10.0))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_series_within_the_tail_bound(self, shapes, gamma):
        a, c = np.array(shapes).T
        s = np.array([0.0, 0.5 * math.log(gamma), math.log(gamma)])
        n_terms = hyp1f1_terms(s.max())
        # truncation (proven) plus the rounding of two sums of n_terms positive terms
        tol = specfun.HYP1F1_TAIL_BOUND + 2 * n_terms * np.finfo(float).eps
        series = taylor(a, c, s[:, None])
        np.testing.assert_allclose(hyp1f1(a, c, s[:, None]), series, rtol=tol, atol=0.0)

    @given(compound_shapes, st.floats(1.0, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_kummer_transformation(self, shape, gamma):
        a, c = shape
        s = math.log(gamma)
        via_kummer = math.exp(-s) * hyp1f1(c - a, c, s)
        assert via_kummer == pytest.approx(taylor(a, c, -s), rel=1e-14)
        # the alternating sum cancels by up to e^(2s) = gamma^2
        assert via_kummer == pytest.approx(alternating_series(a, c, -s), rel=1e-13 * gamma**2)

    def test_zero_argument_is_exactly_one(self):
        assert hyp1f1([1e-7, 3.0, 150.0], [400.0, 3.0, 399.0], 0.0).tolist() == [1.0, 1.0, 1.0]
        assert hyp1f1_terms(0.0) == 1

    def test_edge_shapes(self):
        s = np.array([0.4, 2.0])
        np.testing.assert_array_equal(hyp1f1(0.0, 2.0, s), [1.0, 1.0])
        np.testing.assert_allclose(hyp1f1(2.5, 2.5, s), np.exp(s), rtol=1e-15)
        assert type(hyp1f1(2.5, 2.5, 0.4)) is float

    @pytest.mark.parametrize(
        "s_max", [1e-300, 1e-3, 0.5, math.log(2.5), math.log(10.0), 40.0, 700.0]
    )
    def test_term_count_is_the_smallest_that_meets_the_bound(self, s_max):
        def log_tail(k):
            return k * math.log(s_max) - math.lgamma(k + 1.0) - math.log1p(-s_max / (k + 1.0))

        k = hyp1f1_terms(s_max)
        assert k + 1 > s_max
        assert log_tail(k) <= math.log(specfun.HYP1F1_TAIL_BOUND)
        if k > 1 and k > s_max:
            assert log_tail(k - 1) > math.log(specfun.HYP1F1_TAIL_BOUND)

    @pytest.mark.parametrize(
        "s_max, n_terms", [(math.log(2.5), 18), (math.log(1e6), 64), (700.0, 1936)]
    )
    def test_each_entry_sums_its_own_terms_in_ascending_order(self, s_max, n_terms):
        # the golden files pin only the package's own term counts
        assert hyp1f1_terms(s_max) == n_terms
        rng = np.random.default_rng(n_terms)
        c = rng.uniform(1e-3, 400.0, 12)
        a = c * rng.uniform(0.0, 1.0, 12)
        a[0] = c[0]
        a[1] = 0.0
        s = np.concatenate([[s_max, 0.0, 0.5 * s_max], rng.uniform(0.0, s_max, 9)])
        got = hyp1f1(a, c, s)
        for i in range(len(s)):
            want = python_series(float(a[i]), float(c[i]), float(s[i]))
            assert got[i].tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize(
        "s_shape, a_shape, c_shape",
        [((4, 1, 1), (3, 5), (1, 5)), ((6,), (6,), (6,)), ((1, 5), (3, 1), (3, 1)),
         ((5,), (5, 1), (5, 1)), ((), (7,), (7,)), ((2, 3, 1), (2, 3, 4), (1, 1, 4)),
         ((3, 1), (2, 3, 4), (3, 4)), ((7, 1), (2, 1, 5), (1, 5)), ((4,), (1,), (4,)),
         ((), (), ())],
    )
    def test_each_entry_equals_its_one_element_call(self, s_shape, a_shape, c_shape):
        rng = np.random.default_rng(len(s_shape) + 3 * len(a_shape) + 7 * len(c_shape))
        c = rng.uniform(1e-3, 400.0, c_shape)
        a = c * rng.uniform(0.0, 1.0, a_shape)
        s = np.log(rng.uniform(1.0, 10.0, s_shape))
        if s.size > 2:  # repeated and zero arguments share a call with the others
            s.flat[0], s.flat[1] = 0.0, s.flat[2]
        got = np.asarray(hyp1f1(a, c, s))
        assert got.shape == np.broadcast_shapes(s_shape, a_shape, c_shape)
        a, c, s = np.broadcast_arrays(a, c, s)
        for idx in np.ndindex(got.shape):
            one = hyp1f1(float(a[idx]), float(c[idx]), float(s[idx]))
            assert got[idx].tobytes() == np.float64(one).tobytes()

    def test_empty_arguments_give_an_empty_result(self):
        assert hyp1f1(np.empty((0, 3)), 2.0, np.full(3, 0.5)).shape == (0, 3)
        assert hyp1f1(1.0, 2.0, np.empty(0)).shape == (0,)

    def test_large_arguments_do_not_overflow(self):
        assert hyp1f1(2.5, 2.5, 700.0) == pytest.approx(math.exp(700.0), rel=1e-12)

    def test_domain(self):
        for a, c, s in ((1.0, 2.0, -0.1), (3.0, 2.0, 0.5), (-1.0, 2.0, 0.5), (0.0, 0.0, 0.5),
                        (1.0, 2.0, math.inf), (math.nan, 2.0, 0.5)):
            with pytest.raises(DomainError):
                hyp1f1(a, c, s)
        with pytest.raises(DomainError):
            hyp1f1_terms(-1.0)


def scalar_beta_cf(a, b, x):
    """Scalar modified Lentz iteration, one entry per call."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (tiny if abs(d) < tiny else d)
    h = d
    for m in range(1, 301):
        m2 = 2 * m
        for coeff in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + coeff * d
            d = 1.0 / (tiny if abs(d) < tiny else d)
            c = 1.0 + coeff / c
            c = tiny if abs(c) < tiny else c
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise AssertionError("scalar continued fraction stalled")


def scalar_reg_inc_beta(a, b, x):
    """Oracle for ``reg_inc_beta``: one scalar continued fraction per call."""
    if x in (0.0, 1.0):
        return x
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * scalar_beta_cf(a, b, x) / a
    return 1.0 - front * scalar_beta_cf(b, a, 1.0 - x) / b


class TestRegIncBeta:
    def test_matches_the_scalar_continued_fraction(self):
        # the continued fraction is the same arithmetic; numpy's exp, log and
        # log1p in the prefactor move 61 of these 1,000 values, by at most
        # 1.6e-15, and 1e-14 is about 45 ulps of 1
        rng = np.random.default_rng(11)
        a, b = rng.uniform(0.5, 30.0, size=(2, 1000))
        x = np.concatenate([rng.uniform(0.0, 1.0, size=990), [0.0, 1.0], np.full(8, 0.5)])
        want = [scalar_reg_inc_beta(*args) for args in zip(a, b, x)]
        np.testing.assert_allclose(reg_inc_beta(a, b, x), want, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("random_x", [False, True])
    def test_one_element_calls_equal_the_batch(self, random_x):
        rng = np.random.default_rng(12)
        a, b = rng.uniform(0.5, 30.0, size=(2, 250))
        x = rng.uniform(0.0, 1.0, size=250) if random_x else np.full(250, 0.5)
        batch = reg_inc_beta(a, b, x)
        solo = [reg_inc_beta(*args) for args in zip(a, b, x)]
        assert all(isinstance(v, float) for v in solo)
        np.testing.assert_array_equal(solo, batch)

    def test_a_stalled_entry_raises(self):
        # about sqrt(1e7) steps would be needed; the iteration stops at 300
        with pytest.raises(NumericError):
            reg_inc_beta(1e7, 1e7, 0.5)
        with pytest.raises(NumericError):
            reg_inc_beta(np.array([2.0, 1e7, 3.0]), np.array([5.0, 1e7, 4.0]), 0.5)
        assert np.all(np.isfinite(reg_inc_beta(np.array([2.0, 3.0]), np.array([5.0, 4.0]), 0.5)))

    def test_empty_and_shaped_inputs(self):
        assert reg_inc_beta(np.array([]), 2.0, 0.5).shape == (0,)
        grid = np.array([[0.0, 0.3], [1.0, 0.9]])
        got = reg_inc_beta(2.0, 3.0, grid)
        assert got.shape == (2, 2)
        np.testing.assert_array_equal(got, [[reg_inc_beta(2.0, 3.0, v) for v in r] for r in grid])

    def test_quadrature_anchor(self):
        oracle = integrate(lambda tau: beta_pdf(tau, 2.0, 5.0), 0.0, 0.4)
        assert reg_inc_beta(2.0, 5.0, 0.4) == pytest.approx(oracle, abs=1e-9)

    def test_endpoints(self):
        assert reg_inc_beta(3.0, 4.0, 0.0) == 0.0
        assert reg_inc_beta(3.0, 4.0, 1.0) == 1.0

    def test_uniform_case(self):
        assert reg_inc_beta(1.0, 1.0, 0.37) == pytest.approx(0.37, rel=1e-12)

    @given(
        st.floats(0.5, 20.0),
        st.floats(0.5, 20.0),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=60, deadline=None)
    def test_complement_identity(self, a, b, x):
        lhs = reg_inc_beta(a, b, x)
        rhs = 1.0 - reg_inc_beta(b, a, 1.0 - x)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert 0.0 <= lhs <= 1.0

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 1.0, 21)
        vals = reg_inc_beta(3.3, 1.7, xs)
        assert np.all(np.diff(vals) >= 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_inc_beta(0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            reg_inc_beta(1.0, 1.0, 1.5)
