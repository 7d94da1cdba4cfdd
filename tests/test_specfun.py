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
    digamma,
    erf,
    hyp1f1,
    hyp1f1_grid,
    log_gamma,
    reg_inc_beta,
)
from dosebounds.specfun import _hyp1f1_terms as hyp1f1_terms


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


class TestHyp1F1:
    def test_at_zero(self):
        assert hyp1f1(2.5, 6.0, 0.0) == 1.0

    def test_exponential_special_case(self):
        # 1F1(1; 2; z) = (e^z - 1) / z
        z = 0.8
        assert hyp1f1(1.0, 2.0, z) == pytest.approx((math.exp(z) - 1.0) / z, rel=1e-12)

    def test_beta_mgf_anchor(self):
        oracle = integrate(lambda tau: np.exp(0.7 * tau) * beta_pdf(tau, 2.5, 3.5), 0.0, 1.0)
        assert hyp1f1(2.5, 6.0, 0.7) == pytest.approx(oracle, abs=1e-8)

    def test_kummer_reflection_consistency(self):
        a, b, z = 1.7, 4.2, 1.1
        assert hyp1f1(a, b, -z) == pytest.approx(math.exp(-z) * hyp1f1(b - a, b, z), rel=1e-12)

    def test_beta_mgf_random_parameters(self):
        # moment generating function of Beta(A, B) equals 1F1(A; A+B; z)
        rng = np.random.default_rng(42)
        for _ in range(40):
            a = rng.uniform(0.5, 50.0)
            b = rng.uniform(0.5, 50.0)
            z = rng.uniform(-math.log(2.5), math.log(2.5))
            oracle = integrate(lambda tau: np.exp(z * tau) * beta_pdf(tau, a, b), 0.0, 1.0)
            assert hyp1f1(a, a + b, z) == pytest.approx(oracle, rel=1e-7)

    def test_array_broadcast(self):
        a = np.array([1.0, 2.0, 3.0])
        out = hyp1f1(a, a + 1.0, 0.3)
        expected = [hyp1f1(float(ai), float(ai) + 1.0, 0.3) for ai in a]
        np.testing.assert_allclose(out, expected, rtol=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            hyp1f1(1.0, 0.0, 0.5)
        with pytest.raises(DomainError):
            hyp1f1(1.0, -2.0, 0.5)


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


class TestHyp1F1Grid:
    @given(st.lists(compound_shapes, min_size=1, max_size=6), st.floats(1.0, 10.0))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_series_within_the_tail_bound(self, shapes, gamma):
        a, c = np.array(shapes).T
        s = np.array([0.0, 0.5 * math.log(gamma), math.log(gamma)])
        n_terms = hyp1f1_terms(s.max())
        # truncation (proven) plus the rounding of two sums of n_terms positive terms
        tol = specfun.HYP1F1_TAIL_BOUND + 2 * n_terms * np.finfo(float).eps
        series = hyp1f1(a, c, s[:, None])
        np.testing.assert_allclose(hyp1f1_grid(a, c, s), series, rtol=tol, atol=0.0)

    @given(compound_shapes, st.floats(1.0, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_kummer_transformation(self, shape, gamma):
        a, c = shape
        s = math.log(gamma)
        via_kummer = math.exp(-s) * hyp1f1_grid(c - a, c, s)[0, 0]
        assert via_kummer == pytest.approx(hyp1f1(a, c, -s), rel=1e-14)
        # the alternating sum cancels by up to e^(2s) = gamma^2
        assert via_kummer == pytest.approx(alternating_series(a, c, -s), rel=1e-13 * gamma**2)

    def test_zero_argument_is_exactly_one(self):
        table = hyp1f1_grid([1e-7, 3.0, 150.0], [400.0, 3.0, 399.0], [0.0])
        assert table.tolist() == [[1.0, 1.0, 1.0]]
        assert hyp1f1_terms(0.0) == 1

    def test_edge_shapes(self):
        s = np.array([0.4, 2.0])
        np.testing.assert_array_equal(hyp1f1_grid(0.0, 2.0, s)[:, 0], [1.0, 1.0])
        np.testing.assert_allclose(hyp1f1_grid(2.5, 2.5, s)[:, 0], np.exp(s), rtol=1e-15)

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

    @pytest.mark.parametrize("n_cols", [1, 2, 500, 1500])
    @pytest.mark.parametrize(
        "s_max, n_terms", [(math.log(2.5), 18), (math.log(1e6), 64), (700.0, 1936)]
    )
    def test_coefficient_table_is_the_cumprod_of_its_ratios(self, s_max, n_terms, n_cols):
        # the golden files pin only the package's own table shapes
        assert hyp1f1_terms(s_max) == n_terms
        rng = np.random.default_rng(n_cols)
        c = rng.uniform(1e-3, 400.0, n_cols)
        a = c * rng.uniform(0.0, 1.0, n_cols)
        a[0] = c[0]
        a[1:2] = 0.0
        k = np.arange(n_terms - 1, dtype=float)
        coeff = np.ones((n_terms, n_cols))
        np.cumprod((a + k[:, None]) / (c + k[:, None]), axis=0, out=coeff[1:])
        assert specfun._pochhammer_table(a, c, n_terms).tobytes() == coeff.tobytes()
        # each row is its own matrix-vector product over its own term count,
        # whatever order the s come in
        s = np.concatenate([[s_max, 0.0, 0.5 * s_max], rng.uniform(0.0, s_max, 8)])
        for row, s_i in zip(hyp1f1_grid(a, c, s), s):
            n = hyp1f1_terms(s_i)
            s_pow = np.ones(n)
            np.cumprod(s_i / (k[: n - 1] + 1.0), out=s_pow[1:])
            assert row.tobytes() == (s_pow @ coeff[:n]).tobytes()

    @pytest.mark.parametrize("n_cols", [1, 2, 500])
    def test_a_row_of_shapes_per_s_equals_the_one_s_calls(self, n_cols):
        # row i reads only s_i's own shapes, with the bits of the one-s call
        rng = np.random.default_rng(100 + n_cols)
        s = np.concatenate([[0.0, math.log(2.5), 0.0], rng.uniform(0.0, math.log(10.0), 13)])
        c = rng.uniform(1e-3, 400.0, (len(s), n_cols))
        a = c * rng.uniform(0.0, 1.0, c.shape)
        a[:, 0] = c[:, 0]
        table = hyp1f1_grid(a, c, s)
        assert table.shape == (len(s), n_cols)
        for i, s_i in enumerate(s):
            assert table[i].tobytes() == hyp1f1_grid(a[i], c[i], [s_i])[0].tobytes()
        with pytest.raises(DomainError, match="one row of shapes per s"):
            hyp1f1_grid(a[:3], c[:3], s)

    def test_large_arguments_do_not_overflow(self):
        s = 700.0
        value = hyp1f1_grid(2.5, 2.5, [s])[0, 0]
        assert value == pytest.approx(math.exp(s), rel=1e-12)

    def test_domain(self):
        for a, c, s in ((1.0, 2.0, -0.1), (3.0, 2.0, 0.5), (-1.0, 2.0, 0.5), (0.0, 0.0, 0.5),
                        (1.0, 2.0, math.inf), (math.nan, 2.0, 0.5)):
            with pytest.raises(DomainError):
                hyp1f1_grid(a, c, s)
        with pytest.raises(DomainError):
            hyp1f1_terms(-1.0)


class TestRegIncBeta:
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
