import math

import numpy as np
import pytest

from dosebounds import specfun
from dosebounds.checks import _folded_power_expectation as folded_power_expectation
from dosebounds.checks import integrate
from dosebounds.estimator import apo_band_matrix
from dosebounds.sensitivity import (
    _EDGE_CLEARANCE,
    CMSM,
    BetaPropensity,
    BinaryMSM,
    DeltaMSM,
    DivisorEngine,
    Uniform,
    _anchored_divisor,
    _compound_shapes,
    _folded_power_bounds,
    _pow_log,
)
from dosebounds.specfun import reg_inc_beta
from hyp1f1_oracle import hyp1f1


def trust_weight(t, r, tau):
    """Trust weight tau^(r t) (1 - tau)^(r (1 - t)), scaled so that w(t) = 1.

    Evaluated in log space relative to t: the exponent is <= 0 for any tau,
    so a large precision r cannot overflow the kernel.
    """
    tau = np.asarray(tau, dtype=float)
    log_w = (_pow_log(tau, r * t) - _pow_log(t, r * t)) + (
        _pow_log(1.0 - tau, r * (1.0 - t)) - _pow_log(1.0 - t, r * (1.0 - t))
    )
    return np.exp(log_w)


def compound_law(propensity, t, r):
    """q as a density: the Beta law with the engine's compound shapes."""
    return BetaPropensity(*_compound_shapes(propensity, t, r))


def mirrored(propensity):
    """Density of 1 - T when T follows ``propensity``."""
    return BetaPropensity(propensity.beta_bar, propensity.alpha_bar)


def anchored_divisor_oracle(q, t, gamma):
    """Assemble the divisor interval term by term via quadrature."""
    s = math.log(gamma)
    growth = gamma ** abs(t)
    m1 = integrate(lambda tau: (tau - t) * q.pdf(tau), 0.0, 1.0)
    m2 = integrate(lambda tau: (tau - t) ** 2 * q.pdf(tau), 0.0, 1.0)
    d_lo = folded_power_expectation(q, gamma, -1.0) - s * growth * abs(m1)
    d_hi = (
        folded_power_expectation(q, gamma, +1.0)
        + s * growth * abs(m1)
        + 0.5 * s * s * growth * m2
    )
    return d_lo, d_hi


class TestTrustParams:
    def test_beta_midpoint(self):
        # under a flat propensity q is the trust weight itself: Beta(2, 2) here
        assert _compound_shapes(BetaPropensity(1.0, 1.0), 0.5, 2.0) == (2.0, 2.0)

    @pytest.mark.parametrize(
        "t,grid",
        [
            (0.3, np.linspace(1e-3, 1.0 - 1e-3, 301)),
            (0.0, np.linspace(1e-3, 1.0 - 1e-3, 301)),
        ],
    )
    def test_unit_peak_at_queried_dose(self, t, grid):
        if t > 0.0:
            assert trust_weight(t, 3.0, t) == pytest.approx(1.0, rel=1e-12)
        values = trust_weight(t, 3.0, grid)
        assert np.max(values) <= 1.0 + 1e-9
        peak = grid[np.argmax(values)]
        assert peak == pytest.approx(t, abs=2.5 * (grid[1] - grid[0]))

    def test_validation(self):
        # the engine checks the dose range; the trust precision is the
        # propensity's nominal one, with no override to check
        prop = BetaPropensity(2.0, 2.0)
        with pytest.raises(ValueError):
            DivisorEngine(DeltaMSM(), prop).bounds(1.2, 1.0)
        with pytest.raises(TypeError):
            DivisorEngine(DeltaMSM(), prop, trust_precision=0.0)


class TestCompound:
    def test_beta_shift(self):
        assert _compound_shapes(BetaPropensity(3.0, 3.0), 0.5, 2.0) == (4.0, 4.0)

    def test_matches_renormalized_product(self):
        propensity, t, grid = BetaPropensity(2.5, 4.0), 0.35, np.linspace(0.05, 0.95, 19)
        q = compound_law(propensity, t, 2.7)
        norm = integrate(lambda tau: trust_weight(t, 2.7, tau) * propensity.pdf(tau), 0.0, 1.0)
        oracle = trust_weight(t, 2.7, grid) * propensity.pdf(grid) / norm
        np.testing.assert_allclose(q.pdf(grid), oracle, rtol=1e-8, atol=1e-10)

    def test_moments_match_quadrature(self):
        # _anchored_divisor with zero power terms, anchor 0 and log(gamma) = s
        # reads -s E_q[tau] and s E_q[tau] + (s^2 / 2) E_q[tau^2]
        a, b = _compound_shapes(BetaPropensity(2.5, 4.0), 0.35, 2.7)
        q = BetaPropensity(a, b)
        gamma = math.e
        s = math.log(gamma)
        d_lo, d_hi = _anchored_divisor(a, b, 0.0, gamma, (0.0, 0.0))
        engine_mean = -d_lo / s
        engine_second = 2.0 * (d_hi + d_lo) / (s * s)
        mean = integrate(lambda tau: tau * q.pdf(tau), 0.0, 1.0)
        second = integrate(lambda tau: tau * tau * q.pdf(tau), 0.0, 1.0)
        assert engine_mean == pytest.approx(mean, rel=1e-8)
        assert engine_second - engine_mean**2 == pytest.approx(second - mean * mean, rel=1e-7)


def random_propensity(rng, n):
    """A Beta propensity over n random instances."""
    return BetaPropensity(rng.uniform(0.3, 80.0, n), rng.uniform(0.3, 80.0, n))


class TestDensitySplit:
    """``pdf`` = exp(log_kernel - log_normaliser), with the normaliser dose-free."""

    @pytest.mark.parametrize(
        "propensity",
        [
            BetaPropensity(1.0, 1.0),
            BetaPropensity(2.5, 4.0),
            BetaPropensity(40.0, 1.3),
        ],
    )
    def test_pdf_integrates_to_one(self, propensity):
        assert integrate(propensity.pdf, 0.0, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_pdf_matches_the_unsplit_formula(self):
        rng = np.random.default_rng(5)
        n = 400
        beta = random_propensity(rng, n)
        a, b = beta.alpha_bar, beta.beta_bar
        tau = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, n - 2)])
        ln_beta = specfun.log_gamma(a) + specfun.log_gamma(b) - specfun.log_gamma(a + b)
        old = np.exp(_pow_log(tau, a - 1.0) + _pow_log(1.0 - tau, b - 1.0) - ln_beta)
        assert beta.pdf(tau).tobytes() == old.tobytes()

    def test_cmsm_divisors_are_the_scaled_pdf(self):
        rng = np.random.default_rng(9)
        gammas = np.concatenate([[1.0], rng.uniform(1.0, 3.0, 6)])[:, None]
        edges = [0.0, 1.0, _EDGE_CLEARANCE, 1.0 - _EDGE_CLEARANCE, 2e-6, 1.0 - 2e-6]
        doses = edges + list(rng.uniform(0.0, 1.0, 8))
        propensity = random_propensity(rng, 50)
        engine = DivisorEngine(CMSM(), propensity)
        for t in doses:
            d_lo, d_hi = engine.bounds(t, gammas)
            density = propensity.pdf(np.clip(t, _EDGE_CLEARANCE, 1.0 - _EDGE_CLEARANCE))
            assert d_lo.tobytes() == (density / gammas).tobytes()
            assert d_hi.tobytes() == (density * gammas).tobytes()

    @pytest.mark.parametrize("n_doses", [5, 40])
    def test_cmsm_sweep_reads_the_normaliser_once(self, monkeypatch, n_doses):
        calls = []
        log_gamma = specfun.log_gamma

        def counted(x):
            calls.append(1)
            return log_gamma(x)

        monkeypatch.setattr(specfun, "log_gamma", counted)
        rng = np.random.default_rng(n_doses)
        propensity = BetaPropensity(rng.uniform(0.5, 50.0, 30), rng.uniform(0.5, 50.0, 30))
        prob = rng.uniform(size=(n_doses, 30))
        engine = DivisorEngine(CMSM(), propensity)
        apo_band_matrix(engine, prob, np.linspace(0.0, 1.0, n_doses), np.linspace(1.0, 2.5, 10))
        # log B(a, b) is three log-gamma calls, whatever the number of doses
        assert len(calls) == 3


class TestLambdaExpectationBounds:
    """(E_q[Gamma^-|tau|], E_q[Gamma^|tau|]), the first pair of ``_folded_power_bounds``."""

    def test_no_budget_collapses_to_one(self):
        lo, hi = _folded_power_bounds(3.0, 4.0, 1.0)[0]
        assert lo == 1.0
        assert hi == 1.0

    @pytest.mark.parametrize("gamma", [1.1, 1.5, 2.5])
    @pytest.mark.parametrize("q", [(2.4, 3.6), (7.0, 2.1)])
    def test_matches_quadrature(self, q, gamma):
        lo, hi = _folded_power_bounds(*q, gamma)[0]
        law = BetaPropensity(*q)
        assert lo == pytest.approx(folded_power_expectation(law, gamma, -1.0), rel=1e-9)
        assert hi == pytest.approx(folded_power_expectation(law, gamma, +1.0), rel=1e-9)

    def test_bracket_one(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            a, b = rng.uniform(0.5, 31.0), rng.uniform(0.5, 31.0)
            lo, hi = _folded_power_bounds(a, b, rng.uniform(1.0, 2.5))[0]
            assert lo <= 1.0 + 1e-12
            assert hi >= 1.0 - 1e-12

    def test_monotone_in_gamma(self):
        gammas = np.linspace(1.0, 2.5, 16)
        los, his = zip(*(_folded_power_bounds(3.5, 4.5, g)[0] for g in gammas))
        assert np.all(np.diff(los) <= 1e-12)
        assert np.all(np.diff(his) >= -1e-12)

    @pytest.mark.parametrize(
        "gamma", [0.9, math.nan, math.inf, [[1.0], [0.5]]], ids=["0.9", "nan", "inf", "column"]
    )
    @pytest.mark.parametrize(
        "model", [DeltaMSM(), CMSM(), Uniform(), BinaryMSM()],
        ids=["deltamsm", "cmsm", "uniform", "binarymsm"],
    )
    def test_rejects_gamma_below_one(self, model, gamma):
        with pytest.raises(ValueError, match="gamma_factor"):
            DivisorEngine(model, BetaPropensity(2.0, 2.0)).bounds(0.5, gamma)

    def test_beta_grid_broadcasts_like_the_series(self):
        rng = np.random.default_rng(8)
        a, b = rng.uniform(0.5, 61.0, 5), rng.uniform(0.5, 61.0, 5)
        gammas = np.linspace(1.0, 10.0, 7)[:, None]
        lo, hi = _folded_power_bounds(a, b, gammas)[0]
        assert lo.shape == hi.shape == (7, 5)
        s = np.log(gammas)
        np.testing.assert_allclose(hi, hyp1f1(a, a + b, s), rtol=1e-14)
        np.testing.assert_allclose(lo, hyp1f1(a, a + b, -s), rtol=1e-14)
        scalar = _folded_power_bounds(3.0, 4.0, 1.7)[0]
        assert all(isinstance(v, float) for v in scalar)


class TestElementwiseDeltaBounds:
    """Every DeltaMSM divisor entry holds the bits of its one-element call,
    whatever shapes its propensity, dose and gamma broadcast from."""

    def test_scalars_give_floats(self):
        pairs = _folded_power_bounds(3.0, 4.0, 1.7)
        assert all(type(v) is np.float64 for pair in pairs for v in pair)
        (_, up), (_, mirror) = pairs
        s = np.log(1.7)
        assert up.tobytes() == np.float64(specfun.hyp1f1(3.0, 7.0, s)).tobytes()
        assert mirror.tobytes() == np.float64(specfun.hyp1f1(4.0, 7.0, s)).tobytes()

    @pytest.mark.parametrize(
        "gamma_shape, q_shape, t_shape",
        [((1, 5), (3, 1), ()), ((5,), (5, 1), ()), ((7, 1), (5,), ()),
         ((4, 1), (5,), (4, 1)), ((2, 3, 1), (4,), (2, 3, 1)), ((1, 5), (3, 1), (3, 1)),
         ((), (5,), (3, 1)), ((3, 1), (), (3, 1)), ((6,), (6,), (6,))],
    )
    def test_bounds_equal_per_element_calls(self, gamma_shape, q_shape, t_shape):
        # the first two pairings were rejected while the 1F1 was a table
        rng = np.random.default_rng(len(gamma_shape) + 3 * len(q_shape) + 5 * len(t_shape))
        alphas, betas = rng.uniform(0.5, 41.0, (2,) + q_shape)
        gammas = rng.uniform(1.0, 10.0, gamma_shape)
        t = rng.uniform(0.0, 1.0, t_shape)
        d_lo, d_hi = DivisorEngine(DeltaMSM(), BetaPropensity(alphas, betas)).bounds(t, gammas)
        shape = np.broadcast_shapes(gamma_shape, q_shape, t_shape)
        assert d_lo.shape == d_hi.shape == shape
        alphas, betas, gammas, t = np.broadcast_arrays(alphas, betas, gammas, t)
        for idx in np.ndindex(shape):
            engine = DivisorEngine(DeltaMSM(), BetaPropensity(float(alphas[idx]), float(betas[idx])))
            one = engine.bounds(float(t[idx]), float(gammas[idx]))
            assert d_lo[idx].tobytes() == np.float64(one[0]).tobytes()
            assert d_hi[idx].tobytes() == np.float64(one[1]).tobytes()


class TestDivisorBounds:
    def test_cmsm_scales_nominal_density(self):
        prop = BetaPropensity(2.0, 2.0)
        t = 0.4
        density = float(prop.pdf(t))
        d_lo, d_hi = DivisorEngine(CMSM(), prop).bounds(t, 2.0)
        assert d_lo == pytest.approx(density / 2.0, rel=1e-12)
        assert d_hi == pytest.approx(density * 2.0, rel=1e-12)

    def test_uniform(self):
        d_lo, d_hi = DivisorEngine(Uniform(), BetaPropensity(5.0, 1.0)).bounds(0.9, 2.0)
        assert d_lo == pytest.approx(0.5)
        assert d_hi == pytest.approx(2.0)

    def test_binary_msm_balanced_odds(self):
        # symmetric propensity puts mass 1/2 on each side of the threshold
        prop = BetaPropensity(3.0, 3.0)
        d_lo, d_hi = DivisorEngine(BinaryMSM(), prop).bounds(0.7, 2.0)
        assert d_lo == pytest.approx(2.0 / 3.0, rel=1e-10)
        assert d_hi == pytest.approx(4.0 / 3.0, rel=1e-10)

    def test_binary_msm_uses_correct_arm(self):
        prop = BetaPropensity(2.0, 6.0)
        below = reg_inc_beta(2.0, 6.0, 0.5)
        gamma = 1.8
        for t, e in ((0.2, below), (0.8, 1.0 - below)):
            d_lo, d_hi = DivisorEngine(BinaryMSM(), prop).bounds(t, gamma)
            assert d_lo == pytest.approx(1.0 / (e + gamma * (1.0 - e)), rel=1e-12)
            assert d_hi == pytest.approx(gamma / (gamma * e + 1.0 - e), rel=1e-12)

    def test_gamma_one_is_exact_for_every_model(self):
        prop = BetaPropensity(2.7, 1.9)
        for model in (DeltaMSM(), Uniform(), BinaryMSM()):
            d_lo, d_hi = DivisorEngine(model, prop).bounds(0.3, 1.0)
            assert d_lo == pytest.approx(1.0, abs=1e-12)
            assert d_hi == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "prop,gamma", [(BetaPropensity(3.0, 3.0), 1.5), (BetaPropensity(4.2, 2.1), 1.8)]
    )
    def test_dose_one_matches_termwise_quadrature(self, prop, gamma):
        # at t = 1 the balanced divisor puts its whole weight on the anchor at 0
        t = 1.0
        q = compound_law(prop, t, prop.nominal_precision)
        oracle = anchored_divisor_oracle(q, t, gamma)
        d_lo, d_hi = DivisorEngine(DeltaMSM(), prop).bounds(t, gamma)
        assert d_lo == pytest.approx(oracle[0], abs=1e-7)
        assert d_hi == pytest.approx(oracle[1], abs=1e-7)

    def test_balanced_beta_mixes_both_anchors(self):
        prop = BetaPropensity(3.5, 2.0)
        t, gamma = 0.3, 1.7
        r = float(prop.nominal_precision)
        q0 = compound_law(prop, t, r)
        q1 = compound_law(mirrored(prop), 1.0 - t, r)
        lo0, hi0 = anchored_divisor_oracle(q0, t, gamma)
        lo1, hi1 = anchored_divisor_oracle(q1, 1.0 - t, gamma)
        d_lo, d_hi = DivisorEngine(DeltaMSM(), prop).bounds(t, gamma)
        assert d_lo == pytest.approx(t * lo0 + (1.0 - t) * lo1, abs=1e-7)
        assert d_hi == pytest.approx(t * hi0 + (1.0 - t) * hi1, abs=1e-7)

    def test_balanced_beta_grid_matches_flipped_compounds_and_series(self):
        # the engine reuses one 1F1 table for the mirror compound; rebuild both
        # anchors from the flipped propensity and the elementwise series
        rng = np.random.default_rng(9)
        prop = BetaPropensity(rng.uniform(1e-7, 100.0, 6), rng.uniform(1e-7, 100.0, 6))
        r = prop.nominal_precision
        gammas = np.linspace(1.0, 10.0, 9)[:, None]
        s = np.log(gammas)
        for t in (0.0, 0.37, 1.0):
            d_lo, d_hi = DivisorEngine(DeltaMSM(), prop).bounds(t, gammas)
            want_lo = want_hi = 0.0
            for weight, anchor, dose in ((t, prop, t), (1.0 - t, mirrored(prop), 1.0 - t)):
                a, b = _compound_shapes(anchor, dose, r)
                c = a + b
                growth = gammas**dose
                m1 = a / c - dose
                m2 = a * b / (c * c * (c + 1.0)) + m1 * m1
                want_lo = want_lo + weight * (hyp1f1(a, c, -s) - s * growth * np.abs(m1))
                want_hi = want_hi + weight * (
                    hyp1f1(a, c, s) + s * growth * np.abs(m1) + 0.5 * s * s * growth * m2
                )
            np.testing.assert_allclose(d_lo, want_lo, rtol=1e-12, atol=1e-13)
            np.testing.assert_allclose(d_hi, want_hi, rtol=1e-12)

    def test_balanced_beta_mirror_symmetry(self):
        gamma = 2.1
        rng = np.random.default_rng(42)
        for _ in range(20):
            a, b = rng.uniform(0.8, 20.0, size=2)
            t = rng.uniform(0.0, 1.0)
            fwd = DivisorEngine(DeltaMSM(), BetaPropensity(a, b)).bounds(t, gamma)
            rev = DivisorEngine(DeltaMSM(), BetaPropensity(b, a)).bounds(
                1.0 - t, gamma
            )
            assert fwd[0] == pytest.approx(rev[0], rel=1e-12)
            assert fwd[1] == pytest.approx(rev[1], rel=1e-12)

    def test_admissible_models_bracket_one(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            a, b = rng.uniform(0.8, 30.0, size=2)
            prop = BetaPropensity(a, b)
            t = rng.uniform(0.02, 0.98)
            gamma = rng.uniform(1.0, 2.5)
            for model in (DeltaMSM(), Uniform(), BinaryMSM()):
                d_lo, d_hi = DivisorEngine(model, prop).bounds(t, gamma)
                assert d_lo <= 1.0 + 1e-10
                assert d_hi >= 1.0 - 1e-10

    def test_monotone_in_gamma(self):
        prop = BetaPropensity(4.0, 3.0)
        gammas = np.linspace(1.0, 2.5, 20)
        for model in (DeltaMSM(), CMSM(), Uniform(), BinaryMSM()):
            results = [DivisorEngine(model, prop).bounds(0.35, g) for g in gammas]
            los = [d_lo for d_lo, _ in results]
            his = [d_hi for _, d_hi in results]
            assert np.all(np.diff(los) <= 1e-12)
            assert np.all(np.diff(his) >= -1e-12)

    def test_sharp_trust_collapses_onto_queried_dose(self):
        # with an extremely sharp trust weight the compound collapses onto
        # the queried dose and the expectation bounds approach gamma^(+-|t|)
        gamma = 2.0
        prop, t, r = BetaPropensity(3.0, 5.0), 0.3, 1e6
        lo, hi = _folded_power_bounds(*_compound_shapes(prop, t, r), gamma)[0]
        assert lo == pytest.approx(gamma ** (-abs(t)), abs=1e-4)
        assert hi == pytest.approx(gamma ** (+abs(t)), abs=1e-4)

    def test_divisor_floor_can_cross_zero(self):
        d_lo, _ = DivisorEngine(Uniform(), BetaPropensity(1.0, 1.0)).bounds(0.5, 2.0)
        assert d_lo > 0.0
        # a propensity concentrated far from the queried dose loses d_lo > 0
        prop = BetaPropensity(0.9, 60.0)
        d_lo, _ = DivisorEngine(DeltaMSM(), prop).bounds(1.0, 2.5)
        assert d_lo <= 0.0

    def test_array_propensity_matches_scalar_loop(self):
        alphas = np.array([1.5, 3.0, 7.0])
        betas = np.array([2.0, 2.5, 1.2])
        t, gamma = 0.4, 1.9
        for model in (DeltaMSM(), CMSM(), Uniform(), BinaryMSM()):
            batch = DivisorEngine(model, BetaPropensity(alphas, betas)).bounds(t, gamma)
            batch = np.broadcast_arrays(*batch)
            for i in range(3):
                single = DivisorEngine(
                    model, BetaPropensity(float(alphas[i]), float(betas[i]))
                ).bounds(t, gamma)
                assert batch[0][i] == pytest.approx(single[0], rel=1e-12)
                assert batch[1][i] == pytest.approx(single[1], rel=1e-12)

    def test_engine_cache_consistency(self):
        prop = BetaPropensity(3.0, 4.0)
        engine = DivisorEngine(DeltaMSM(), prop)
        first = engine.bounds(0.3, 1.5)
        again = engine.bounds(0.3, 2.0)
        fresh = DivisorEngine(DeltaMSM(), prop).bounds(0.3, 2.0)
        assert again[0] == pytest.approx(fresh[0], rel=1e-14)
        assert again[1] == pytest.approx(fresh[1], rel=1e-14)
        assert first[0] >= again[0]

    def test_validation(self):
        prop = BetaPropensity(2.0, 2.0)
        with pytest.raises(ValueError):
            DivisorEngine(DeltaMSM(), prop).bounds(0.5, 0.99)
        # neither model has a setting: one DeltaMSM scheme, one BinaryMSM threshold
        with pytest.raises(TypeError):
            DeltaMSM("beta")
        with pytest.raises(TypeError):
            BinaryMSM(threshold=0.4)
        with pytest.raises(TypeError):
            DivisorEngine(DeltaMSM(), prop, trust_precision=-1.0)

    @pytest.mark.parametrize(
        "t", [1.2, -0.1, math.nan, np.array([0.5, math.nan])],
        ids=["above", "below", "nan", "nan-in-array"],
    )
    @pytest.mark.parametrize(
        "model", [DeltaMSM(), CMSM(), Uniform(), BinaryMSM()], ids=lambda m: type(m).__name__
    )
    def test_rejects_a_dose_outside_the_unit_interval(self, model, t):
        engine = DivisorEngine(model, BetaPropensity(np.array([2.0, 3.5]), np.array([4.0, 1.5])))
        for edge in (0.0, 1.0):
            engine.bounds(edge, 1.5)
        with pytest.raises(ValueError, match=r"doses must lie in \[0, 1\]"):
            engine.bounds(t, 1.5)


class TestDefaultTrustPrecision:
    def test_matches_nominal_precision(self):
        prop = BetaPropensity(3.0, 5.0)
        assert prop.nominal_precision == pytest.approx(6.0)
        assert DivisorEngine(DeltaMSM(), prop).trust_precision == pytest.approx(6.0)

    def test_beta_floor(self):
        # diffuse propensities would give a non-positive heuristic precision
        assert BetaPropensity(0.5, 0.5).nominal_precision > 0.0
