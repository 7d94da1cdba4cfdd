import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dosebounds import checks
from dosebounds.estimator import (
    _WEIGHT_CAP,
    DegenerateDrawsError,
    IntervalCurve,
    _bernoulli_extremes,
    _max_ratio_sorted,
    apo_band_matrix,
    apo_interval,
    cacd_interval,
    capo_interval,
    extremize,
    outcome_draws,
)
from dosebounds.models import FittedModels
from dosebounds.sensitivity import (
    CMSM,
    BetaPropensity,
    BinaryMSM,
    DeltaMSM,
    DivisorEngine,
    PartialIdentificationError,
    Uniform,
)


def brute_force_ratio(f, w_lo, w_hi, direction):
    """Extremum over every corner of the weight box."""
    best = None
    for corner in itertools.product(*zip(w_lo, w_hi)):
        total = sum(corner)
        if total == 0.0:
            continue
        value = sum(w * fi for w, fi in zip(corner, f)) / total
        if best is None:
            best = value
        else:
            best = max(best, value) if direction == "max" else min(best, value)
    return best


def make_draws(f, w_lo, w_hi):
    return tuple(np.asarray(a, dtype=float) for a in (f, w_lo, w_hi))


class BernoulliStub:
    """Outcome model with a fixed success probability per instance."""

    def __init__(self, prob_fn):
        self.prob_fn = prob_fn

    def predict(self, x, t):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return float(self.prob_fn(x, t))
        return np.array([self.prob_fn(row, t) for row in x])

    def outcome_support(self, x, t):
        p = float(self.prob_fn(np.asarray(x, dtype=float), t))
        return np.array([0.0, 1.0]), np.array([1.0 - p, p])


class PropensityStub:
    """Returns fixed Beta parameters, one row per instance."""

    def __init__(self, alphas, betas):
        self.alphas = np.asarray(alphas, dtype=float)
        self.betas = np.asarray(betas, dtype=float)

    def predict(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            i = int(x[0])
            return BetaPropensity(float(self.alphas[i]), float(self.betas[i]))
        idx = x[:, 0].astype(int)
        return BetaPropensity(self.alphas[idx], self.betas[idx])


class TestExtremize:
    def test_worked_example(self):
        draws = make_draws([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0])
        assert extremize(*draws, "max") == pytest.approx(2.25, abs=1e-14)
        assert extremize(*draws, "min") == pytest.approx(1.75, abs=1e-14)

    def test_bernoulli_worked_example(self):
        # p(Y=1) = 0.7 with divisor box [0.5, 2.0]
        draws = make_draws([0.0, 1.0], [0.15, 0.35], [0.6, 1.4])
        assert extremize(*draws, "max") == pytest.approx(1.4 / 1.55, rel=1e-14)
        assert extremize(*draws, "min") == pytest.approx(0.35 / 0.95, rel=1e-14)

    def test_fixed_weights_reduce_to_weighted_mean(self):
        rng = np.random.default_rng(42)
        f = rng.normal(size=9)
        w = rng.uniform(0.1, 2.0, size=9)
        draws = make_draws(f, w, w)
        expected = float(np.sum(f * w) / np.sum(w))
        assert extremize(*draws, "max") == pytest.approx(expected, rel=1e-13)
        assert extremize(*draws, "min") == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("direction", ["max", "min"])
    def test_matches_corner_enumeration(self, direction):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            f = rng.normal(size=n)
            w_lo = rng.uniform(0.0, 1.0, size=n)
            w_hi = w_lo + rng.uniform(0.0, 1.0, size=n)
            if not np.any(w_hi > 0.0):
                continue
            draws = make_draws(f, w_lo, w_hi)
            assert extremize(*draws, direction) == pytest.approx(
                brute_force_ratio(*draws, direction), abs=1e-12
            )

    def test_order_invariance_with_ties(self):
        # ties keep the order they are given in, so a permutation may change
        # the summation order but not the value beyond rounding
        rng = np.random.default_rng(42)
        f = np.array([0.0, 1.0, 1.0, 1.0, 2.0, 2.0])
        i = np.arange(len(f))
        draws = make_draws(f, 0.1 * (i + 1), 0.5 * (i + 1))
        reference_max = extremize(*draws, "max")
        reference_min = extremize(*draws, "min")
        for _ in range(20):
            order = rng.permutation(len(f))
            shuffled = [a[order] for a in draws]
            assert extremize(*shuffled, "max") == pytest.approx(reference_max, rel=1e-15)
            assert extremize(*shuffled, "min") == pytest.approx(reference_min, rel=1e-15)

    def test_validation(self):
        draws = make_draws([1.0], [0.5], [1.0])
        with pytest.raises(ValueError):
            extremize(*draws, "up")
        with pytest.raises(ValueError):
            extremize([], [], [], "max")
        with pytest.raises(DegenerateDrawsError):
            extremize(*make_draws([1.0, 2.0], [0.0, 0.0], [0.0, 0.0]), "max")
        with pytest.raises(ValueError):
            extremize([1.0], [-0.1], [1.0])
        with pytest.raises(ValueError):
            extremize([1.0], [0.5], [0.2])
        with pytest.raises(ValueError):
            extremize([math.nan], [0.1], [0.2])
        with pytest.raises(ValueError):
            extremize([1.0], [0.1], [math.inf])
        with pytest.raises(ValueError):
            extremize([1.0, 2.0], [0.1], [0.2, 0.3])


def sweep_extremes(p_one, d_lo, d_hi, valid):
    """(lo, hi) per row by the sorted sweep over the concatenated 0/1 draws,
    plus the row sums of the four weight boxes (lower zero, upper zero,
    lower one, upper one)."""
    p_zero = 1.0 - p_one
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        boxes = [
            np.where(valid, np.minimum(ratio, _WEIGHT_CAP), 0.0)
            for ratio in (p_zero / d_hi, p_zero / d_lo, p_one / d_hi, p_one / d_lo)
        ]
    w_lo_zero, w_hi_zero, w_lo_one, w_hi_one = boxes
    zeros, ones = np.zeros_like(p_one), np.ones_like(p_one)

    def cat(a, b):
        return np.concatenate([a, b], axis=-1)

    hi = _max_ratio_sorted(cat(zeros, ones), cat(w_lo_zero, w_lo_one), cat(w_hi_zero, w_hi_one))
    lo = -_max_ratio_sorted(cat(-ones, zeros), cat(w_lo_one, w_lo_zero), cat(w_hi_one, w_hi_zero))
    return lo, hi, [box.sum(axis=-1) for box in boxes]


@st.composite
def binary_boxes(draw):
    """Batches of pooled binary-outcome boxes: certain outcomes (zero weights
    on one side), upper weights at the cap (d_lo = 1e-32), zero lower weights
    next to positive upper ones (d_hi = inf), masked instances and,
    sometimes, a fully masked row."""
    rows, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))

    def table(elements):
        values = draw(st.lists(elements, min_size=rows * n, max_size=rows * n))
        return np.array(values, dtype=float).reshape(rows, n)

    p_one = table(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    d_lo = table(st.one_of(st.just(1e-32), st.floats(0.05, 5.0)))
    d_hi = d_lo * table(st.one_of(st.just(1.0), st.floats(1.0, 10.0), st.just(math.inf)))
    valid = table(st.booleans()).astype(bool)
    if draw(st.booleans()):
        valid[-1] = False
    return p_one, d_lo, d_hi, valid


class TestBernoulliClosedForm:
    @given(binary_boxes())
    @settings(max_examples=300, deadline=None)
    def test_matches_vertex_enumeration(self, box):
        lo, hi = _bernoulli_extremes(*box)
        for row in range(len(box[0])):
            want_lo, want_hi = checks._bernoulli_vertex_extrema(*(part[row] for part in box))
            if not box[3][row].any():
                assert math.isnan(lo[row]) and math.isnan(hi[row])
                continue
            assert lo[row] == pytest.approx(want_lo, rel=1e-12, abs=1e-300)
            assert hi[row] == pytest.approx(want_hi, rel=1e-12, abs=1e-300)

    @given(binary_boxes())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_sorted_sweep(self, box):
        lo, hi = _bernoulli_extremes(*box)
        sweep_lo, sweep_hi, (lo_zero, hi_zero, lo_one, hi_one) = sweep_extremes(*box)
        masked = ~box[3].any(axis=-1)
        total = lo_zero + hi_zero + lo_one + hi_one
        for got, want, den in ((lo, sweep_lo, lo_one + hi_zero), (hi, sweep_hi, hi_one + lo_zero)):
            assert np.isnan(got[masked]).all() and np.isnan(want[masked]).all()
            # The sweep's stopping test f S - P sums every weight, so its
            # rounding grows with the total weight over the ratio's
            # denominator; beyond 1e4 (capped 1e30 weights) it can stop at the
            # wrong draw and only the vertex test holds.
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                scale = np.maximum(1.0, total / den)
            held = scale <= 1e4
            assert np.all(np.abs(got[held] - want[held]) <= 1e-12 * scale[held])

    def test_degenerate_boxes_give_what_the_sweep_gives(self):
        ones = np.ones(3)
        inf = np.full(3, math.inf)
        cases = [
            # every one-weight and every lower zero-weight is zero: 0/0 naively
            (np.zeros(3), ones, inf, (0.0, 0.0)),
            # certain ones with zero lower weights: lo is 0/0 naively
            (np.ones(3), ones, inf, (1.0, 1.0)),
            (np.array([0.0, 1.0, 0.5]), ones, 2.0 * ones, (1.0 / 3.0, 2.0 / 3.0)),
        ]
        for p_one, d_lo, d_hi, want in cases:
            lo, hi = _bernoulli_extremes(p_one, d_lo, d_hi, valid=np.ones(3, dtype=bool))
            sweep_lo, sweep_hi, _ = sweep_extremes(p_one, d_lo, d_hi, np.ones(3, dtype=bool))
            assert (float(lo), float(hi)) == pytest.approx(want, rel=1e-15)
            sweep = (float(sweep_lo), float(sweep_hi))
            assert (float(lo), float(hi)) == pytest.approx(sweep, rel=1e-15)

    def test_capped_weights_and_masked_rows(self):
        p_one = np.array([[0.3, 0.9], [0.3, 0.9]])
        d_lo = np.array([[1e-40, 1.0], [1.0, 1.0]])
        d_hi = np.array([[1.0, 2.0], [2.0, 2.0]])
        valid = np.array([[True, True], [False, False]])
        lo, hi = _bernoulli_extremes(p_one, d_lo, d_hi, valid=valid)
        # both upper weights of the first instance sit at the cap
        cap = _WEIGHT_CAP
        assert hi[0] == pytest.approx((cap + 0.9) / (cap + 0.9 + 0.7 + 0.05), rel=1e-15)
        assert lo[0] == pytest.approx((0.3 + 0.45) / (0.3 + 0.45 + cap + 0.1), rel=1e-15)
        assert np.isnan(lo[1]) and np.isnan(hi[1])


class GaussianOutcomeStub:
    """Continuous outcome Y | X, T ~ Normal(x_0 + t / 2, 1)."""

    def outcome_density(self, ys, x, t):
        m = float(np.asarray(x, dtype=float)[0]) + 0.5 * float(t)
        z = np.asarray(ys, dtype=float) - m
        return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


class NormalProposal:
    def __init__(self, mu, sigma):
        self.mu = float(mu)
        self.sigma = float(sigma)

    def sample(self, n, rng):
        return rng.normal(self.mu, self.sigma, size=n)

    def density(self, ys):
        z = (np.asarray(ys, dtype=float) - self.mu) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))


class TestOutcomeDraws:
    def test_discrete_enumeration(self):
        model = BernoulliStub(lambda x, t: 0.7)
        d_lo, d_hi = np.array([0.5, 1.0]), np.array([2.0, 1.0])
        f, w_lo, w_hi = outcome_draws(model, 0.3, [[0.0], [1.0]], d_lo, d_hi)
        # flat (instance, draw) order: instance 0 draws 0, 1, then instance 1
        assert len(f) == len(w_lo) == len(w_hi) == 4
        np.testing.assert_array_equal(f, [0.0, 1.0, 0.0, 1.0])
        assert w_lo[1] == pytest.approx(0.35)
        assert w_hi[1] == pytest.approx(1.4)
        assert w_lo[3] == pytest.approx(0.7)
        assert w_hi[3] == pytest.approx(0.7)

    def test_supports_of_different_sizes_stay_flat(self):
        class GrowingSupport:
            """Instance j has the j + 2 outcomes 0, 1, ..., j + 1, uniformly."""

            def outcome_support(self, x, t):
                k = int(x[0]) + 2
                return np.arange(float(k)), np.full(k, 1.0 / k)

        xs = [[0.0], [1.0], [2.0]]
        d_lo, d_hi = np.array([0.5, 1.0, 2.0]), np.array([2.0, 4.0, 8.0])
        f, w_lo, w_hi = outcome_draws(
            GrowingSupport(), 0.3, xs, d_lo, d_hi, statistic=lambda y: y * y
        )
        np.testing.assert_array_equal(f, [0, 1, 0, 1, 4, 0, 1, 4, 9])
        probs = np.repeat([1 / 2, 1 / 3, 1 / 4], [2, 3, 4])
        np.testing.assert_allclose(w_lo, probs / np.repeat([2.0, 4.0, 8.0], [2, 3, 4]))
        np.testing.assert_allclose(w_hi, probs / np.repeat([0.5, 1.0, 2.0], [2, 3, 4]))
        assert extremize(f, w_lo, w_hi, "max") == pytest.approx(
            brute_force_ratio(f, w_lo, w_hi, "max"), rel=1e-13
        )
        assert extremize(f, w_lo, w_hi, "min") == pytest.approx(
            brute_force_ratio(f, w_lo, w_hi, "min"), rel=1e-13
        )

    def test_no_instances_give_an_empty_box(self):
        f, w_lo, w_hi = outcome_draws(
            BernoulliStub(lambda x, t: 0.7), 0.3, np.zeros((0, 1)), 1.0, 1.0
        )
        assert f.shape == w_lo.shape == w_hi.shape == (0,)
        with pytest.raises(ValueError, match="at least one draw"):
            extremize(f, w_lo, w_hi, "max")

    def test_rejects_nonpositive_divisor(self):
        model = BernoulliStub(lambda x, t: 0.7)
        with pytest.raises(PartialIdentificationError):
            outcome_draws(model, 0.3, [[0.0]], -0.1, 2.0)

    def test_continuous_needs_proposal_and_samples(self):
        with pytest.raises(ValueError):
            outcome_draws(GaussianOutcomeStub(), 0.3, [[0.0]], 1.0, 1.0)
        with pytest.raises(ValueError):
            outcome_draws(
                GaussianOutcomeStub(),
                0.3,
                [[0.0]],
                1.0, 1.0,
                proposal=NormalProposal(0.0, 2.0),
            )

    def test_continuous_importance_sampling_recovers_mean(self):
        # with a unit divisor box the ratio collapses to a self-normalized
        # importance-sampling estimate of E[Y | X, T]
        model = GaussianOutcomeStub()
        x = [0.4]
        t = 0.6
        target_mean = 0.4 + 0.3
        draws = outcome_draws(
            model,
            t,
            [x],
            1.0, 1.0,
            proposal=NormalProposal(0.5, 2.0),
            n_samples=20000,
            rng=np.random.default_rng(42),
        )
        hi = extremize(*draws, "max")
        lo = extremize(*draws, "min")
        assert hi == pytest.approx(lo, abs=1e-12)
        assert hi == pytest.approx(target_mean, abs=0.05)

    def test_continuous_box_brackets_identified_value(self):
        model = GaussianOutcomeStub()
        common = dict(
            proposal=NormalProposal(0.5, 2.0),
            n_samples=4000,
            rng=np.random.default_rng(42),
        )
        point = outcome_draws(model, 0.6, [[0.4]], 1.0, 1.0, **common)
        common["rng"] = np.random.default_rng(42)
        band = outcome_draws(model, 0.6, [[0.4]], 0.5, 2.0, **common)
        assert extremize(*band, "min") < extremize(*point, "min")
        assert extremize(*band, "max") > extremize(*point, "max")

    def test_statistic_transforms_outcomes(self):
        model = BernoulliStub(lambda x, t: 0.7)
        draws = outcome_draws(
            model, 0.3, [[0.0]], 1.0, 1.0, statistic=lambda y: 3.0 * y
        )
        assert extremize(*draws, "max") == pytest.approx(2.1)


class TestCurves:
    t_grid = np.linspace(0.1, 0.9, 5)

    def outcome(self):
        return BernoulliStub(lambda x, t: 0.2 + 0.5 * t)

    def test_unit_gamma_collapses_to_prediction(self):
        models = FittedModels(self.outcome(), PropensityStub([3.0], [3.0]))
        curve = capo_interval(models, DeltaMSM("balanced-beta"), [0.0], self.t_grid, 1.0)
        expected = 0.2 + 0.5 * self.t_grid
        np.testing.assert_allclose(curve.lo, expected, atol=1e-9)
        np.testing.assert_allclose(curve.hi, expected, atol=1e-9)
        assert not curve.undefined_mask.any()
        assert curve.target == "capo"

    def test_bands_bracket_nominal_and_nest(self):
        models = FittedModels(self.outcome(), PropensityStub([4.0], [2.0]))
        expected = 0.2 + 0.5 * self.t_grid
        prev = None
        for gamma in (1.2, 1.6, 2.3):
            curve = capo_interval(models, DeltaMSM("beta"), [0.0], self.t_grid, gamma)
            assert np.all(curve.lo <= expected + 1e-12)
            assert np.all(curve.hi >= expected - 1e-12)
            assert np.all(curve.lo >= -1e-12) and np.all(curve.hi <= 1.0 + 1e-12)
            if prev is not None:
                assert np.all(curve.lo <= prev.lo + 1e-12)
                assert np.all(curve.hi >= prev.hi - 1e-12)
            prev = curve

    def test_apo_of_single_instance_equals_capo(self):
        models = FittedModels(self.outcome(), PropensityStub([3.0, 5.0], [3.0, 2.0]))
        capo = capo_interval(models, DeltaMSM("balanced-beta"), [1.0], self.t_grid, 1.7)
        apo = apo_interval(models, DeltaMSM("balanced-beta"), [[1.0]], self.t_grid, 1.7)
        np.testing.assert_allclose(apo.lo, capo.lo, rtol=1e-13)
        np.testing.assert_allclose(apo.hi, capo.hi, rtol=1e-13)
        assert apo.target == "apo"

    def test_cmsm_capo_matches_uniform(self):
        # per-instance the CMSM box is the uniform box scaled by the nominal
        # density, and the self-normalized ratio is scale invariant
        models = FittedModels(self.outcome(), PropensityStub([4.0], [2.0]))
        cmsm = capo_interval(models, CMSM(), [0.0], self.t_grid, 1.8)
        uniform = capo_interval(models, Uniform(), [0.0], self.t_grid, 1.8)
        np.testing.assert_allclose(cmsm.lo, uniform.lo, rtol=1e-12)
        np.testing.assert_allclose(cmsm.hi, uniform.hi, rtol=1e-12)

    def test_apo_pools_draws_before_extremizing(self):
        models = FittedModels(self.outcome(), PropensityStub([3.0, 6.0], [3.0, 1.5]))
        xs = [[0.0], [1.0]]
        gamma = 1.9
        t = 0.35
        curve = apo_interval(models, DeltaMSM("beta"), xs, [t, 0.5], gamma)
        params = models.propensity.predict(np.asarray(xs))
        d_lo, d_hi = DivisorEngine(DeltaMSM("beta"), params).bounds(t, gamma)
        draws = outcome_draws(self.outcome(), t, xs, d_lo, d_hi)
        assert curve.lo[0] == pytest.approx(extremize(*draws, "min"), rel=1e-12)
        assert curve.hi[0] == pytest.approx(extremize(*draws, "max"), rel=1e-12)

    def test_apo_flags_and_drops_undefined_instances(self):
        # at gamma = 2.5 and t = 0.9 the far-from-dose instance loses its
        # positive divisor floor while the nearby instance keeps it
        models = FittedModels(self.outcome(), PropensityStub([9.0, 1.0], [2.0, 9.0]))
        xs = [[0.0], [1.0]]
        grid = [0.5, 0.9]
        mixed = apo_interval(models, DeltaMSM("beta"), xs, grid, 2.5)
        assert not mixed.undefined_mask[0]
        assert mixed.undefined_mask[1]
        healthy_only = apo_interval(models, DeltaMSM("beta"), [[0.0]], grid, 2.5)
        assert not healthy_only.undefined_mask.any()
        assert mixed.lo[1] == pytest.approx(healthy_only.lo[1], rel=1e-12)
        assert mixed.hi[1] == pytest.approx(healthy_only.hi[1], rel=1e-12)
        all_dropped = apo_interval(models, DeltaMSM("beta"), [[1.0]], grid, 2.5)
        assert all_dropped.undefined_mask[1]
        assert math.isnan(all_dropped.lo[1]) and math.isnan(all_dropped.hi[1])

    def test_lower_bound_never_above_upper(self):
        rng = np.random.default_rng(42)
        outcome = self.outcome()
        for _ in range(10):
            models = FittedModels(
                outcome,
                PropensityStub(rng.uniform(0.8, 9.0, 3), rng.uniform(0.8, 9.0, 3)),
            )
            xs = [[0.0], [1.0], [2.0]]
            gamma = float(rng.uniform(1.0, 2.5))
            curve = apo_interval(models, DeltaMSM("balanced-beta"), xs, self.t_grid, gamma)
            good = ~np.isnan(curve.lo)
            assert np.all(curve.lo[good] <= curve.hi[good] + 1e-12)

    def test_apo_requires_instances(self):
        models = FittedModels(self.outcome(), PropensityStub([3.0], [3.0]))
        with pytest.raises(ValueError):
            apo_interval(models, Uniform(), np.empty((0, 1)), self.t_grid, 1.5)


class TestApoBandMatrix:
    t_grid = np.linspace(0.0, 1.0, 7)
    gamma_grid = np.linspace(1.0, 2.5, 6)

    def case(self, alphas, betas):
        outcome = BernoulliStub(lambda x, t: 0.2 + 0.5 * t)
        propensity = PropensityStub(alphas, betas)
        xs = [[float(i)] for i in range(len(alphas))]
        prob = np.array([outcome.predict(np.asarray(xs), t) for t in self.t_grid])
        return outcome, propensity, xs, prob

    @pytest.mark.parametrize(
        "model",
        [DeltaMSM("balanced-beta"), DeltaMSM("beta"), CMSM(), Uniform()],
        ids=["balanced", "beta", "cmsm", "uniform"],
    )
    def test_matches_per_gamma_curves(self, model):
        from dosebounds.estimator import apo_band_matrix
        from dosebounds.sensitivity import DivisorEngine

        outcome, propensity, xs, prob = self.case([9.0, 3.0, 1.0], [2.0, 3.0, 9.0])
        engine = DivisorEngine(model, propensity.predict(np.asarray(xs)))
        lo, hi, undefined = apo_band_matrix(engine, prob, self.t_grid, self.gamma_grid)
        assert lo.shape == hi.shape == undefined.shape == (7, 6)
        for g, gamma in enumerate(self.gamma_grid):
            curve = apo_interval(FittedModels(outcome, propensity), model, xs, self.t_grid, float(gamma))
            np.testing.assert_array_equal(undefined[:, g], curve.undefined_mask)
            np.testing.assert_allclose(lo[:, g], curve.lo, rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(hi[:, g], curve.hi, rtol=1e-13, atol=1e-15)

    def test_binary_msm_matches_per_gamma_curves(self):
        from dosebounds.estimator import apo_band_matrix
        from dosebounds.sensitivity import BinaryMSM, DivisorEngine

        outcome, propensity, xs, prob = self.case([2.0, 5.0], [5.0, 2.0])
        model = BinaryMSM()
        engine = DivisorEngine(model, propensity.predict(np.asarray(xs)))
        lo, hi, _ = apo_band_matrix(engine, prob, self.t_grid, self.gamma_grid)
        for g, gamma in enumerate(self.gamma_grid):
            curve = apo_interval(FittedModels(outcome, propensity), model, xs, self.t_grid, float(gamma))
            np.testing.assert_allclose(lo[:, g], curve.lo, rtol=1e-13)
            np.testing.assert_allclose(hi[:, g], curve.hi, rtol=1e-13)

    def test_all_instances_dropped_yields_nan(self):
        from dosebounds.estimator import apo_band_matrix
        from dosebounds.sensitivity import DivisorEngine

        outcome, propensity, xs, prob = self.case([1.0, 0.9], [9.0, 12.0])
        engine = DivisorEngine(DeltaMSM("beta"), propensity.predict(np.asarray(xs)))
        lo, hi, undefined = apo_band_matrix(engine, prob, self.t_grid, np.array([1.0, 2.5]))
        assert undefined[-1, 1]
        assert not undefined[:, 0].any()
        dropped = undefined & np.isnan(lo)
        assert np.array_equal(np.isnan(lo), np.isnan(hi))
        assert dropped.sum() >= 1

    def test_validates_prob_matrix_shape(self):
        from dosebounds.estimator import apo_band_matrix
        from dosebounds.sensitivity import DivisorEngine

        _, propensity, xs, prob = self.case([3.0], [3.0])
        engine = DivisorEngine(Uniform(), propensity.predict(np.asarray(xs)))
        with pytest.raises(ValueError):
            apo_band_matrix(engine, prob[:-1], self.t_grid, self.gamma_grid)


class TestGammaSubsetExactness:
    """Calibration probes gamma subsets instead of the whole grid and must
    score exactly what the full sweep scores.  For DeltaMSM that holds only
    because a subset of two or more columns ending at the last gamma keeps
    the full sweep's 1F1 term count (set by the largest s) and a matrix,
    not a vector, product in ``hyp1f1_grid``.  A lone column can differ in
    the last bits, so it is not part of the premise."""

    def test_subsets_ending_at_the_last_gamma_match_the_full_sweep(self):
        rng = np.random.default_rng(7)
        n = 250
        propensity = BetaPropensity(rng.uniform(1.0, 20.0, n), rng.uniform(1.0, 20.0, n))
        t_grid = np.linspace(0.0, 1.0, 12)
        prob = rng.uniform(0.05, 0.95, (len(t_grid), n))
        gammas = np.linspace(1.0, 2.5, 100)
        engine = DivisorEngine(DeltaMSM("balanced-beta"), propensity)
        full = apo_band_matrix(engine, prob, t_grid, gammas)
        subsets = [[0, 99], [98, 99], list(range(9, 100, 10)), list(range(40, 50)) + [99]]
        for size in (2, 3, 5, 11, 21, 40):
            picks = rng.choice(99, size - 1, replace=False)
            subsets.append(sorted(picks.tolist()) + [99])
        for cols in subsets:
            part = apo_band_matrix(engine, prob, t_grid, gammas[cols])
            for whole, sub in zip(full, part):
                assert sub.tobytes() == whole[:, cols].tobytes()


@st.composite
def band_cases(draw):
    """Random Beta propensities and outcome probabilities for a few instances
    over a dose grid that includes both support edges, plus an increasing
    gamma grid that starts at 1."""
    n, k = draw(st.integers(1, 5)), draw(st.integers(2, 7))
    params = st.lists(st.floats(0.5, 100.0), min_size=n, max_size=n)
    alphas, betas = np.array(draw(params)), np.array(draw(params))
    probs = draw(
        st.lists(
            st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
            min_size=k * n,
            max_size=k * n,
        )
    )
    steps = draw(st.lists(st.floats(0.01, 0.8), min_size=1, max_size=5))
    gammas = np.concatenate([[1.0], 1.0 + np.cumsum(steps)])
    return alphas, betas, np.array(probs).reshape(k, n), np.linspace(0.0, 1.0, k), gammas


class TestBandKernelProperties:
    """Ordering, nesting and point identification of ``apo_band_matrix``."""

    collapsing = [DeltaMSM("beta"), DeltaMSM("balanced-beta"), Uniform(), BinaryMSM()]

    @given(band_cases())
    @settings(max_examples=150, deadline=None)
    def test_bands_order_nest_and_collapse(self, case):
        alphas, betas, prob, t_grid, gammas = case
        for model in self.collapsing + [CMSM()]:
            engine = DivisorEngine(model, BetaPropensity(alphas, betas))
            lo, hi, undefined = apo_band_matrix(engine, prob, t_grid, gammas)
            defined = ~undefined
            assert np.all(lo[defined] <= hi[defined] + 1e-12)
            # a divisor floor that crossed zero stays crossed at larger gamma
            assert np.all(undefined[:, :-1] <= undefined[:, 1:])
            wider = defined[:, 1:]
            assert np.all(lo[:, 1:][wider] <= lo[:, :-1][wider] + 1e-12)
            assert np.all(hi[:, 1:][wider] >= hi[:, :-1][wider] - 1e-12)
            if model in self.collapsing:
                # CMSM is left out: its gamma = 1 band is density-weighted
                assert not undefined[:, 0].any()
                np.testing.assert_allclose(lo[:, 0], prob.mean(axis=1), rtol=0, atol=1e-12)
                np.testing.assert_allclose(hi[:, 0], prob.mean(axis=1), rtol=0, atol=1e-12)

    @given(band_cases(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_capo_is_the_one_gamma_column(self, case, data):
        alphas, betas, prob, t_grid, gammas = case
        row = data.draw(st.integers(0, len(alphas) - 1))
        outcome = BernoulliStub(lambda x, t: prob[int(np.argmin(np.abs(t_grid - t))), int(x[0])])
        models = FittedModels(outcome, PropensityStub(alphas, betas))
        for model in self.collapsing + [CMSM()]:
            engine = DivisorEngine(model, BetaPropensity(alphas[row : row + 1], betas[row : row + 1]))
            lo, hi, undefined = apo_band_matrix(engine, prob[:, row : row + 1], t_grid, gammas)
            for g, gamma in enumerate(gammas):
                curve = capo_interval(models, model, [float(row)], t_grid, gamma)
                np.testing.assert_array_equal(curve.undefined_mask, undefined[:, g])
                np.testing.assert_allclose(curve.lo, lo[:, g], rtol=0, atol=1e-15)
                np.testing.assert_allclose(curve.hi, hi[:, g], rtol=0, atol=1e-15)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="a gamma column's 1F1 sum depends on the sweep's row count; "
        "ROADMAP item 2's batch-independent kernel is the fix",
    )
    @pytest.mark.parametrize(
        "alpha, beta, prob, gammas",
        [
            # off by 1.1379786002407855e-15 on the low bound
            (48.5625, 1.25, [0.9375, 0.0, 0.0, 0.0], [1.0, 1.5, 1.80859375, 1.99609375]),
            # off by 1.6375789613221059e-15 on the low bound
            (22.0, 2.0, [0.0, 0.984375, 0.0, 0.0, 0.0, 0.0], [1.0, 1.5, 1.75, 2.125, 2.5]),
        ],
    )
    def test_lone_gamma_column_matches_the_sweep(self, alpha, beta, prob, gammas):
        # Hypothesis examples of test_capo_is_the_one_gamma_column that miss
        # its atol of 1e-15 at the largest gamma
        propensity = BetaPropensity(np.array([alpha]), np.array([beta]))
        engine = DivisorEngine(DeltaMSM("balanced-beta"), propensity)
        prob = np.array(prob)[:, None]
        t_grid = np.linspace(0.0, 1.0, len(prob))
        gammas = np.array(gammas)
        lo, hi, undefined = apo_band_matrix(engine, prob, t_grid, gammas)
        lone_lo, lone_hi, lone_undefined = apo_band_matrix(engine, prob, t_grid, gammas[-1:])
        np.testing.assert_array_equal(lone_undefined[:, 0], undefined[:, -1])
        np.testing.assert_allclose(lone_hi[:, 0], hi[:, -1], rtol=0, atol=1e-15)
        np.testing.assert_allclose(lone_lo[:, 0], lo[:, -1], rtol=0, atol=1e-15)


def flat_curve(grid, fn, half_width=0.0):
    values = np.array([fn(t) for t in grid])
    return IntervalCurve(
        t_grid=np.asarray(grid, dtype=float),
        lo=values - half_width,
        hi=values + half_width,
        target="capo",
        undefined_mask=np.zeros(len(grid), dtype=bool),
    )


class TestCacd:
    grid = np.linspace(0.0, 1.0, 51)

    def test_central_difference_exact_for_quadratic(self):
        curve = flat_curve(self.grid, lambda t: t * t)
        h = float(self.grid[1] - self.grid[0])
        deriv = cacd_interval(curve, h)
        interior = slice(1, -1)
        np.testing.assert_allclose(deriv.lo[interior], 2.0 * self.grid[interior], atol=1e-12)
        np.testing.assert_allclose(deriv.hi[interior], 2.0 * self.grid[interior], atol=1e-12)
        assert deriv.one_sided[0] and deriv.one_sided[-1]
        assert not deriv.one_sided[1:-1].any()
        # one-sided quotients of t^2 give 2t +- h
        assert deriv.lo[0] == pytest.approx(2.0 * self.grid[0] + h, abs=1e-12)
        assert deriv.hi[-1] == pytest.approx(2.0 * self.grid[-1] - h, abs=1e-12)
        assert deriv.target == "cacd"

    def test_band_width_combines_endpoint_widths(self):
        curve = flat_curve(self.grid, lambda t: math.sin(t), half_width=0.05)
        h = 2.0 * float(self.grid[1] - self.grid[0])
        deriv = cacd_interval(curve, h)
        expected_width = (0.05 + 0.05 + 0.05 + 0.05) / (2.0 * h)
        np.testing.assert_allclose(deriv.width[2:-2], expected_width, atol=1e-12)
        mid = (deriv.lo + deriv.hi) / 2.0
        np.testing.assert_allclose(
            mid[2:-2], np.cos(self.grid[2:-2]), atol=h * h
        )

    def test_wider_step_tightens_band(self):
        curve = flat_curve(self.grid, lambda t: t, half_width=0.05)
        dt = float(self.grid[1] - self.grid[0])
        narrow = cacd_interval(curve, dt)
        wide = cacd_interval(curve, 5.0 * dt)
        assert np.all(wide.width[5:-5] < narrow.width[5:-5])

    def test_mask_propagates_through_stencil(self):
        curve = flat_curve(self.grid, lambda t: t)
        curve.undefined_mask[10] = True
        deriv = cacd_interval(curve, 2.0 * float(self.grid[1] - self.grid[0]))
        assert deriv.undefined_mask[8] and deriv.undefined_mask[12]
        assert not deriv.undefined_mask[9] and not deriv.undefined_mask[11]

    def test_step_past_half_the_grid_is_rejected(self):
        # on 5 points a 3-step h leaves the middle point without a neighbour
        # h away on either side
        grid = np.linspace(0.0, 1.0, 5)
        curve = flat_curve(grid, lambda t: 0.4 * t)
        with pytest.raises(ValueError, match="at most 2"):
            cacd_interval(curve, 3.0 * float(grid[1] - grid[0]))

    def test_half_grid_step_is_one_sided_everywhere(self):
        grid = np.linspace(0.0, 1.0, 6)
        curve = flat_curve(grid, lambda t: 0.4 * t)
        deriv = cacd_interval(curve, 3.0 * float(grid[1] - grid[0]))
        assert deriv.one_sided.all()
        np.testing.assert_allclose(deriv.lo, 0.4, rtol=1e-12)
        np.testing.assert_allclose(deriv.hi, 0.4, rtol=1e-12)

    def test_validation(self):
        curve = flat_curve(self.grid, lambda t: t)
        dt = float(self.grid[1] - self.grid[0])
        with pytest.raises(ValueError):
            cacd_interval(curve, 0.0)
        with pytest.raises(ValueError):
            cacd_interval(curve, 1.5 * dt)
        with pytest.raises(ValueError):
            cacd_interval(curve, 60.0 * dt)
        ragged = IntervalCurve(
            t_grid=np.array([0.0, 0.1, 0.35]),
            lo=np.zeros(3),
            hi=np.ones(3),
            target="capo",
            undefined_mask=np.zeros(3, dtype=bool),
        )
        with pytest.raises(ValueError):
            cacd_interval(ragged, 0.1)


class TestIntervalCurve:
    def test_validation(self):
        grid = np.array([0.0, 0.5, 1.0])
        with pytest.raises(ValueError):
            IntervalCurve(grid, np.ones(3), np.zeros(3), "capo", np.zeros(3, dtype=bool))
        with pytest.raises(ValueError):
            IntervalCurve(grid[::-1], np.zeros(3), np.ones(3), "capo", np.zeros(3, dtype=bool))
        with pytest.raises(ValueError):
            IntervalCurve(grid, np.zeros(2), np.ones(3), "capo", np.zeros(3, dtype=bool))

    def test_undefined_points_exempt_from_order_check(self):
        grid = np.array([0.0, 1.0])
        curve = IntervalCurve(
            grid,
            np.array([0.2, np.nan]),
            np.array([0.8, np.nan]),
            "apo",
            np.array([False, True]),
        )
        assert curve.width[0] == pytest.approx(0.6)
