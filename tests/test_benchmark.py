"""Benchmark pipeline tests.

Oracles here stay independent of the code under test: rank maps and KS
statistics are worked out by hand on tiny inputs, band-averaged divergences
come from adaptive quadrature instead of the closed-form antiderivatives,
and ground-truth dose responses are recomputed with plain Python loops.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from dosebounds import benchmark as bm
from dosebounds.checks import integrate
from dosebounds.estimator import (
    IntervalCurve,
    _band_points,
    apo_band_matrix,
    apo_interval,
)
from dosebounds.models import FittedModels, TrainConfig, fit_outcome, fit_propensity
from dosebounds.seeds import derive_seed
from dosebounds.sensitivity import CMSM, BinaryMSM, DeltaMSM, DivisorEngine, Uniform


def bernoulli_kl(p, q):
    return p * math.log(p / q) + (1.0 - p) * math.log((1.0 - p) / (1.0 - q))


def band_kl_quadrature(p, lo, hi):
    """Average KL over the band by quadrature; point KL when degenerate."""
    if hi == lo:
        return bernoulli_kl(p, lo)
    total = integrate(
        lambda q: np.array([bernoulli_kl(p, qi) for qi in np.atleast_1d(q)]), lo, hi
    )
    return total / (hi - lo)


def ks_uniform(values) -> float:
    """Kolmogorov-Smirnov statistic of a sample against Uniform(0, 1)."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 0:
        raise ValueError("ks_uniform needs a non-empty sample")
    grid = np.arange(n, dtype=float)
    return float(max(np.max((grid + 1.0) / n - x), np.max(x - grid / n)))


def norm_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def small_config(**overrides):
    base = dict(
        n_confounders=2,
        form="linear",
        n_train=60,
        n_test=20,
        t_grid_size=7,
        gamma_grid_size=5,
        gamma_max=2.0,
        target_coverage=0.9,
        seed=11,
    )
    base.update(overrides)
    return bm.TrialConfig(**base)


FAST_TRAIN = TrainConfig(epochs=4)


class TestQuantileNormalize:
    def test_distinct_values_get_rank_over_n_plus_one(self):
        # ranks of [3, 1, 2] are 3, 1, 2 and n + 1 = 4
        out = bm.quantile_normalize([3.0, 1.0, 2.0])
        np.testing.assert_allclose(out, [0.75, 0.25, 0.5], rtol=0, atol=0)

    def test_ties_share_their_average_rank(self):
        # the two 5s occupy ranks 2 and 3, so both map to 2.5 / 4
        out = bm.quantile_normalize([5.0, 5.0, 1.0])
        np.testing.assert_allclose(out, [0.625, 0.625, 0.25], rtol=0, atol=0)

    def test_constant_column_collapses_to_half(self):
        out = bm.quantile_normalize([7.0, 7.0, 7.0])
        np.testing.assert_allclose(out, [0.5, 0.5, 0.5], rtol=0, atol=0)

    def test_output_is_a_permutation_of_the_rank_grid(self):
        rng = np.random.default_rng(5)
        col = rng.normal(size=101)
        out = bm.quantile_normalize(col)
        expected = np.arange(1, 102) / 102.0
        np.testing.assert_allclose(np.sort(out), expected, rtol=1e-15)
        assert np.all((out > 0.0) & (out < 1.0))

    def test_preserves_order(self):
        rng = np.random.default_rng(6)
        col = rng.normal(size=50)
        out = bm.quantile_normalize(col)
        assert np.array_equal(np.argsort(col), np.argsort(out))

    def test_rejects_scalars_and_short_columns(self):
        with pytest.raises(ValueError):
            bm.quantile_normalize([1.0])
        with pytest.raises(ValueError):
            bm.quantile_normalize(np.ones((3, 2)))


class TestSyntheticRaw:
    def test_shape_and_determinism(self):
        a = bm.synthetic_raw(40, 6, seed=3)
        b = bm.synthetic_raw(40, 6, seed=3)
        assert a.shape == (40, 6)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_the_matrix(self):
        a = bm.synthetic_raw(40, 6, seed=3)
        c = bm.synthetic_raw(40, 6, seed=4)
        assert not np.array_equal(a, c)

    def test_every_column_varies(self):
        raw = bm.synthetic_raw(200, 12, seed=0)
        assert np.all(raw.std(axis=0) > 0.0)

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            bm.synthetic_raw(1, 4, seed=0)
        with pytest.raises(ValueError):
            bm.synthetic_raw(10, 0, seed=0)


class TestTrialConfig:
    def test_derived_quantities(self):
        config = small_config(n_confounders=10)
        assert config.k == 11
        assert config.treatment_index == 5
        grid = config.dose_grid()
        assert grid[0] == 0.0 and grid[-1] == 1.0 and len(grid) == config.t_grid_size
        gammas = config.gamma_grid()
        assert gammas[0] == 1.0 and gammas[-1] == config.gamma_max

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(n_confounders=3)
        with pytest.raises(ValueError):
            small_config(n_confounders=0)
        with pytest.raises(ValueError):
            small_config(form="cubic")
        with pytest.raises(ValueError):
            small_config(gamma_max=0.5)
        with pytest.raises(ValueError):
            small_config(target_coverage=1.5)
        with pytest.raises(ValueError):
            small_config(seed=-1)
        with pytest.raises(ValueError):
            small_config(t_grid_size=1)


class TestGenerateTrial:
    def test_shapes_splits_and_ranges(self):
        config = small_config()
        raw = bm.synthetic_raw(120, 5, seed=2)
        trial = bm.generate_trial(raw, config)
        n = config.n_train + config.n_test
        assert trial.v_matrix.shape == (n, config.k)
        assert trial.y.shape == (n,)
        assert set(np.unique(trial.y)) <= {0.0, 1.0}
        assert np.all((trial.v_matrix > 0.0) & (trial.v_matrix < 1.0))
        np.testing.assert_array_equal(trial.train_idx, np.arange(config.n_train))
        np.testing.assert_array_equal(trial.test_idx, np.arange(config.n_train, n))
        assert trial.treatment_index == config.treatment_index
        assert trial.visible(trial.train_idx).shape == (config.n_train, config.treatment_index)
        np.testing.assert_array_equal(
            trial.treatments(trial.test_idx),
            trial.v_matrix[config.n_train :, config.treatment_index],
        )

    def test_each_column_is_quantile_normalized(self):
        # a tie-free column of n ranks has KS distance exactly 1 / (n + 1)
        config = small_config()
        trial = bm.generate_trial(bm.synthetic_raw(120, 5, seed=2), config)
        n = config.n_train + config.n_test
        for j in range(config.k):
            assert ks_uniform(trial.v_matrix[:, j]) == pytest.approx(1.0 / (n + 1))

    def test_determinism_and_seed_sensitivity(self):
        raw = bm.synthetic_raw(120, 5, seed=2)
        a = bm.generate_trial(raw, small_config())
        b = bm.generate_trial(raw, small_config())
        c = bm.generate_trial(raw, small_config(seed=12))
        np.testing.assert_array_equal(a.v_matrix, b.v_matrix)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.mixing, b.mixing)
        assert a.location == b.location and a.scale == b.scale
        assert not np.array_equal(a.y, c.y)

    def test_linear_and_quadratic_mixing_shapes(self):
        raw = bm.synthetic_raw(120, 5, seed=2)
        lin = bm.generate_trial(raw, small_config(form="linear"))
        quad = bm.generate_trial(raw, small_config(form="quadratic"))
        assert lin.mixing.shape == (3,)
        assert quad.mixing.shape == (3, 3)

    def test_outcome_rate_tracks_the_latent_probability(self):
        config = small_config(n_train=700, n_test=300)
        trial = bm.generate_trial(bm.synthetic_raw(1100, 6, seed=9), config)
        a, b, c = bm._dose_polynomial(trial.v_matrix, trial.mixing, trial.treatment_index)
        t = trial.v_matrix[:, trial.treatment_index]
        u = a + t * (b + c * t)
        u_star = bm._norm_cdf((u - trial.location) / trial.scale)
        se = math.sqrt(float(np.mean(u_star * (1.0 - u_star))) / len(u_star))
        assert abs(float(trial.y.mean() - u_star.mean())) < 3.0 * se

    def test_rejects_insufficient_rows_and_bad_shape(self):
        config = small_config()
        with pytest.raises(ValueError):
            bm.generate_trial(bm.synthetic_raw(50, 5, seed=2), config)
        with pytest.raises(ValueError):
            bm.generate_trial(np.ones(10), config)

    def test_rejects_zero_spread_pre_activation(self):
        with pytest.raises(ValueError):
            bm.generate_trial(np.ones((90, 4)), small_config())


def per_dose_true_apo(trial, t_grid):
    """Oracle for ``true_apo``: per dose, set every test row's dose, upscale
    it by k - 1 and mix the row in full."""
    rows = np.array(trial.v_matrix[trial.test_idx], dtype=float, copy=True)
    out = []
    for t in t_grid:
        rows[:, trial.treatment_index] = t * (trial.k - 1)
        if trial.mixing.ndim == 1:
            u = rows @ trial.mixing
        else:
            u = np.einsum("ij,jk,ik->i", rows, trial.mixing, rows)
        out.append(np.mean(bm._norm_cdf((u - trial.location) / trial.scale)))
    return np.array(out)


class TestTrueApo:
    @pytest.mark.parametrize("form", ["linear", "quadratic"])
    def test_matches_the_per_dose_loop(self, form):
        # the dose polynomial regroups the sums: the gap measured over
        # default-scale trials 0-7 of both forms is at most 2.8e-16, and
        # 2e-15 is about 9 ulps of 1
        config = small_config(form=form, n_confounders=10, n_train=250, n_test=250)
        trial = bm.generate_trial(bm.synthetic_raw(500, 12, seed=3), config)
        t_grid = np.linspace(0.0, 1.0, 100)
        np.testing.assert_allclose(
            bm.true_apo(trial, t_grid), per_dose_true_apo(trial, t_grid), rtol=0.0, atol=2e-15
        )

    def test_a_dose_does_not_depend_on_the_other_doses(self):
        config = small_config(form="quadratic", n_confounders=10, n_train=250, n_test=250)
        trial = bm.generate_trial(bm.synthetic_raw(500, 12, seed=3), config)
        t_grid = np.linspace(0.0, 1.0, 100)
        full = bm.true_apo(trial, t_grid)
        for picked in ([0], [37], [99, 3, 50], list(range(1, 100, 7))):
            np.testing.assert_array_equal(bm.true_apo(trial, t_grid[picked]), full[picked])

    def test_matches_plain_python_recomputation(self):
        config = small_config(form="quadratic")
        trial = bm.generate_trial(bm.synthetic_raw(120, 5, seed=7), config)
        t_grid = config.dose_grid()
        got = bm.true_apo(trial, t_grid)
        k = trial.k
        for i, t in enumerate(t_grid):
            total = 0.0
            for row in trial.v_matrix[trial.test_idx]:
                v = list(row)
                v[trial.treatment_index] = t * (k - 1)
                u = sum(v[a] * trial.mixing[a][b] * v[b] for a in range(k) for b in range(k))
                total += norm_cdf((u - trial.location) / trial.scale)
            assert got[i] == pytest.approx(total / len(trial.test_idx), rel=1e-12)

    def test_one_hot_mixing_gives_a_closed_form_curve(self):
        # with the mixing vector picking out the treatment coordinate and
        # standardization frozen at (0, 1), every row responds identically:
        # apo(t) = Phi(t * (k - 1))
        config = small_config()
        trial = bm.generate_trial(bm.synthetic_raw(120, 5, seed=7), config)
        one_hot = np.zeros(config.k)
        one_hot[config.treatment_index] = 1.0
        frozen = dataclasses.replace(trial, mixing=one_hot, location=0.0, scale=1.0)
        t_grid = np.linspace(0.0, 1.0, 9)
        got = bm.true_apo(frozen, t_grid)
        want = [norm_cdf(t * (config.k - 1)) for t in t_grid]
        np.testing.assert_allclose(got, want, rtol=1e-12)
        assert np.all(np.diff(got) > 0.0)


class TestDivergenceCost:
    def grid(self):
        return np.array([0.0, 1.0])

    def test_degenerate_band_at_the_truth_costs_nothing(self):
        curve = IntervalCurve(self.grid(), [0.3, 0.8], [0.3, 0.8], [False, False])
        assert bm.divergence_cost([0.3, 0.8], curve) == pytest.approx(0.0, abs=1e-15)

    def test_matches_quadrature_on_a_symmetric_band(self):
        curve = IntervalCurve(self.grid(), [0.25, 0.25], [0.75, 0.75], [False, False])
        want = band_kl_quadrature(0.5, 0.25, 0.75)
        assert bm.divergence_cost([0.5, 0.5], curve) == pytest.approx(want, rel=1e-9)

    def test_matches_quadrature_when_the_truth_is_outside_the_band(self):
        curve = IntervalCurve(self.grid(), [0.1, 0.1], [0.2, 0.2], [False, False])
        want = band_kl_quadrature(0.9, 0.1, 0.2)
        assert bm.divergence_cost([0.9, 0.9], curve) == pytest.approx(want, rel=1e-9)

    def test_mean_over_grid_points(self):
        curve = IntervalCurve(self.grid(), [0.2, 0.6], [0.4, 0.9], [False, False])
        want = 0.5 * (band_kl_quadrature(0.5, 0.2, 0.4) + band_kl_quadrature(0.7, 0.6, 0.9))
        assert bm.divergence_cost([0.5, 0.7], curve) == pytest.approx(want, rel=1e-9)

    def test_flagged_points_pay_for_the_full_clamped_interval(self):
        flagged = IntervalCurve(
            self.grid(), [0.2, np.nan], [0.4, np.nan], [False, True]
        )
        want = 0.5 * (
            band_kl_quadrature(0.5, 0.2, 0.4)
            + band_kl_quadrature(0.7, bm.PROB_CLAMP, 1.0 - bm.PROB_CLAMP)
        )
        assert bm.divergence_cost([0.5, 0.7], flagged) == pytest.approx(want, rel=1e-7)

    def test_bounds_and_truth_are_clamped(self):
        curve = IntervalCurve(self.grid(), [0.0, 0.0], [1.0, 1.0], [False, False])
        edge = bm.divergence_cost([0.0, 1.0], curve)
        clamp = bm.PROB_CLAMP
        want = 0.5 * (
            band_kl_quadrature(clamp, clamp, 1.0 - clamp)
            + band_kl_quadrature(1.0 - clamp, clamp, 1.0 - clamp)
        )
        assert math.isfinite(edge)
        assert edge == pytest.approx(want, rel=1e-6)

    def test_hairline_band_collapses_to_midpoint_divergence(self):
        lo, hi = 0.4, 0.4 + 1e-12
        curve = IntervalCurve(self.grid(), [lo, lo], [hi, hi], [False, False])
        want = bernoulli_kl(0.6, 0.5 * (lo + hi))
        assert bm.divergence_cost([0.6, 0.6], curve) == pytest.approx(want, rel=1e-9)

    def test_score_reports_scale_by_one_thousand(self):
        score = bm.MethodScore("uniform", 1.0, 1.0, 0.0123)
        assert score.cost_x1000 == pytest.approx(12.3)


class TestCoverage:
    def test_counts_contained_points(self):
        p_true = [0.3, 0.7, 0.2]
        lo, hi, undefined = [0.2, 0.2, 0.2], [0.6, 0.6, 0.6], [False] * 3
        assert bm.coverage(p_true, lo, hi, undefined) == pytest.approx(2.0 / 3.0)

    def test_flagged_points_count_as_covered(self):
        assert bm.coverage([0.9, 0.9], [0.2, np.nan], [0.3, np.nan], [False, True]) == 0.5

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            bm.coverage([0.1, 0.2, 0.3], [0.1, 0.1], [0.2, 0.2], [False, False])

    def test_every_band_array_must_match_the_truth(self):
        # a column hi or a short mask would broadcast the rule into a table
        p_true, lo, hi = np.array([0.3, 0.5, 0.7]), np.full(3, 0.2), np.full(3, 0.6)
        mask = np.zeros(3, dtype=bool)
        with pytest.raises(ValueError):
            bm.coverage(p_true, lo, hi[:, None], mask)
        with pytest.raises(ValueError):
            bm.coverage(p_true, lo, hi, mask[:1])
        assert bm.coverage(p_true, lo, hi, mask) == pytest.approx(2.0 / 3.0)


class TestKsUniform:
    def test_hand_worked_two_point_sample(self):
        # sorted x = [0.1, 0.6]: ecdf overshoot max(0.5-0.1, 1-0.6) = 0.4,
        # undershoot max(0.1-0, 0.6-0.5) = 0.1
        assert ks_uniform([0.6, 0.1]) == pytest.approx(0.4)

    def test_rank_grid_distance_is_one_over_n_plus_one(self):
        n = 3
        assert ks_uniform(np.arange(1, n + 1) / (n + 1)) == pytest.approx(1.0 / (n + 1))

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            ks_uniform([])


class TestMethodRegistry:
    def test_known_methods(self):
        assert bm.sensitivity_model_for("deltamsm") == DeltaMSM()
        assert bm.sensitivity_model_for("cmsm") == CMSM()
        assert bm.sensitivity_model_for("uniform") == Uniform()
        assert bm.sensitivity_model_for("binarymsm") == BinaryMSM()

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="unknown method"):
            bm.sensitivity_model_for("msm")


def fitted_for(trial, seed=0):
    config = dataclasses.replace(FAST_TRAIN, seed=seed)
    x = trial.visible(trial.train_idx)
    t = trial.treatments(trial.train_idx)
    return FittedModels(
        outcome=fit_outcome(x, t, trial.outcomes(trial.train_idx), config),
        propensity=fit_propensity(x, t, config),
    )


def calibrate(method, trial, models, config):
    """``method``'s calibrated score on one trial, as a benchmark run finds it."""
    return bm._calibrate_from_tables(
        method, *bm._trial_tables(trial, models, config), config.dose_grid(),
        config.gamma_grid(), config.target_coverage,
    )


class TestCalibrateGamma:
    def exhaustive_oracle(self, method, trial, models, config):
        """First grid gamma reaching target coverage, one scalar run each."""
        sens = bm.sensitivity_model_for(method)
        t_grid = config.dose_grid()
        p_true = bm.true_apo(trial, t_grid)
        test_x = trial.visible(trial.test_idx)
        curves = [
            apo_interval(models, sens, test_x, t_grid, float(g))
            for g in config.gamma_grid()
        ]
        covs = [bm.coverage(p_true, c.lo, c.hi, c.undefined_mask) for c in curves]
        hits = [i for i, c in enumerate(covs) if c >= config.target_coverage]
        pick = hits[0] if hits else len(curves) - 1
        if hits:
            cost = bm.divergence_cost(p_true, curves[pick])
        else:
            vacuous = IntervalCurve(
                t_grid, np.zeros_like(t_grid), np.ones_like(t_grid),
                np.zeros(len(t_grid), dtype=bool),
            )
            cost = bm.divergence_cost(p_true, vacuous)
        return bm.MethodScore(
            method=method,
            gamma_star=float(config.gamma_grid()[pick]),
            coverage=covs[pick],
            cost=cost,
            flags=() if hits else ("uncalibrated",),
        )

    @pytest.mark.parametrize("method", ["deltamsm", "cmsm", "uniform", "binarymsm"])
    def test_matches_exhaustive_scalar_scan(self, method):
        config = small_config()
        trial = bm.generate_trial(bm.synthetic_raw(120, 5, seed=21), config)
        models = fitted_for(trial)
        got = calibrate(method, trial, models, config)
        want = self.exhaustive_oracle(method, trial, models, config)
        assert got.gamma_star == want.gamma_star
        assert got.coverage == pytest.approx(want.coverage, rel=1e-13)
        assert got.cost == pytest.approx(want.cost, rel=1e-12)
        assert ("uncalibrated" in got.flags) == ("uncalibrated" in want.flags)

    def test_zero_target_picks_the_first_gamma(self):
        config = small_config(target_coverage=0.0)
        trial = bm.generate_trial(bm.synthetic_raw(120, 5, seed=21), config)
        score = calibrate("uniform", trial, fitted_for(trial), config)
        assert score.gamma_star == 1.0
        assert "uncalibrated" not in score.flags

    def test_unreachable_target_keeps_the_largest_gamma_and_flags(self):
        # at gamma_max = 1 every band is a point curve, which cannot cover
        # the whole truth unless the fit is exact
        config = small_config(target_coverage=1.0, gamma_max=1.0, gamma_grid_size=2)
        trial = bm.generate_trial(bm.synthetic_raw(120, 5, seed=21), config)
        score = calibrate("uniform", trial, fitted_for(trial), config)
        assert score.gamma_star == 1.0
        assert "uncalibrated" in score.flags
        assert score.coverage < 1.0

    def test_unreachable_target_is_charged_the_vacuous_band(self):
        config = small_config(target_coverage=1.0, gamma_max=1.0, gamma_grid_size=2)
        trial = bm.generate_trial(bm.synthetic_raw(120, 5, seed=21), config)
        score = calibrate("uniform", trial, fitted_for(trial), config)
        t_grid = config.dose_grid()
        p_true = bm.true_apo(trial, t_grid)
        vacuous = IntervalCurve(
            t_grid, np.zeros_like(t_grid), np.ones_like(t_grid),
            np.zeros(len(t_grid), dtype=bool),
        )
        assert score.cost == pytest.approx(bm.divergence_cost(p_true, vacuous), rel=1e-13)
        # and that price always exceeds what any in-grid band would have paid
        raw = calibrate(
            "uniform", trial, fitted_for(trial), dataclasses.replace(config, target_coverage=0.0)
        )
        assert score.cost > raw.cost


def full_scan_score(method, propensity_params, prob_matrix, p_true, t_grid, gammas, target):
    """Calibration by scanning every gamma column, the oracle for the search,
    and each (dose, gamma) point's verdict: covered or flagged."""
    engine = DivisorEngine(bm.sensitivity_model_for(method), propensity_params)
    lo, hi, undefined = apo_band_matrix(engine, prob_matrix, t_grid, gammas)
    with np.errstate(invalid="ignore"):
        inside = (lo <= p_true[:, None]) & (p_true[:, None] <= hi)
    verdicts = inside | undefined
    covered = np.mean(verdicts, axis=0)
    reached = covered >= target
    flags = []
    if reached.any():
        pick = int(np.argmax(reached))
    else:
        pick = len(gammas) - 1
        flags.append("uncalibrated")
    if undefined[:, pick].any():
        flags.append("undefined_points")
    if "uncalibrated" in flags:
        curve = IntervalCurve(
            t_grid, np.zeros_like(t_grid), np.ones_like(t_grid),
            np.zeros(len(t_grid), dtype=bool),
        )
    else:
        curve = IntervalCurve(t_grid, lo[:, pick], hi[:, pick], undefined[:, pick])
    score = bm.MethodScore(
        method=method,
        gamma_star=float(gammas[pick]),
        coverage=float(covered[pick]),
        cost=bm.divergence_cost(p_true, curve),
        flags=tuple(flags),
    )
    return score, verdicts


def trial_tables(raw, config, train_config, trial_id):
    """(propensity params, outcome probabilities, true APO, dose grid) that
    run_benchmark calibrates trial ``trial_id`` on."""
    trial = bm.generate_trial(
        raw, dataclasses.replace(config, seed=derive_seed(config.seed, "trial", trial_id))
    )
    fit = dataclasses.replace(train_config, seed=derive_seed(config.seed, "fit", trial_id))
    x, t = trial.visible(trial.train_idx), trial.treatments(trial.train_idx)
    outcome = fit_outcome(x, t, trial.outcomes(trial.train_idx), fit)
    propensity = fit_propensity(x, t, fit)
    t_grid = config.dose_grid()
    test_x = trial.visible(trial.test_idx)
    return (
        propensity.predict(test_x),
        bm._outcome_prob_matrix(outcome, test_x, t_grid),
        bm.true_apo(trial, t_grid),
        t_grid,
    )


# Reduced scale: 50 test rows, 15 doses, 25 gammas up to 3, target 0.8.  Its
# 50 trials hold calibrated and uncalibrated methods and flagged points.
REDUCED = bm.TrialConfig(
    n_confounders=4, form="quadratic", n_train=150, n_test=50, t_grid_size=15,
    gamma_grid_size=25, gamma_max=3.0, target_coverage=0.8, seed=3,
)


@pytest.fixture(scope="module")
def reduced_tables():
    raw = bm.synthetic_raw(300, 6, seed=2)
    return [trial_tables(raw, REDUCED, TrainConfig(epochs=10), i) for i in range(50)]


def search_and_scan(tables, gammas, target, methods=bm.DEFAULT_METHODS):
    """(search score, full-scan score, full-scan verdict per point) for
    every method on one trial."""
    propensity, prob_matrix, p_true, t_grid = tables
    return [
        (
            bm._calibrate_from_tables(
                method, propensity, prob_matrix, p_true, t_grid, gammas, target
            ),
            *full_scan_score(method, propensity, prob_matrix, p_true, t_grid, gammas, target),
        )
        for method in methods
    ]


class TestCalibrationSearch:
    """The bisection of the coverage curve picks what a scan of every column
    picks, with bitwise-equal coverage and cost, builds only the doses its
    built columns leave open, and its band points are the grid's."""

    def assert_same(self, results):
        for got, want, _ in results:
            assert got == want
            assert got.cost.hex() == want.cost.hex()

    def assert_no_dose_is_lost(self, results):
        # the search's premise: a dose covered at one column stays covered at
        # the next, so coverage never falls as gamma grows either
        for _, _, verdicts in results:
            assert not np.any(verdicts[:, :-1] & ~verdicts[:, 1:])
            assert np.all(np.diff(np.mean(verdicts, axis=0)) >= 0.0)

    def test_matches_the_full_scan_on_fifty_reduced_trials(self, reduced_tables):
        seen = set()
        for tables in reduced_tables:
            results = search_and_scan(tables, REDUCED.gamma_grid(), REDUCED.target_coverage)
            self.assert_same(results)
            self.assert_no_dose_is_lost(results)
            for got, _, _ in results:
                seen.update(got.flags)
                seen.add("interior" if 1.0 < got.gamma_star < REDUCED.gamma_max else "edge")
        assert seen == {"uncalibrated", "undefined_points", "interior", "edge"}

    def test_matches_the_full_scan_on_default_trials(self):
        config = bm.TrialConfig()
        raw = bm.synthetic_raw(1000, 16, seed=0)
        flags = set()
        for trial_id in range(12):
            tables = trial_tables(raw, config, TrainConfig(), trial_id)
            results = search_and_scan(tables, config.gamma_grid(), config.target_coverage)
            self.assert_same(results)
            self.assert_no_dose_is_lost(results)
            flags.update(flag for got, _, _ in results for flag in got.flags)
        assert flags == {"uncalibrated", "undefined_points"}

    @pytest.mark.parametrize("size", [2, 3, 4, 8, 17, 100])
    @pytest.mark.parametrize("target", [0.0, 0.5, 0.8, 1.0])
    def test_matches_the_full_scan_on_any_grid_and_target(self, reduced_tables, size, target):
        gammas = np.linspace(1.0, REDUCED.gamma_max, size)
        for tables in reduced_tables[:8]:
            self.assert_same(search_and_scan(tables, gammas, target))

    @pytest.mark.parametrize("size", [2, 3, 4, 8, 17, 100])
    def test_builds_only_the_doses_each_round_leaves_open(
        self, reduced_tables, monkeypatch, size
    ):
        calls = []

        def counting(engine, prob_matrix, t_grid, dose_idx, gammas):
            band = _band_points(engine, prob_matrix, t_grid, dose_idx, gammas)
            calls.append((np.array(dose_idx), np.array(gammas), band))
            return band

        monkeypatch.setattr(bm, "_band_points", counting)
        gammas = np.linspace(1.0, REDUCED.gamma_max, size)
        doses = np.arange(REDUCED.t_grid_size)
        skipped_some = False
        for tables in reduced_tables[:8]:
            p_true = tables[2]
            for target in (0.0, 0.5, 0.8, 1.0):
                for method in bm.DEFAULT_METHODS:
                    calls.clear()
                    score = bm._calibrate_from_tables(method, *tables, gammas, target)
                    *rounds, (fill_idx, fill_gammas, _) = calls
                    assert 1 <= len(rounds) <= math.ceil(math.log2(size + 1))
                    # replayed: a round builds the middle column of the open
                    # range on the doses no built column has decided yet
                    covered = np.zeros(len(doses), dtype=bool)
                    missed = np.zeros(len(doses), dtype=bool)
                    left, right = 0, size
                    for dose_idx, point_gammas, (lo, hi, undefined) in rounds:
                        assert left < right
                        mid = (left + right) // 2
                        np.testing.assert_array_equal(dose_idx, doses[~(covered | missed)])
                        assert np.all(point_gammas == gammas[mid])
                        verdict = covered.copy()
                        p = p_true[dose_idx]
                        with np.errstate(invalid="ignore"):
                            verdict[dose_idx] = ((lo <= p) & (p <= hi)) | undefined
                        reached = np.mean(verdict) >= target
                        if reached or mid == size - 1:
                            pick, built = mid, dose_idx
                        if reached:
                            missed, right = ~verdict, mid
                        else:
                            covered, left = verdict, mid + 1
                    assert left == right
                    assert score.gamma_star == gammas[pick]
                    # one fill call builds the picked column's skipped doses
                    np.testing.assert_array_equal(fill_idx, np.setdiff1d(doses, built))
                    assert np.all(fill_gammas == gammas[pick])
                    skipped_some |= len(fill_idx) > 0
                    points = [
                        (dose, gamma)
                        for dose_idx, point_gammas, _ in calls
                        for dose, gamma in zip(dose_idx, point_gammas)
                    ]
                    assert len(set(points)) == len(points)
        assert skipped_some

    def test_band_points_are_the_grid_entries(self):
        # at 500 random (dose, gamma) points of default trials 0 and 3,
        # flagged points included, each method's kernel gives the bits of the
        # full product grid
        config = bm.TrialConfig()
        raw = bm.synthetic_raw(1000, 16, seed=0)
        gammas = config.gamma_grid()
        rng = np.random.default_rng(3)
        flagged = 0
        for trial_id in (0, 3):
            propensity, prob_matrix, _, t_grid = trial_tables(
                raw, config, TrainConfig(), trial_id
            )
            for method in bm.DEFAULT_METHODS:
                engine = DivisorEngine(bm.sensitivity_model_for(method), propensity)
                full = apo_band_matrix(engine, prob_matrix, t_grid, gammas)
                doses = rng.integers(0, len(t_grid), 500)
                cols = rng.integers(0, len(gammas), 500)
                points = _band_points(engine, prob_matrix, t_grid, doses, gammas[cols])
                for got, whole in zip(points, full):
                    assert got.tobytes() == whole[doses, cols].tobytes()
                flagged += int(points[2].sum())
        assert flagged > 0

    def test_a_band_column_does_not_depend_on_the_gammas_it_is_built_with(self):
        # the search's exactness premise: any increasing gamma subset gives
        # the full sweep's columns bit for bit, flagged points included
        config = bm.TrialConfig()
        raw = bm.synthetic_raw(1000, 16, seed=0)
        propensity, prob_matrix, _, t_grid = trial_tables(raw, config, TrainConfig(), 0)
        gammas = config.gamma_grid()
        rng = np.random.default_rng(0)
        subsets = [
            np.sort(rng.choice(len(gammas), rng.integers(1, 9), replace=False))
            for _ in range(30)
        ]
        for method in bm.DEFAULT_METHODS:
            engine = DivisorEngine(bm.sensitivity_model_for(method), propensity)
            full = apo_band_matrix(engine, prob_matrix, t_grid, gammas)
            for cols in subsets:
                part = apo_band_matrix(engine, prob_matrix, t_grid, gammas[cols])
                for whole, sub in zip(full, part):
                    np.testing.assert_array_equal(sub, whole[:, cols])


class TestRunBenchmark:
    def run_small(self, methods=("uniform", "cmsm"), n_trials=3, **config_kw):
        config = small_config(**config_kw)
        raw = bm.synthetic_raw(150, 5, seed=1)
        return bm.run_benchmark(
            config, raw, methods=methods, n_trials=n_trials, train_config=FAST_TRAIN
        )

    def test_report_shape_and_summary_bookkeeping(self):
        report = self.run_small()
        assert len(report.results) == 3
        assert all(r.error is None for r in report.results)
        assert [r.trial_id for r in report.results] == [0, 1, 2]
        summary = report.summary
        assert summary["schema"] == "dosebounds-benchmark-summary-v1"
        assert summary["n_trials"] == 3 and summary["n_failed"] == 0
        assert summary["config"]["seed"] == 11
        per_method = summary["per_method"]
        assert set(per_method) == {"uniform", "cmsm"}
        credits = [per_method[m]["pct_best"] for m in per_method]
        assert sum(credits) == pytest.approx(100.0)
        for stats in per_method.values():
            assert stats["mean_ratio_to_best"] >= 1.0
            assert 0.0 <= stats["mean_coverage"] <= 1.0
            assert stats["mean_cost_x1000"] >= 0.0

    def test_single_method_always_wins(self):
        report = self.run_small(methods=("uniform",), n_trials=2)
        stats = report.summary["per_method"]["uniform"]
        assert stats["pct_best"] == pytest.approx(100.0)
        assert stats["mean_ratio_to_best"] == pytest.approx(1.0)
        assert stats["std_ratio_to_best"] == pytest.approx(0.0)

    def test_duplicate_methods_raise(self):
        # a repeated method would take extra shares of every tie in pct_best
        with pytest.raises(ValueError, match="duplicate methods: 'uniform'"):
            self.run_small(methods=("uniform", "cmsm", "uniform"), n_trials=1)

    def test_non_string_methods_raise(self):
        with pytest.raises(ValueError, match=r"method names must be strings, got \['uniform'\]"):
            self.run_small(methods=(["uniform"], "cmsm"), n_trials=1)

    def test_reruns_are_byte_identical(self):
        a = self.run_small().summary
        b = self.run_small().summary
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_more_than_one_worker_is_rejected(self, monkeypatch):
        # trials run serially; n_workers stays only as a keyword that must be 1
        monkeypatch.setattr(bm, "generate_trial", lambda *args: pytest.fail("a trial ran"))
        with pytest.raises(ValueError, match="n_workers must be 1"):
            bm.run_benchmark(small_config(), bm.synthetic_raw(150, 5, seed=1), n_workers=2)

    def test_trial_failures_are_recorded_not_fatal(self, monkeypatch):
        real = bm.generate_trial
        calls = []

        def flaky(raw, config):
            calls.append(config.seed)
            if len(calls) == 2:
                raise ValueError("boom")
            return real(raw, config)

        monkeypatch.setattr(bm, "generate_trial", flaky)
        report = self.run_small(methods=("uniform",), n_trials=3)
        assert report.summary["n_failed"] == 1
        failed = [r for r in report.results if r.error is not None]
        assert len(failed) == 1 and failed[0].trial_id == 1
        assert failed[0].error == "ValueError: boom"
        assert report.summary["errors"] == {"1": "ValueError: boom"}
        # the failing trial is excluded from aggregates but keeps its row
        assert report.summary["per_method"]["uniform"]["pct_best"] == pytest.approx(100.0)

    def test_validation(self):
        config = small_config()
        raw = bm.synthetic_raw(150, 5, seed=1)
        with pytest.raises(ValueError):
            bm.run_benchmark(config, raw, methods=(), n_trials=1)
        with pytest.raises(ValueError, match="unknown method"):
            bm.run_benchmark(config, raw, methods=("msm",), n_trials=1)
        with pytest.raises(ValueError):
            bm.run_benchmark(config, raw, n_trials=0)


class TestReportFiles:
    def test_trials_csv_layout(self, tmp_path):
        config = small_config()
        raw = bm.synthetic_raw(150, 5, seed=1)
        report = bm.run_benchmark(
            config, raw, methods=("uniform", "cmsm"), n_trials=2, train_config=FAST_TRAIN
        )
        path = tmp_path / "trials.csv"
        bm.write_trials_csv(str(path), report)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "trial_id,method,gamma_star,coverage,cost_x1000,flags"
        assert len(lines) == 1 + 2 * 2
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "uniform"
        assert float(first[2]) >= 1.0

    def test_failed_trials_become_failed_rows(self, tmp_path, monkeypatch):
        def always_boom(raw, config):
            raise RuntimeError("bad, data")

        monkeypatch.setattr(bm, "generate_trial", always_boom)
        config = small_config()
        report = bm.run_benchmark(
            config, bm.synthetic_raw(150, 5, seed=1), methods=("uniform",), n_trials=1
        )
        path = tmp_path / "trials.csv"
        bm.write_trials_csv(str(path), report)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[1] == "failed"
        assert cells[5] == "RuntimeError: bad; data"

    def test_summary_json_round_trip_and_stability(self, tmp_path):
        config = small_config()
        raw = bm.synthetic_raw(150, 5, seed=1)
        report = bm.run_benchmark(
            config, raw, methods=("uniform",), n_trials=2, train_config=FAST_TRAIN
        )
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        bm.write_summary_json(str(path_a), report)
        bm.write_summary_json(
            str(path_b),
            bm.run_benchmark(
                config, raw, methods=("uniform",), n_trials=2, train_config=FAST_TRAIN
            ),
        )
        assert path_a.read_bytes() == path_b.read_bytes()
        assert json.loads(path_a.read_text())["schema"] == "dosebounds-benchmark-summary-v1"

    def test_summary_json_is_strict_when_a_trial_costs_nothing(self, tmp_path):
        # a zero best cost makes the other methods' ratio-to-best inf and its std NaN
        methods = ("deltamsm", "uniform")
        results = (
            bm.TrialResult(0, (bm.MethodScore("deltamsm", 1.0, 1.0, 0.0),
                               bm.MethodScore("uniform", 1.5, 0.95, 0.02))),
            bm.TrialResult(1, (bm.MethodScore("deltamsm", 1.2, 0.93, 0.01),
                               bm.MethodScore("uniform", 1.5, 0.95, 0.02))),
        )
        with np.errstate(invalid="ignore"):
            summary = bm._summarize(small_config(), methods, results)
        assert math.isinf(summary["per_method"]["uniform"]["mean_ratio_to_best"])
        path = tmp_path / "summary.json"
        bm.write_summary_json(str(path), bm.TrialReport(methods, results, summary))

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        doc = json.loads(path.read_text(), parse_constant=reject)
        uniform = doc["per_method"]["uniform"]
        assert uniform["mean_ratio_to_best"] == "inf"
        assert uniform["std_ratio_to_best"] == "nan"
        assert doc["per_method"]["deltamsm"]["mean_ratio_to_best"] == 1.0
