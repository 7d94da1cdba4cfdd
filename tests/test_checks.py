"""The self-check suites must pass on a correct build and, just as
importantly, actually catch injected defects."""

import numpy as np
import pytest

from dosebounds import checks


class TestSuitesPass:
    def test_closed_forms(self):
        result = checks.check_closed_forms(samples=15, seed=0)
        assert result.passed
        assert result.suite == "closed-forms"
        assert result.n_checked == 15 * 3 * 2
        assert result.max_error < result.tolerance
        assert result.failures == ()

    def test_extremizer(self):
        result = checks.check_extremizer(instances=150, max_n=10, seed=0)
        assert result.passed
        assert result.n_checked == 600
        assert result.max_error < 1e-12

    def test_extremizer_seed_with_cancelling_running_sums(self):
        # seed 2 holds a box on which total-minus-prefix sums err by 1.4e-12
        result = checks.check_extremizer(instances=500, seed=2)
        assert result.passed, result.describe()

    def test_gradients(self):
        result = checks.check_gradients(points=25, seed=0)
        assert result.passed
        assert result.n_checked == 50
        assert result.max_error < 1e-4

    def test_describe_mentions_verdict_and_counts(self):
        result = checks.check_extremizer(instances=10, seed=0)
        text = result.describe()
        assert "extremizer: PASS" in text
        assert "40 comparisons" in text


class TestDefectDetection:
    def test_closed_forms_catches_a_skewed_closed_form(self, monkeypatch):
        from dosebounds import sensitivity

        real = sensitivity.lambda_expectation_bounds

        def skewed(q, gamma_factor):
            lo, hi = real(q, gamma_factor)
            return lo, hi * (1.0 + 1e-5)

        monkeypatch.setattr(checks, "lambda_expectation_bounds", skewed)
        result = checks.check_closed_forms(samples=3, seed=0)
        assert not result.passed
        assert result.max_error > 1e-6
        assert result.failures

    def test_extremizer_catches_a_biased_optimum(self, monkeypatch):
        from dosebounds import estimator

        real = estimator.extremize

        def biased(f, w_lo, w_hi, direction="max"):
            return real(f, w_lo, w_hi, direction) + 1e-9

        monkeypatch.setattr(checks, "extremize", biased)
        result = checks.check_extremizer(instances=5, seed=0)
        assert not result.passed
        assert result.failures

    def test_extremizer_catches_a_biased_binary_band(self, monkeypatch):
        from dosebounds import estimator

        real = estimator._bernoulli_extremes

        def biased(p_one, d_lo, d_hi, valid=None):
            lo, hi = real(p_one, d_lo, d_hi, valid)
            return lo, hi + 1e-9

        monkeypatch.setattr(checks, "_bernoulli_extremes", biased)
        result = checks.check_extremizer(instances=5, seed=0)
        assert not result.passed
        assert any(item.startswith("bernoulli") for item in result.failures)

    def test_gradients_catches_a_wrong_gradient(self, monkeypatch):
        from dosebounds import models

        real = models.outcome_loss_grad

        def wrong(params, x, t, y, stretch=100.0):
            loss, grad = real(params, x, t, y, stretch)
            return loss, grad * 1.01

        monkeypatch.setattr(checks, "outcome_loss_grad", wrong)
        result = checks.check_gradients(points=3, seed=0)
        assert not result.passed


class TestSuiteSelection:
    def test_aliases_resolve(self):
        assert checks.resolve_suite("closed-forms") == "closed-forms"
        assert checks.resolve_suite("extremizer") == "extremizer"
        assert checks.resolve_suite("gradients") == "gradients"

    def test_unknown_suite_raises(self):
        with pytest.raises(ValueError, match="unknown suite"):
            checks.resolve_suite("everything")

    def test_run_suites_defaults_to_all(self):
        results = checks.run_suites(samples=2, instances=5, max_n=4, points=2)
        assert [r.suite for r in results] == list(checks.SUITE_NAMES)
        assert all(r.passed for r in results)

    def test_run_suites_honors_selection(self):
        results = checks.run_suites(["extremizer"], instances=5, max_n=4)
        assert [r.suite for r in results] == ["extremizer"]

    def test_validation(self):
        with pytest.raises(ValueError):
            checks.check_closed_forms(samples=0)
        with pytest.raises(ValueError):
            checks.check_extremizer(instances=0)
        with pytest.raises(ValueError, match="max_n must be at most 16"):
            checks.check_extremizer(instances=1, max_n=17)
        with pytest.raises(ValueError):
            checks.check_gradients(points=0)


class TestVertexEnumeratorOracle:
    def test_two_draw_box_by_hand(self):
        # corners of ([1,2] x [1,3]) weights with f = (0, 1):
        # ratios 1/2, 3/4, 1/3, 3/5 -> min 1/3, max 3/4
        f = np.array([0.0, 1.0])
        lo, hi = checks._vertex_extrema(f, np.array([1.0, 1.0]), np.array([2.0, 3.0]))
        assert lo == pytest.approx(1.0 / 3.0)
        assert hi == pytest.approx(0.75)

    def test_zero_denominator_corners_are_skipped(self):
        f = np.array([2.0])
        lo, hi = checks._vertex_extrema(f, np.array([0.0]), np.array([1.0]))
        assert lo == 2.0 and hi == 2.0
