import math

import numpy as np
import pytest

from dosebounds.models import (
    OutcomeModel,
    PropensityModel,
    TrainConfig,
    fit_outcome,
    fit_propensity,
    model_payload,
    outcome_loss_grad,
    propensity_loss_grad,
)
from dosebounds.models import (
    TREATMENT_CLEARANCE,
    _adam,
    _features,
    _outcome_grad,
    _propensity_grad,
    _sigmoid,
)
from dosebounds.seeds import substream
from dosebounds.sensitivity import BetaPropensity


def central_difference(loss_fn, params, step=1e-5):
    grad = np.empty_like(params)
    for i in range(len(params)):
        bumped = params.copy()
        bumped[i] += step
        up = loss_fn(bumped)
        bumped[i] -= 2.0 * step
        down = loss_fn(bumped)
        grad[i] = (up - down) / (2.0 * step)
    return grad


def synthetic_outcome_data(seed, n=4000, d=2):
    rng = substream(seed, "outcome-data")
    x = rng.normal(size=(n, d))
    t = rng.uniform(0.05, 0.95, size=n)
    true_w = np.array([40.0, -30.0, 25.0])
    true_b = 10.0
    u = (np.column_stack([x, t]) @ true_w + true_b) / 100.0
    p = _sigmoid(u)
    y = (rng.uniform(size=n) < p).astype(float)
    return x, t, y, p


class TestHeads:
    def test_sigmoid_equals_the_two_division_form(self):
        u = np.array([0.0, -0.0, 1e-300, -1e-300, 37.0, -37.0, 745.0, -745.0,
                      800.0, -800.0, np.inf, -np.inf, np.nan])
        for arr in (u, u.reshape(-1, 1)):
            shrink = np.exp(-np.abs(arr))
            denom = 1.0 + shrink
            oracle = np.where(arr >= 0.0, 1.0 / denom, shrink / denom)
            assert _sigmoid(arr).tobytes() == oracle.tobytes()

    def test_zero_initialized_outcome_predicts_half(self):
        model = OutcomeModel(weights=np.zeros(3), bias=0.0)
        assert model.predict(np.array([0.4, -1.0]), 0.7) == pytest.approx(0.5)

    def test_zero_initialized_propensity_is_symmetric(self):
        model = PropensityModel(
            alpha_weights=np.zeros(2),
            alpha_bias=0.0,
            beta_weights=np.zeros(2),
            beta_bias=0.0,
        )
        params = model.predict(np.array([3.0, -2.0]))
        assert isinstance(params, BetaPropensity)
        assert params.alpha_bar == pytest.approx(50.0)
        assert params.beta_bar == pytest.approx(50.0)

    def test_outcome_shapes(self):
        model = OutcomeModel(weights=np.array([1.0, 2.0, 3.0]), bias=-1.0)
        single = model.predict(np.array([0.1, 0.2]), 0.5)
        assert isinstance(single, float)
        batch = model.predict(np.tile([0.1, 0.2], (4, 1)), 0.5)
        assert batch.shape == (4,)
        np.testing.assert_allclose(batch, single)
        per_dose = model.predict(np.tile([0.1, 0.2], (4, 1)), np.linspace(0, 1, 4))
        assert np.all(np.diff(per_dose) > 0.0)

    def test_propensity_batch_matches_single(self):
        rng = substream(3, "heads")
        model = PropensityModel(
            alpha_weights=rng.normal(size=2),
            alpha_bias=0.3,
            beta_weights=rng.normal(size=2),
            beta_bias=-0.4,
        )
        xs = rng.normal(size=(5, 2))
        batch = model.predict(xs)
        for i, row in enumerate(xs):
            one = model.predict(row)
            assert batch.alpha_bar[i] == pytest.approx(one.alpha_bar)
            assert batch.beta_bar[i] == pytest.approx(one.beta_bar)

    def test_propensity_outputs_stay_inside_open_interval(self):
        model = PropensityModel(
            alpha_weights=np.array([1e6]),
            alpha_bias=1e9,
            beta_weights=np.array([1e6]),
            beta_bias=-1e9,
        )
        params = model.predict(np.array([1.0]))
        assert 0.0 < params.beta_bar and params.alpha_bar < 100.0

    def test_outcome_support_enumerates_bernoulli(self):
        model = OutcomeModel(weights=np.zeros(2), bias=0.0)
        values, probs = model.outcome_support(np.array([1.0]), 0.3)
        np.testing.assert_allclose(values, [0.0, 1.0])
        np.testing.assert_allclose(probs, [0.5, 0.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            OutcomeModel(weights=np.zeros((2, 2)), bias=0.0)
        # the stretch and the cap are module constants, not fields
        with pytest.raises(TypeError):
            OutcomeModel(weights=np.zeros(2), bias=0.0, stretch=0.0)
        with pytest.raises(TypeError):
            PropensityModel(
                alpha_weights=np.zeros(2),
                alpha_bias=0.0,
                beta_weights=np.zeros(2),
                beta_bias=0.0,
                cap=1.0,
            )
        with pytest.raises(ValueError):
            PropensityModel(
                alpha_weights=np.zeros(2),
                alpha_bias=0.0,
                beta_weights=np.zeros(3),
                beta_bias=0.0,
            )
        model = OutcomeModel(weights=np.zeros(3), bias=0.0)
        with pytest.raises(ValueError):
            model.predict(np.zeros(4), 0.5)


class TestGradients:
    def test_outcome_gradient_matches_central_difference(self):
        rng = substream(11, "grad-check")
        x = rng.normal(size=(40, 3))
        t = rng.uniform(0.1, 0.9, size=40)
        y = (rng.uniform(size=40) < 0.5).astype(float)
        for _ in range(10):
            params = rng.normal(scale=20.0, size=5)
            _, grad = outcome_loss_grad(params, x, t, y)
            fd = central_difference(lambda p: outcome_loss_grad(p, x, t, y)[0], params)
            np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-12)

    def test_propensity_gradient_matches_central_difference(self):
        rng = substream(12, "grad-check")
        x = rng.normal(size=(40, 2))
        t = rng.uniform(0.1, 0.9, size=40)
        for _ in range(10):
            params = rng.normal(scale=20.0, size=6)
            _, grad = propensity_loss_grad(params, x, t)
            fd = central_difference(lambda p: propensity_loss_grad(p, x, t)[0], params)
            np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-12)

    def test_propensity_rejects_boundary_treatments(self):
        with pytest.raises(ValueError):
            propensity_loss_grad(np.zeros(4), np.zeros((2, 1)), np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            propensity_loss_grad(np.zeros(5), np.zeros((2, 1)), np.array([0.2, 0.5]))


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


class TestGradientOnlySteps:
    """Training steps skip the loss; they must equal the *_loss_grad gradient bit for bit."""

    def test_outcome_grad_equals_the_loss_grad_gradient(self):
        rng = substream(13, "exact-steps")
        for n, d in ((1, 1), (40, 3), (187, 5)):
            x = rng.normal(size=(n, d))
            t = rng.uniform(0.0, 1.0, size=n)
            y = (rng.uniform(size=n) < 0.5).astype(float)
            feats = _features(x, t)
            for _ in range(5):
                params = rng.normal(scale=20.0, size=d + 2)
                _, grad = outcome_loss_grad(params, x, t, y)
                assert bits(_outcome_grad(params, feats, y)) == bits(grad)

    def test_propensity_grad_equals_the_loss_grad_gradient(self):
        rng = substream(14, "exact-steps")
        for n, d in ((1, 1), (40, 3), (187, 5)):
            x = rng.normal(size=(n, d))
            t = rng.uniform(1e-6, 1.0 - 1e-6, size=n)
            for _ in range(5):
                params = rng.normal(scale=50.0, size=2 * d + 2)
                _, grad = propensity_loss_grad(params, x, t)
                fast = _propensity_grad(params, x, np.log(t), np.log1p(-t))
                assert bits(fast) == bits(grad)

    @pytest.mark.parametrize(
        "config", [TrainConfig(seed=3), TrainConfig(seed=5, batches=7, epochs=13, learning_rate=0.5)]
    )
    def test_fits_equal_a_loss_grad_reference(self, config):
        rng = substream(15, "exact-fits")
        x = rng.normal(size=(301, 3))
        t = rng.beta(2.0, 3.0, size=301)
        t[:2] = (0.0, 1.0)  # exercises the clamped-treatment path
        y = (rng.uniform(size=301) < 0.4).astype(float)
        clamped = np.clip(t, TREATMENT_CLEARANCE, 1.0 - TREATMENT_CLEARANCE)

        ref_outcome = _adam(
            lambda p, xb, tb, yb: outcome_loss_grad(p, xb, tb, yb)[1], np.zeros(5), (x, t, y), config
        )
        ref_propensity = _adam(
            lambda p, xb, tb: propensity_loss_grad(p, xb, tb)[1], np.zeros(8), (x, clamped), config
        )
        outcome = fit_outcome(x, t, y, config)
        propensity = fit_propensity(x, t, config)
        assert bits(np.append(outcome.weights, outcome.bias)) == bits(ref_outcome)
        fitted = np.concatenate(
            [propensity.alpha_weights, [propensity.alpha_bias],
             propensity.beta_weights, [propensity.beta_bias]]
        )
        assert bits(fitted) == bits(ref_propensity)

    def test_batches_are_the_array_split_partition(self):
        # batches beyond n_samples are empty: skipped, and not counted as steps
        for n in range(1, 41):
            for batches in range(1, 10):
                config = TrainConfig(seed=n, batches=batches, epochs=3)
                seen = []

                def grad_fn(params, batch):
                    seen.append(batch)
                    return np.ones_like(params)

                _adam(grad_fn, np.zeros(2), (np.arange(n),), config)
                rng = substream(config.seed, "batch-shuffle")
                want = [
                    part
                    for _ in range(config.epochs)
                    for part in np.array_split(rng.permutation(n), batches)
                    if len(part)
                ]
                assert len(seen) == len(want) == config.epochs * min(n, batches)
                for got, part in zip(seen, want):
                    assert got.dtype == part.dtype and np.array_equal(got, part)

    def test_a_batch_takes_the_same_rows_from_every_array(self):
        for n in (1, 7, 40):
            config = TrainConfig(seed=n, batches=3, epochs=4)
            seen = []

            def grad_fn(params, rows, tens):
                seen.append((rows, tens))
                return np.ones_like(params)

            _adam(grad_fn, np.zeros(2), (np.arange(n), 10 * np.arange(n)), config)
            per_epoch = min(n, config.batches)
            assert len(seen) == config.epochs * per_epoch
            for rows, tens in seen:
                assert len(rows) and np.array_equal(tens, 10 * rows)
            for epoch in range(config.epochs):
                batches = seen[epoch * per_epoch : (epoch + 1) * per_epoch]
                rows = np.concatenate([rows for rows, _ in batches])
                assert np.array_equal(np.sort(rows), np.arange(n))

    def test_batches_beyond_the_row_count_fit_as_one_row_each(self):
        x, t, y, _ = synthetic_outcome_data(11, n=40)
        fits = set()
        for batches in (40, 41, 400):
            config = TrainConfig(epochs=3, batches=batches)
            outcome = fit_outcome(x, t, y, config)
            propensity = fit_propensity(x, t, config)
            fits.add((
                bits(np.append(outcome.weights, outcome.bias)),
                bits(np.append(propensity.alpha_weights, propensity.alpha_bias)),
                bits(np.append(propensity.beta_weights, propensity.beta_bias)),
            ))
        assert len(fits) == 1


class TestFitting:
    def test_outcome_fit_recovers_generating_probabilities(self):
        x, t, y, p = synthetic_outcome_data(7)
        model = fit_outcome(x, t, y)
        p_hat = model.predict(x, t)
        assert np.mean(np.abs(p_hat - p)) < 0.04
        assert np.max(np.abs(p_hat - p)) < 0.12

    def test_outcome_fit_reduces_loss(self):
        x, t, y, _ = synthetic_outcome_data(8, n=1000)
        model = fit_outcome(x, t, y)
        initial, _ = outcome_loss_grad(np.zeros(4), x, t, y)
        final, _ = outcome_loss_grad(np.concatenate([model.weights, [model.bias]]), x, t, y)
        assert final < initial

    def test_propensity_fit_recovers_beta_parameters(self):
        rng = substream(9, "propensity-data")
        t = rng.beta(3.0, 5.0, size=4000)
        model = fit_propensity(np.zeros((4000, 1)), t)
        params = model.predict(np.zeros(1))
        assert params.alpha_bar == pytest.approx(3.0, rel=0.15)
        assert params.beta_bar == pytest.approx(5.0, rel=0.15)

    def test_fits_are_deterministic(self):
        x, t, y, _ = synthetic_outcome_data(10, n=600)
        config = TrainConfig(epochs=8, seed=3)
        a = fit_outcome(x, t, y, config)
        b = fit_outcome(x, t, y, config)
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias
        pa = fit_propensity(x, t, config)
        pb = fit_propensity(x, t, config)
        assert np.array_equal(pa.alpha_weights, pb.alpha_weights)
        assert pa.beta_bias == pb.beta_bias

    def test_seed_changes_fit(self):
        x, t, y, _ = synthetic_outcome_data(10, n=600)
        a = fit_outcome(x, t, y, TrainConfig(epochs=8, seed=3))
        b = fit_outcome(x, t, y, TrainConfig(epochs=8, seed=4))
        assert not np.array_equal(a.weights, b.weights)

    def test_constant_outcome_flag(self):
        x, t, _, _ = synthetic_outcome_data(13, n=100)
        model = fit_outcome(x, t, np.ones(100), TrainConfig(epochs=2))
        assert "constant_outcome" in model.flags

    def test_boundary_treatments_are_clamped_and_flagged(self):
        rng = substream(14, "clamp")
        t = rng.beta(2.0, 2.0, size=100)
        t[0], t[1] = 0.0, 1.0
        model = fit_propensity(np.zeros((100, 1)), t, TrainConfig(epochs=2))
        assert "clamped_treatments" in model.flags

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_outcome(np.zeros((3, 1)), np.zeros(3), np.array([0.0, 1.0, 2.0]))
        with pytest.raises(ValueError):
            fit_outcome(np.zeros((3, 1)), np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError):
            fit_propensity(np.zeros((0, 1)), np.zeros(0))
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        for rate in (math.inf, math.nan):
            with pytest.raises(ValueError, match="learning_rate"):
                TrainConfig(learning_rate=rate)
        with pytest.raises(ValueError):
            TrainConfig(batches=0)
        # ADAM's moment rates and epsilon are module constants, not settings
        with pytest.raises(TypeError):
            TrainConfig(beta1=0.5)


class TestSerialization:
    def test_rejects_unknown_payloads(self):
        with pytest.raises(ValueError):
            model_payload(object())
