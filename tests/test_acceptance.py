"""Acceptance checklist for the finished package, run at full scale.

Each test prints one PASS/FAIL line (visible with -v on the test name, and
with -s or on failure for the detail), so `pytest -v tests/test_acceptance.py`
reads as the checklist.  Budgets are wall-clock and asserted.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from dosebounds import benchmark as bm
from dosebounds import checks, cli
from dosebounds.estimator import DivisorEngine, apo_band_matrix, apo_interval, capo_interval
from dosebounds.models import FittedModels, TrainConfig, fit_outcome, fit_propensity
from dosebounds.sensitivity import (
    BetaPropensity,
    BinaryMSM,
    DeltaMSM,
    Uniform,
)
from test_benchmark import ks_uniform


def report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {n} failed: {detail}"


class StubOutcome:
    """Linear-logit outcome head with fixed weights; last weight is the dose."""

    def __init__(self, weights, bias):
        self.weights = np.asarray(weights, dtype=float)
        self.bias = float(bias)

    def predict(self, x, t):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        z = x @ self.weights[:-1] + self.weights[-1] * float(t) + self.bias
        return 1.0 / (1.0 + np.exp(-z))


class StubPropensity:
    def __init__(self, params):
        self.params = params

    def predict(self, x):
        return self.params


def test_01_point_identification_collapse():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    n = 40
    x = rng.normal(size=(n, 3))
    outcome = StubOutcome(rng.normal(scale=0.8, size=4), 0.1)
    params = BetaPropensity(rng.uniform(1.2, 6.0, n), rng.uniform(1.2, 6.0, n))
    single = BetaPropensity(float(params.alpha_bar[0]), float(params.beta_bar[0]))
    grid = np.linspace(0.01, 0.99, 100)
    cases = [DeltaMSM(), Uniform(), BinaryMSM()]
    worst_divisor = 0.0
    worst_width = 0.0
    for sens in cases:
        engine = DivisorEngine(sens, params)
        for t in grid:
            d_lo, d_hi = engine.bounds(float(t), 1.0)
            worst_divisor = max(
                worst_divisor,
                float(np.max(np.abs(np.asarray(d_lo) - 1.0))),
                float(np.max(np.abs(np.asarray(d_hi) - 1.0))),
            )
        models = FittedModels(outcome, StubPropensity(params))
        apo = apo_interval(models, sens, x, grid, 1.0)
        capo = capo_interval(FittedModels(outcome, StubPropensity(single)), sens, x[0], grid, 1.0)
        worst_width = max(worst_width, float(np.max(apo.width)), float(np.max(capo.width)))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst_divisor < 1e-9 and worst_width < 1e-9 and elapsed < 1.0,
        f"4 models x 100-point grid: max |d-1| {worst_divisor:.2e}, "
        f"max interval width {worst_width:.2e}, {elapsed:.2f}s",
    )


def test_02_closed_form_expectation_oracle():
    start = time.perf_counter()
    result = checks.check_closed_forms(samples=200, seed=0)
    elapsed = time.perf_counter() - start
    report(
        2,
        result.passed and result.tolerance == 1e-7 and elapsed < 30.0,
        f"{result.n_checked} closed-form vs quadrature comparisons, "
        f"max rel err {result.max_error:.2e} (tol 1e-7), {elapsed:.1f}s",
    )


def test_03_extremizer_brute_force_oracle():
    start = time.perf_counter()
    result = checks.check_extremizer(instances=1000, max_n=12, seed=0)
    elapsed = time.perf_counter() - start
    report(
        3,
        result.passed and result.tolerance == 1e-12 and elapsed < 60.0,
        f"{result.n_checked} instances vs exhaustive vertex search, "
        f"max err {result.max_error:.2e} (tol 1e-12), {elapsed:.1f}s",
    )


def test_04_interval_nesting_and_coverage_monotonicity():
    start = time.perf_counter()
    config = bm.TrialConfig(n_confounders=10, form="quadratic", seed=4)
    trial = bm.generate_trial(bm.synthetic_raw(1000, 16, seed=4), config)
    train_x = trial.visible(trial.train_idx)
    train_t = trial.treatments(trial.train_idx)
    models = FittedModels(
        outcome=fit_outcome(train_x, train_t, trial.outcomes(trial.train_idx), TrainConfig()),
        propensity=fit_propensity(train_x, train_t, TrainConfig()),
    )
    t_grid = config.dose_grid()
    gammas = np.linspace(1.0, 2.5, 20)
    test_x = trial.visible(trial.test_idx)
    p_true = bm.true_apo(trial, t_grid)
    prob_matrix = np.array([models.outcome.predict(test_x, float(t)) for t in t_grid])
    params = models.propensity.predict(test_x)
    violations = 0
    for method in ("deltamsm", "uniform", "binarymsm"):
        engine = DivisorEngine(bm.sensitivity_model_for(method), params)
        lo, hi, undef = apo_band_matrix(engine, prob_matrix, t_grid, gammas)
        with np.errstate(invalid="ignore"):
            nested = (lo[:, 1:] <= lo[:, :-1] + 1e-10) & (hi[:, 1:] >= hi[:, :-1] - 1e-10)
            inside = (lo <= p_true[:, None]) & (p_true[:, None] <= hi)
        violations += int(np.sum(~(nested | undef[:, 1:])))
        covered = np.mean(inside | undef, axis=0)
        violations += int(np.sum(np.diff(covered) < -1e-9))
    elapsed = time.perf_counter() - start
    report(
        4,
        violations == 0 and elapsed < 120.0,
        f"3 models x 100 doses x 20 gammas: {violations} nesting/coverage violations, {elapsed:.1f}s",
    )


def test_05_training_gradient_checks():
    result = checks.check_gradients(points=100, seed=0)
    report(
        5,
        result.passed and result.tolerance == 1e-4,
        f"{result.n_checked} outcome+propensity points vs central differences, "
        f"max rel err {result.max_error:.2e} (tol 1e-4)",
    )


def test_06_benchmark_directional_win_rate(fifty_trial_run):
    # 50 trials of TrialConfig(n_confounders=10, form="quadratic", seed=0) on
    # synthetic_raw(1000, 16, seed=0); see tests/conftest.py
    trial_report, elapsed = fifty_trial_run
    wins = 0
    scored = 0
    for result in trial_report.results:
        if result.error is not None:
            continue
        scored += 1
        costs = {s.method: s.cost for s in result.scores}
        if all(costs["deltamsm"] < c for m, c in costs.items() if m != "deltamsm"):
            wins += 1
    ratio = trial_report.summary["per_method"]["deltamsm"]["mean_ratio_to_best"]
    ok = (
        trial_report.summary["n_failed"] == 0
        and scored == 50
        and wins / scored > 0.5
        and ratio < 1.5
        and elapsed < 1800.0
    )
    report(
        6,
        ok,
        f"deltamsm strictly lowest cost in {wins}/{scored} trials "
        f"(need > 25), mean ratio-to-best {ratio:.3f} (need < 1.5), {elapsed:.0f}s",
    )


def test_07_dgp_uniformity_and_true_curve_oracle():
    config = bm.TrialConfig(n_confounders=10, form="quadratic", seed=7)
    trial = bm.generate_trial(bm.synthetic_raw(1000, 16, seed=7), config)
    ks_worst = max(
        ks_uniform(trial.v_matrix[:, j]) for j in range(trial.v_matrix.shape[1])
    )
    t_grid = config.dose_grid()[::10]
    apo = bm.true_apo(trial, t_grid)
    m_rows = trial.v_matrix[trial.test_idx]
    mix = trial.mixing
    rel_worst = 0.0
    for i, t in enumerate(t_grid):
        total = 0.0
        for row in m_rows:
            v = [float(c) for c in row]
            v[trial.treatment_index] = float(t) * (len(v) - 1)
            u = sum(v[a] * mix[a][b] * v[b] for a in range(len(v)) for b in range(len(v)))
            z = (u - trial.location) / trial.scale
            total += 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        rel_worst = max(rel_worst, abs(total / len(m_rows) - apo[i]) / abs(apo[i]))
    report(
        7,
        ks_worst < 0.05 and rel_worst < 1e-12,
        f"KS max {ks_worst:.4f} over {trial.v_matrix.shape[1]} columns at n=1000 "
        f"(need < 0.05), true-curve recompute rel err {rel_worst:.2e} (tol 1e-12)",
    )


def test_08_benchmark_summary_determinism(tmp_path):
    cfg = {
        "seed": 5,
        "n_trials": 3,
        "trial": {
            "n_confounders": 2,
            "form": "linear",
            "n_train": 80,
            "n_test": 40,
            "t_grid_size": 12,
            "gamma_grid_size": 8,
            "gamma_max": 2.0,
        },
        "train": {"epochs": 6},
        "raw": {"rows": 200, "cols": 6},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        out.mkdir()
        code = cli.main(["benchmark", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        blobs.append((out / "summary.json").read_bytes())
    report(
        8,
        blobs[0] == blobs[1],
        f"two runs, identical config/seed: summary.json byte-identical "
        f"({len(blobs[0])} bytes)",
    )
