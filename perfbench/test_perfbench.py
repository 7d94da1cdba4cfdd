"""Tests of the benchmark itself: every output check must reject a corrupted
output, and the oracles must agree with independent references.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import csv
import os
import sys
from dataclasses import replace

import mpmath
import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import dosebounds as db  # noqa: E402
from dosebounds import specfun  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_TRIAL = db.TrialConfig(
    n_confounders=4, n_train=120, n_test=40, t_grid_size=12, gamma_grid_size=9, gamma_max=2.5
)


def test_vertex_band_is_the_brute_force_extremum():
    rng = np.random.default_rng(1)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        p = rng.uniform(0.0, 1.0, n)
        d_lo = rng.uniform(-0.2, 1.0, n)
        d_hi = np.abs(d_lo) + rng.uniform(0.0, 2.0, n)
        keep = d_lo > 0.0
        got = oracles.vertex_band(p, d_lo, d_hi)
        if not keep.any():
            assert all(np.isnan(got))
            continue
        want = oracles.brute_force_band(p[keep], d_lo[keep], d_hi[keep])
        assert got == pytest.approx(want, abs=1e-14)


def test_band_kl_matches_mpmath_quadrature():
    cases = [(0.3, 1e-6, 1 - 1e-6), (0.01, 1e-6, 0.02), (0.99, 0.97, 1 - 1e-6), (0.5, 0.2, 0.21)]
    p, lo, hi = (np.array(col) for col in zip(*cases))
    got = oracles.band_kl(p, lo, hi, np.zeros(len(p), dtype=bool))
    for (pi, li, hi_), value in zip(cases, got):
        with mpmath.workdps(30):
            kl = lambda q: pi * mpmath.log(pi / q) + (1 - pi) * mpmath.log((1 - pi) / (1 - q))  # noqa: E731
            want = mpmath.quad(kl, [li, (li + hi_) / 2, hi_]) / (hi_ - li)
        assert value == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("method", workloads.METHODS)
def test_divisor_oracle_agrees_with_the_package(method):
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, b = rng.uniform(0.5, 30.0, 2)
        t, gamma = rng.uniform(0.0, 1.0), rng.uniform(1.0, 2.5)
        engine = db.DivisorEngine(db.sensitivity_model_for(method), db.BetaPropensity(a, b))
        got = engine.bounds(t, gamma)
        assert got == pytest.approx(oracles.divisor_interval(method, a, b, t, gamma), rel=1e-12)


def _band_case():
    rng = np.random.default_rng(3)
    alphas, betas = rng.uniform(1.0, 12.0, 15), rng.uniform(1.0, 12.0, 15)
    probs = rng.uniform(0.05, 0.95, 15)
    engine = db.DivisorEngine(db.DeltaMSM(), db.BetaPropensity(alphas, betas))
    t, gamma = 0.37, 1.8
    lo, hi, _ = db.apo_band_matrix(engine, probs[None, :], [t], [gamma])
    return alphas, betas, probs, t, gamma, float(lo[0, 0]), float(hi[0, 0])


def test_band_point_check_rejects_a_perturbed_endpoint():
    alphas, betas, probs, t, gamma, lo, hi = _band_case()
    assert oracles.check_band_point("deltamsm", alphas, betas, probs, t, gamma, lo, hi) == []
    assert oracles.check_band_point("deltamsm", alphas, betas, probs, t, gamma, lo, hi + 1e-8)
    assert oracles.check_band_point("deltamsm", alphas, betas, probs, t, gamma, lo - 1e-8, hi)


def test_band_point_check_rejects_a_1f1_off_by_1e6(monkeypatch):
    exact = specfun.hyp1f1
    monkeypatch.setattr(specfun, "hyp1f1", lambda a, b, z: exact(a, b, z) * (1.0 + 1e-6))
    alphas, betas, probs, t, gamma, lo, hi = _band_case()
    assert oracles.check_band_point("deltamsm", alphas, betas, probs, t, gamma, lo, hi)


def test_true_apo_check_rejects_a_perturbed_curve():
    trial = db.generate_trial(db.synthetic_raw(1000, 16, seed=0), SMALL_TRIAL)
    grid = SMALL_TRIAL.dose_grid()[::3]
    apo = db.true_apo(trial, grid)
    args = (trial.v_matrix[trial.test_idx], trial.mixing, trial.location, trial.scale, trial.treatment_index, grid)
    assert oracles.check_true_apo(*args, apo) == []
    bad = apo.copy()
    bad[1] *= 1.0 + 1e-9
    assert oracles.check_true_apo(*args, bad)


def test_curve_checks_reject_broken_bands():
    t = np.linspace(0.0, 1.0, 11)
    point = 0.2 + 0.5 * t**2
    lo, hi = point - 0.1 * t, point + 0.1 * t
    flags = np.zeros(11, dtype=bool)
    assert oracles.check_collapse(point, point) == []
    assert oracles.check_collapse(point, point + 1e-9)
    assert oracles.check_point_curve(point, point, point) == []
    assert oracles.check_point_curve(point, point, point + 1e-9)
    assert oracles.check_ordered(lo, hi, flags) == []
    assert oracles.check_ordered(hi, lo, flags)
    assert oracles.check_nested([(point, point, flags), (lo, hi, flags)]) == []
    assert oracles.check_nested([(lo, hi, flags), (point, point, flags)])
    assert oracles.check_nested([(lo, hi, ~flags), (lo, hi, flags)])


@pytest.fixture(scope="module")
def small_trial():
    workload = workloads.Trial(config=SMALL_TRIAL, trial_ids=(0,))
    workload.prepare(None)
    return workload, workload.run(0)


def _corrupt_score(result, method, **changes):
    scores = tuple(replace(s, **changes) if s.method == method else s for s in result.scores)
    return replace(result, scores=scores)


def test_trial_check_accepts_the_real_output(small_trial):
    workload, result = small_trial
    assert workload.check([(0, result), (0, result)]) == ([], set())


@pytest.mark.parametrize(
    "change",
    [
        lambda s, g: {"gamma_star": float(g[min(list(g).index(s.gamma_star) + 1, len(g) - 1)])
                      if s.gamma_star != g[-1] else float(g[-2])},
        lambda s, g: {"coverage": s.coverage - 0.1},
        lambda s, g: {"cost": s.cost * (1.0 + 1e-6)},
        lambda s, g: {"flags": tuple(set(s.flags) ^ {"undefined_points"})},
    ],
    ids=["gamma_star", "coverage", "cost", "flags"],
)
def test_trial_check_rejects_a_corrupted_score(small_trial, change):
    workload, result = small_trial
    gammas = SMALL_TRIAL.gamma_grid()
    for score in result.scores:
        bad = _corrupt_score(result, score.method, **change(score, gammas))
        problems, _ = workload.check([(0, bad)])
        assert problems, score.method


def test_trial_check_rejects_disagreeing_repeats(small_trial):
    workload, result = small_trial
    other = _corrupt_score(result, "uniform", cost=result.scores[2].cost * 2)
    problems, _ = workload.check([(0, result), (0, other)])
    assert any("repeated" in p for p in problems)


def _rewrite_bounds(path, column, index, delta):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    rows[1 + index][column] = repr(float(rows[1 + index][column]) + delta)
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)


@pytest.fixture
def bounds_run(tmp_path, capsys):
    workload = workloads.Bounds()
    workload.prepare(str(tmp_path))
    results = [(op, workload.run(op)) for op in workload.round_ops(0)]
    capsys.readouterr()
    return workload, results


def test_bounds_check_counts_only_the_known_fault(bounds_run):
    workload, results = bounds_run
    assert workload.check(results) == ([], workload.known_faults)


@pytest.mark.parametrize(
    "op, column, index, delta",
    [
        (("deltamsm", "1.0"), 1, 40, 1e-7),  # gamma = 1 band off the mean curve
        (("uniform", "2.0"), 2, 71, 1e-7),  # sampled point off the recomputation
        (("binarymsm", "2.0"), 2, 10, -0.05),  # narrower than the gamma = 1.5 band
        (("cmsm", "1.5"), 1, 5, 0.9),  # lo above hi
    ],
)
def test_bounds_check_rejects_a_corrupted_file(bounds_run, op, column, index, delta):
    workload, results = bounds_run
    _rewrite_bounds(os.path.join(workload._op_dir(op), "bounds.csv"), column, index, delta)
    problems, _ = workload.check(results)
    assert problems


@pytest.fixture(scope="module")
def capo_run():
    workload = workloads.Capo()
    workload.prepare(None)
    ops = [(row, method) for row in workload.rows[:2] for method in workload.methods]
    return workload, [(op, workload.run(op)) for op in ops]


def test_capo_check_accepts_the_real_output(capo_run):
    workload, results = capo_run
    assert workload.check(results) == ([], set())


def _edited(curve, field, index, value):
    values = getattr(curve, field).copy()
    values[index] = value
    return replace(curve, **{field: values})


@pytest.mark.parametrize(
    "which, edit",
    [
        (0, lambda c: _edited(c, "hi", 30, c.hi[30] + 1e-9)),  # gamma = 1 band not the prediction
        (1, lambda c: _edited(c, "hi", 50, c.hi[50] + 1e-8)),  # sampled point off the recomputation
        (1, lambda c: _edited(c, "lo", 20, c.hi[20])),  # narrower than the gamma = 1 band
    ],
    ids=["collapse", "sampled-point", "nesting"],
)
def test_capo_check_rejects_a_corrupted_band(capo_run, which, edit):
    workload, results = capo_run
    op, output = results[0]
    capo, cacd = output[which]
    bad = list(output)
    bad[which] = (edit(capo), cacd)
    problems, _ = workload.check([(op, bad)] + results[1:])
    assert problems


def test_capo_check_rejects_a_cacd_band_missing_the_slope(capo_run):
    workload, results = capo_run
    op, output = results[0]
    capo, cacd = output[1]
    shifted = replace(cacd, lo=cacd.lo + 10.0, hi=cacd.hi + 10.0)
    problems, _ = workload.check([(op, [output[0], (capo, shifted)])] + results[1:])
    assert problems


def test_tracer_accounts_for_the_operation_and_restores_the_package(capo_run):
    workload, _ = capo_run
    originals = [owner.__dict__[attr] for owner, attr, *_ in tracing._patch_table()]
    tracer = tracing.Tracer()
    root = tracer.span("capo.glue", workload.run)
    with tracer:
        root((0, "deltamsm"))
    assert [owner.__dict__[attr] for owner, attr, *_ in tracing._patch_table()] == originals
    assert tracer.counts["specfun.hyp1f1.calls"] == 2 * 100 * 4
    assert tracer.counts["estimator.band.points"] == 2 * 100
    (_, start, end, parent, _), = [s for s in tracer.spans if s[0] == "capo.glue"]
    assert parent is None
    assert sum(tracer.self_s.values()) == pytest.approx(end - start, rel=1e-9)
    assert all(s[3] is not None for s in tracer.spans if s[0] != "capo.glue")


def test_failing_calls_are_counted_by_the_harness():
    import run

    records = []
    run.run_rounds(lambda op: 1 / op, [1, 0], 0.0, records, False)
    assert [r.error is None for r in records] == [True, False]
    assert [r.output for r in records] == [1.0, None]
