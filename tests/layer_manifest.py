"""Bitwise manifest of every layer: one SHA-256 per (layer, case).

Each case runs one layer of the package on a fixed, seeded probe set and
hashes what it returns: for each output array its dtype, its shape and its
bytes in C order.  ``tests/golden/kernels.json`` holds the digests and
``tests/test_golden.py`` recomputes them, so a change that moves numbers
names the layers that moved instead of only a moved end-to-end reference.

The layers are trial generation, the two fits (on 120 rows), the
outcome-probability matrix, ``true_apo``, the divisor of each method, the
band of each method, calibration plus scoring of each method, and the
special functions under them.  Divisor cases cross a scalar and an array
propensity with doses 0, 1 and interior, and with a scalar gamma, a gamma
column and a one-gamma column.

Entries that go through BLAS (training, the probability matrix and
everything downstream of them) hold on the machine and BLAS build that
wrote them, as the other references do.

Rewrite the manifest from the repository root with

    PYTHONPATH=src python3 tests/layer_manifest.py

which ``tests/golden/regenerate.sh`` also runs.  It prints every entry
that moved against the manifest it replaces.
"""

import hashlib
import json
import os

import numpy as np

from dosebounds import benchmark as bm
from dosebounds import fileio, specfun
from dosebounds.estimator import _outcome_prob_matrix, apo_band_matrix
from dosebounds.models import TrainConfig, fit_outcome, fit_propensity
from dosebounds.seeds import substream
from dosebounds.sensitivity import BetaPropensity, DivisorEngine

MANIFEST = os.path.join(os.path.dirname(__file__), "golden", "kernels.json")

TRIAL = bm.TrialConfig(
    n_confounders=4, n_train=120, n_test=40, t_grid_size=12, gamma_grid_size=9, seed=5
)
TRAIN = TrainConfig(seed=5)


def digest(*outputs) -> str:
    """SHA-256 over each output's dtype, shape and C-order bytes."""
    sha = hashlib.sha256()
    for output in outputs:
        array = np.asarray(output)
        sha.update(f"{array.dtype.str}{array.shape}".encode())
        sha.update(array.tobytes(order="C"))
    return sha.hexdigest()


def _special_functions(rng):
    x = rng.uniform(0.05, 60.0, size=64)
    a, b = rng.uniform(0.3, 40.0, size=(2, 24))
    shapes = rng.uniform(0.2, 60.0, size=16)
    c = shapes + rng.uniform(0.1, 60.0, size=16)
    s = rng.uniform(0.0, 1.2, size=9)
    return {
        "specfun.log_gamma": {"array": digest(specfun.log_gamma(x))},
        "specfun.digamma": {"array": digest(specfun.digamma(x))},
        "specfun.reg_inc_beta": {
            "array": digest(specfun.reg_inc_beta(a, b, rng.uniform(0.0, 1.0, size=24))),
            "scalar": digest(specfun.reg_inc_beta(2.5, 7.0, 0.5)),
        },
        "specfun.hyp1f1": {
            "table": digest(specfun.hyp1f1(shapes, c, s[:, None])),
            "one-s": digest(specfun.hyp1f1(shapes, c, s[:1, None])),
        },
    }


def _divisors(rng):
    alphas, betas = rng.uniform(0.4, 45.0, size=(2, 16))
    propensities = {
        "scalar": BetaPropensity(float(alphas[0]), float(betas[0])),
        "array": BetaPropensity(alphas, betas),
    }
    doses = {"t0": 0.0, "t1": 1.0, "interior": 0.37}
    gammas = {
        "scalar": 1.7,
        "column": np.linspace(1.0, 2.5, 7)[:, None],
        "one-column": np.array([[2.0]]),
    }
    layers = {}
    for method in bm.DEFAULT_METHODS:
        cases = layers.setdefault(f"sensitivity.divisor.{method}", {})
        for p_name, propensity in propensities.items():
            engine = DivisorEngine(bm.sensitivity_model_for(method), propensity)
            for t_name, t in doses.items():
                for g_name, gamma in gammas.items():
                    key = f"{p_name}-propensity/{t_name}/{g_name}-gamma"
                    cases[key] = digest(*engine.bounds(t, gamma))
    return layers


def _pipeline():
    raw = bm.synthetic_raw(TRIAL.n_train + TRIAL.n_test, 6, seed=5)
    trial = bm.generate_trial(raw, TRIAL)
    x, t = trial.visible(trial.train_idx), trial.treatments(trial.train_idx)
    outcome = fit_outcome(x, t, trial.outcomes(trial.train_idx), TRAIN)
    propensity = fit_propensity(x, t, TRAIN)
    test_x = trial.visible(trial.test_idx)
    t_grid, gammas = TRIAL.dose_grid(), TRIAL.gamma_grid()
    params = propensity.predict(test_x)
    probs = _outcome_prob_matrix(outcome, test_x, t_grid)
    p_true = bm.true_apo(trial, t_grid)
    layers = {
        "benchmark.synthetic_raw": {"default": digest(raw)},
        "benchmark.generate_trial": {
            "quadratic": digest(
                trial.v_matrix, trial.y, trial.mixing, trial.location, trial.scale
            )
        },
        "models.fit_outcome": {"train-rows": digest(outcome.weights, outcome.bias)},
        "models.fit_propensity": {
            "train-rows": digest(
                propensity.alpha_weights, propensity.alpha_bias,
                propensity.beta_weights, propensity.beta_bias,
            ),
            "test-rows": digest(params.alpha_bar, params.beta_bar),
        },
        "benchmark.prob_matrix": {"test-rows": digest(probs)},
        "benchmark.true_apo": {"test-rows": digest(p_true)},
        "estimator.band": {},
        "benchmark.calibrate_score": {},
    }
    for method in bm.DEFAULT_METHODS:
        engine = DivisorEngine(bm.sensitivity_model_for(method), params)
        band = apo_band_matrix(engine, probs, t_grid, gammas)
        layers["estimator.band"][method] = digest(*band)
        score = bm._calibrate_from_tables(
            method, params, probs, p_true, t_grid, gammas, TRIAL.target_coverage
        )
        layers["benchmark.calibrate_score"][method] = digest(
            [score.gamma_star, score.coverage, score.cost], np.array(score.flags, dtype=str)
        )
    return layers


def compute() -> dict:
    """{layer: {case: digest}} over the whole probe set."""
    layers = _special_functions(substream(0, "manifest", "special"))
    layers.update(_divisors(substream(0, "manifest", "divisor")))
    layers.update(_pipeline())
    return layers


def moved(want: dict, got: dict) -> list:
    """Every "layer/case" whose digest differs, or that only one side has."""
    keys = {
        (layer, case)
        for side in (want, got)
        for layer, cases in side.items()
        for case in cases
    }
    return sorted(
        f"{layer}/{case}"
        for layer, case in keys
        if want.get(layer, {}).get(case) != got.get(layer, {}).get(case)
    )


if __name__ == "__main__":
    with open(MANIFEST, encoding="utf-8") as handle:
        old = json.load(handle)
    new = compute()
    fileio.write_json(MANIFEST, new)
    print(f"wrote {MANIFEST}")
    for entry in moved(old, new):
        print(f"moved: {entry}")
