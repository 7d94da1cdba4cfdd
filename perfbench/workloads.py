"""The benchmark's three workloads.

Each runs one fixed list of operations per round, in an order drawn from the
run's seed, closed loop with one client in one process.  The list is fixed
because operation costs differ by input (trial ids by up to 20%), and a seed
that picked inputs would move the medians by more than any bound worth
setting.  ``prepare`` generates the inputs and is timed as set-up; ``run``
performs one operation and raises when it fails; ``check`` verifies every
distinct operation's output after the timed loop (see ``oracles``).
"""

from __future__ import annotations

import csv
import json
import os
import random
from dataclasses import replace

import numpy as np

import dosebounds as db
from dosebounds import cli, estimator
from dosebounds.models import model_payload

import oracles

METHODS = ("deltamsm", "cmsm", "uniform", "binarymsm")
RAW_ROWS, RAW_COLS, RAW_SEED = 1000, 16, 0


def _shuffled(ops, seed):
    ops = list(ops)
    random.Random(seed).shuffle(ops)
    return ops


def _grouped(results):
    groups: dict = {}
    for op, output in results:
        groups.setdefault(op, []).append(output)
    return groups


class Trial:
    """One default-scale ``run_benchmark`` trial per operation.

    Band extremization and the divisor tensors do almost all of the work.
    A trial id is the ``TrialConfig`` seed of a one-trial run; ids 0 and 3
    cover calibrated, uncalibrated and flagged methods.
    """

    name = "trial"
    root_span = "benchmark.calibrate_score"

    def __init__(self, config=None, trial_ids=(0, 3)):
        self.config = config or db.TrialConfig()
        self.trial_ids = tuple(trial_ids)

    def prepare(self, out_dir):
        self.raw = db.synthetic_raw(RAW_ROWS, RAW_COLS, seed=RAW_SEED)

    def round_ops(self, seed):
        return _shuffled(self.trial_ids, seed)

    def run(self, trial_id):
        config = replace(self.config, seed=trial_id)
        result = db.run_benchmark(config, self.raw, n_trials=1, n_workers=1).results[0]
        if result.error is not None:
            raise RuntimeError(result.error)
        return result

    def gamma_cols_used(self, outputs):
        """Gamma columns up to gamma* over the columns computed, per method."""
        gammas = self.config.gamma_grid()
        shares = [
            (int(np.flatnonzero(gammas == score.gamma_star)[0]) + 1) / len(gammas)
            for result in outputs
            for score in result.scores
        ]
        return float(np.mean(shares)) if shares else 0.0

    def check(self, results):
        problems = []
        for trial_id, outputs in _grouped(results).items():
            if any(output != outputs[0] for output in outputs[1:]):
                problems.append(f"trial {trial_id}: repeated runs disagree")
            problems += self._check_trial(trial_id, outputs[0])
        return problems, set()

    def _check_trial(self, trial_id, result):
        where = f"trial {trial_id}: "
        config = replace(self.config, seed=trial_id)
        # the run_benchmark recipe for trial 0 of a run seeded with trial_id
        trial = db.generate_trial(
            self.raw, replace(config, seed=db.derive_seed(trial_id, "trial", 0))
        )
        fit = replace(db.TrainConfig(), seed=db.derive_seed(trial_id, "fit", 0))
        x, t = trial.visible(trial.train_idx), trial.treatments(trial.train_idx)
        outcome = db.fit_outcome(x, t, trial.outcomes(trial.train_idx), fit)
        propensity = db.fit_propensity(x, t, fit)
        test_x = trial.visible(trial.test_idx)
        t_grid, gammas = config.dose_grid(), config.gamma_grid()
        p_true = db.true_apo(trial, t_grid)
        problems = oracles.check_true_apo(
            trial.v_matrix[trial.test_idx], trial.mixing, trial.location, trial.scale,
            trial.treatment_index, t_grid[::10], p_true[::10],
        )
        if tuple(score.method for score in result.scores) != METHODS:
            return problems + [f"{where}methods {[s.method for s in result.scores]}"]
        heads = model_payload(outcome), model_payload(propensity)
        alphas, betas = zip(*(oracles.beta_params(heads[1], row) for row in test_x))
        prob_matrix = np.array([outcome.predict(test_x, float(ti)) for ti in t_grid])
        n = len(gammas)
        sample_doses = np.linspace(0, len(t_grid) - 1, 6).round().astype(int)[1:-1]
        for score in result.scores:
            where_m = f"{where}{score.method}: "
            hits = np.flatnonzero(gammas == score.gamma_star)
            if len(hits) != 1:
                problems.append(f"{where_m}gamma* {score.gamma_star!r} is not on the grid")
                continue
            pick = int(hits[0])
            cols = sorted({0, max(pick - 1, 0), pick, n - 1, *range(0, n, 11)})
            engine = db.DivisorEngine(
                db.sensitivity_model_for(score.method), propensity.predict(test_x)
            )
            lo, hi, undefined = db.apo_band_matrix(engine, prob_matrix, t_grid, gammas[cols])
            problems += oracles.check_collapse(lo[:, 0], hi[:, 0], where_m)
            bands = [(lo[:, j], hi[:, j], undefined[:, j]) for j in range(len(cols))]
            for band in bands:
                problems += oracles.check_ordered(*band, where_m)
            problems += oracles.check_nested(bands, where_m)
            problems += oracles.check_score(
                score, gammas, config.target_coverage, p_true, cols, lo, hi, undefined, where_m
            )
            sample_cols = (pick, max(pick - 1, 0), cols[len(cols) // 2], n - 1)
            for dose, col in zip(sample_doses, sample_cols):
                j = cols.index(col)
                probs = [oracles.outcome_prob(heads[0], row, t_grid[dose]) for row in test_x]
                problems += oracles.check_band_point(
                    score.method, alphas, betas, probs, t_grid[dose], gammas[col],
                    lo[dose, j], hi[dose, j], where,
                )
        return problems


class Bounds:
    """One ``dosebounds bounds --target apo`` call through the CLI entry point.

    Fitting both heads dominates; the band is one gamma wide, so the
    gamma-grid path of ``trial`` is bypassed.  The bundle comes from
    ``dgp --trial --seed 0``.
    """

    name = "bounds"
    root_span = "cli.self"
    gammas = ("1.0", "1.5", "2.0")
    sample_doses = {"1.5": 37, "2.0": 71}
    # CMSM divides by the nominal density itself, so its gamma = 1 band is the
    # 1/density-weighted mean of the outcome head, not the plain mean.  The
    # call is counted as a failed operation until that is mended.
    known_faults = {("cmsm", "1.0")}

    def prepare(self, out_dir):
        self.out_dir = out_dir
        self.bundle = os.path.join(out_dir, "bundle")
        status = cli.main(["dgp", "--trial", "--seed", "0", "--out", self.bundle])
        if status != 0:
            raise RuntimeError(f"dgp --trial exited with {status}")

    def round_ops(self, seed):
        return _shuffled([(m, g) for m in METHODS for g in self.gammas], seed)

    def _op_dir(self, op):
        return os.path.join(self.out_dir, f"{op[0]}-gamma{op[1]}")

    def run(self, op):
        model, gamma = op
        status = cli.main([
            "bounds", "--data", os.path.join(self.bundle, "train.csv"), "--model", model,
            "--gamma", gamma, "--target", "apo", "--out", self._op_dir(op),
        ])
        if status != 0:
            raise RuntimeError(f"bounds --model {model} --gamma {gamma} exited with {status}")
        return status

    def check(self, results):
        """Checks the files the last call of each distinct operation wrote."""
        with open(os.path.join(self.bundle, "train.csv"), newline="") as handle:
            rows = list(csv.reader(handle))
        x_rows = [[float(v) for v in row[:-2]] for row in rows[1:]]
        problems, faults, curves, heads, point = [], set(), {}, None, None
        for op in sorted({op for op, _ in results}):
            where = f"bounds {op[0]} gamma={op[1]}: "
            with open(os.path.join(self._op_dir(op), "models.json")) as handle:
                payload = json.load(handle)
            if heads is None:
                heads = payload
            elif payload != heads:
                problems.append(f"{where}models.json differs between calls")
            with open(os.path.join(self._op_dir(op), "bounds.csv"), newline="") as handle:
                table = np.array([[float(v) for v in row] for row in list(csv.reader(handle))[1:]])
            t_grid, lo, hi, undefined = table[:, 0], table[:, 1], table[:, 2], table[:, 3] != 0
            curves[op] = (lo, hi, undefined)
            problems += oracles.check_ordered(lo, hi, undefined, where)
            if op[1] == "1.0":
                problems += oracles.check_collapse(lo, hi, where)
                if point is None:
                    point = oracles.mean_prob_curve(heads["outcome"], x_rows, t_grid)
                mismatch = oracles.check_point_curve(lo, hi, point, where, tol=1e-9)
                if mismatch and op in self.known_faults:
                    faults.add(op)
                else:
                    problems += mismatch
            else:
                dose = self.sample_doses[op[1]]
                alphas, betas = zip(*(oracles.beta_params(heads["propensity"], r) for r in x_rows))
                probs = [oracles.outcome_prob(heads["outcome"], r, t_grid[dose]) for r in x_rows]
                problems += oracles.check_band_point(
                    op[0], alphas, betas, probs, t_grid[dose], float(op[1]),
                    lo[dose], hi[dose], where,
                )
        for model in METHODS:
            bands = [curves[(model, g)] for g in self.gammas if (model, g) in curves]
            problems += oracles.check_nested(bands, f"bounds {model}: ")
        return problems, faults


class Capo:
    """``capo_interval`` then ``cacd_interval`` for one test row and one
    sensitivity model, at gamma 1 and 1.5.

    The same band code as ``trial``, one instance wide, so per-call overhead
    and scalar 1F1 dominate.  Models are fitted once, during set-up.
    """

    name = "capo"
    root_span = "capo.glue"
    # CMSM is left out: its divisor carries the nominal density, which falls
    # below 1e-30 at the grid edges for some rows, and then both weights hit
    # the package's weight cap and the band reads 0.5 whatever the prediction.
    methods = ("deltamsm", "uniform", "binarymsm")
    rows = (0, 31, 62, 93, 124, 155, 186, 217)
    gammas = (1.0, 1.5)
    h_steps = 2
    sample_doses = (10, 50, 90)

    def prepare(self, out_dir):
        raw = db.synthetic_raw(RAW_ROWS, RAW_COLS, seed=RAW_SEED)
        trial = db.generate_trial(raw, db.TrialConfig(seed=0))
        x, t = trial.visible(trial.train_idx), trial.treatments(trial.train_idx)
        self.models = db.FittedModels(
            outcome=db.fit_outcome(x, t, trial.outcomes(trial.train_idx), db.TrainConfig()),
            propensity=db.fit_propensity(x, t, db.TrainConfig()),
        )
        self.test_x = trial.visible(trial.test_idx)
        self.t_grid = np.linspace(0.0, 1.0, 100)
        self.h = self.h_steps * float(self.t_grid[1] - self.t_grid[0])
        self.sens = {method: db.sensitivity_model_for(method) for method in self.methods}

    def round_ops(self, seed):
        return _shuffled([(row, m) for row in self.rows for m in self.methods], seed)

    def run(self, op):
        row, method = op
        out = []
        for gamma in self.gammas:
            capo = estimator.capo_interval(
                self.models, self.sens[method], self.test_x[row], self.t_grid, gamma
            )
            out.append((capo, estimator.cacd_interval(capo, self.h)))
        return out

    def check(self, results):
        heads = model_payload(self.models.outcome), model_payload(self.models.propensity)
        problems = []
        for (row, method), outputs in _grouped(results).items():
            where = f"capo row {row} {method}: "
            first = outputs[0]
            for output in outputs[1:]:
                same = all(
                    np.array_equal(a.lo, b.lo, equal_nan=True) and np.array_equal(a.hi, b.hi, equal_nan=True)
                    for pair_a, pair_b in zip(first, output)
                    for a, b in zip(pair_a, pair_b)
                )
                if not same:
                    problems.append(f"{where}repeated calls disagree")
                    break
            x = self.test_x[row]
            point = [oracles.outcome_prob(heads[0], x, t) for t in self.t_grid]
            (capo1, cacd1), (capo2, cacd2) = first
            problems += oracles.check_collapse(capo1.lo, capo1.hi, where)
            problems += oracles.check_point_curve(capo1.lo, capo1.hi, point, where)
            problems += oracles.check_ordered(capo2.lo, capo2.hi, capo2.undefined_mask, where)
            problems += oracles.check_nested(
                [(c.lo, c.hi, c.undefined_mask) for c in (capo1, capo2)], where
            )
            for cacd in (cacd1, cacd2):
                problems += oracles.check_slope_inside(
                    self.t_grid, point, cacd.lo, cacd.hi, cacd.one_sided,
                    cacd.undefined_mask, self.h_steps, where,
                )
            alpha, beta = oracles.beta_params(heads[1], x)
            for dose in self.sample_doses:
                problems += oracles.check_band_point(
                    method, [alpha], [beta], [point[dose]], self.t_grid[dose], self.gammas[1],
                    capo2.lo[dose], capo2.hi[dose], where,
                )
        return problems, set()


WORKLOADS = {workload.name: workload for workload in (Trial, Bounds, Capo)}
