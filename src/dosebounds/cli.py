"""Command line interface.

Subcommands:

* ``dgp``        synthesize raw covariates, or generate a full trial bundle
* ``bounds``     fit models on a training CSV and write bound curves
* ``benchmark``  run the multi-trial method comparison from a config file
* ``check``      run the randomized self-check suites

Data goes to files (written atomically) or stdout; diagnostics go to stderr.
Exit status is 0 on success, 1 on computation or check failure, 2 on usage
errors.  Every command takes ``--seed`` and is fully deterministic given it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import benchmark as bench
from . import checks, fileio
from .estimator import apo_interval, capo_interval
from .models import FittedModels, TrainConfig, fit_outcome, fit_propensity, model_payload

__all__ = ["RunConfig", "load_run_config", "main"]


class UsageError(ValueError):
    """Bad flag combination or config document; maps to exit status 2."""


# --------------------------------------------------------------------------
# benchmark run configuration (JSON document)

_TOP_KEYS = {"trial", "train", "methods", "n_trials", "raw", "seed"}
# the top-level seed is the one way to set the trial seed
_TRIAL_KEYS = {field.name for field in fields(bench.TrialConfig)} - {"seed"}
_TRAIN_KEYS = {"lr", "batches", "epochs"}
_RAW_KEYS = {"rows", "cols", "path"}


def _reject_unknown(doc: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise UsageError(f"{where}: unknown keys {unknown}")


def _raw_size(raw_doc: dict, key: str, default: int, least: int) -> int:
    value = raw_doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise UsageError(f"config.raw.{key} must be an integer >= {least}, got {value!r}")
    return value


@dataclass(frozen=True)
class RunConfig:
    """Validated benchmark settings, one JSON document per run."""

    trial: bench.TrialConfig
    train: TrainConfig
    methods: tuple[str, ...]
    n_trials: int
    raw_rows: int
    raw_cols: int
    raw_path: str | None


def load_run_config(doc) -> RunConfig:
    """Parse and validate a config document; unknown keys are rejected."""
    if not isinstance(doc, dict):
        raise UsageError("config must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "config")

    trial_doc = doc.get("trial", {})
    if not isinstance(trial_doc, dict):
        raise UsageError("config.trial must be an object")
    _reject_unknown(trial_doc, _TRIAL_KEYS, "config.trial")
    trial_doc = dict(trial_doc)
    if "seed" in doc:
        trial_doc["seed"] = doc["seed"]

    train_doc = doc.get("train", {})
    if not isinstance(train_doc, dict):
        raise UsageError("config.train must be an object")
    _reject_unknown(train_doc, _TRAIN_KEYS, "config.train")
    # the documented key `lr` is TrainConfig's learning_rate
    train_doc = {("learning_rate" if k == "lr" else k): v for k, v in train_doc.items()}

    raw_doc = doc.get("raw", {})
    if not isinstance(raw_doc, dict):
        raise UsageError("config.raw must be an object")
    _reject_unknown(raw_doc, _RAW_KEYS, "config.raw")
    raw_path = raw_doc.get("path")
    if raw_path is not None and not isinstance(raw_path, str):
        raise UsageError(f"config.raw.path must be a string, got {raw_path!r}")
    if raw_path is not None and ("rows" in raw_doc or "cols" in raw_doc):
        raise UsageError("config.raw: give either a path or rows/cols, not both")

    methods = doc.get("methods", list(bench.DEFAULT_METHODS))
    if not isinstance(methods, (list, tuple)):
        raise UsageError("config.methods must be a non-empty list")
    try:
        methods = bench._checked_methods(methods)
    except ValueError as exc:
        raise UsageError(f"config.methods: {exc}") from exc

    # bool is a subclass of int, so `true` would otherwise pass as 1
    n_trials = doc.get("n_trials", 50)
    if isinstance(n_trials, bool) or not isinstance(n_trials, int) or n_trials < 1:
        raise UsageError("config.n_trials must be a positive integer")

    try:
        trial = bench.TrialConfig(**trial_doc)
        train = TrainConfig(**train_doc)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"config: {exc}") from exc
    # a raw.path table is measured once it is read, in cmd_benchmark
    least_rows = 1 if raw_path is not None else trial.n_train + trial.n_test

    return RunConfig(
        trial=trial,
        train=train,
        methods=methods,
        n_trials=n_trials,
        raw_rows=_raw_size(raw_doc, "rows", 1000, least_rows),
        raw_cols=_raw_size(raw_doc, "cols", 16, 1),
        raw_path=raw_path,
    )


# --------------------------------------------------------------------------
# shared helpers


def _read_table(path: str, what: str):
    """(names, data) of a numeric CSV; a table that cannot be read or holds a
    non-finite value is a usage error."""
    try:
        names, data = fileio.read_csv(path)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc
    if not np.isfinite(data).all():
        raise UsageError(f"{path}: every value must be finite")
    return names, data


def _load_training_table(path: str):
    """(x, t, y) from a CSV whose last two columns are named t and y."""
    names, data = _read_table(path, "training table")
    if len(names) < 3 or names[-2] != "t" or names[-1] != "y":
        raise UsageError(
            f"{path}: expected covariate columns followed by 't' and 'y', got {names}"
        )
    t, y = data[:, -2], data[:, -1]
    if np.any((t < 0.0) | (t > 1.0)):
        raise UsageError(f"{path}: doses 't' must lie in [0, 1]; quantile-normalize them first")
    if np.any((y != 0.0) & (y != 1.0)):
        raise UsageError(f"{path}: column 'y' must hold binary outcomes (0 or 1)")
    return data[:, :-2], t, y


def _require_positive(args, *flags: str) -> None:
    """Reject any of the named integer flags that is below 1."""
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise UsageError(f"--{flag} must be a positive integer, got {value}")


def _write_trial_bundle(trial, config, out_dir: str) -> None:
    n_visible = config.treatment_index
    header = [f"x{j}" for j in range(n_visible)] + ["t", "y"]
    for name, idx in (("train.csv", trial.train_idx), ("test.csv", trial.test_idx)):
        table = np.column_stack(
            [trial.visible(idx), trial.treatments(idx), trial.outcomes(idx)]
        )
        fileio.write_csv(os.path.join(out_dir, name), header, table.tolist())
    grid = config.dose_grid()
    truth = bench.true_apo(trial, grid)
    fileio.write_csv(
        os.path.join(out_dir, "truth.csv"),
        ["t", "true_apo"],
        np.column_stack([grid, truth]).tolist(),
    )


# --------------------------------------------------------------------------
# subcommands


def cmd_dgp(args) -> int:
    if args.from_csv is not None and not args.trial:
        raise UsageError("--from-csv only makes sense together with --trial")
    # every ValueError here is about the flags or the raw table given
    try:
        if args.from_csv is not None:
            _, raw = _read_table(args.from_csv, "raw table")
        else:
            raw = bench.synthetic_raw(args.rows, args.cols, seed=args.seed)
        if args.trial:
            config = bench.TrialConfig(
                n_confounders=args.confounders, form=args.form, seed=args.seed
            )
            trial = bench.generate_trial(raw, config)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.trial:
        _write_trial_bundle(trial, config, args.out)
        print(
            f"wrote train.csv, test.csv, truth.csv to {args.out} "
            f"({config.n_train}/{config.n_test} rows, {config.treatment_index} visible confounders)"
        )
        return 0
    path = os.path.join(args.out, "raw.csv")
    fileio.write_csv(path, [f"x{j}" for j in range(args.cols)], raw.tolist())
    print(f"wrote {path} ({args.rows} rows, {args.cols} columns)")
    return 0


def cmd_bounds(args) -> int:
    if not 1.0 <= args.gamma < math.inf:
        raise UsageError(f"--gamma must be finite and >= 1, got {args.gamma}")
    if args.target == "capo" and args.instance is None:
        raise UsageError("--target capo requires --instance")
    if args.target != "capo" and args.instance is not None:
        raise UsageError("--instance only applies to --target capo")
    sens = bench.sensitivity_model_for(args.model)
    x, t, y = _load_training_table(args.data)
    if args.target == "capo" and not 0 <= args.instance < len(x):
        raise UsageError(f"--instance must index a row of {args.data} (0..{len(x) - 1})")
    train = TrainConfig(seed=args.seed)
    models = FittedModels(fit_outcome(x, t, y, train), fit_propensity(x, t, train))
    grid = np.linspace(0.0, 1.0, 100)
    if args.target == "capo":
        curve = capo_interval(models, sens, x[args.instance], grid, args.gamma)
    else:
        curve = apo_interval(models, sens, x, grid, args.gamma)
    bounds_path = os.path.join(args.out, "bounds.csv")
    fileio.write_csv(
        bounds_path,
        ["t", "lo", "hi", "undefined_flag"],
        [
            [float(ti), float(lo), float(hi), int(flag)]
            for ti, lo, hi, flag in zip(curve.t_grid, curve.lo, curve.hi, curve.undefined_mask)
        ],
    )
    models_path = os.path.join(args.out, "models.json")
    fileio.write_json(
        models_path,
        {
            "format_version": 1,
            "outcome": model_payload(models.outcome),
            "propensity": model_payload(models.propensity),
        },
    )
    n_undefined = int(curve.undefined_mask.sum())
    print(f"wrote {bounds_path} and {models_path} ({n_undefined} undefined grid points)")
    return 0


def cmd_benchmark(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {args.config}: {exc}") from exc
    config = load_run_config(doc)
    trial = config.trial
    if args.seed is not None:
        trial = replace(trial, seed=args.seed)
    if config.raw_path is not None:
        _, raw = _read_table(config.raw_path, "raw table")
        needed = trial.n_train + trial.n_test
        if len(raw) < needed:
            raise UsageError(f"{config.raw_path} has {len(raw)} rows; the trial needs {needed}")
    else:
        raw = bench.synthetic_raw(config.raw_rows, config.raw_cols, seed=trial.seed)
    report = bench.run_benchmark(
        trial, raw, methods=config.methods, n_trials=config.n_trials, train_config=config.train
    )
    bench.write_trials_csv(os.path.join(args.out, "trials.csv"), report)
    bench.write_summary_json(os.path.join(args.out, "summary.json"), report)
    print(
        f"{'method':>10}  {'cost x1000':>11}  {'% best':>7}  {'ratio':>7}  "
        f"{'gamma*':>7}  {'coverage':>8}"
    )
    for name in config.methods:
        stats = report.summary["per_method"][name]
        if stats["mean_cost_x1000"] is None:
            print(f"{name:>10}  {'-':>11}  {'-':>7}  {'-':>7}  {'-':>7}  {'-':>8}")
            continue
        print(
            f"{name:>10}  {stats['mean_cost_x1000']:>11.3f}  {stats['pct_best']:>7.1f}"
            f"  {stats['mean_ratio_to_best']:>7.3f}  {stats['mean_gamma_star']:>7.3f}"
            f"  {stats['mean_coverage']:>8.3f}"
        )
    failed = report.summary["n_failed"]
    if failed:
        print(f"{failed} of {config.n_trials} trials failed; see trials.csv", file=sys.stderr)
        return 1
    return 0


def cmd_check(args) -> int:
    _require_positive(args, "samples", "instances", "n", "points")
    if args.n > checks.MAX_EXTREMIZER_N:
        raise UsageError(f"--n must be at most {checks.MAX_EXTREMIZER_N}, got {args.n}")
    if args.suite is not None:
        try:
            checks.resolve_suite(args.suite)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    names = None if args.suite is None else [args.suite]
    results = checks.run_suites(
        names,
        samples=args.samples,
        instances=args.instances,
        max_n=args.n,
        points=args.points,
        seed=args.seed,
    )
    for result in results:
        print(result.describe())
    return 0 if all(result.passed for result in results) else 1


# --------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dosebounds",
        description="Partial-identification bounds for continuous-treatment dose response.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dgp = sub.add_parser("dgp", help="synthesize raw covariates or a full trial bundle")
    dgp.add_argument("--rows", type=int, default=1000, help="raw rows to synthesize")
    dgp.add_argument("--cols", type=int, default=16, help="raw columns to synthesize")
    dgp.add_argument("--seed", type=int, default=0)
    dgp.add_argument("--out", default=".", help="output directory")
    dgp.add_argument("--from-csv", default=None, help="raw covariate CSV to project instead")
    dgp.add_argument("--trial", action="store_true", help="emit train/test/truth files")
    dgp.add_argument("--confounders", type=int, default=10, help="total confounders (even)")
    dgp.add_argument("--form", choices=("linear", "quadratic"), default="quadratic")
    dgp.set_defaults(func=cmd_dgp)

    bounds = sub.add_parser("bounds", help="fit models and write bound curves")
    bounds.add_argument("--data", required=True, help="training CSV (x..., t, y)")
    bounds.add_argument("--model", required=True, choices=bench.DEFAULT_METHODS)
    bounds.add_argument("--gamma", type=float, required=True, help="violation budget, >= 1")
    bounds.add_argument("--target", choices=("apo", "capo"), default="apo")
    bounds.add_argument("--instance", type=int, default=None, help="row index for capo")
    bounds.add_argument("--seed", type=int, default=0)
    bounds.add_argument("--out", default=".", help="output directory")
    bounds.set_defaults(func=cmd_bounds)

    benchmark = sub.add_parser("benchmark", help="run the multi-trial comparison")
    benchmark.add_argument("--config", required=True, help="JSON run configuration")
    benchmark.add_argument("--seed", type=int, default=None, help="override the config seed")
    benchmark.add_argument("--out", default=".", help="output directory")
    benchmark.set_defaults(func=cmd_benchmark)

    check = sub.add_parser("check", help="run randomized self-check suites")
    check.add_argument(
        "--suite", default=None, help="one of: " + ", ".join(checks.SUITE_NAMES)
    )
    check.add_argument("--samples", type=int, default=200, help="draws per closed-form family")
    check.add_argument("--instances", type=int, default=1000, help="extremizer instances")
    check.add_argument(
        "--n", type=int, default=12,
        help=f"max draws per extremizer instance, at most {checks.MAX_EXTREMIZER_N}: "
        "brute force builds 2^n x n arrays (8 MB at 16, 170 MB at 20)",
    )
    check.add_argument("--points", type=int, default=100, help="gradient check points")
    check.add_argument("--seed", type=int, default=0)
    check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
        out = getattr(args, "out", None)
        if out is not None:
            # the writers create missing directories under the nearest existing path
            existing = os.path.abspath(out)
            while not os.path.exists(existing):
                existing = os.path.dirname(existing)
            if not os.path.isdir(existing):
                raise UsageError(f"--out must name a directory, but {existing} is a file")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
