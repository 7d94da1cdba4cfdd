"""End-to-end command line tests; every command is exercised through main()."""

import json
import math

import numpy as np
import pytest

from dosebounds import benchmark as bm
from dosebounds import checks, cli, fileio
from dosebounds.cli import load_run_config, main
from dosebounds.estimator import apo_interval
from dosebounds.models import FittedModels, TrainConfig, fit_outcome, fit_propensity
from dosebounds.sensitivity import DeltaMSM, Uniform


def run(*argv):
    return main([str(a) for a in argv])


def write_training_csv(path, n=30, seed=4):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 1))
    t = rng.uniform(0.1, 0.9, size=n)
    y = (rng.uniform(size=n) < 0.5).astype(float)
    fileio.write_csv(str(path), ["x0", "t", "y"], np.column_stack([x, t, y]).tolist())
    return x, t, y


def write_raw_table(path, rows=1000, bad=None):
    """A raw covariate table; ``bad`` replaces one cell with that literal."""
    lines = ["a,b,c"] + [f"{i % 7}.5,{i % 11}.25,{i % 13}.0" for i in range(rows)]
    if bad is not None:
        lines[rows // 2] = f"1.0,{bad},2.0"
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def no_fitting(monkeypatch):
    """Fail the test if the command reaches a model fit or a computation."""

    def reached(*args, **kwargs):
        pytest.fail("bad input reached the computation")

    monkeypatch.setattr(cli, "fit_outcome", reached)
    monkeypatch.setattr(cli, "fit_propensity", reached)
    monkeypatch.setattr(bm, "run_benchmark", reached)
    monkeypatch.setattr(checks, "run_suites", reached)


class TestDgp:
    def test_raw_synthesis_is_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run("dgp", "--rows", 50, "--cols", 4, "--seed", 7, "--out", a) == 0
        assert run("dgp", "--rows", 50, "--cols", 4, "--seed", 7, "--out", b) == 0
        assert (a / "raw.csv").read_bytes() == (b / "raw.csv").read_bytes()
        names, data = fileio.read_csv(str(a / "raw.csv"))
        assert names == ["x0", "x1", "x2", "x3"]
        assert data.shape == (50, 4)

    def test_trial_bundle_row_counts_and_grid(self, tmp_path):
        out = tmp_path / "trial"
        assert (
            run(
                "dgp", "--trial", "--confounders", 2, "--form", "linear",
                "--rows", 1000, "--cols", 4, "--seed", 3, "--out", out,
            )
            == 0
        )
        train_names, train = fileio.read_csv(str(out / "train.csv"))
        test_names, test = fileio.read_csv(str(out / "test.csv"))
        truth_names, truth = fileio.read_csv(str(out / "truth.csv"))
        assert train_names == ["x0", "t", "y"] and test_names == train_names
        assert train.shape == (750, 3)
        assert test.shape == (250, 3)
        assert truth_names == ["t", "true_apo"]
        assert truth.shape == (100, 2)
        assert truth[0, 0] == 0.0 and truth[-1, 0] == 1.0
        assert np.all((truth[:, 1] > 0.0) & (truth[:, 1] < 1.0))

    def test_trial_from_csv_uses_the_given_raw_data(self, tmp_path):
        raw_dir = tmp_path / "raw"
        assert run("dgp", "--rows", 1000, "--cols", 4, "--seed", 5, "--out", raw_dir) == 0
        out = tmp_path / "a"
        assert run("dgp", "--trial", "--confounders", 2, "--form", "linear",
                   "--seed", 3, "--from-csv", raw_dir / "raw.csv", "--out", out) == 0
        _, raw = fileio.read_csv(str(raw_dir / "raw.csv"))
        config = bm.TrialConfig(n_confounders=2, form="linear", seed=3)
        trial = bm.generate_trial(raw, config)
        _, train = fileio.read_csv(str(out / "train.csv"))
        np.testing.assert_allclose(
            train[:, 0], trial.visible(trial.train_idx)[:, 0], rtol=1e-15
        )
        np.testing.assert_array_equal(train[:, 2], trial.outcomes(trial.train_idx))

    def test_from_csv_without_trial_is_a_usage_error(self, tmp_path, capsys):
        assert run("dgp", "--from-csv", tmp_path / "nope.csv") == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--rows", 1), ("--cols", 0)])
    def test_bad_raw_size_is_a_usage_error(self, tmp_path, capsys, flag, value):
        assert run("dgp", flag, value, "--out", tmp_path) == 2
        assert "synthetic_raw needs n_rows >= 2 and n_cols >= 1" in capsys.readouterr().err
        assert not (tmp_path / "raw.csv").exists()

    def test_too_few_raw_rows_for_a_trial_is_a_usage_error(self, tmp_path, capsys):
        assert run("dgp", "--trial", "--rows", 50, "--out", tmp_path) == 2
        assert "raw data has 50 rows; the trial needs 1000" in capsys.readouterr().err
        assert not (tmp_path / "train.csv").exists()

    def test_missing_from_csv_file_is_a_usage_error(self, tmp_path, capsys):
        assert run("dgp", "--trial", "--from-csv", tmp_path / "nope.csv", "--out", tmp_path) == 2
        assert "cannot read raw table" in capsys.readouterr().err
        assert not (tmp_path / "train.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_from_csv_value_is_a_usage_error(self, tmp_path, capsys, value):
        table = tmp_path / "raw.csv"
        write_raw_table(table, bad=value)
        assert run("dgp", "--trial", "--from-csv", table, "--out", tmp_path) == 2
        assert "every value must be finite" in capsys.readouterr().err
        assert not (tmp_path / "train.csv").exists()

    def test_header_only_from_csv_is_a_usage_error(self, tmp_path, capsys, recwarn):
        table = tmp_path / "raw.csv"
        table.write_text("a,b,c\n")
        assert run("dgp", "--trial", "--from-csv", table, "--out", tmp_path) == 2
        assert "no data rows" in capsys.readouterr().err
        assert not recwarn.list

    @pytest.mark.parametrize("below", ["", "sub", "sub/dir"])
    @pytest.mark.parametrize("trial", [False, True])
    def test_out_that_names_a_file_exits_before_the_work(
        self, tmp_path, capsys, monkeypatch, trial, below
    ):
        def reached(*args, **kwargs):
            pytest.fail("an --out file reached the computation")

        monkeypatch.setattr(bm, "synthetic_raw", reached)
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        assert run("dgp", *(["--trial"] if trial else []), "--out", taken / below) == 2
        assert f"--out must name a directory, but {taken} is a file" in capsys.readouterr().err
        assert taken.read_text() == "keep\n"


class TestBounds:
    def test_uniform_bounds_match_the_library_call(self, tmp_path):
        data = tmp_path / "train.csv"
        x, t, y = write_training_csv(data)
        out = tmp_path / "out"
        assert (
            run("bounds", "--data", data, "--model", "uniform", "--gamma", 2.0,
                "--seed", 1, "--out", out)
            == 0
        )
        names, table = fileio.read_csv(str(out / "bounds.csv"))
        assert names == ["t", "lo", "hi", "undefined_flag"]
        assert table.shape == (100, 4)
        train = TrainConfig(seed=1)
        models = FittedModels(fit_outcome(x, t, y, train), fit_propensity(x, t, train))
        curve = apo_interval(models, Uniform(), x, np.linspace(0.0, 1.0, 100), 2.0)
        np.testing.assert_allclose(table[:, 1], curve.lo, rtol=1e-15)
        np.testing.assert_allclose(table[:, 2], curve.hi, rtol=1e-15)
        assert np.all(table[:, 3] == 0.0)

    def test_gamma_one_collapses_the_band(self, tmp_path):
        data = tmp_path / "train.csv"
        write_training_csv(data)
        out = tmp_path / "out"
        assert (
            run("bounds", "--data", data, "--model", "deltamsm", "--gamma", 1.0, "--out", out)
            == 0
        )
        _, table = fileio.read_csv(str(out / "bounds.csv"))
        assert np.max(table[:, 2] - table[:, 1]) < 1e-9

    def test_capo_with_instance(self, tmp_path):
        data = tmp_path / "train.csv"
        write_training_csv(data)
        out = tmp_path / "out"
        assert (
            run("bounds", "--data", data, "--model", "uniform", "--gamma", 1.5,
                "--target", "capo", "--instance", 3, "--out", out)
            == 0
        )
        _, table = fileio.read_csv(str(out / "bounds.csv"))
        assert np.all(table[:, 1] <= table[:, 2])

    @pytest.mark.parametrize("target", ["apo", "capo"])
    @pytest.mark.parametrize("model", ["deltamsm", "cmsm", "uniform", "binarymsm"])
    def test_the_largest_finite_gamma_saturates_without_warnings(self, tmp_path, model, target):
        # the divisor bounds overflow to inf on purpose; RuntimeWarnings are
        # errors under the test settings, so a stray warning exits 1
        data = tmp_path / "train.csv"
        write_training_csv(data)
        out = tmp_path / "out"
        argv = ["bounds", "--data", data, "--model", model, "--gamma", "1.7976931348623157e308",
                "--target", target, "--out", out]
        assert run(*argv, *(["--instance", 3] if target == "capo" else [])) == 0
        _, table = fileio.read_csv(str(out / "bounds.csv"))
        assert table.shape == (100, 4)

    def test_models_json_contains_both_models(self, tmp_path):
        data = tmp_path / "train.csv"
        write_training_csv(data)
        out = tmp_path / "out"
        assert run("bounds", "--data", data, "--model", "uniform", "--gamma", 2.0, "--out", out) == 0
        doc = json.loads((out / "models.json").read_text())
        assert doc["format_version"] == 1
        assert doc["outcome"]["kind"] == "outcome"
        assert doc["propensity"]["kind"] == "propensity"
        assert len(doc["outcome"]["weights"]) == 2

    def test_usage_errors(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        write_training_csv(data)
        base = ["bounds", "--data", data]
        assert run(*base, "--model", "uniform", "--gamma", 0.5) == 2
        assert run(*base, "--model", "uniform", "--gamma", 2, "--target", "capo") == 2
        assert run(*base, "--model", "uniform", "--gamma", 2, "--target", "capo",
                   "--instance", 999) == 2
        capsys.readouterr()

    def test_models_are_the_benchmark_methods(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        write_training_csv(data)
        with pytest.raises(SystemExit) as excinfo:
            run("bounds", "--data", data, "--model", "msm", "--gamma", 2)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert all(repr(name) in err for name in bm.DEFAULT_METHODS)

    def test_scheme_flag_is_a_usage_error(self, tmp_path, capsys):
        # DeltaMSM has one divisor, so there is no scheme to choose
        data = tmp_path / "train.csv"
        write_training_csv(data)
        with pytest.raises(SystemExit) as excinfo:
            run("bounds", "--data", data, "--model", "deltamsm", "--scheme", "beta",
                "--gamma", 2, "--out", tmp_path / "out")
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --scheme beta" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scheme", ["gamma", "gaussian"])
    def test_non_beta_scheme_is_a_usage_error(self, tmp_path, capsys, scheme):
        data = tmp_path / "train.csv"
        write_training_csv(data)
        with pytest.raises(SystemExit) as excinfo:
            run("bounds", "--data", data, "--model", "deltamsm", "--scheme", scheme,
                "--gamma", 2, "--out", tmp_path / "out")
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: --scheme {scheme}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_beta_scheme_runs(self, tmp_path):
        # DeltaMSM's one divisor is the balanced Beta-propensity one
        data = tmp_path / "train.csv"
        x, t, y = write_training_csv(data)
        out = tmp_path / "out"
        assert run("bounds", "--data", data, "--model", "deltamsm", "--gamma", 1.5,
                   "--seed", 1, "--out", out) == 0
        _, table = fileio.read_csv(str(out / "bounds.csv"))
        train = TrainConfig(seed=1)
        models = FittedModels(fit_outcome(x, t, y, train), fit_propensity(x, t, train))
        curve = apo_interval(models, DeltaMSM(), x, np.linspace(0.0, 1.0, 100), 1.5)
        np.testing.assert_allclose(table[:, 1], curve.lo, rtol=1e-15)
        np.testing.assert_allclose(table[:, 2], curve.hi, rtol=1e-15)

    def test_missing_data_file_fails_cleanly(self, tmp_path, capsys, no_fitting):
        assert run("bounds", "--data", tmp_path / "nope.csv", "--model", "uniform",
                   "--gamma", 2) == 2
        assert "cannot read training table" in capsys.readouterr().err

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_non_finite_gamma_is_a_usage_error(self, tmp_path, capsys, no_fitting, gamma):
        data = tmp_path / "train.csv"
        write_training_csv(data)
        assert run("bounds", "--data", data, "--model", "uniform", "--gamma", gamma) == 2
        assert "--gamma must be finite and >= 1" in capsys.readouterr().err

    def test_infinite_precision_is_a_usage_error(self, tmp_path, capsys, no_fitting):
        # the trust precision is always the propensity's nominal one
        data = tmp_path / "train.csv"
        write_training_csv(data)
        with pytest.raises(SystemExit) as excinfo:
            run("bounds", "--data", data, "--model", "deltamsm", "--gamma", 2,
                "--precision", "inf")
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --precision inf" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["cmsm", "uniform", "binarymsm"])
    def test_precision_without_deltamsm_is_a_usage_error(self, tmp_path, capsys, no_fitting, model):
        data = tmp_path / "train.csv"
        write_training_csv(data)
        with pytest.raises(SystemExit) as excinfo:
            run("bounds", "--data", data, "--model", model, "--gamma", "1.5",
                "--precision", 3, "--out", tmp_path)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --precision 3" in capsys.readouterr().err
        assert not (tmp_path / "bounds.csv").exists()

    def test_instance_without_capo_is_a_usage_error(self, tmp_path, capsys, no_fitting):
        # only a capo band conditions on one row
        data = tmp_path / "train.csv"
        write_training_csv(data)
        assert run("bounds", "--data", data, "--model", "uniform", "--gamma", 2,
                   "--target", "apo", "--instance", 3, "--out", tmp_path) == 2
        assert "--instance only applies to --target capo" in capsys.readouterr().err
        assert not (tmp_path / "bounds.csv").exists()

    def test_non_binary_outcomes_are_a_usage_error(self, tmp_path, capsys, no_fitting):
        data = tmp_path / "train.csv"
        fileio.write_csv(str(data), ["x0", "t", "y"], [[0.1, 0.5, 1.0], [0.2, 0.4, 0.5]])
        assert run("bounds", "--data", data, "--model", "uniform", "--gamma", 2) == 2
        assert "column 'y' must hold binary outcomes" in capsys.readouterr().err

    @pytest.mark.parametrize("dose", [-0.01, 1.01, 100.0])
    def test_dose_outside_the_unit_interval_is_a_usage_error(
        self, tmp_path, capsys, no_fitting, dose
    ):
        data = tmp_path / "train.csv"
        fileio.write_csv(str(data), ["x0", "t", "y"], [[0.1, 0.5, 1.0], [0.2, dose, 0.0]])
        assert run("bounds", "--data", data, "--model", "deltamsm", "--gamma", 1.5,
                   "--out", tmp_path) == 2
        assert "quantile-normalize" in capsys.readouterr().err
        assert not (tmp_path / "bounds.csv").exists()

    def test_doses_at_the_interval_ends_are_accepted(self, tmp_path):
        x, t, y = write_training_csv(tmp_path / "seed.csv")
        t[:2] = 0.0, 1.0
        data = tmp_path / "train.csv"
        fileio.write_csv(str(data), ["x0", "t", "y"], np.column_stack([x, t, y]).tolist())
        assert run("bounds", "--data", data, "--model", "uniform", "--gamma", 1.5,
                   "--out", tmp_path) == 0
        assert (tmp_path / "bounds.csv").exists()

    def test_non_finite_table_value_is_a_usage_error(self, tmp_path, capsys, no_fitting):
        data = tmp_path / "train.csv"
        data.write_text("x0,t,y\n0.1,0.5,1\nnan,0.4,0\n")
        assert run("bounds", "--data", data, "--model", "uniform", "--gamma", 2) == 2
        assert "every value must be finite" in capsys.readouterr().err

    def test_out_of_range_instance_exits_before_fitting(self, tmp_path, capsys, no_fitting):
        data = tmp_path / "train.csv"
        write_training_csv(data)
        assert run("bounds", "--data", data, "--model", "uniform", "--gamma", 2,
                   "--target", "capo", "--instance", 30) == 2
        assert "--instance must index a row" in capsys.readouterr().err

    def test_header_only_table_is_a_usage_error(self, tmp_path, capsys, recwarn, no_fitting):
        data = tmp_path / "train.csv"
        data.write_text("x0,t,y\n\n")
        assert run("bounds", "--data", data, "--model", "uniform", "--gamma", 2) == 2
        err = capsys.readouterr().err
        assert "no data rows" in err and "columns" not in err
        assert not recwarn.list

    def test_malformed_header_is_a_usage_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        fileio.write_csv(str(bad), ["a", "b", "c"], [[1.0, 0.5, 1.0]])
        assert run("bounds", "--data", bad, "--model", "uniform", "--gamma", 2) == 2

    def test_out_that_names_a_file_exits_before_fitting(self, tmp_path, capsys, no_fitting):
        data = tmp_path / "train.csv"
        write_training_csv(data)
        out = tmp_path / "taken"
        out.write_text("keep\n")
        argv = ("bounds", "--data", data, "--model", "uniform", "--gamma", 1.5, "--out", out)
        assert run(*argv) == 2
        assert f"--out must name a directory, but {out} is a file" in capsys.readouterr().err
        assert out.read_text() == "keep\n"


def benchmark_config(tmp_path, **extra):
    doc = {
        "trial": {
            "n_confounders": 2,
            "form": "linear",
            "n_train": 60,
            "n_test": 20,
            "t_grid_size": 7,
            "gamma_grid_size": 5,
            "gamma_max": 2.0,
        },
        "train": {"epochs": 4},
        "methods": ["uniform", "cmsm"],
        "n_trials": 2,
        "raw": {"rows": 120, "cols": 5},
        "seed": 11,
    }
    doc.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestBenchmarkCommand:
    def test_writes_reports_and_is_deterministic(self, tmp_path, capsys):
        config = benchmark_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run("benchmark", "--config", config, "--out", out_a) == 0
        assert run("benchmark", "--config", config, "--out", out_b) == 0
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
        assert (out_a / "trials.csv").read_bytes() == (out_b / "trials.csv").read_bytes()
        summary = json.loads((out_a / "summary.json").read_text())
        assert summary["n_trials"] == 2
        assert set(summary["per_method"]) == {"uniform", "cmsm"}
        stdout = capsys.readouterr().out
        assert "uniform" in stdout and "cmsm" in stdout

    def test_flag_overrides(self, tmp_path):
        config = benchmark_config(tmp_path, n_trials=1)
        out = tmp_path / "o"
        assert run("benchmark", "--config", config, "--seed", 99, "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["seed"] == 99

    def test_out_that_names_a_file_exits_before_any_trial(self, tmp_path, capsys, no_fitting):
        config = benchmark_config(tmp_path)
        out = tmp_path / "taken"
        out.write_text("keep\n")
        assert run("benchmark", "--config", config, "--out", out) == 2
        assert f"--out must name a directory, but {out} is a file" in capsys.readouterr().err
        assert out.read_text() == "keep\n"

    def test_unknown_config_keys_exit_before_computation(self, tmp_path, capsys):
        config = benchmark_config(tmp_path, bogus=1)
        assert run("benchmark", "--config", config) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_missing_config_is_a_usage_error(self, tmp_path):
        assert run("benchmark", "--config", tmp_path / "none.json") == 2

    def test_non_numeric_trust_precision_is_a_usage_error(self, tmp_path, capsys):
        # the trust precision is always the propensity's nominal one
        config = benchmark_config(tmp_path, trust_precision="abc")
        assert run("benchmark", "--config", config, "--out", tmp_path) == 2
        assert "config: unknown keys ['trust_precision']" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    def test_boolean_n_trials_is_a_usage_error(self, tmp_path, capsys):
        config = benchmark_config(tmp_path, n_trials=True)
        assert run("benchmark", "--config", config, "--out", tmp_path) == 2
        assert "config.n_trials must be a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"rows": "abc"}, "config.raw.rows must be an integer >= 80, got 'abc'"),
            ({"rows": 1}, "config.raw.rows must be an integer >= 80, got 1"),
            ({"rows": 60}, "config.raw.rows must be an integer >= 80, got 60"),
            ({"rows": True}, "config.raw.rows must be an integer >= 80, got True"),
            ({"cols": 2.7}, "config.raw.cols must be an integer >= 1, got 2.7"),
            ({"cols": 0}, "config.raw.cols must be an integer >= 1, got 0"),
        ],
    )
    def test_bad_raw_size_is_a_usage_error(self, tmp_path, capsys, raw, message):
        config = benchmark_config(tmp_path, raw=raw)
        assert run("benchmark", "--config", config, "--out", tmp_path) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    def test_short_raw_table_is_a_usage_error(self, tmp_path, capsys):
        table = tmp_path / "raw.csv"
        fileio.write_csv(str(table), ["a", "b"], np.ones((60, 2)).tolist())
        config = benchmark_config(tmp_path, raw={"path": str(table)})
        assert run("benchmark", "--config", config, "--out", tmp_path) == 2
        assert "has 60 rows; the trial needs 80" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    def test_missing_raw_table_is_a_usage_error(self, tmp_path, capsys, no_fitting):
        config = benchmark_config(tmp_path, raw={"path": str(tmp_path / "nope.csv")})
        assert run("benchmark", "--config", config, "--out", tmp_path) == 2
        assert "cannot read raw table" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_raw_table_is_a_usage_error(self, tmp_path, capsys, no_fitting, value):
        table = tmp_path / "raw.csv"
        write_raw_table(table, rows=100, bad=value)
        config = benchmark_config(tmp_path, raw={"path": str(table)})
        assert run("benchmark", "--config", config, "--out", tmp_path) == 2
        assert "every value must be finite" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    def test_header_only_raw_table_is_a_usage_error(self, tmp_path, capsys, recwarn, no_fitting):
        table = tmp_path / "raw.csv"
        table.write_text("a,b,c\n")
        config = benchmark_config(tmp_path, raw={"path": str(table)})
        assert run("benchmark", "--config", config, "--out", tmp_path) == 2
        assert "no data rows" in capsys.readouterr().err
        assert not recwarn.list

    @pytest.mark.parametrize("trials", [0, -3])
    def test_non_positive_trials_is_a_usage_error(self, tmp_path, capsys, no_fitting, trials):
        # the config key n_trials is the one way to set the trial count
        config = benchmark_config(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            run("benchmark", "--config", config, "--trials", trials, "--out", tmp_path)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: --trials {trials}" in capsys.readouterr().err

    def test_unknown_method_is_a_usage_error(self, tmp_path, capsys):
        config = benchmark_config(tmp_path, methods=["msm"])
        assert run("benchmark", "--config", config, "--out", tmp_path) == 2
        assert "unknown method 'msm'" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    def test_duplicate_config_methods_are_a_usage_error(self, tmp_path, capsys, no_fitting):
        # a repeated method would take extra shares of every tie in pct_best
        config = benchmark_config(tmp_path, methods=["uniform", "cmsm", "uniform"])
        assert run("benchmark", "--config", config, "--out", tmp_path) == 2
        assert "config.methods: duplicate methods: 'uniform'" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    def test_duplicate_methods_flag_is_a_usage_error(self, tmp_path, capsys, no_fitting):
        # the config key methods is the one way to choose methods
        config = benchmark_config(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            run("benchmark", "--config", config, "--methods", "uniform,uniform,cmsm",
                "--out", tmp_path)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --methods" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize(
        "method",
        [["uniform"], {"name": "uniform"}, 3, None],
        ids=["list", "object", "number", "null"],
    )
    def test_non_string_config_method_is_a_usage_error(
        self, tmp_path, capsys, no_fitting, method
    ):
        # a list is unhashable: it once escaped the method lookup as a TypeError
        config = benchmark_config(tmp_path, methods=[method])
        assert run("benchmark", "--config", config, "--out", tmp_path) == 2
        assert "config.methods: method names must be strings" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()


class TestRunConfig:
    def test_defaults(self):
        config = load_run_config({})
        assert config.n_trials == 50
        assert config.methods == ("deltamsm", "cmsm", "uniform", "binarymsm")
        assert config.raw_rows == 1000 and config.raw_cols == 16

    def test_raw_path_is_not_held_to_the_default_row_count(self):
        config = load_run_config(
            {"raw": {"path": "x.csv"}, "trial": {"n_train": 1500, "n_test": 500}}
        )
        assert config.raw_path == "x.csv"

    def test_top_level_seed_mirrors_into_the_trial(self):
        config = load_run_config({"seed": 42})
        assert config.trial.seed == 42

    def test_rejections(self):
        for doc in (
            [],
            {"trial": {"nope": 1}},
            {"train": {"seed": 3}},
            {"raw": {"path": "x.csv", "rows": 10}},
            {"methods": []},
            {"methods": ["msm"]},
            {"n_trials": 0},
            {"trust_precision": -2.0},
            {"trial": {"form": "cubic"}},
        ):
            with pytest.raises(ValueError):
                load_run_config(doc)


def config_with(tmp_path, key, value):
    """``benchmark_config`` with the dotted ``key`` set to ``value``."""
    config = benchmark_config(tmp_path)
    doc = json.loads(config.read_text())
    *parents, leaf = key.split(".")
    node = doc
    for name in parents:
        node = node[name]
    node[leaf] = value
    config.write_text(json.dumps(doc))
    return config


class TestConfigTypes:
    def test_lr_sets_the_learning_rate(self):
        assert load_run_config({"train": {"lr": 5.0}}).train.learning_rate == 5.0

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("trial.n_confounders", 4.0, "n_confounders must be an integer, got 4.0"),
            ("trial.t_grid_size", 10.5, "t_grid_size must be an integer, got 10.5"),
            ("trial.n_train", 60.0, "n_train must be an integer, got 60.0"),
            ("trial.n_test", True, "n_test must be an integer, got True"),
            ("train.epochs", 2.5, "epochs must be an integer, got 2.5"),
            ("train.batches", True, "batches must be an integer, got True"),
            ("seed", 1.5, "seed must be an integer, got 1.5"),
            ("raw", {"path": 5}, "config.raw.path must be a string, got 5"),
            ("raw", {"path": True}, "config.raw.path must be a string, got True"),
            ("raw", {"path": ["a"]}, "config.raw.path must be a string, got ['a']"),
            ("train.lr", True, "learning_rate must be a number, got True"),
            ("trial.gamma_max", True, "gamma_max must be a number, got True"),
            ("trial.target_coverage", False, "target_coverage must be a number, got False"),
        ],
    )
    def test_bad_type_is_a_usage_error(self, tmp_path, capsys, no_fitting, key, value, message):
        config = config_with(tmp_path, key, value)
        assert run("benchmark", "--config", config, "--out", tmp_path) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["Infinity", "NaN"])
    def test_non_finite_learning_rate_is_a_usage_error(
        self, tmp_path, capsys, no_fitting, value
    ):
        # json reads Infinity and NaN; neither may reach training
        config = config_with(tmp_path, "train.lr", value)
        assert run("benchmark", "--config", config, "--out", tmp_path) == 2
        assert "learning_rate" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("out", "results", "config: unknown keys ['out']"),
            ("trial.seed", 3, "config.trial: unknown keys ['seed']"),
        ],
        ids=["out", "trial.seed"],
    )
    def test_removed_key_is_unknown(self, tmp_path, capsys, no_fitting, key, value, message):
        # --out sets the output directory, and the top-level seed the trial seed
        config = config_with(tmp_path, key, value)
        assert run("benchmark", "--config", config, "--out", tmp_path) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("field, value", [("learning_rate", True)])
    def test_boolean_train_numbers_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a number, got {value}"):
            TrainConfig(**{field: value})

    def test_numpy_integers_are_integers(self):
        trial = bm.TrialConfig(n_train=np.int64(60), t_grid_size=np.int32(7), seed=np.uint8(3))
        assert trial.n_train == 60 and trial.seed == 3
        assert TrainConfig(epochs=np.int64(2), batches=np.int16(3)).epochs == 2


class TestCheckCommand:
    def test_small_run_passes(self, capsys):
        assert run("check", "--suite", "extremizer", "--instances", 20, "--n", 6) == 0
        out = capsys.readouterr().out
        assert "extremizer: PASS" in out

    def test_alias_suites(self, capsys):
        # the retired short names table1/alg1 are unknown suites now
        assert run("check", "--suite", "alg1", "--instances", 5, "--n", 4) == 2
        assert "unknown suite 'alg1'" in capsys.readouterr().err

    def test_all_suites_by_default(self, capsys):
        assert run("check", "--samples", 2, "--instances", 5, "--n", 4, "--points", 2) == 0
        out = capsys.readouterr().out
        assert "closed-forms: PASS" in out
        assert "extremizer: PASS" in out
        assert "gradients: PASS" in out

    def test_unknown_suite_is_a_usage_error(self, capsys):
        assert run("check", "--suite", "everything") == 2
        assert "unknown suite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--instances", "--n", "--points", "--samples"])
    def test_non_positive_size_is_a_usage_error(self, capsys, no_fitting, flag):
        assert run("check", flag, 0) == 2
        assert f"{flag} must be a positive integer, got 0" in capsys.readouterr().err

    def test_n_over_the_cap_is_a_usage_error(self, capsys, no_fitting):
        # brute force is exponential in --n, so the cap stops it before any suite
        assert run("check", "--n", checks.MAX_EXTREMIZER_N + 1) == 2
        assert f"--n must be at most {checks.MAX_EXTREMIZER_N}" in capsys.readouterr().err

    def test_failing_suite_sets_exit_one(self, monkeypatch, capsys):
        def broken(**kwargs):
            return checks.CheckResult("gradients", 1, 1.0, 1e-4)

        monkeypatch.setattr(checks, "check_gradients", broken)
        assert run("check", "--suite", "gradients") == 1
        assert "gradients: FAIL" in capsys.readouterr().out


class TestNegativeSeed:
    @pytest.mark.parametrize(
        "argv",
        [
            ["benchmark", "--config", "{config}", "--out", "{out}"],
            ["bounds", "--data", "{data}", "--model", "uniform", "--gamma", "2", "--out", "{out}"],
            ["check", "--suite", "gradients"],
            ["dgp", "--rows", "50", "--cols", "3", "--out", "{out}"],
        ],
        ids=["benchmark", "bounds", "check", "dgp"],
    )
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, no_fitting, argv):
        data = tmp_path / "train.csv"
        write_training_csv(data)
        config = benchmark_config(tmp_path)
        out = tmp_path / "out"
        argv = [arg.format(config=config, data=data, out=out) for arg in argv]
        assert run(*argv, "--seed", -1) == 2
        assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not out.exists()


class TestParser:
    def test_no_subcommand_exits_with_usage(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_entry_point_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "dgp" in capsys.readouterr().out
