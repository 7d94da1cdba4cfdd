"""Byte-identity of command outputs against checked-in references.

Each directory under ``tests/golden`` holds a run ``config.json`` and the
``summary.json`` and ``trials.csv`` that ``dosebounds benchmark`` wrote for
it, and every run must reproduce both files byte for byte.
``tests/golden_bounds`` holds the ``bounds.csv`` (as
``<target>_<model>.csv``) and the shared ``models.json`` that
``dosebounds bounds --gamma 1.5`` wrote on the ``dgp --trial --seed 0``
bundle.  A change that moves the numbers on purpose rewrites all of these
references with ``sh tests/golden/regenerate.sh`` (from the repository
root) and says so in CHANGES.md.
"""

from pathlib import Path

import pytest

from dosebounds import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(path.name for path in GOLDEN.iterdir() if path.is_dir())
GOLDEN_BOUNDS = Path(__file__).parent / "golden_bounds"
BOUNDS_CASES = {
    "apo_deltamsm": ["--model", "deltamsm"],
    "apo_cmsm": ["--model", "cmsm"],
    "apo_uniform": ["--model", "uniform"],
    "apo_binarymsm": ["--model", "binarymsm"],
    "capo_deltamsm": ["--model", "deltamsm", "--target", "capo", "--instance", "0"],
}


def test_every_case_is_complete():
    assert CASES == ["seed0_three_trials", "test_08"]
    for case in CASES:
        for name in ("config.json", "summary.json", "trials.csv"):
            assert (GOLDEN / case / name).is_file()


@pytest.mark.parametrize("case", CASES)
def test_benchmark_reports_match_the_reference(tmp_path, case):
    config = GOLDEN / case / "config.json"
    assert cli.main(["benchmark", "--config", str(config), "--out", str(tmp_path)]) == 0
    for name in ("summary.json", "trials.csv"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / case / name).read_bytes(), name


@pytest.fixture(scope="module")
def seed0_training_table(tmp_path_factory):
    bundle = tmp_path_factory.mktemp("bundle")
    assert cli.main(["dgp", "--trial", "--seed", "0", "--out", str(bundle)]) == 0
    return bundle / "train.csv"


@pytest.mark.parametrize("case", sorted(BOUNDS_CASES))
def test_bounds_outputs_match_the_reference(tmp_path, seed0_training_table, case):
    argv = ["bounds", "--data", str(seed0_training_table), "--gamma", "1.5"]
    assert cli.main(argv + BOUNDS_CASES[case] + ["--out", str(tmp_path)]) == 0
    assert (tmp_path / "bounds.csv").read_bytes() == (GOLDEN_BOUNDS / f"{case}.csv").read_bytes()
    assert (tmp_path / "models.json").read_bytes() == (GOLDEN_BOUNDS / "models.json").read_bytes()
