"""Byte-identity of benchmark reports against checked-in references.

Each directory under ``tests/golden`` holds a run ``config.json`` and the
``summary.json`` and ``trials.csv`` that ``dosebounds benchmark`` wrote for
it.  Every run must reproduce both files byte for byte, with one worker and
with two.  A change that moves the numbers on purpose regenerates the
references and says so in CHANGES.md:

    PYTHONPATH=src python -m dosebounds.cli benchmark \\
        --config tests/golden/<case>/config.json --out tests/golden/<case>
"""

from pathlib import Path

import pytest

from dosebounds import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(path.name for path in GOLDEN.iterdir() if path.is_dir())


def test_every_case_is_complete():
    assert CASES == ["seed0_three_trials", "test_08"]
    for case in CASES:
        for name in ("config.json", "summary.json", "trials.csv"):
            assert (GOLDEN / case / name).is_file()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", CASES)
def test_benchmark_reports_match_the_reference(tmp_path, monkeypatch, case, workers):
    monkeypatch.setenv("DOSEBOUNDS_THREADS", str(workers))
    config = GOLDEN / case / "config.json"
    assert cli.main(["benchmark", "--config", str(config), "--out", str(tmp_path)]) == 0
    for name in ("summary.json", "trials.csv"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / case / name).read_bytes(), name
