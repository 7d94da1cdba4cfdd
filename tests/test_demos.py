"""Smoke test: every script under demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, header",
    [
        ("benchmark_run.py", "10 trials, quadratic outcomes, 4 confounders"),
        ("bounds_workflow.py", "dose-response band under increasing confounding budgets"),
    ],
)
def test_demo_runs(script, header, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0].startswith(header)
