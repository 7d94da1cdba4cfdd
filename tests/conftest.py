"""Fixtures shared by more than one test module."""

import time

import pytest

from dosebounds import benchmark as bm


@pytest.fixture(scope="session")
def fifty_trial_run():
    """(report, seconds) of the 50-trial benchmark at default scale and seed 0.

    It runs once per session: acceptance test 6 scores it, and
    ``tests/golden/seed0_fifty_trials`` pins its two output files.
    """
    start = time.perf_counter()
    config = bm.TrialConfig(n_confounders=10, form="quadratic", seed=0)
    raw = bm.synthetic_raw(1000, 16, seed=0)
    report = bm.run_benchmark(config, raw, n_trials=50)
    return report, time.perf_counter() - start
