"""End-to-end bounds workflow on one synthetic trial.

Generates a confounded trial, fits the outcome and propensity heads, then
sweeps the violation factor to show how the dose-response ignorance band
widens from a point estimate at gamma = 1.
"""

import numpy as np

from dosebounds import (
    DeltaMSM,
    FittedModels,
    TrainConfig,
    TrialConfig,
    apo_interval,
    capo_interval,
    fit_outcome,
    fit_propensity,
    generate_trial,
    synthetic_raw,
    true_apo,
)
from dosebounds.benchmark import coverage


def main():
    config = TrialConfig(n_confounders=4, form="quadratic", seed=3)
    trial = generate_trial(synthetic_raw(1000, 12, seed=3), config)

    x = trial.visible(trial.train_idx)
    t = trial.treatments(trial.train_idx)
    models = FittedModels(
        outcome=fit_outcome(x, t, trial.outcomes(trial.train_idx), TrainConfig()),
        propensity=fit_propensity(x, t, TrainConfig()),
    )

    t_grid = np.linspace(0.0, 1.0, 11)
    truth = true_apo(trial, t_grid)
    test_x = trial.visible(trial.test_idx)
    sens = DeltaMSM()

    print("dose-response band under increasing confounding budgets")
    for gamma in (1.0, 1.3, 1.8):
        curve = apo_interval(models, sens, test_x, t_grid, gamma)
        covered = coverage(truth, curve.lo, curve.hi, curve.undefined_mask)
        print(f"\ngamma = {gamma:.1f}   coverage of the true curve: {covered:.0%}")
        print("   t     truth      lo      hi   width")
        for i, dose in enumerate(t_grid):
            flag = "*" if curve.undefined_mask[i] else " "
            print(
                f"  {dose:4.2f}   {truth[i]:6.3f}  {curve.lo[i]:6.3f}  "
                f"{curve.hi[i]:6.3f}  {curve.width[i]:6.3f}{flag}"
            )

    row = test_x[0]
    curve = capo_interval(models, sens, row, t_grid, 1.5)
    print("\nper-instance band (first test row, gamma = 1.5)")
    print("   t      lo      hi")
    for i, dose in enumerate(t_grid):
        print(f"  {dose:4.2f}  {curve.lo[i]:6.3f}  {curve.hi[i]:6.3f}")
    print("\n* marks doses where the divisor lost its floor: the upper bound")
    print("  is vacuous there and the point counts as covered.")


if __name__ == "__main__":
    main()
