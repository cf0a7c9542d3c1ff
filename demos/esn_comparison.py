"""Classical baseline: echo-state networks with longer history taps.

ESN1 is a plain six-node echo-state network; ESN3 and ESN5 feed the
recurrence with the sum of states one, three, and (for ESN5) five steps
back. All three variants share the same weight draw per seed, so any
performance difference comes from the history combination alone.

Two effects show up. Deeper taps hurt short-delay recall, so memory
capacity orders ESN1 >= ESN3 >= ESN5. They also push the all-positive
recurrent drive into tanh saturation, which makes the feature matrix
nearly collinear: watch the condition number and retained rank fall for
the deeper variants.
"""
import numpy as np

from spinqrc.esn import VARIANTS
from spinqrc.experiment import ExperimentManifest, run_experiment

SEEDS = 5
STM_DELAYS = (2, 3, 4)
NARMA_ORDERS = (2, 5, 10)


def main() -> None:
    tasks = ("stm", *(f"narma{n}" for n in NARMA_ORDERS))
    cells = run_experiment([
        ExperimentManifest(kind="esn", config={"variant": v}, tasks=tasks,
                           stm_delays=STM_DELAYS, n_seeds=SEEDS)
        for v in VARIANTS])

    print(f"echo-state baselines, {SEEDS} shared weight draws")
    print(f"{'variant':>8}  {'C(2..4)':>8}  "
          + "  ".join(f"narma{n:<2}" for n in NARMA_ORDERS)
          + f"  {'rank':>5}  {'cond':>9}")
    for cell in cells:
        rows = list(cell.metrics.values())
        stm, narma = rows[:len(STM_DELAYS)], rows[len(STM_DELAYS):]
        # Each seed's mean capacity over the delays, then the mean over seeds.
        capacity = np.mean(np.mean([row.per_seed for row in stm], axis=0))
        errors = "  ".join(f"{row.mean:.1e}" for row in narma)
        fits = cell.diagnostics[narma[-1].row_id]  # the narma10 fits
        print(f"{rows[0].topology:>8}  {capacity:>8.3f}  {errors}"
              f"  {np.median(fits['rank']):>5.0f}"
              f"  {np.median(fits['condition']):>9.1e}")
    print()
    print("recall drops with tap depth while the NARMA errors sit roughly a")
    print("decade apart; the collapsing rank shows the deeper variants")
    print("saturating into a nearly one-dimensional response.")


if __name__ == "__main__":
    main()
