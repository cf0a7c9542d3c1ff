"""Short-term memory profile of the six-qubit reservoir.

Drive the reservoir with a random binary sequence, then train one linear
readout per delay tau to reconstruct the input from tau steps ago. The
squared correlation between reconstruction and truth on held-out steps is
the memory capacity at that delay. Recent inputs are easy, older ones fade
as the reset channel overwrites them.

Runs both qubit arrangements with the per-qubit readout, averaged over a
few coupling draws. Takes a few seconds.
"""
from spinqrc.experiment import ExperimentManifest, run_experiment

DELAYS = range(9)
N_SEEDS = 3


def main() -> None:
    cells = run_experiment([
        ExperimentManifest(kind="reservoir", config={"topology": t},
                           tasks=("stm",), stm_delays=tuple(DELAYS),
                           n_seeds=N_SEEDS)
        for t in ("linear", "ring")])
    # Each arrangement's rows, one per delay in DELAYS order.
    linear, ring = ([row.mean for row in cell.metrics.values()]
                    for cell in cells)

    print(f"memory capacity by delay, gamma=0.1, {N_SEEDS} coupling draws")
    print(f"{'tau':>4}  {'linear':>8}  {'ring':>8}")
    for tau in DELAYS:
        print(f"{tau:>4}  {linear[tau]:>8.3f}  {ring[tau]:>8.3f}")
    print()
    print("capacity is highest at the shortest delays and fades within ~8")
    print("steps; even at delay 0 it stays below 1 because the coupling")
    print("unitary spreads the input across the array before measurement.")


if __name__ == "__main__":
    main()
