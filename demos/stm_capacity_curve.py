"""Short-term memory profile of the six-qubit reservoir.

Drive the reservoir with a random binary sequence, then train one linear
readout per delay tau to reconstruct the input from tau steps ago. The
squared correlation between reconstruction and truth on held-out steps is
the memory capacity at that delay. Recent inputs are easy, older ones fade
as the reset channel overwrites them.

Runs both qubit arrangements with the per-qubit readout, averaged over a
few coupling draws. Takes a few seconds.
"""
import numpy as np

from spinqrc.readout import ReadoutType, make_features, predict, stm_capacity, train_weights
from spinqrc.reservoir import ReservoirConfig, run_sequence
from spinqrc.tasks import gen_stm

DELAYS = range(9)
SEEDS = range(3)


def shifted(inputs: np.ndarray, tau: int) -> np.ndarray:
    out = np.zeros_like(inputs)
    out[tau:] = inputs[: len(inputs) - tau]
    return out


def capacity_curve(topology: str) -> np.ndarray:
    length = ReservoirConfig().total_steps
    inputs = gen_stm(length, seed=42)
    curves = []
    for seed in SEEDS:
        cfg = ReservoirConfig(topology=topology, coupling_seed=seed)
        traj = run_sequence(cfg, inputs)
        feats = make_features(traj.z_rows, ReadoutType.PER_QUBIT)
        tr, te = traj.train_slice, traj.test_slice
        row = []
        for tau in DELAYS:
            target = shifted(inputs, tau)
            w = train_weights(feats[tr], target[tr])
            row.append(stm_capacity(predict(w, feats[te]), target[te]))
        curves.append(row)
    return np.mean(curves, axis=0)


def main() -> None:
    print(f"memory capacity by delay, gamma=0.1, {len(list(SEEDS))} coupling draws")
    linear = capacity_curve("linear")
    ring = capacity_curve("ring")
    print(f"{'tau':>4}  {'linear':>8}  {'ring':>8}")
    for tau in DELAYS:
        print(f"{tau:>4}  {linear[tau]:>8.3f}  {ring[tau]:>8.3f}")
    print()
    print("capacity is highest at the shortest delays and fades within ~8")
    print("steps; even at delay 0 it stays below 1 because the coupling")
    print("unitary spreads the input across the array before measurement.")


if __name__ == "__main__":
    main()
