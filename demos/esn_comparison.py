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

from spinqrc.esn import VARIANTS, EsnConfig, run_esn
from spinqrc.readout import (ReadoutType, make_features, nmse, predict,
                             stm_capacity, train_weights)
from spinqrc.tasks import gen_narma_input, gen_narma_target, gen_stm

SEEDS = range(5)
STM_DELAYS = (2, 3, 4)
NARMA_ORDERS = (2, 5, 10)


def shifted(inputs: np.ndarray, tau: int) -> np.ndarray:
    out = np.zeros_like(inputs)
    out[tau:] = inputs[: len(inputs) - tau]
    return out


def main() -> None:
    length = EsnConfig().total_steps
    stm_inputs = gen_stm(length, seed=42)
    narma_inputs = gen_narma_input(length)
    narma_targets = {n: gen_narma_target(narma_inputs, n) for n in NARMA_ORDERS}

    caps: dict[int, list[float]] = {v: [] for v in VARIANTS}
    errs: dict[tuple[int, int], list[float]] = {
        (v, n): [] for v in VARIANTS for n in NARMA_ORDERS}
    ranks: dict[int, list[int]] = {v: [] for v in VARIANTS}
    conds: dict[int, list[float]] = {v: [] for v in VARIANTS}

    for seed in SEEDS:
        for v in VARIANTS:
            cfg = EsnConfig(variant=v, weight_seed=seed)

            traj = run_esn(cfg, stm_inputs)
            feats = make_features(traj.states, ReadoutType.PER_QUBIT)
            tr, te = traj.train_slice, traj.test_slice
            per_delay = []
            for tau in STM_DELAYS:
                target = shifted(stm_inputs, tau)
                w = train_weights(feats[tr], target[tr])
                per_delay.append(stm_capacity(predict(w, feats[te]), target[te]))
            caps[v].append(float(np.mean(per_delay)))

            traj = run_esn(cfg, narma_inputs)
            feats = make_features(traj.states, ReadoutType.PER_QUBIT)
            tr, te = traj.train_slice, traj.test_slice
            for n in NARMA_ORDERS:
                w = train_weights(feats[tr], narma_targets[n][tr])
                errs[(v, n)].append(nmse(predict(w, feats[te]), narma_targets[n][te]))
            ranks[v].append(w.rank)
            conds[v].append(w.condition)

    print(f"echo-state baselines, {len(list(SEEDS))} shared weight draws")
    print(f"{'variant':>8}  {'C(2..4)':>8}  "
          + "  ".join(f"narma{n:<2}" for n in NARMA_ORDERS)
          + f"  {'rank':>5}  {'cond':>9}")
    for v in VARIANTS:
        row = "  ".join(f"{np.mean(errs[(v, n)]):.1e}" for n in NARMA_ORDERS)
        print(f"{'esn' + str(v):>8}  {np.mean(caps[v]):>8.3f}  {row}"
              f"  {np.median(ranks[v]):>5.0f}  {np.median(conds[v]):>9.1e}")
    print()
    print("recall drops with tap depth while the NARMA errors sit roughly a")
    print("decade apart; the collapsing rank shows the deeper variants")
    print("saturating into a nearly one-dimensional response.")


if __name__ == "__main__":
    main()
