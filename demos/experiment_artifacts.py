"""Produce the on-disk artifacts an experiment run leaves behind.

A manifest pins everything a run depends on: physical configuration, task
list, delays, seed count, and base seeds. Running it fills in per-task
statistics, and the report writer emits

  metrics.csv                 one row per (task, cell), 13 significant digits
  manifest_<cell>.json        the manifest with metrics, replayable
  trajectory_<cell>.csv       per-step inputs, Z readouts, and predictions

Re-running the same manifest reproduces every byte, which is the property
the whole pipeline is built around. This demo uses a four-qubit reservoir
with short phases so it finishes quickly.
"""
from pathlib import Path

from spinqrc.experiment import ExperimentManifest, emit_report, run_experiment

OUT = Path(__file__).parent / "out"


def main() -> None:
    manifest = ExperimentManifest(
        kind="reservoir",
        config={"n_qubits": 4, "n_pre": 20, "n_fb": 80, "n_test": 20},
        tasks=("stm", "narma2"),
        stm_delays=(1, 2, 3),
        n_seeds=3,
    )
    run_experiment([manifest])
    paths = emit_report([manifest], OUT, trajectories=True)

    print("written:")
    for p in paths:
        print(f"  {p.relative_to(OUT.parent)}  ({p.stat().st_size} bytes)")

    print()
    print("metrics.csv:")
    print((OUT / "metrics.csv").read_text(), end="")

    print()
    traj = next(p for p in paths if p.name.startswith("trajectory"))
    lines = traj.read_text().splitlines()
    print(f"{traj.name}, first rows of {len(lines) - 1}:")
    for line in lines[:5]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
