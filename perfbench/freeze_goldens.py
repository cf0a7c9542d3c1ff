"""Write goldens/<job>_seed<B>.csv for the CLI jobs.

    python3 perfbench/freeze_goldens.py

Run from the checkout root. The goldens pin the metrics.csv bytes of the
commit that defined the benchmark; later changes must reproduce them, so
rerun this only when a change is meant to alter metrics.csv.
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

from run import CLI_JOBS, GOLDEN_SEEDS, GOLDENS, HELD_OUT_SEED, cli_argv, golden_path


def main() -> None:
    root = Path.cwd()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    GOLDENS.mkdir(exist_ok=True)
    for name in CLI_JOBS:
        for base in [*range(GOLDEN_SEEDS), HELD_OUT_SEED]:
            with tempfile.TemporaryDirectory(dir=root) as out:
                subprocess.run([sys.executable, "-m", "spinqrc.cli",
                                *cli_argv(name, base, Path(out))],
                               cwd=root, env=env, check=True,
                               stdout=subprocess.DEVNULL)
                golden = golden_path(name, base)
                golden.write_bytes((Path(out) / "metrics.csv").read_bytes())
            print(golden)


if __name__ == "__main__":
    main()
