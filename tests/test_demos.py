"""Each demo runs to completion and prints its table.

A demo is copied into a temporary directory before it runs, so that the
files ``experiment_artifacts.py`` writes next to itself land there and
not in the checkout.
"""
import shutil
import subprocess
import sys

import pytest
from conftest import ROOT, child_env

# The header line of each demo's table, compared word by word.
HEADERS = {
    "esn_comparison": "variant C(2..4) narma2 narma5 narma10 rank cond",
    "experiment_artifacts":
        "task,topology,readout_type,gamma,seed_count,mean_metric,std_metric",
    "fading_memory": "step gamma=0.1 predicted gamma=0.01 predicted",
    "narma_benchmark": "order gamma=0.1 gamma=0.01",
    "stm_capacity_curve": "tau linear ring",
}


def test_every_demo_has_a_header():
    assert sorted(HEADERS) == sorted(p.stem for p in ROOT.glob("demos/*.py"))


@pytest.mark.parametrize("name", sorted(HEADERS))
def test_demo_runs(tmp_path, name):
    script = shutil.copy(ROOT / "demos" / f"{name}.py", tmp_path)
    result = subprocess.run([sys.executable, script], cwd=tmp_path,
                            env=child_env(), capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
    lines = [line.split() for line in result.stdout.splitlines()]
    assert HEADERS[name].split() in lines
