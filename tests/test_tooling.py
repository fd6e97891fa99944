"""Smoke tests for the programs outside the package that drive it.

The benchmark probe and the collocation script import the public API;
running them here makes an API change that breaks either one fail the
test suite instead of the benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("pinn-paper", "pinn-wide", "dense-ssbroyden", "dense-bfgs")


def run(args, tmp_path):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perfbench_probe_runs(workload, tmp_path):
    proc = run([str(ROOT / "perfbench" / "probe.py"), workload, "0"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    float(proc.stdout)  # the probe prints its clock reading


def test_pinn_convergence_script_runs(tmp_path):
    out = tmp_path / "out"
    proc = run([str(ROOT / "scripts" / "pinn_convergence.py"),
                "--iters", "2", "--out", str(out)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (out / "loss_curves.csv").is_file()
