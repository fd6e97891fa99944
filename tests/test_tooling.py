"""Smoke tests for the programs outside the package that drive it.

The benchmark probe and the trajectory digest script import the public
API; running them here makes an API change that breaks either one fail
the test suite instead of the benchmark run or the bitwise check.
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


def test_digest_script_runs_and_compares(tmp_path):
    digest = str(ROOT / "scripts" / "digest.py")
    cells = ["quad10/bfgs/identity", "rosen2/ssbroyden/scaled_identity",
             "pinn1d-m4n16/ssdfp/identity"]
    runs = [run([digest, "--cells", *cells], tmp_path) for _ in range(2)]
    for i, proc in enumerate(runs):
        assert proc.returncode == 0, proc.stderr
        assert [line.split()[0] for line in proc.stdout.splitlines()] == cells
        (tmp_path / f"{i}.txt").write_text(proc.stdout)
    same = run([digest, "--compare", "0.txt", "1.txt"], tmp_path)
    assert (same.returncode, same.stdout) == (0, "3 cells identical\n")
    (tmp_path / "1.txt").write_text(runs[1].stdout.replace(" ", " 0", 1))
    differ = run([digest, "--compare", "0.txt", "1.txt"], tmp_path)
    assert differ.returncode == 1
    assert differ.stdout.startswith(f"first difference: {cells[0]} ")
