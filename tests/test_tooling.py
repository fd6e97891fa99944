"""Smoke tests for the programs outside the package that drive it.

The benchmark probe, the benchmark's emission check and the trajectory
digest script import the public API; running them here makes an API
change that breaks any of them fail the test suite instead of the
benchmark run or the bitwise check.  The
A/B driver runs on a two-commit repository whose benchmark and digest
script print canned result lines.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ab

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


EMISSION_CHECK = """import dataclasses, json, sys
sys.path.insert(0, sys.argv[1])
import workloads
workload = workloads.WORKLOADS["pinn-paper"]
cell = workloads.prepare(workload, 0, sys.argv[2])[0]
cell.config = dataclasses.replace(cell.config, max_iters=3)
out = workloads.run_pass(workload, [cell])[0]
assert out.error is None, out.error
print(json.dumps([out.counters.qn_iters,
                  workloads.check_emission(workload, cell, out,
                                           cell.trace_path.read_bytes())]))
"""


def test_perfbench_emission_check_passes(tmp_path):
    # perfbench's own schema and re-emission check on a 3-iteration
    # pinn-paper cell: a change to the library's run summary or trace
    # schema that the benchmark's summary builder does not follow fails
    # here, not only in a benchmark run.
    pytest.importorskip("jsonschema")
    proc = run(["-c", EMISSION_CHECK, str(ROOT / "perfbench"), str(tmp_path)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [3, []]


def test_digest_script_runs_and_compares(tmp_path):
    digest = str(ROOT / "scripts" / "digest.py")
    cells = ["quad10/bfgs/identity", "rosen2/ssbroyden/scaled_identity",
             "pinn1d-m4n16/ssdfp/identity"]
    runs = [run([digest, "--cells", *cells], tmp_path) for _ in range(2)]
    for i, proc in enumerate(runs):
        assert proc.returncode == 0, proc.stderr
        lines = [line.split() for line in proc.stdout.splitlines()]
        assert [fields[0] for fields in lines] == cells
        assert all(len(fields) == 3 for fields in lines)
        (tmp_path / f"{i}.txt").write_text(proc.stdout)
    same = run([digest, "--compare", "0.txt", "1.txt"], tmp_path)
    assert (same.returncode, same.stdout) == (
        0, "run: 3 cells identical\nbytes: 3 cells identical\n")
    # A changed run hash of the first cell, then a changed bytes hash of
    # the last: each is reported under its own kind only.
    (tmp_path / "1.txt").write_text(runs[1].stdout.replace(" ", " 0", 1))
    differ = run([digest, "--compare", "0.txt", "1.txt"], tmp_path)
    assert differ.returncode == 1
    run_line, bytes_line = differ.stdout.splitlines()
    assert run_line.startswith(f"run: first difference: {cells[0]} ")
    assert bytes_line == "bytes: 3 cells identical"
    (tmp_path / "1.txt").write_text(runs[1].stdout.rstrip("\n") + "0\n")
    differ = run([digest, "--compare", "0.txt", "1.txt"], tmp_path)
    assert differ.returncode == 1
    run_line, bytes_line = differ.stdout.splitlines()
    assert run_line == "run: 3 cells identical"
    assert bytes_line.startswith(f"bytes: first difference: {cells[2]} ")


CANNED_RUN = """import json, sys
from pathlib import Path
value = float((Path(__file__).parent / "iter_us.txt").read_text())
print("# canned run of", sys.argv[1:])
metrics = {"iter_us": {"value": value, "unit": "us"},
           "f_evals": {"value": 10, "unit": "count"},
           "peak_rss_mb": {"value": 6000 / value, "unit": "MiB"}}
print(json.dumps({"correct": True, "attempted": 2, "failed": 0, "metrics": metrics}))
"""
CANNED_DIGEST = """import sys
if sys.argv[1:2] == ["--compare"]:
    a, b = ({line.split()[0]: line.split()[1:] for line in open(path)}
            for path in sys.argv[2:4])
    status = 0
    for i, kind in enumerate(("run", "bytes")):
        differ = [name for name in a if a[name][i] != b[name][i]]
        print(f"{kind}: first difference: {differ[0]} (canned)" if differ
              else f"{kind}: {len(a)} cells identical")
        status |= bool(differ)
    sys.exit(status)
import cells
for name, value in cells.DIGESTS.items():
    print(name, value, "ee")
"""
CANNED_SPEC = {
    "workloads": [{"name": "w1"}],
    "end_to_end": [{"name": "iter_us", "unit": "us", "better": "lower", "bound": 0.25},
                   {"name": "f_evals", "unit": "count", "better": "lower", "bound": 0.25},
                   {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1}],
}


@pytest.mark.skipif(shutil.which("git") is None, reason="the A/B driver needs git")
def test_ab_driver_alternates_pairs_and_writes_bench_file(tmp_path):
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(CANNED_RUN)
    (repo / "BENCHMARK.json").write_text(json.dumps(CANNED_SPEC))

    def git(*args):
        return subprocess.run(["git", "-C", str(repo), "-c", "user.name=ab",
                               "-c", "user.email=ab@example.org", *args],
                              check=True, capture_output=True, text=True).stdout.strip()

    (repo / "src").mkdir()
    git("init", "-q")
    commits = []
    # Only the change has the digest script: the driver runs the change's
    # script on both sides' src.
    for value, digests in (("100", "bb"), ("80", "cc")):
        (repo / "perfbench" / "iter_us.txt").write_text(value)
        (repo / "src" / "cells.py").write_text(
            f"DIGESTS = {{'c1': 'aa', 'c2': '{digests}', 'c3': 'dd'}}\n")
        if value == "80":
            (repo / "scripts").mkdir()
            (repo / "scripts" / "digest.py").write_text(CANNED_DIGEST)
        git("add", "-A")
        git("commit", "-q", "-m", f"iter_us {value}")
        commits.append(git("rev-parse", "HEAD"))

    proc = run([str(ROOT / "scripts" / "ab.py"), "HEAD~1", "HEAD", "--slug", "smoke",
                "--pairs", "2", "--seconds", "1", "--repo", str(repo)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    order = [line.split(":")[0] for line in proc.stdout.splitlines() if " pair " in line]
    assert order == ["w1 pair 1/2 parent", "w1 pair 1/2 change",
                     "w1 pair 2/2 change", "w1 pair 2/2 parent"]
    bench = json.loads((repo / "BENCH_smoke.json").read_text())
    assert [bench["commits"][side]["commit"] for side in ("parent", "change")] == commits
    iter_us = bench["workloads"]["w1"]["metrics"]["iter_us"]
    assert (iter_us["parent"], iter_us["change"]) == ([100.0, 100.0], [80.0, 80.0])
    assert (iter_us["ratio"], iter_us["wins"], iter_us["gain"], iter_us["worse"]) == (
        0.8, 2, True, False)
    # a flat metric is neither a gain nor a regression
    f_evals = bench["workloads"]["w1"]["metrics"]["f_evals"]
    assert (f_evals["wins"], f_evals["gain"], f_evals["worse"]) == (0, False, False)
    # 60 -> 75 MiB is worse than the parent by 25%, beyond the 10% bound
    peak = bench["workloads"]["w1"]["metrics"]["peak_rss_mb"]
    assert (peak["parent_median"], peak["change_median"]) == (60.0, 75.0)
    assert (peak["wins"], peak["gain"], peak["worse"]) == (0, False, True)
    table = [line.split() for line in proc.stdout.splitlines()
             if line.startswith("w1 ") and " pair " not in line]
    assert [(row[1], row[-2], row[-1]) for row in table] == [
        ("iter_us", "True", "False"), ("f_evals", "False", "False"),
        ("peak_rss_mb", "False", "True")]
    # the paired statistics: per-pair ratios change/parent, their quartiles
    # and the one-sided sign-test p-value of the wins (ties dropped)
    assert [(m["pair_ratios"], m["pair_ratio_q1"], m["pair_ratio_median"],
             m["pair_ratio_q3"], m["losses"], m["sign_p"])
            for m in (iter_us, f_evals, peak)] == [
        ([0.8, 0.8], 0.8, 0.8, 0.8, 0, 0.25), ([1.0, 1.0], 1.0, 1.0, 1.0, 0, 1.0),
        ([1.25, 1.25], 1.25, 1.25, 1.25, 2, 1.0)]
    assert [row[-6:-2] for row in table] == [
        ["0.800", "0.800", "0.800", "0.25"], ["1.000", "1.000", "1.000", "1"],
        ["1.250", "1.250", "1.250", "1"]]
    assert bench["workloads"]["w1"]["failed"] == {"parent": [0, 0], "change": [0, 0]}
    assert bench["digests"] == {"run": {"equal": False, "first_difference": "c2"},
                                "bytes": {"equal": True, "first_difference": None},
                                "cells": 3}
    # canned pairs beyond what two runs can show: nine wins and one loss,
    # ties, a better-is-higher metric, a single pair and a zero parent
    lower = {"unit": "us", "better": "lower", "bound": 0.25}
    m = ab.summarize(lower, [10.0] * 10, [9.0] * 9 + [11.0])
    assert (m["wins"], m["losses"], m["gain"], m["worse"]) == (9, 1, True, False)
    assert (m["pair_ratio_q1"], m["pair_ratio_median"], m["pair_ratio_q3"]) == (0.9, 0.9, 0.9)
    assert m["sign_p"] == 11 / 1024
    m = ab.summarize(lower, [10.0] * 4, [10.0, 9.0, 11.0, 10.0])
    assert (m["wins"], m["losses"], m["sign_p"]) == (1, 1, 0.75)
    higher = dict(lower, better="higher")
    m = ab.summarize(higher, [1.0, 2.0, 4.0], [2.0, 3.0, 6.0])
    assert (m["wins"], m["losses"], m["sign_p"]) == (3, 0, 0.125)
    assert (m["pair_ratio_q1"], m["pair_ratio_median"], m["pair_ratio_q3"]) == (1.5, 1.5, 2.0)
    m = ab.summarize(lower, [5.0], [4.0])
    assert (m["pair_ratio_q1"], m["pair_ratio_median"], m["pair_ratio_q3"], m["sign_p"]) == (
        0.8, 0.8, 0.8, 0.5)
    m = ab.summarize(lower, [0.0], [1.0])
    assert (m["pair_ratios"], m["pair_ratio_median"], m["losses"]) == ([], None, 1)
