"""Smoke tests for the programs outside the package that drive it.

The benchmark probe, the benchmark's emission check and the trajectory
digest script import the public API; running them here makes an API
change that breaks any of them fail the test suite instead of the
benchmark run or the bitwise check.  The
A/B driver runs on a two-commit repository whose benchmark and digest
script print canned result lines, and the kernel's A/B driver on one
whose ``ssbroyden.updates`` is a canned numpy update; both commit a
canned A/A run.  The committed A/A runs are judged again from their
stored values.
"""

import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ab
import digest
import kernel_ab
from ssbroyden import SolverConfig, solve, updates
from ssbroyden.updates import VARIANT_ORDER

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
    assert run_line.endswith("; 1 of 3 cells differ")
    assert bytes_line == "bytes: 3 cells identical"
    (tmp_path / "1.txt").write_text(runs[1].stdout.rstrip("\n") + "0\n")
    differ = run([digest, "--compare", "0.txt", "1.txt"], tmp_path)
    assert differ.returncode == 1
    run_line, bytes_line = differ.stdout.splitlines()
    assert run_line == "run: 3 cells identical"
    assert bytes_line.startswith(f"bytes: first difference: {cells[2]} ")
    assert bytes_line.endswith("; 1 of 3 cells differ")
    # Two changed run hashes, and a cell only the second file lists.
    lines = [line.split() for line in runs[1].stdout.splitlines()]
    for fields in lines[:2]:
        fields[1] += "0"
    lines.append(["extra/bfgs/identity", "0", "0"])
    (tmp_path / "1.txt").write_text("".join(" ".join(f) + "\n" for f in lines))
    differ = run([digest, "--compare", "0.txt", "1.txt"], tmp_path)
    assert differ.returncode == 1
    run_line, bytes_line = differ.stdout.splitlines()
    assert run_line.startswith(f"run: first difference: {cells[0]} ")
    assert run_line.endswith("; 3 of 4 cells differ")
    assert bytes_line.endswith("; 1 of 4 cells differ")


def test_digest_tridiag_cells_separate_the_six_variants(tmp_path):
    # Unlike the quad10 identity cells, which pair the variants up, the
    # coupled quadratic gives each variant its own trajectory.
    cells = [f"tridiag10/{variant.value}/identity" for variant in VARIANT_ORDER]
    proc = run([str(ROOT / "scripts" / "digest.py"), "--cells", *cells], tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [fields[0] for fields in lines] == cells
    assert len({fields[1] for fields in lines}) == 6


def test_digest_rosen500_cells_take_all_six_kernel_paths(monkeypatch):
    # phi in {1, 0, other} x whether tau is 1, over the updates of the
    # n = 500 cells: between them they take every path of the kernel.
    paths, apply = set(), updates.apply_update

    def record(H, s, coeffs, phi, tau):
        paths.add((phi if phi in (0.0, 1.0) else "other", tau == 1.0))
        return apply(H, s, coeffs, phi, tau)

    monkeypatch.setattr(updates, "apply_update", record)
    for name, make, kwargs in digest.cell_specs():
        if name.startswith("rosen500/"):
            problem = make()
            solve(problem, problem.default_start(), SolverConfig(**kwargs))
    assert paths == set(itertools.product((1.0, 0.0, "other"), (True, False)))


CANNED_RUN = """import json, sys
from pathlib import Path
value = float((Path(__file__).parent / "iter_us.txt").read_text())
print("# canned run of", sys.argv[1:])
metrics = {"iter_us": {"value": value, "unit": "us"},
           "f_evals": {"value": 10, "unit": "count"},
           "peak_rss_mb": {"value": 6000 / value, "unit": "MiB"}}
print(json.dumps({"correct": True, "attempted": 2, "failed": 0, "metrics": metrics}))
"""
CANNED_DIGEST = """import cells
for name, value in cells.DIGESTS.items():
    print(name, value, "ee")
"""
CANNED_SPEC = {
    "workloads": [{"name": "w1"}],
    "end_to_end": [{"name": "iter_us", "unit": "us", "better": "lower", "bound": 0.25},
                   {"name": "f_evals", "unit": "count", "better": "lower", "bound": 0.25},
                   {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1}],
}
# The per-pair ratio quartiles of a canned A/A run, as ``ab.null_quartiles``
# returns them from a BENCH file.
NULL = {"pair_ratio_q1": 0.95, "pair_ratio_q3": 1.05}


def git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), "-c", "user.name=ab",
                           "-c", "user.email=ab@example.org", *args],
                          check=True, capture_output=True, text=True).stdout.strip()


def canned_repo(tmp_path, digest_script):
    """A two-commit repository whose canned benchmark reads iter_us 100 at
    the parent and 80 at the change, whose canned A/A has quartiles for
    w1's iter_us and peak_rss_mb but not f_evals, and whose
    ``src/cells.py`` digests differ in cell c2.  Only the change has
    ``digest_script`` (the driver runs the change's script on both sides'
    src) and only its cells define ``NEW``.  Returns the repository and
    both commits."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(CANNED_RUN)
    (repo / "BENCHMARK.json").write_text(json.dumps(CANNED_SPEC))
    null = {"w1": {"metrics": {"iter_us": NULL, "peak_rss_mb": NULL}}}
    (repo / ab.NULL).write_text(json.dumps({"workloads": null}))

    (repo / "src").mkdir()
    git(repo, "init", "-q")
    commits = []
    for value, digests, new in (("100", "bb", ""), ("80", "cc", "NEW = True\n")):
        (repo / "perfbench" / "iter_us.txt").write_text(value)
        (repo / "src" / "cells.py").write_text(
            f"DIGESTS = {{'c1': 'aa', 'c2': '{digests}', 'c3': 'dd'}}\n{new}")
        if value == "80":
            (repo / "scripts").mkdir()
            (repo / "scripts" / "digest.py").write_text(digest_script)
        git(repo, "add", "-A")
        git(repo, "commit", "-q", "-m", f"iter_us {value}")
        commits.append(git(repo, "rev-parse", "HEAD"))
    return repo, commits


def run_ab(repo, tmp_path):
    proc = run([str(ROOT / "scripts" / "ab.py"), "HEAD~1", "HEAD", "--slug", "smoke",
                "--pairs", "2", "--seconds", "1", "--repo", str(repo)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    order = [line.split(":")[0] for line in proc.stdout.splitlines() if " pair " in line]
    assert order == ["w1 pair 1/2 parent", "w1 pair 1/2 change",
                     "w1 pair 2/2 change", "w1 pair 2/2 parent"]
    return proc


@pytest.mark.skipif(shutil.which("git") is None, reason="the A/B driver needs git")
def test_ab_driver_alternates_pairs_and_writes_bench_file(tmp_path):
    repo, commits = canned_repo(tmp_path, CANNED_DIGEST)
    proc = run_ab(repo, tmp_path)
    bench = json.loads((repo / "BENCH_smoke.json").read_text())
    assert [bench["commits"][side]["commit"] for side in ("parent", "change")] == commits
    iter_us = bench["workloads"]["w1"]["metrics"]["iter_us"]
    assert (iter_us["parent"], iter_us["change"]) == ([100.0, 100.0], [80.0, 80.0])
    # 2/2 wins and a per-pair Q3 of 0.8, below the canned A/A's Q1
    assert (iter_us["ratio"], iter_us["wins"], iter_us["gain"], iter_us["worse"]) == (
        0.8, 2, True, False)
    assert iter_us["null"] == {"file": ab.NULL, **NULL}
    # a flat metric with no A/A entry is neither a gain nor a regression
    f_evals = bench["workloads"]["w1"]["metrics"]["f_evals"]
    assert (f_evals["wins"], f_evals["gain"], f_evals["worse"], f_evals["null"]) == (
        0, False, False, None)
    # 60 -> 75 MiB is worse than the parent by 25%, beyond the 10% bound
    peak = bench["workloads"]["w1"]["metrics"]["peak_rss_mb"]
    assert (peak["parent_median"], peak["change_median"]) == (60.0, 75.0)
    assert (peak["wins"], peak["gain"], peak["worse"]) == (0, False, True)
    table = [line.split() for line in proc.stdout.splitlines()
             if line.startswith("w1 ") and " pair " not in line]
    assert [(row[1], row[-2], row[-1]) for row in table] == [
        ("iter_us", "True", "False"), ("f_evals", "False", "False"),
        ("peak_rss_mb", "False", "True")]
    assert [row[5:7] for row in table] == [["0.950", "1.050"], ["-", "-"], ["0.950", "1.050"]]
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
    m = ab.summarize(lower, [10.0] * 10, [9.0] * 9 + [11.0], NULL)
    assert (m["wins"], m["losses"], m["gain"], m["worse"]) == (9, 1, True, False)
    assert (m["pair_ratio_q1"], m["pair_ratio_median"], m["pair_ratio_q3"]) == (0.9, 0.9, 0.9)
    assert m["sign_p"] == 11 / 1024
    m = ab.summarize(lower, [10.0] * 4, [10.0, 9.0, 11.0, 10.0], NULL)
    assert (m["wins"], m["losses"], m["sign_p"]) == (1, 1, 0.75)
    higher = dict(lower, better="higher")
    m = ab.summarize(higher, [1.0, 2.0, 4.0], [2.0, 3.0, 6.0], NULL)
    assert (m["wins"], m["losses"], m["sign_p"]) == (3, 0, 0.125)
    assert (m["pair_ratio_q1"], m["pair_ratio_median"], m["pair_ratio_q3"]) == (1.5, 1.5, 2.0)
    m = ab.summarize(lower, [5.0], [4.0], NULL)
    assert (m["pair_ratio_q1"], m["pair_ratio_median"], m["pair_ratio_q3"], m["sign_p"]) == (
        0.8, 0.8, 0.8, 0.5)
    # no ratio to read against the A/A: only the bound can judge
    m = ab.summarize(lower, [0.0], [1.0], NULL)
    assert (m["pair_ratios"], m["pair_ratio_median"], m["losses"]) == ([], None, 1)
    assert (m["gain"], m["worse"]) == (False, True)


def test_judge_reads_paired_runs_against_the_a_a(tmp_path):
    lower = {"unit": "us", "better": "lower", "bound": 0.25}
    unbounded = {"unit": "us", "better": "lower"}

    def verdicts(entry, parent, change, null=NULL):
        m = ab.summarize(entry, parent, change, null)
        return m["gain"], m["worse"]

    # an A/A-like run: per-pair ratios inside the A/A's quartiles
    spread = [0.97, 1.02, 0.99, 1.03, 1.0, 0.98, 1.01, 1.04, 0.96, 1.0]
    for entry in (lower, unbounded):
        assert verdicts(entry, [100.0] * 10, [100.0 * r for r in spread]) == (False, False)
    # 10/10 pairs at x0.85: Q3 0.85 is below the A/A's Q1
    assert verdicts(lower, [100.0] * 10, [85.0] * 10) == (True, False)
    # x0.96 in every pair is inside the A/A's spread
    assert verdicts(lower, [100.0] * 10, [96.0] * 10) == (False, False)
    # 8/10 wins at x0.85 is too few
    assert verdicts(lower, [100.0] * 10, [85.0] * 8 + [101.0] * 2) == (False, False)
    # a case without a bound: 18/20 losses at x1.1 put Q1 above the A/A's Q3
    assert verdicts(unbounded, [10.0] * 20, [11.0] * 18 + [9.0] * 2) == (False, True)
    assert verdicts(unbounded, [10.0] * 20, [11.0] * 17 + [9.0] * 3) == (False, False)
    # a metric with a bound keeps the benchmark's gate: a median x1.3 is
    # worse on 6/10 losses, which the paired rule alone would not flag
    parent, change = [10.0] * 10, [13.0] * 6 + [9.0] * 4
    assert verdicts(lower, parent, change) == (False, True)
    assert verdicts(unbounded, parent, change) == (False, False)
    # and only that gate: losses at x1.1 stay inside its 25%
    assert verdicts(lower, [10.0] * 20, [11.0] * 18 + [9.0] * 2) == (False, False)
    # a higher-is-better value is the mirror
    higher = dict(unbounded, better="higher")
    assert verdicts(higher, [1.0] * 10, [1.2] * 10) == (True, False)
    assert verdicts(higher, [1.0] * 10, [0.8] * 10) == (False, True)
    assert verdicts(higher, [1.0] * 10, [1.0 / r for r in spread]) == (False, False)
    # a key missing from the A/A, or a missing file: no verdict, null recorded
    null = tmp_path / ab.NULL
    null.write_text(json.dumps({"workloads": {"w1": {"metrics": {"iter_us": NULL}}}}))
    assert ab.null_quartiles(null, "workloads", "w1", "metrics", "iter_us") == {
        "file": ab.NULL, **NULL}
    assert ab.null_quartiles(null, "workloads", "w2", "metrics", "iter_us") is None
    assert ab.null_quartiles(tmp_path / "nosuch.json", "workloads") is None
    for entry in (lower, unbounded):
        m = ab.summarize(entry, [10.0] * 20, [11.0] * 18 + [9.0] * 2, None)
        assert (m["gain"], m["worse"], m["null"]) == (False, False, None)
        m = ab.summarize(entry, [10.0] * 10, [8.5] * 10, None)
        assert (m["gain"], m["worse"], m["null"]) == (False, False, None)


def rejudge(name, null_file):
    """Every metric or case of the committed BENCH file ``name`` judged
    again from its stored runs against the committed A/A ``null_file``,
    the bounds taken from BENCHMARK.json."""
    bench = json.loads((ROOT / name).read_text())
    if "cases" in bench:
        return {key: ab.summarize({"unit": "us", "better": "lower"}, m["parent"], m["change"],
                                  ab.null_quartiles(ROOT / null_file, "cases", key))
                for key, m in bench["cases"].items()}
    spec = {e["name"]: e for e in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    return {(workload, metric): ab.summarize(spec[metric], m["parent"], m["change"],
                                             ab.null_quartiles(ROOT / null_file, "workloads",
                                                               workload, "metrics", metric))
            for workload, entry in bench["workloads"].items()
            for metric, m in entry["metrics"].items()}


@pytest.mark.parametrize("name, null_file", [
    ("BENCH_kernel_null.json", kernel_ab.NULL), (kernel_ab.NULL, kernel_ab.NULL),
    (ab.NULL, ab.NULL), ("BENCH_null_34.json", ab.NULL)])
def test_committed_a_a_runs_read_no_verdict(name, null_file):
    # Both sides of an A/A run one tree.  BENCH_kernel_null.json's three
    # n = 25 cases that an unpaired 5% bound on the medians read as worse
    # (ratios of the medians 1.054-1.154) read neither verdict here.
    summaries = rejudge(name, null_file)
    assert all(m["null"] is not None for m in summaries.values())
    assert [key for key, m in summaries.items() if m["gain"] or m["worse"]] == []


@pytest.mark.skipif(shutil.which("git") is None, reason="the A/B driver needs git")
def test_ab_driver_records_a_digest_script_one_side_cannot_run(tmp_path):
    # The change's digest script imports a name only the change's src
    # has: the parent side's failure is recorded and the pairs still run.
    script = CANNED_DIGEST.replace("import cells\n", "from cells import NEW\nimport cells\n")
    repo, _ = canned_repo(tmp_path, script)
    proc = run_ab(repo, tmp_path)
    assert "digests: parent exited 1: ImportError: cannot import name 'NEW'" in proc.stdout
    bench = json.loads((repo / "BENCH_smoke.json").read_text())
    digests = bench["digests"]
    assert (digests["failed"], digests["returncode"]) == ("parent", 1)
    assert digests["stderr"].startswith("ImportError: cannot import name 'NEW' from 'cells'")
    iter_us = bench["workloads"]["w1"]["metrics"]["iter_us"]
    assert (iter_us["parent"], iter_us["change"]) == ([100.0, 100.0], [80.0, 80.0])


@pytest.mark.skipif(shutil.which("git") is None, reason="the A/B driver needs git")
def test_ab_driver_rejects_an_unknown_workload_before_any_run(tmp_path):
    repo, _ = canned_repo(tmp_path, CANNED_DIGEST)
    proc = run([str(ROOT / "scripts" / "ab.py"), "HEAD~1", "HEAD", "--slug", "smoke",
                "--pairs", "2", "--seconds", "1", "--repo", str(repo),
                "--workloads", "nosuch"], tmp_path)
    assert proc.returncode == 2
    assert "unknown workloads: nosuch" in proc.stderr and "w1" in proc.stderr
    assert proc.stdout == ""  # no digest line and no pair line
    assert not (repo / "BENCH_smoke.json").exists()


def test_kernel_ab_special_values_fit_every_size():
    # The signed zeros go where they fit: at n = 1, s keeps only the -0.
    for n in (1, 2, 3):
        grid = list(kernel_ab.special_values(np.eye(n), np.ones(n), np.ones(n)))
        assert len(grid) == len(kernel_ab.GRID_SCALES) ** 2
        _, H, s, y = grid[0]
        assert H[0, 0] == 0.0 and not np.signbit(H[0, 0])
        assert np.signbit(H[0, 1:]).all() and np.signbit(H[1:, 0]).all()
        assert np.signbit(s[:2]).tolist() == [True, False][:n]
        assert (s[2:] == 1.0).all() and (y == 1.0).all()


CANNED_UPDATES = """import os
from collections import namedtuple
import numpy as np
with open(PIDS, "a") as fh:
    fh.write(f"{os.getpid()}\\n")
UpdateCoefficients = namedtuple("UpdateCoefficients", "ys rho h b a c Hy yHy")
def apply_update(H, s, coeffs, phi, tau):
    H += np.outer(s, s) * coeffs.rho
"""


def canned_kernel_repo(tmp_path):
    """A two-commit repository whose ``ssbroyden.updates`` adds rho s s^T
    to H, and at the change also 1 to every element where phi is 0.4,
    and whose canned A/A has quartiles for the n = 3 cases alone.
    Each import of it appends its process id to ``tmp_path / "pids"``."""
    repo = tmp_path / "repo"
    package = repo / "src" / "ssbroyden"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    null = {kernel_ab.case_key(3, phi, tau): NULL for phi, tau in kernel_ab.CASES}
    (repo / kernel_ab.NULL).write_text(json.dumps({"cases": null}))
    git(repo, "init", "-q")
    for extra in ("", "    H += 1.0 if phi == 0.4 else 0.0\n"):
        (package / "updates.py").write_text(
            f"PIDS = {str(tmp_path / 'pids')!r}\n" + CANNED_UPDATES + extra)
        git(repo, "add", "-A")
        git(repo, "commit", "-q", "-m", "updates")
    return repo


@pytest.mark.skipif(shutil.which("git") is None, reason="the kernel A/B driver needs git")
def test_kernel_ab_driver_checks_both_sides_and_writes_bench_file(tmp_path):
    repo = canned_kernel_repo(tmp_path)
    args = [str(ROOT / "scripts" / "kernel_ab.py"), "--slug", "smoke", "--pairs", "2",
            "--calls", "3", "--sizes", "3", "4", "--repo", str(repo)]
    proc = run([*args[:1], "HEAD~1", "HEAD", *args[1:]], tmp_path)
    assert proc.returncode == 1, proc.stderr  # the phi = 0.4 calls differ
    assert [line.split(":")[0] for line in proc.stdout.splitlines() if " pair " in line] == [
        "kernel pair 1/2 parent", "kernel pair 1/2 change", "kernel pair 2/2 change",
        "kernel pair 2/2 parent"]
    # every run is a fresh interpreter: one check run per side, then one
    # timed run per side and pair
    pids = (tmp_path / "pids").read_text().split()
    assert len(pids) == len(set(pids)) == 2 + 2 * 2
    bench = json.loads((repo / "BENCH_kernel_smoke.json").read_text())
    assert [bench["commits"][side]["rev"] for side in ("parent", "change")] == [
        "HEAD~1", "HEAD"]
    assert isinstance(bench["environment"]["blas_core"], (str, type(None)))
    # every case at n = 2 to 12, 3 and 4, on its base instance and on the
    # 25 points of the special-value grid
    assert bench["checks"] == {"calls": 11 * 26 * 6, "equal": False,
                               "first_difference": "n=2 phi=0.4 tau=1"}
    assert bench["protocol"]["grid"]["sizes"] == list(range(2, 13))
    keys = [kernel_ab.case_key(n, phi, tau) for n in (3, 4) for phi, tau in kernel_ab.CASES]
    assert list(bench["cases"]) == keys
    for key, m in bench["cases"].items():
        assert (m["unit"], m["pairs"], len(m["parent"]), len(m["change"])) == ("us", 2, 2, 2)
        assert all(value > 0 for value in m["parent"] + m["change"])
        assert m["pair_ratio_q1"] <= m["pair_ratio_median"] <= m["pair_ratio_q3"]
        # read against the canned A/A where it has the case; without one
        # a case has no verdict
        if key.startswith("n=3 "):
            assert m["null"] == {"file": kernel_ab.NULL, **NULL}
        else:
            assert (m["null"], m["gain"], m["worse"]) == (None, False, False)
    # the same commit on both sides agrees everywhere and exits 0
    proc = run([*args[:1], "HEAD", "HEAD", *args[1:]], tmp_path)
    assert proc.returncode == 0, proc.stderr
    bench = json.loads((repo / "BENCH_kernel_smoke.json").read_text())
    assert bench["checks"] == {"calls": 11 * 26 * 6, "equal": True, "first_difference": None}

