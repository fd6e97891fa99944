"""Alternating A/B benchmark pairs of two commits: paired ratios and verdicts.

Extracts ``git archive <rev>`` of a parent and a change commit into two
temporary directories, then runs ``perfbench/run.py --trace 0`` in each,
``--pairs`` times per workload.  The two sides of a pair run back to
back, and the side that runs first alternates from pair to pair, so a
drift of the host's speed falls on both sides alike.

    python3 scripts/ab.py HEAD~1 HEAD --slug my_change --pairs 10 --seconds 20

For every gated end-to-end metric of the change's ``BENCHMARK.json`` it
prints, per workload, the median of each side and the ratio of the
medians, then the paired statistics, which compare each change run with
the parent run of its own pair and so are blind to a drift of the host
between pairs: the pairs the change won, the median and quartiles
(``statistics.quantiles(values, n=4)``) of the per-pair ratios
change/parent, and the one-sided sign-test p-value of the wins (ties
dropped), the chance of at least as many wins if either side were as
likely to win a pair.

``judge`` forms both verdicts, here and in ``kernel_ab.py``.  It reads
the per-pair ratio quartiles against those of the same workload and
metric in the committed A/A run ``BENCH_null.json`` (``NULL``), read
from the change's tree.  The two A/A quartiles are printed, and
recorded with the metric under ``null`` with the A/A's file name;
``null`` is None when the A/A has no such entry, and then no ``gain``
is read.  ``gain``: the change won at least nine pairs in ten and its
per-pair ratio Q3 lies below the A/A's Q1.  ``worse``: the change's
median is worse than the parent's by more than the metric's ``bound``
in ``BENCHMARK.json``, a fraction of the parent's median: the
regression the benchmark rejects.  A higher-is-better metric is the
mirror.

Before the pairs, the change's ``scripts/digest.py`` digests the
trajectories of both sides' ``src``, one run per side, and
``digest.verdict``, which also forms ``--compare``'s lines, compares
them; ``digests`` records, for each kind of hash (``run``: the
trajectory, ``bytes``: the emitted traces), whether every cell is equal
and the first cell that differs, plus the number of cells (None when
the change has no digest script).  A side
the script cannot run (say, it calls a function new in the change)
leaves ``digests`` as that side's name under ``failed``, its exit code
and the last line of its stderr, and the pairs run as before.
Everything, every value of every run included, goes to
``BENCH_<slug>.json`` at the root of the repository, with both commits,
the git tree of each side's ``src`` and the environment.  ``--repo``
names another repository than the one holding this script.  Exits 2,
before any digest or run, when ``--workloads`` names a workload the
change's ``BENCHMARK.json`` does not list.  Exits 1 when a run fails
or reports failed solves; differing or failed digests are recorded,
not failed, since a change may move trajectories on purpose.
"""

import argparse
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import digest

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
RUN_TIMEOUT_S = 900
# The committed A/A run, read from the change's tree, that judge reads
# each workload's metrics against.
NULL = "BENCH_null.json"


def git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True).stdout


def describe(repo, rev):
    """Commit and ``src`` tree of ``rev``."""
    commit = git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    tree = subprocess.run(["git", "-C", str(repo), "rev-parse", f"{commit}:src"],
                          capture_output=True, text=True).stdout.strip()
    return {"rev": rev, "commit": commit, "src_tree": tree or None}


def extract(repo, commits, tmp):
    """Each side's tree, its commit extracted under ``tmp``."""
    trees = {side: Path(tmp) / side for side in SIDES}
    for side in SIDES:
        archive = git(repo, "archive", commits[side]["commit"])
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(trees[side], filter="data")
    return trees


def run_perfbench(tree, workload, seed, seconds):
    """The result object perfbench prints last: correct, failed, metrics."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
        timeout=RUN_TIMEOUT_S + seconds)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"perfbench {workload} in {tree} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_digests(trees):
    """The change's digest script run on both sides' ``src``, compared
    by :func:`digest.verdict`; the first side it fails on, when there is one."""
    script = trees["change"] / "scripts" / "digest.py"
    if not script.exists():
        return None
    outputs = {}
    for side in SIDES:
        path = os.pathsep.join(filter(None, [str(trees[side] / "src"),
                                             os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, str(script)], cwd=trees[side],
                              env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        if done.returncode != 0:
            stderr = done.stderr.strip().splitlines()
            failed = {"failed": side, "returncode": done.returncode,
                      "stderr": stderr[-1] if stderr else ""}
            print(f"digests: {side} exited {done.returncode}: {failed['stderr']}", flush=True)
            return failed
        outputs[side] = digest.read_digests(done.stdout.splitlines())
    digests = {}
    for kind in digest.KINDS:
        line, differ = digest.verdict(kind, outputs["parent"][kind], outputs["change"][kind])
        print(f"digests: {line}", flush=True)
        digests[kind] = {"equal": not differ, "first_difference": differ[0] if differ else None}
    digests["cells"] = len(outputs["change"]["run"])
    return digests


def quartiles(values):
    """Q1, median and Q3 of ``values``: one value three times, or None
    three times without any."""
    if len(values) < 2:
        return [values[0]] * 3 if values else [None] * 3
    return statistics.quantiles(values, n=4)


def sign_test_p(wins, losses):
    """One-sided sign test: the chance of at least ``wins`` wins in
    ``wins + losses`` fair coin flips (1.0 when there are none)."""
    flips = wins + losses
    return sum(math.comb(flips, k) for k in range(wins, flips + 1)) / 2 ** flips


def null_quartiles(path, *keys):
    """The per-pair ratio Q1 and Q3 of the entry at ``keys`` of the A/A
    BENCH file ``path``, with the file's name: what :func:`judge` reads
    a run against.  None when the file or the entry is missing."""
    try:
        entry = json.loads(path.read_text())
        for key in keys:
            entry = entry[key]
        return {"file": path.name, "pair_ratio_q1": entry["pair_ratio_q1"],
                "pair_ratio_q3": entry["pair_ratio_q3"]}
    except (OSError, KeyError):
        return None


def judge(m, bound):
    """``gain`` and ``worse`` of one metric's summary ``m`` (see
    :func:`summarize`), read against ``m["null"]``, the same metric's
    per-pair ratio quartiles in the committed A/A (:func:`null_quartiles`).

    For a lower-is-better value, ``gain`` needs nine wins in ten of the
    pairs run and a per-pair ratio Q3 below the A/A's Q1.  ``worse`` with
    a ``bound`` is the benchmark's own gate: a change median worse than
    the parent's by more than ``bound`` times the parent's.  Without a
    bound it needs nine losses in ten and a per-pair ratio Q1 above the
    A/A's Q3.  A higher-is-better value is the mirror.  Without an A/A
    (``m["null"]`` None) only the bounded ``worse`` can be True."""
    gain = worse = False
    null = m["null"]
    if null is not None and m["pair_ratio_q1"] is not None:
        q1, q3 = m["pair_ratio_q1"], m["pair_ratio_q3"]
        n1, n3 = null["pair_ratio_q1"], null["pair_ratio_q3"]
        if m["better"] == "higher":  # the mirror: negated ratios are lower-is-better
            q1, q3, n1, n3 = -q3, -q1, -n3, -n1
        gain = m["wins"] >= 0.9 * m["pairs"] and q3 < n1
        worse = m["losses"] >= 0.9 * m["pairs"] and q1 > n3
    if bound is not None:
        sign = 1.0 if m["better"] == "lower" else -1.0
        worse = sign * (m["change_median"] - m["parent_median"]) > bound * abs(m["parent_median"])
    return gain, worse


def summarize(entry, parent, change, null):
    """Medians, wins, paired statistics and :func:`judge`'s verdicts of
    one metric over paired runs, with the A/A quartiles ``null`` they
    were read against."""
    sign = 1.0 if entry["better"] == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ratios = [c / p for p, c in zip(parent, change) if p]
    q1, r_med, q3 = quartiles(ratios)
    m = {
        "unit": entry["unit"], "better": entry["better"],
        "parent": parent, "change": change,
        "parent_median": p_med, "change_median": c_med,
        "ratio": c_med / p_med if p_med else None,
        "wins": wins, "losses": losses, "pairs": len(parent),
        "pair_ratios": ratios, "pair_ratio_q1": q1, "pair_ratio_median": r_med,
        "pair_ratio_q3": q3, "sign_p": sign_test_p(wins, losses), "null": null,
    }
    m["gain"], m["worse"] = judge(m, entry.get("bound"))
    return m


# The header of the columns of ``row``.
COLUMNS = (f"{'parent':>12}{'change':>12}{'ratio':>8}{'A/A Q1':>11}{'A/A Q3':>11}{'wins':>7}"
           f"{'Q1 c/p':>9}{'med c/p':>9}{'Q3 c/p':>9}{'sign p':>9}  gain   worse")


def row(m):
    """The columns of one metric's summary from :func:`summarize`."""
    ratio = f"{m['ratio']:.3f}" if m["ratio"] is not None else "-"
    null = "".join(f"{m['null'][key]:>11.3f}" if m["null"] else f"{'-':>11}"
                   for key in ("pair_ratio_q1", "pair_ratio_q3"))
    pair = "".join(f"{m[key]:>9.3f}" if m[key] is not None else f"{'-':>9}"
                   for key in ("pair_ratio_q1", "pair_ratio_median", "pair_ratio_q3"))
    return (f"{m['parent_median']:>12.6g}{m['change_median']:>12.6g}{ratio:>8}"
            f"{null}{m['wins']:>4}/{m['pairs']:<2}"
            f"{pair}{m['sign_p']:>9.3g}  {m['gain']!s:<6} {m['worse']}")


def alternate(label, pairs, run):
    """``run(side)`` for both sides in each of ``pairs`` pairs, back to
    back, the parent first in odd pairs and the change first in even
    ones; prints each result as ``<label> pair <i>/<pairs> <side>: <json>``
    and returns each side's results in pair order."""
    results = {side: [] for side in SIDES}
    for pair in range(pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            results[side].append(run(side))
            print(f"{label} pair {pair + 1}/{pairs} {side}: {json.dumps(results[side][-1])}",
                  flush=True)
    return results


def blas_core():
    """The CPU core whose kernels the loaded OpenBLAS picked, as numpy's
    bundled build's ``scipy_openblas_get_corename64_`` names it, or None."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            corename = ctypes.CDLL(lib).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "cpu": cpu, "blas_core": blas_core(),
            "nproc": len(os.sched_getaffinity(0))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="revision of the parent side")
    parser.add_argument("change", help="revision of the change side")
    parser.add_argument("--slug", required=True, help="names BENCH_<slug>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workloads", nargs="+", metavar="NAME",
                        help="default: every workload of BENCHMARK.json")
    parser.add_argument("--repo", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be at least 1 and --seconds positive")

    commits = {side: describe(args.repo, rev)
               for side, rev in zip(SIDES, (args.parent, args.change))}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = extract(args.repo, commits, tmp)
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        known = [w["name"] for w in spec["workloads"]]
        names = args.workloads or known
        unknown = [name for name in names if name not in known]
        if unknown:
            parser.error(f"unknown workloads: {', '.join(unknown)} "
                         f"(the change's BENCHMARK.json has {', '.join(known)})")
        digests = run_digests(trees)
        runs = {name: alternate(name, args.pairs, lambda side: run_perfbench(
                    trees[side], name, args.seed, args.seconds)) for name in names}
        nulls = {(name, entry["name"]): null_quartiles(trees["change"] / NULL, "workloads", name,
                                                       "metrics", entry["name"])
                 for name in names for entry in spec["end_to_end"]}

    status = 0
    report = {}
    for name in names:
        by_side = runs[name]
        failed = {side: [r["failed"] for r in by_side[side]] for side in SIDES}
        if any(r["failed"] or not r["correct"] for s in SIDES for r in by_side[s]):
            status = 1
        metrics = {}
        for entry in spec["end_to_end"]:
            values = {side: [r["metrics"][entry["name"]]["value"] for r in by_side[side]]
                      for side in SIDES}
            metrics[entry["name"]] = summarize(entry, values["parent"], values["change"],
                                               nulls[name, entry["name"]])
        report[name] = {"failed": failed, "metrics": metrics}

    print(f"\n{'workload':<16}{'metric':<15}{COLUMNS}")
    for name, entry in report.items():
        for metric, m in entry["metrics"].items():
            print(f"{name:<16}{metric:<15}{row(m)}")

    out = args.repo / f"BENCH_{args.slug}.json"
    out.write_text(json.dumps({
        "slug": args.slug, "commits": commits, "environment": environment(),
        "protocol": {"pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
                     "command": "perfbench/run.py --trace 0",
                     "order": "alternating; the parent runs first in odd pairs"},
        "digests": digests, "workloads": report}, indent=1) + "\n")
    print(f"wrote {out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
