"""Alternating A/B benchmark pairs of two commits: medians, IQRs, wins.

Extracts ``git archive <rev>`` of a parent and a change commit into two
temporary directories, then runs ``perfbench/run.py --trace 0`` in each,
``--pairs`` times per workload.  The two sides of a pair run back to
back, and the side that runs first alternates from pair to pair, so a
drift of the host's speed falls on both sides alike.

    python3 scripts/ab.py HEAD~1 HEAD --slug my_change --pairs 10 --seconds 20

For every gated end-to-end metric of the change's ``BENCHMARK.json`` it
prints, per workload, the median of each side, the ratio of the
medians, the interquartile ranges (``statistics.quantiles(values, n=4)``)
and the number of pairs the change won.  ``gain`` is True when the
change won at least nine pairs in ten and its median beats the parent's
by more than the parent's IQR.  ``worse`` is True when the change's
median is worse than the parent's by more than the metric's ``bound``
in ``BENCHMARK.json``, a fraction of the parent's median: the
regression the benchmark rejects.

Next to them it prints the paired statistics, which compare each
change run with the parent run of its own pair and so are blind to a
drift of the host between pairs: the median and quartiles of the
per-pair ratios change/parent, and the one-sided sign-test p-value of
the wins (ties dropped), the chance of at least as many wins if either
side were as likely to win a pair.

Before the pairs, the change's ``scripts/digest.py`` digests the
trajectories of both sides' ``src`` and compares them with
``--compare``; ``digests`` records, for each kind of hash the script
reports (``run``: the trajectory, ``bytes``: the emitted traces),
whether every cell is equal and the first cell that differs, plus the
number of cells (None when the change has no digest script).  Everything, every value of every run included,
goes to ``BENCH_<slug>.json`` at the root of the repository, with both
commits, the git tree of each side's ``src`` and the environment.
``--repo`` names another repository than the one holding this script.
Exits 1 when a run fails or reports failed solves; differing digests
are recorded, not failed, since a change may move trajectories on
purpose.
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

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
RUN_TIMEOUT_S = 900


def git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True).stdout


def describe(repo, rev):
    """Commit and ``src`` tree of ``rev``."""
    commit = git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    tree = subprocess.run(["git", "-C", str(repo), "rev-parse", f"{commit}:src"],
                          capture_output=True, text=True).stdout.strip()
    return {"rev": rev, "commit": commit, "src_tree": tree or None}


def extract(repo, commit, dest):
    with tarfile.open(fileobj=io.BytesIO(git(repo, "archive", commit))) as tar:
        tar.extractall(dest, filter="data")


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


def run_digests(trees, tmp):
    """The change's digest script run on both sides' ``src``, compared."""
    script = trees["change"] / "scripts" / "digest.py"
    if not script.exists():
        return None
    files = {}
    for side in SIDES:
        path = os.pathsep.join(filter(None, [str(trees[side] / "src"),
                                             os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, str(script)], cwd=trees[side],
                              env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"digests of {trees[side]} exited "
                               f"{done.returncode}:\n{done.stderr[-2000:]}")
        files[side] = Path(tmp) / f"digests_{side}.txt"
        files[side].write_text(done.stdout)
    done = subprocess.run([sys.executable, str(script), "--compare",
                           str(files["parent"]), str(files["change"])],
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode not in (0, 1):
        raise RuntimeError(f"digest comparison exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    digests = {}
    for line in done.stdout.splitlines():
        print(f"digests: {line}", flush=True)
        kind, verdict = line.split(": ", 1)
        equal = verdict.endswith(" cells identical")
        digests[kind] = {"equal": equal,
                         "first_difference": None if equal else verdict.split()[2]}
    digests["cells"] = len(files["change"].read_text().splitlines())
    return digests


def quartile_range(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def sign_test_p(wins, losses):
    """One-sided sign test: the chance of at least ``wins`` wins in
    ``wins + losses`` fair coin flips (1.0 when there are none)."""
    flips = wins + losses
    return sum(math.comb(flips, k) for k in range(wins, flips + 1)) / 2 ** flips


def ratio_quartiles(ratios):
    """Q1, median and Q3 of the per-pair ratios; all None without any."""
    if len(ratios) < 2:
        return [ratios[0]] * 3 if ratios else [None] * 3
    return statistics.quantiles(ratios, n=4)


def summarize(entry, parent, change):
    """Medians, IQRs, wins, paired statistics and verdicts of one metric
    over paired runs."""
    sign = 1.0 if entry["better"] == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_iqr = quartile_range(parent)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ratios = [c / p for p, c in zip(parent, change) if p]
    q1, r_med, q3 = ratio_quartiles(ratios)
    return {
        "unit": entry["unit"], "better": entry["better"],
        "parent": parent, "change": change,
        "parent_median": p_med, "change_median": c_med,
        "ratio": c_med / p_med if p_med else None,
        "parent_iqr": p_iqr, "change_iqr": quartile_range(change),
        "wins": wins, "losses": losses, "pairs": len(parent),
        "pair_ratios": ratios, "pair_ratio_q1": q1, "pair_ratio_median": r_med,
        "pair_ratio_q3": q3, "sign_p": sign_test_p(wins, losses),
        "gain": wins >= 0.9 * len(parent) and sign * (p_med - c_med) > p_iqr,
        "worse": sign * (c_med - p_med) > entry["bound"] * abs(p_med),
    }


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
            "platform": platform.platform(), "cpu": cpu,
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

    commits = {"parent": describe(args.repo, args.parent),
               "change": describe(args.repo, args.change)}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            extract(args.repo, commits[side]["commit"], trees[side])
        digests = run_digests(trees, tmp)
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        names = args.workloads or [w["name"] for w in spec["workloads"]]
        runs = {name: {side: [] for side in SIDES} for name in names}
        for name in names:
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    result = run_perfbench(trees[side], name, args.seed, args.seconds)
                    runs[name][side].append(result)
                    print(f"{name} pair {pair + 1}/{args.pairs} {side}: "
                          + json.dumps(result["metrics"]), flush=True)

    status = 0
    report = {}
    for name in names:
        by_side = runs[name]
        failed = {side: [r["failed"] for r in by_side[side]] for side in SIDES}
        if any(failed[side]) or not all(r["correct"] for s in SIDES for r in by_side[s]):
            status = 1
        metrics = {}
        for entry in spec["end_to_end"]:
            values = {side: [r["metrics"][entry["name"]]["value"] for r in by_side[side]]
                      for side in SIDES}
            metrics[entry["name"]] = summarize(entry, values["parent"], values["change"])
        report[name] = {"failed": failed, "metrics": metrics}

    print(f"\n{'workload':<16}{'metric':<15}{'parent':>12}{'change':>12}"
          f"{'ratio':>8}{'IQR p':>11}{'IQR c':>11}{'wins':>7}"
          f"{'Q1 c/p':>9}{'med c/p':>9}{'Q3 c/p':>9}{'sign p':>9}  gain   worse")
    for name, entry in report.items():
        for metric, m in entry["metrics"].items():
            ratio = f"{m['ratio']:.3f}" if m["ratio"] is not None else "-"
            pair = "".join(f"{m[key]:>9.3f}" if m[key] is not None else f"{'-':>9}"
                           for key in ("pair_ratio_q1", "pair_ratio_median",
                                       "pair_ratio_q3"))
            print(f"{name:<16}{metric:<15}{m['parent_median']:>12.6g}"
                  f"{m['change_median']:>12.6g}{ratio:>8}{m['parent_iqr']:>11.4g}"
                  f"{m['change_iqr']:>11.4g}{m['wins']:>4}/{m['pairs']:<2}"
                  f"{pair}{m['sign_p']:>9.3g}  {m['gain']!s:<6} {m['worse']}")

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
