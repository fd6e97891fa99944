"""Alternating A/B rounds of two commits' update kernels, at their layer.

Extracts ``git archive <rev>`` of a parent and a change commit, as
``scripts/ab.py`` does, and starts one worker interpreter per tree with
that tree's ``src`` first on its path.  Each worker imports its tree's
``ssbroyden.updates`` (which builds that tree's kernel on first import)
and calls ``apply_update`` by name, so a tree whose kernel is loaded
through ``ctypes`` compares with one whose kernel is an extension module.

    python3 scripts/kernel_ab.py HEAD~1 HEAD --slug my_change --rounds 20

Before any timing, each worker applies the update once to every case
and to the special-value grid of the kernel's flag test (signed zeros
in H and s, H and the vectors scaled by every pair of 1, 1e-310,
1e-160, 1e160 and 1e300, at n = 2 to 12 and at every ``--sizes``), and
reports a SHA-256 of each H' and the warnings the call replays under
``np.errstate(all="warn")``; ``checks`` records whether both sides are
equal on every one and the first that differs.

A case is one of the six (phi, tau) paths of the kernel, (1, 0, 0.4) x
(1, 0.7), at one n of ``--sizes``.  In each round both workers time
every case, one case after the other, and the worker that runs first
alternates from round to round.  Both workers are pinned to one CPU,
the last this process may run on, so neither side gets the quieter
core.  A timed call starts from H reset to a fixed SPD matrix, outside the timed
region; a round's value for a case is the median of ``--calls`` timed
calls, in microseconds.  Per case the rounds are summarised as
``scripts/ab.py`` summarises a metric's pairs: medians, per-round ratios
change/parent with their quartiles, wins, the sign test, ``gain`` and
``worse``, the latter against ``BOUND``.  Everything goes to
``BENCH_kernel_<slug>.json`` at the root of the repository.  Exits 1
when the checks differ; the timings are recorded either way.
"""

import argparse
import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

from ab import ROOT, SIDES, describe, environment, extract, summarize

HERE = Path(__file__).resolve().parent
CASES = tuple(itertools.product((1.0, 0.0, 0.4), (1.0, 0.7)))  # (phi, tau)
GRID_SIZES = tuple(range(2, 13))
GRID_SCALES = (1.0, 1e-310, 1e-160, 1e160, 1e300)
# A case's change median worse than the parent's by more than this
# fraction is ``worse``; BENCH_kernel_null.json holds the A/A spread.
BOUND = 0.05


def case_key(n, phi, tau):
    return f"n={n} phi={phi:g} tau={tau:g}"


# ---------------------------------------------------------------- worker

def instance(n):
    """A fixed SPD H (eigenvalues in [0.5, 5]), a step s and y = G s for a
    diagonal SPD G."""
    rng = np.random.default_rng(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    H = (q * rng.uniform(0.5, 5.0, n)) @ q.T
    s = rng.standard_normal(n)
    return 0.5 * (H + H.T), s, s * rng.uniform(0.5, 2.5, n)


def coefficients(updates, H, s, y):
    """The coefficients ``apply_update`` reads, for the tree's ``updates``."""
    with np.errstate(all="ignore"):
        Hy = H @ y
        ys, yHy = np.dot(y, s), np.dot(y, Hy)
        rho = 1.0 / ys
    return updates.UpdateCoefficients(ys=float(ys), rho=float(rho), h=0.0, b=0.0, a=0.0,
                                      c=0.0, Hy=Hy, yHy=float(yHy))


def special_values(H, s, y):
    """``(label, H, s, y)`` over the grid of one instance."""
    H0, s0 = H.copy(), s.copy()
    H0[0, 1:] = H0[1:, 0] = -0.0
    H0[0, 0] = 0.0
    s0[:2] = (-0.0, 0.0)
    for h_scale, v_scale in itertools.product(GRID_SCALES, repeat=2):
        yield f" H*{h_scale:g} v*{v_scale:g}", H0 * h_scale, s0 * v_scale, y * v_scale


def outcome(updates, H, s, coeffs, phi, tau):
    """Hash of the H' one call writes, and the warnings it replays."""
    work = H.copy()
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="warn"):
        warnings.simplefilter("always")
        updates.apply_update(work, s, coeffs, phi, tau)
    return [hashlib.sha256(work.tobytes()).hexdigest(), [str(w.message) for w in caught]]


def serve():
    """The worker: prints the checks as one JSON line, then, for each
    ``[n, phi, tau]`` line read from stdin, the median time of a call in
    microseconds."""
    from ssbroyden import updates
    config = json.loads(sys.argv[1])
    tree = Path(config["tree"]).resolve()
    if not Path(updates.__file__).resolve().is_relative_to(tree):
        raise SystemExit(f"imported {updates.__file__}, not the one under {tree}")
    sizes = config["sizes"]
    checks = {}
    for n in sorted(set(GRID_SIZES) | set(sizes)):
        base = instance(n)
        for label, H, s, y in [("", *base), *special_values(*base)]:
            coeffs = coefficients(updates, H, s, y)
            for phi, tau in CASES:
                checks[case_key(n, phi, tau) + label] = outcome(updates, H, s, coeffs,
                                                                phi, tau)
    print(json.dumps(checks), flush=True)
    instances = {}
    for n in sizes:
        H, s, y = instance(n)
        instances[n] = H, s, coefficients(updates, H, s, y)
    for line in sys.stdin:
        n, phi, tau = json.loads(line)
        H0, s, coeffs = instances[n]
        H = H0.copy()
        times = []
        for _ in range(config["calls"]):
            np.copyto(H, H0)
            start = time.perf_counter_ns()
            updates.apply_update(H, s, coeffs, phi, tau)
            times.append(time.perf_counter_ns() - start)
        print(statistics.median(times) / 1e3, flush=True)


# ---------------------------------------------------------------- driver

def start_worker(tree, sizes, calls):
    path = os.pathsep.join(filter(None, [str(tree / "src"), str(HERE),
                                         os.environ.get("PYTHONPATH")]))
    config = json.dumps({"tree": str(tree), "sizes": sizes, "calls": calls})
    return subprocess.Popen([sys.executable, "-c", "import kernel_ab; kernel_ab.serve()",
                             config], env=dict(os.environ, PYTHONPATH=path),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)


def receive(worker, side):
    line = worker.stdout.readline()
    if not line:
        raise RuntimeError(f"the {side} worker exited {worker.wait()}")
    return json.loads(line)


def compare(checks):
    """Number of checked calls, whether both sides agree on all, and the
    first one they do not."""
    parent, change = (checks[side] for side in SIDES)
    differ = [key for key in parent if parent[key] != change.get(key)]
    return {"calls": len(parent), "equal": not differ,
            "first_difference": differ[0] if differ else None}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="revision of the parent side")
    parser.add_argument("change", help="revision of the change side")
    parser.add_argument("--slug", required=True, help="names BENCH_kernel_<slug>.json")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--calls", type=int, default=101,
                        help="timed calls per case and round")
    parser.add_argument("--sizes", type=int, nargs="+", default=[25, 193, 500])
    parser.add_argument("--repo", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.calls < 1 or min(args.sizes) < 2:
        parser.error("--rounds and --calls must be at least 1, --sizes at least 2")

    commits = {side: describe(args.repo, rev)
               for side, rev in zip(SIDES, (args.parent, args.change))}
    runs = {side: {} for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="kernel-ab-") as tmp:
        workers = {}
        try:
            for side in SIDES:
                tree = Path(tmp) / side
                extract(args.repo, commits[side]["commit"], tree)
                workers[side] = start_worker(tree, args.sizes, args.calls)
                os.sched_setaffinity(workers[side].pid, {max(os.sched_getaffinity(0))})
            checks = compare({side: receive(workers[side], side) for side in SIDES})
            print(f"checks: {checks}", flush=True)
            for round_ in range(args.rounds):
                order = SIDES if round_ % 2 == 0 else SIDES[::-1]
                for n, (phi, tau) in itertools.product(args.sizes, CASES):
                    for side in order:
                        workers[side].stdin.write(json.dumps([n, phi, tau]) + "\n")
                        workers[side].stdin.flush()
                        runs[side].setdefault(case_key(n, phi, tau), []).append(
                            receive(workers[side], side))
                print(f"round {round_ + 1}/{args.rounds}: {' then '.join(order)}", flush=True)
        finally:
            for worker in workers.values():
                worker.stdin.close()
                worker.wait()

    entry = {"unit": "us", "better": "lower", "bound": BOUND}
    cases = {}
    print(f"\n{'case':<26}{'parent':>10}{'change':>10}{'ratio':>8}{'wins':>7}"
          f"{'Q1 c/p':>9}{'med c/p':>9}{'Q3 c/p':>9}  gain   worse")
    for key in runs["parent"]:
        m = cases[key] = summarize(entry, runs["parent"][key], runs["change"][key])
        print(f"{key:<26}{m['parent_median']:>10.2f}{m['change_median']:>10.2f}"
              f"{m['ratio']:>8.3f}{m['wins']:>4}/{m['pairs']:<2}"
              + "".join(f"{m[q]:>9.3f}" for q in ("pair_ratio_q1", "pair_ratio_median",
                                                   "pair_ratio_q3"))
              + f"  {m['gain']!s:<6} {m['worse']}")

    out = args.repo / f"BENCH_kernel_{args.slug}.json"
    out.write_text(json.dumps({
        "slug": args.slug, "commits": commits, "environment": environment(),
        "protocol": {"rounds": args.rounds, "calls": args.calls, "sizes": args.sizes,
                     "cases": [{"phi": phi, "tau": tau} for phi, tau in CASES],
                     "grid": {"sizes": sorted(set(GRID_SIZES) | set(args.sizes)),
                              "scales": GRID_SCALES},
                     "command": "apply_update, H reset outside the timed region",
                     "order": "alternating; the parent runs first in odd rounds"},
        "checks": checks, "cases": cases}, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if checks["equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
