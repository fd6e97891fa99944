"""Alternating A/B pairs of two commits' update kernels, at their layer.

Extracts ``git archive <rev>`` of a parent and a change commit and runs
``scripts/ab.py``'s pair loop on them.  A side's run is one worker, a
fresh interpreter with that tree's ``src`` first on its path: it pins
itself to the last CPU this process may run on (so neither side gets
the quieter core), imports the tree's ``ssbroyden.updates``, calls
``apply_update`` by name (so a tree whose kernel is loaded through
``ctypes`` compares with one whose kernel is an extension module),
prints one JSON line and exits.

    python3 scripts/kernel_ab.py HEAD~1 HEAD --slug my_change --pairs 20

Before the pairs, one worker per side (whose import builds the tree's
kernel) applies the update once to every case and to the special-value
grid of the kernel's flag test (see ``special_values``) at n = 2 to 12
and at every ``--sizes``, and reports a SHA-256 of each H' and the
warnings the call replays under ``np.errstate(all="warn")``; ``checks``
records whether both sides are equal on every one and the first that
differs, as ``digest.verdict`` finds them.

A case is one of the six (phi, tau) paths of the kernel, (1, 0, 0.4) x
(1, 0.7), at one n of ``--sizes``: by default 25 (the paper's PINN), 193
(``pinn-wide``), 500 (the ``dense-*`` workloads) and 1000, where H (8 MB)
outgrows a 2 MiB L2, so every change is timed and checked where the
matrix streams from memory too.  In a pair each side's worker times
every case, one after the other, as an ``ab.py`` pair runs a whole
workload.  A timed call starts from H reset to a fixed SPD matrix,
outside the timed region; a worker's value for a case is the median of
``--calls`` timed calls, in microseconds.  Per case the pairs are
summarised as ``ab.py`` summarises a metric's pairs: medians, per-pair
ratios change/parent with their quartiles, wins and the sign test, and
``ab.judge``'s verdicts against the same case in the committed A/A run
``BENCH_kernel_null_sizes.json`` (``NULL``), read from the change's
tree.  A case has no bound, so it is ``worse`` when the change lost at
least nine pairs in ten and its per-pair ratio Q1 lies above the A/A's
Q3; a case the A/A lacks (a new ``--sizes`` value) gets no verdict.
Everything goes to ``BENCH_kernel_<slug>.json`` at the root of the
repository.  Exits 1 when the checks differ; the timings are recorded
either way.
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

from ab import (COLUMNS, ROOT, RUN_TIMEOUT_S, SIDES, alternate, describe, environment,
                extract, null_quartiles, row, summarize)
from digest import verdict

HERE = Path(__file__).resolve().parent
CASES = tuple(itertools.product((1.0, 0.0, 0.4), (1.0, 0.7)))  # (phi, tau)
GRID_SIZES = tuple(range(2, 13))
GRID_SCALES = (1.0, 1e-310, 1e-160, 1e160, 1e300)
# The committed A/A run at the default sizes, read from the change's
# tree, that judge reads each case against.
NULL = "BENCH_kernel_null_sizes.json"


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
    """``(label, H, s, y)`` over the special-value grid of one instance:
    signed zeros in H and s (as many of s's -0, +0 as it has entries),
    then H and the vectors scaled by every pair of 1, subnormal, tiny and
    huge factors."""
    H0, s0 = H.copy(), s.copy()
    H0[0, 1:] = H0[1:, 0] = -0.0
    H0[0, 0] = 0.0
    s0[:2] = (-0.0, 0.0)[:s0.size]
    for h_scale, v_scale in itertools.product(GRID_SCALES, repeat=2):
        yield f" H*{h_scale:g} v*{v_scale:g}", H0 * h_scale, s0 * v_scale, y * v_scale


def outcome(updates, H, s, coeffs, phi, tau):
    """Hash of the H' one call writes, and the warnings it replays."""
    work = H.copy()
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="warn"):
        warnings.simplefilter("always")
        updates.apply_update(work, s, coeffs, phi, tau)
    return [hashlib.sha256(work.tobytes()).hexdigest(), [str(w.message) for w in caught]]


def work():
    """The worker: pins itself to the CPU its configuration names, imports
    its tree's ``updates`` and prints one JSON line: per checked call the
    hash of H' and the replayed warnings when ``calls`` is None, else per
    case the median time of ``calls`` calls in microseconds."""
    config = json.loads(sys.argv[1])
    os.sched_setaffinity(0, {config["cpu"]})
    from ssbroyden import updates
    tree = Path(config["tree"]).resolve()
    if not Path(updates.__file__).resolve().is_relative_to(tree):
        raise SystemExit(f"imported {updates.__file__}, not the one under {tree}")
    sizes, calls, result = config["sizes"], config["calls"], {}
    if calls is None:
        for n in sorted(set(GRID_SIZES) | set(sizes)):
            base = instance(n)
            for label, H, s, y in [("", *base), *special_values(*base)]:
                coeffs = coefficients(updates, H, s, y)
                for phi, tau in CASES:
                    result[case_key(n, phi, tau) + label] = outcome(updates, H, s, coeffs,
                                                                    phi, tau)
    else:
        for n in sizes:
            H0, s, y = instance(n)
            coeffs = coefficients(updates, H0, s, y)
            H = H0.copy()
            for phi, tau in CASES:
                times = []
                for _ in range(calls):
                    np.copyto(H, H0)
                    start = time.perf_counter_ns()
                    updates.apply_update(H, s, coeffs, phi, tau)
                    times.append(time.perf_counter_ns() - start)
                result[case_key(n, phi, tau)] = statistics.median(times) / 1e3
    print(json.dumps(result))


# ---------------------------------------------------------------- driver

def run_worker(tree, cpu, sizes, calls=None):
    """What one worker on ``tree`` prints: the checks, or with ``calls``
    the timings."""
    path = os.pathsep.join(filter(None, [str(tree / "src"), str(HERE),
                                         os.environ.get("PYTHONPATH")]))
    config = json.dumps({"tree": str(tree), "cpu": cpu, "sizes": sizes, "calls": calls})
    done = subprocess.run([sys.executable, "-c", "import kernel_ab; kernel_ab.work()", config],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"the worker on {tree} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout)


def compare(checks):
    """Number of checked calls, whether both sides agree on all, and the
    first one they do not."""
    _, differ = verdict("checks", *(checks[side] for side in SIDES))
    return {"calls": len(checks["parent"]), "equal": not differ,
            "first_difference": differ[0] if differ else None}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="revision of the parent side")
    parser.add_argument("change", help="revision of the change side")
    parser.add_argument("--slug", required=True, help="names BENCH_kernel_<slug>.json")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--calls", type=int, default=101,
                        help="timed calls per case and worker")
    parser.add_argument("--sizes", type=int, nargs="+", default=[25, 193, 500, 1000])
    parser.add_argument("--repo", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.calls < 1 or min(args.sizes) < 2:
        parser.error("--pairs and --calls must be at least 1, --sizes at least 2")

    commits = {side: describe(args.repo, rev)
               for side, rev in zip(SIDES, (args.parent, args.change))}
    cpu = max(os.sched_getaffinity(0))
    with tempfile.TemporaryDirectory(prefix="kernel-ab-") as tmp:
        trees = extract(args.repo, commits, tmp)
        checks = compare({side: run_worker(trees[side], cpu, args.sizes) for side in SIDES})
        print(f"checks: {checks}", flush=True)
        runs = alternate("kernel", args.pairs, lambda side: run_worker(
            trees[side], cpu, args.sizes, args.calls))
        nulls = {key: null_quartiles(trees["change"] / NULL, "cases", key)
                 for key in runs["parent"][0]}

    entry = {"unit": "us", "better": "lower"}
    cases = {}
    print(f"\n{'case':<26}{COLUMNS}")
    for key in runs["parent"][0]:
        parent, change = ([run[key] for run in runs[side]] for side in SIDES)
        cases[key] = summarize(entry, parent, change, nulls[key])
        print(f"{key:<26}{row(cases[key])}")

    out = args.repo / f"BENCH_kernel_{args.slug}.json"
    out.write_text(json.dumps({
        "slug": args.slug, "commits": commits, "environment": environment(),
        "protocol": {"pairs": args.pairs, "calls": args.calls, "sizes": args.sizes,
                     "cases": [{"phi": phi, "tau": tau} for phi, tau in CASES],
                     "grid": {"sizes": sorted(set(GRID_SIZES) | set(args.sizes)),
                              "scales": GRID_SCALES},
                     "command": "apply_update, H reset outside the timed region",
                     "worker": f"one fresh interpreter per side and pair, pinned to CPU {cpu}",
                     "order": "alternating; the parent runs first in odd pairs"},
        "checks": checks, "cases": cases}, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if checks["equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
