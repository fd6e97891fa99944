"""Solver benchmark: four workloads, end-to-end metrics, outside-in layer tracing.

    python3 perfbench/run.py --workload pinn-paper --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

Run from the root of a source checkout; the library is imported from
``src``.  One caller solves one cell at a time (a closed loop) in this
process; BLAS keeps its own thread count, which is recorded.

``--trace 0`` runs a short warm-up, then timed passes for ``--seconds``
with set-up probes in fresh interpreters between them, then short
solves under ``tracemalloc``, and reports the end-to-end metrics.  The
first timed pass is the reference that every later pass must reproduce
exactly.  ``--trace 1`` alternates untraced and traced passes
for the same time and reports per-layer metrics from the traced ones,
plus the tracing overhead.  Every solve is checked (see
``workloads.check_cell``).  Per-cell counts, the environment and all
metrics are stored under ``.perfbench_out/``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and the gated metrics.  ``--workload all`` runs each workload in a child
process of its own, so that each reports its own peak memory.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ssbroyden" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: {ROOT} is not a source checkout with src/ssbroyden "
              f"and BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ssbroyden

    if Path(ssbroyden.__file__).resolve().parent != SRC / "ssbroyden":
        print(f"error: imported ssbroyden from {ssbroyden.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import harness

    if args.workload == "all":
        return harness.run_all(args)
    if args.workload not in harness.workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    return harness.run_one(args)


if __name__ == "__main__":
    sys.exit(main())
