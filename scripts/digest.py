"""Bitwise trajectory digests: two SHA-256 hashes per solver run.

Each cell is one ``solve`` from the problem's default start.  Its
``run`` hash covers every field of every iteration record (floats as
``float.hex``), the counters, the terminal status and the bytes of the
final x, g and H.  Its ``bytes`` hash covers the run's CSV and JSON
traces as ``cli.emit_trace`` writes them (the JSON one with a run
summary built as ``bench`` builds it, with the cell's problem label as
``problem``).  Two builds that print the same ``run`` hash for a cell
followed the same trajectory to the last bit; the same ``bytes`` hash
says they also report it in the same bytes, so a deliberate change of
the trace format moves only the ``bytes`` hashes.  The cells
are quad10, rosen2, rosen8 and pinn1d (m=8, N=32) x the six variants x
{identity, scaled_identity}, Rosenbrock n=500 with bfgs, ssbfgs and
ssbroyden, Rosenbrock n=100 with ssbroyden, two runs with c2=0.4,
pinn1d (m=4, N=16) with ssdfp for 200 iterations, the one cell whose
run skips updates (at the curvature guard), pinn1d (m=64, N=512)
with bfgs and ssbroyden for 60 iterations, the log barrier
sum(10 x - log x) (n=4, from 2 * ones) x the six variants, whose unit
steps are non-finite trials the line search rejects, and the steep
valley -x + 1e16 x^2 from 0 with bfgs, which ends
``line_search_failure`` with no trial of sufficient decrease: 64 cells.
The last two objectives are defined here, so that the script runs them
on any source tree it is pointed at.

Among the large cells, rosen500/ssbfgs is the one run that takes the
update kernel's phi == 1 branch with tau != 1, and the m=64 cells
(n=193) run the network workspace at its benchmark size with phi in
{0, 1, general}.

The bits depend on the numpy/BLAS build, so compare digests of two
source trees made on one machine; do not keep them as golden values.

    PYTHONPATH=src python3 scripts/digest.py > change.txt
    PYTHONPATH=../parent/src python3 scripts/digest.py > parent.txt
    python3 scripts/digest.py --compare parent.txt change.txt

Each output line is ``<cell> <run hash> <bytes hash>``.  ``--cells``
restricts a run to the named cells.  ``--compare`` prints one line per
hash, ``run: 64 cells identical`` or ``run: first difference: <cell>
(<a> vs <b>)`` and the same for ``bytes``; it exits 0 when both files
list the same cells with the same hashes of both kinds, else 1.
"""

import argparse
import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

VARIANTS = ("bfgs", "ssbfgs", "dfp", "ssdfp", "broyden", "ssbroyden")
SCALINGS = ("identity", "scaled_identity")
KINDS = ("run", "bytes")


class LogBarrier:
    """f(x) = sum(10 x - log x), minimised at x = 0.1; NaN for x < 0.

    From x0 = 2 * ones the unit quasi-Newton step leaves the domain, so
    the line search must back off from a non-finite trial.
    """

    def __init__(self, n=4):
        self.dimension = n

    def default_start(self):
        return np.full(self.dimension, 2.0)

    def value_and_gradient(self, x):
        with np.errstate(invalid="ignore", divide="ignore"):
            return float(np.sum(10.0 * x - np.log(x))), 10.0 - 1.0 / x


class SteepValley:
    """f(x) = -x + K x^2 with K so large the sufficient-decrease band
    lies below the line search's degenerate-interval floor."""

    dimension = 1

    def __init__(self, k=1e16):
        self.k = k

    def default_start(self):
        return np.zeros(1)

    def value_and_gradient(self, x):
        t = float(x[0])
        return -t + self.k * t * t, np.array([-1.0 + 2.0 * self.k * t])


def cell_specs():
    """(name, problem factory, SolverConfig keyword arguments) per cell."""
    # Imported on use, so that --compare runs without the package.
    import ssbroyden
    problems = {
        "quad10": lambda: ssbroyden.make_quadratic(10),
        "rosen2": lambda: ssbroyden.make_rosenbrock(2),
        "rosen8": lambda: ssbroyden.make_rosenbrock(8),
        "pinn1d": lambda: ssbroyden.make_pinn1d(m=8, n_interior=32),
    }
    specs = [(f"{label}/{variant}/{scaling}", make,
              {"variant": variant, "h0_scaling": scaling})
             for label, make in problems.items()
             for variant in VARIANTS for scaling in SCALINGS]
    specs += [(f"rosen500/{variant}/identity",
               lambda: ssbroyden.make_rosenbrock(500), {"variant": variant})
              for variant in ("bfgs", "ssbfgs", "ssbroyden")]
    specs += [("rosen100/ssbroyden/identity",
               lambda: ssbroyden.make_rosenbrock(100), {"variant": "ssbroyden"}),
              ("rosen2/bfgs/c2=0.4", problems["rosen2"],
               {"variant": "bfgs", "c2": 0.4}),
              ("rosen8/ssbroyden/c2=0.4", problems["rosen8"],
               {"variant": "ssbroyden", "c2": 0.4}),
              ("pinn1d-m4n16/ssdfp/identity",
               lambda: ssbroyden.make_pinn1d(m=4, n_interior=16),
               {"variant": "ssdfp", "max_iters": 200})]
    specs += [(f"pinn1d-m64n512/{variant}/identity",
               lambda: ssbroyden.make_pinn1d(m=64, n_interior=512),
               {"variant": variant, "max_iters": 60})
              for variant in ("bfgs", "ssbroyden")]
    specs += [(f"logbarrier4/{variant}/identity", LogBarrier,
               {"variant": variant}) for variant in VARIANTS]
    specs += [("steepvalley/bfgs/identity", SteepValley, {"variant": "bfgs"})]
    return specs


def _token(value):
    return float.hex(value) if isinstance(value, float) else repr(value)


def run_digest(name, make, kwargs, out_dir):
    """``run`` and ``bytes`` hashes of one cell; its trace files are
    written into ``out_dir``."""
    import ssbroyden
    from ssbroyden import cli
    from ssbroyden.core import norm_inf
    problem = make()
    config = ssbroyden.SolverConfig(**kwargs)
    trace, state, counters = ssbroyden.solve(problem, problem.default_start(), config)
    run = hashlib.sha256()
    for record in trace.records:
        run.update(" ".join(_token(v) for v in
                            dataclasses.astuple(record)).encode() + b"\n")
    run.update(repr(dataclasses.astuple(counters)).encode())
    run.update(trace.status.encode())
    for array in (state.x, state.g, state.H):
        run.update(array.tobytes())
    summary = {"solver": config.variant.value, "problem": name.split("/")[0],
               "status": trace.status, **dataclasses.asdict(counters),
               "final_f": state.f, "final_gnorm_inf": norm_inf(state.g)}
    emitted = hashlib.sha256()
    for fmt in ("csv", "json"):
        path = Path(out_dir) / f"trace.{fmt}"
        cli.emit_trace(trace, fmt, path, summary=summary)
        emitted.update(path.read_bytes())
    return run.hexdigest(), emitted.hexdigest()


def read_digests(path):
    """``{kind: {cell: hash}}`` of a digest file."""
    digests = {kind: {} for kind in KINDS}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                name, *hashes = line.split()
                for kind, value in zip(KINDS, hashes):
                    digests[kind][name] = value
    return digests


def compare(path_a, path_b):
    a, b = read_digests(path_a), read_digests(path_b)
    status = 0
    for kind in KINDS:
        ka, kb = a[kind], b[kind]
        differ = [name for name in list(ka) + [n for n in kb if n not in ka]
                  if ka.get(name) != kb.get(name)]
        if differ:
            name = differ[0]
            print(f"{kind}: first difference: {name} "
                  f"({ka.get(name, 'missing')} vs {kb.get(name, 'missing')})")
            status = 1
        else:
            print(f"{kind}: {len(ka)} cells identical")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cells", nargs="+", metavar="NAME",
                        help="digest only these cells")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two digest files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    specs = cell_specs()
    if args.cells:
        known = {name for name, _, _ in specs}
        unknown = sorted(set(args.cells) - known)
        if unknown:
            parser.error(f"unknown cells: {', '.join(unknown)}")
        specs = [spec for spec in specs if spec[0] in args.cells]
    with tempfile.TemporaryDirectory() as out_dir:
        for name, make, kwargs in specs:
            print(name, *run_digest(name, make, kwargs, out_dir), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
