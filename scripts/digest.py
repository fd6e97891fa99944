"""Bitwise trajectory digests: two SHA-256 hashes per solver run.

Each cell is one ``solve`` from the problem's default start.  Its
``run`` hash covers every field of every iteration record (floats as
``float.hex``), the counters, the terminal status and the bytes of the
final x, g and H.  Its ``bytes`` hash covers the run's CSV and JSON
traces as ``cli.emit_trace`` writes them, the JSON one with the summary
``cli.run_summary`` builds for ``bench`` (the cell's problem label as
``problem``), so the script needs a tree that has ``run_summary``.
Two builds that print the same ``run`` hash for a cell followed the
same trajectory to the last bit; the same ``bytes`` hash says they
also report it in the same bytes, so a deliberate change of the trace
format moves only the ``bytes`` hashes.  The cells
are quad10, rosen2, rosen8 and pinn1d (m=8, N=32) x the six variants x
{identity, scaled_identity}, Rosenbrock n=500 with bfgs, ssbfgs, broyden
and ssbroyden, Rosenbrock n=100 with ssbroyden, two runs with c2=0.4,
pinn1d (m=4, N=16) with ssdfp for at most 200 iterations, whose run
skips updates at the curvature guard and ends ``stalled`` when its
accepted step no longer moves x, pinn1d (m=64, N=512)
with bfgs and ssbroyden for 60 iterations, the log barrier
sum(10 x - log x) (n=4, from 2 * ones) x the six variants, whose unit
steps are non-finite trials the line search rejects, the coupled
quadratic x^T A x / 2 (n=10, A tridiagonal, from ones) x the six
variants, six distinct trajectories where the quad10 identity cells
pair the variants up, the steep valley -x + 1e16 x^2 from 0 with bfgs,
which ends ``line_search_failure`` with no trial of sufficient
decrease, and the quadratic with all four curvatures 1e155, from ones,
with bfgs, whose g^T g overflows, so the slope of the reset direction
-g is -inf and the run ends ``line_search_failure`` at its start point
(it prints overflow warnings on stderr), and quad10 with bfgs to
grad_tol=1e-300 for at most 40 iterations, whose pairs grow too small
for the update's terms to stay finite (five ``overflow`` skips) and
whose f and then g^T g underflow, so the slope of the reset direction
-g is -0 and the run ends ``line_search_failure``, and quad10 with
ssdfp under scaled_identity to grad_tol=1e-300 for at most 120
iterations, whose step k = 89 resets H and then skips its update at
the curvature guard, the one cell that writes ``reset = 1``, and which
ends ``line_search_failure``: 74 cells.  The
variants and scalings are the library's own ``VARIANT_ORDER`` and
``solver.H0_SCALINGS``.  The log barrier, the coupled quadratic and the
steep valley are defined here, so that the script runs them on any
source tree it is pointed at.

The n=500 cells take all six paths of the update kernel: bfgs phi == 1
with tau == 1, ssbfgs also phi == 1 with tau != 1, broyden phi == 0 and
general phi with tau == 1, and ssbroyden both with tau != 1.  The m=64
cells (n=193) run the network workspace at its benchmark size with phi
in {0, 1, general}.

The bits depend on the numpy/BLAS build, so compare digests of two
source trees made on one machine; do not keep them as golden values.

    PYTHONPATH=src python3 scripts/digest.py > change.txt
    PYTHONPATH=../parent/src python3 scripts/digest.py > parent.txt
    python3 scripts/digest.py --compare parent.txt change.txt

Each output line is ``<cell> <run hash> <bytes hash>``.  ``--cells``
restricts a run to the named cells.  ``--compare`` prints one line per
hash, ``run: 74 cells identical`` or ``run: first difference: <cell>
(<a> vs <b>); <k> of <N> cells differ`` (N counts the cells of both
files, a cell missing from one of them differs) and the same for
``bytes``; it exits 0 when both files list the same cells with the
same hashes of both kinds, else 1.  ``ab.py`` and ``kernel_ab.py`` call
:func:`verdict`, which forms these lines, for their own checks.
"""

import argparse
import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

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


class TridiagQuadratic:
    """f(x) = x^T A x / 2, A = diag(linspace(0.05, 1, n)) with 0.02 on
    both off-diagonals, from ones(n).

    The spectrum of A lies below that of H0 = I, so theta and tau leave
    their trivial values and the six variants follow six trajectories.
    """

    def __init__(self, n=10):
        self.dimension = n
        self.a = (np.diag(np.linspace(0.05, 1.0, n))
                  + np.diag(np.full(n - 1, 0.02), 1) + np.diag(np.full(n - 1, 0.02), -1))

    def default_start(self):
        return np.ones(self.dimension)

    def value_and_gradient(self, x):
        g = self.a @ x
        return 0.5 * float(x @ g), g


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
    from ssbroyden.solver import H0_SCALINGS
    variants = [variant.value for variant in ssbroyden.VARIANT_ORDER]
    problems = {
        "quad10": lambda: ssbroyden.make_quadratic(10),
        "rosen2": lambda: ssbroyden.make_rosenbrock(2),
        "rosen8": lambda: ssbroyden.make_rosenbrock(8),
        "pinn1d": lambda: ssbroyden.make_pinn1d(m=8, n_interior=32),
    }
    specs = [(f"{label}/{variant}/{scaling}", make,
              {"variant": variant, "h0_scaling": scaling})
             for label, make in problems.items()
             for variant in variants for scaling in H0_SCALINGS]
    specs += [(f"rosen500/{variant}/identity",
               lambda: ssbroyden.make_rosenbrock(500), {"variant": variant})
              for variant in ("bfgs", "ssbfgs", "broyden", "ssbroyden")]
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
               {"variant": variant}) for variant in variants]
    specs += [(f"tridiag10/{variant}/identity", TridiagQuadratic,
               {"variant": variant}) for variant in variants]
    specs += [("steepvalley/bfgs/identity", SteepValley, {"variant": "bfgs"}),
              ("overflow4/bfgs/identity",
               lambda: ssbroyden.QuadraticProblem(np.full(4, 1e155)), {"variant": "bfgs"}),
              ("quad10/bfgs/tol=1e-300", problems["quad10"],
               {"variant": "bfgs", "grad_tol": 1e-300, "max_iters": 40}),
              ("quad10/ssdfp/scaled_identity/tol=1e-300", problems["quad10"],
               {"variant": "ssdfp", "h0_scaling": "scaled_identity",
                "grad_tol": 1e-300, "max_iters": 120})]
    return specs


def _token(value):
    return float.hex(value) if isinstance(value, float) else repr(value)


def run_digest(name, make, kwargs, out_dir):
    """``run`` and ``bytes`` hashes of one cell; its trace files are
    written into ``out_dir``."""
    import ssbroyden
    from ssbroyden import cli
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
    summary = cli.run_summary(config.variant.value, name.split("/")[0],
                              trace.status, counters, state)
    emitted = hashlib.sha256()
    for fmt in ("csv", "json"):
        path = Path(out_dir) / f"trace.{fmt}"
        cli.emit_trace(trace, fmt, path, summary=summary)
        emitted.update(path.read_bytes())
    return run.hexdigest(), emitted.hexdigest()


def read_digests(lines):
    """``{kind: {cell: hash}}`` of the lines of a digest run."""
    digests = {kind: {} for kind in KINDS}
    for line in lines:
        if line.strip():
            name, *hashes = line.split()
            for kind, value in zip(KINDS, hashes):
                digests[kind][name] = value
    return digests


def verdict(kind, a, b):
    """``--compare``'s line for one kind of hash of two runs' ``{cell: hash}``,
    and the cells that differ: those of ``a``, then those only ``b`` has."""
    names = list(a) + [name for name in b if name not in a]
    differ = [name for name in names if a.get(name) != b.get(name)]
    if not differ:
        return f"{kind}: {len(a)} cells identical", differ
    name = differ[0]
    return (f"{kind}: first difference: {name} ({a.get(name, 'missing')} vs "
            f"{b.get(name, 'missing')}); {len(differ)} of {len(names)} cells differ"), differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cells", nargs="+", metavar="NAME",
                        help="digest only these cells")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two digest files")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (read_digests(Path(path).read_text().splitlines()) for path in args.compare)
        verdicts = [verdict(kind, a[kind], b[kind]) for kind in KINDS]
        print(*(line for line, _ in verdicts), sep="\n")
        return int(any(differ for _, differ in verdicts))
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
