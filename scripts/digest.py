"""Bitwise trajectory digests: one SHA-256 per solver run.

Each cell is one ``solve`` from the problem's default start.  Its digest
covers every field of every iteration record (floats as ``float.hex``),
the counters, the terminal status, the bytes of the final x, g and H,
and the bytes of the run's CSV and JSON traces as ``cli.emit_trace``
writes them (the JSON one with a run summary built as ``bench`` builds
it, with the cell's problem label as ``problem``), so
two builds that print the same digest for a cell followed the same
trajectory to the last bit and report it in the same bytes.  The cells
are quad10, rosen2, rosen8 and pinn1d (m=8, N=32) x the six variants x
{identity, scaled_identity}, Rosenbrock n=500 with bfgs, ssbfgs and
ssbroyden, Rosenbrock n=100 with ssbroyden, two runs with c2=0.4,
pinn1d (m=4, N=16) with ssdfp for 200 iterations, the one cell whose
run skips updates (at the curvature guard), and pinn1d (m=64, N=512)
with bfgs and ssbroyden for 60 iterations: 57 cells.

The large cells split the update kernel into several row panels with a
short last one (n=500 into 32-row panels, n=193 into 84/84/25 rows);
rosen500/ssbfgs is the one run that takes the phi == 1 branch with
tau != 1 there, and the m=64 cells run the network workspace at its
benchmark size with phi in {0, 1, general}.  These cells and
rosen100/ssbroyden (one 100 x 100 panel) form their panels with the
minimum ufunc buffer; the n <= 25 cells with numpy's default one.

The bits depend on the numpy/BLAS build, so compare digests of two
source trees made on one machine; do not keep them as golden values.

    PYTHONPATH=src python3 scripts/digest.py > change.txt
    PYTHONPATH=../parent/src python3 scripts/digest.py > parent.txt
    python3 scripts/digest.py --compare parent.txt change.txt

``--cells`` restricts a run to the named cells.  ``--compare`` exits 0
when both files list the same cells with the same digests, else names
the first cell that differs and exits 1.
"""

import argparse
import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path

VARIANTS = ("bfgs", "ssbfgs", "dfp", "ssdfp", "broyden", "ssbroyden")
SCALINGS = ("identity", "scaled_identity")


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
    return specs


def _token(value):
    return float.hex(value) if isinstance(value, float) else repr(value)


def run_digest(name, make, kwargs, out_dir):
    """Digest of one cell; its trace files are written into ``out_dir``."""
    import ssbroyden
    from ssbroyden import cli
    from ssbroyden.core import norm_inf
    problem = make()
    config = ssbroyden.SolverConfig(**kwargs)
    trace, state, counters = ssbroyden.solve(problem, problem.default_start(), config)
    digest = hashlib.sha256()
    for record in trace.records:
        digest.update(" ".join(_token(v) for v in
                               dataclasses.astuple(record)).encode() + b"\n")
    digest.update(repr(dataclasses.astuple(counters)).encode())
    digest.update(trace.status.encode())
    for array in (state.x, state.g, state.H):
        digest.update(array.tobytes())
    summary = {"solver": config.variant.value, "problem": name.split("/")[0],
               "status": trace.status, **dataclasses.asdict(counters),
               "final_f": state.f, "final_gnorm_inf": norm_inf(state.g)}
    for fmt in ("csv", "json"):
        path = Path(out_dir) / f"trace.{fmt}"
        cli.emit_trace(trace, fmt, path, summary=summary)
        digest.update(path.read_bytes())
    return digest.hexdigest()


def read_digests(path):
    with open(path) as fh:
        return dict(line.split() for line in fh if line.strip())


def compare(path_a, path_b):
    a, b = read_digests(path_a), read_digests(path_b)
    for name in list(a) + [n for n in b if n not in a]:
        if a.get(name) != b.get(name):
            print(f"first difference: {name} "
                  f"({a.get(name, 'missing')} vs {b.get(name, 'missing')})")
            return 1
    print(f"{len(a)} cells identical")
    return 0


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
            print(name, run_digest(name, make, kwargs, out_dir), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
