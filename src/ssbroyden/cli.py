"""Benchmark harness: run solver variants on named problems, emit traces.

Each run writes one trace file (CSV or JSON) per solver into the output
directory, plus a summary.csv comparing the runs.  Trace files contain
no timing data and are byte-deterministic for a fixed specification;
wall time appears only in the summary.
"""

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict, fields
from operator import attrgetter
from pathlib import Path

from .core import norm_inf
from .problems import PinnPoisson1D, make_pinn1d, make_quadratic, make_rosenbrock
from .solver import Counters, SolverConfig, solve
from .updates import VARIANT_ORDER

PROBLEM_NAMES = ("quadratic", "rosenbrock", "pinn1d")
SOLVER_NAMES = tuple(v.value for v in VARIANT_ORDER)

#: The trace columns: (column, IterationRecord attribute, JSON type).
RECORD_FIELDS = (
    ("iter", "k", "integer"), ("f", "f", "number"),
    ("gnorm_inf", "gnorm_inf", "number"), ("gnorm_2", "gnorm_2", "number"),
    ("alpha", "alpha", "number"), ("theta", "theta", "number"),
    ("tau", "tau", "number"), ("ls_evals", "ls_evals", "integer"),
    ("skipped", "skipped", "boolean"), ("tau_fallback", "tau_fallback", "boolean"),
)
TRACE_COLUMNS = tuple(column for column, _, _ in RECORD_FIELDS)
_record_values = attrgetter(*(attr for _, attr, _ in RECORD_FIELDS))


def _fmt(value):
    """17 significant digits: enough to round-trip a double exactly."""
    return f"{float(value):.17g}"


_CSV_CELL = {"integer": str, "number": _fmt, "boolean": lambda v: str(int(v))}
_CSV_CELLS = tuple(_CSV_CELL[kind] for _, _, kind in RECORD_FIELDS)


def _json_number(value):
    """A float as ``json.dumps`` writes it, non-finite values included."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


_JSON_CELL = {"integer": int.__repr__, "number": _json_number,
              "boolean": lambda v: "true" if v else "false"}
# A JSON record as json.dumps(indent=2, sort_keys=True) nests it in the
# trace: keys sorted, one per line, at depth two.
_JSON_FIELDS = sorted(RECORD_FIELDS)
_JSON_CELLS = tuple(_JSON_CELL[kind] for _, _, kind in _JSON_FIELDS)
_json_values = attrgetter(*(attr for _, attr, _ in _JSON_FIELDS))
_JSON_RECORD = ("    {{\n"
                + ",\n".join(f"      {json.dumps(column)}: {{}}"
                             for column, _, _ in _JSON_FIELDS)
                + "\n    }}")

#: The run summary of a JSON trace: (key, JSON type).
_SUMMARY_FIELDS = (
    ("solver", "string"), ("problem", "string"), ("status", "string"),
    *((f.name, "integer") for f in fields(Counters)),
    ("final_f", "number"), ("final_gnorm_inf", "number"),
)


def _object_schema(typed):
    return {"type": "object",
            "required": [key for key, _ in typed],
            "properties": {key: {"type": kind} for key, kind in typed}}


#: Machine-checkable shape of the JSON trace files.
TRACE_SCHEMA = {
    "type": "object",
    "required": ["records", "summary"],
    "properties": {
        "records": {
            "type": "array",
            "items": _object_schema([(column, kind)
                                     for column, _, kind in RECORD_FIELDS]),
        },
        "summary": _object_schema(_SUMMARY_FIELDS),
    },
}


def build_problem(args):
    """The problem named by the parsed ``bench`` arguments."""
    if args.problem == "quadratic":
        return make_quadratic(args.n if args.n is not None else 10)
    if args.problem == "rosenbrock":
        return make_rosenbrock(args.n if args.n is not None else 2)
    if args.problem == "pinn1d":
        return make_pinn1d(m=args.m, n_interior=args.npoints)
    raise ValueError(f"unknown problem {args.problem!r}")


def emit_trace(trace, fmt, path, summary=None):
    """Write one run's per-iteration records to path.

    CSV column order is fixed; floats print with 17 significant digits
    so parsing the file recovers the in-memory doubles bitwise.  JSON
    mirrors the records and adds the run summary object, which
    ``TRACE_SCHEMA`` requires: without ``summary`` it raises ValueError.
    The JSON file holds the bytes of ``json.dumps(payload, indent=2,
    sort_keys=True)`` and a newline, ``payload`` being ``{"records":
    [...], "summary": summary}``.  Both formats are written to the open
    file record by record, with formatters built from ``RECORD_FIELDS``,
    so no string of the whole trace is built.
    """
    path = Path(path)
    if fmt == "csv":
        with path.open("w") as fh:
            fh.write(",".join(TRACE_COLUMNS) + "\n")
            for r in trace.records:
                fh.write(",".join([cell(value) for cell, value
                                   in zip(_CSV_CELLS, _record_values(r))]) + "\n")
    elif fmt == "json":
        if summary is None:
            raise ValueError("a JSON trace needs the run summary")
        # formatted first: a summary json cannot write raises before the
        # file is opened
        tail = json.dumps(summary, indent=2, sort_keys=True).replace("\n", "\n  ")
        with path.open("w") as fh:
            fh.write('{\n  "records": [')
            separator = "\n"
            for r in trace.records:
                fh.write(separator)
                fh.write(_JSON_RECORD.format(*[cell(value) for cell, value
                                               in zip(_JSON_CELLS, _json_values(r))]))
                separator = ",\n"
            close = "\n  ]" if trace.records else "]"
            fh.write(f'{close},\n  "summary": {tail}\n}}\n')
    else:
        raise ValueError(f"unknown trace format {fmt!r}")


def run_benchmark(args, solvers):
    """Run each named solver on the problem of the parsed ``bench``
    arguments; returns the process exit code."""
    try:
        problem = build_problem(args)
        configs = [SolverConfig(variant=name, grad_tol=args.tol,
                                max_iters=args.max_iters, c1=args.c1, c2=args.c2)
                   for name in solvers]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return 1

    rows = []
    exit_code = 0
    for name, config in zip(solvers, configs):
        t0 = time.perf_counter()
        try:
            trace, state, counters = solve(problem, problem.default_start(), config)
        except Exception as exc:  # surfaced per row, run the rest
            print(f"error: {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            trace, counters = None, Counters()
            status = f"error({type(exc).__name__})"
            final_f = final_gnorm_inf = float("nan")
        else:
            status, final_f, final_gnorm_inf = trace.status, state.f, norm_inf(state.g)
        wall = time.perf_counter() - t0

        summary = {"solver": name, "problem": args.problem, "status": status,
                   **asdict(counters),
                   "final_f": final_f, "final_gnorm_inf": final_gnorm_inf}
        if trace is not None:
            trace_path = out_dir / f"{args.problem}_{name}.{args.format}"
            try:
                emit_trace(trace, args.format, trace_path, summary=summary)
            except OSError as exc:
                print(f"error: cannot write {trace_path}: {exc}", file=sys.stderr)
                return 1
        pinn = trace is not None and isinstance(problem, PinnPoisson1D)
        rows.append(dict(summary, wall_time_s=wall,
                         l2_error=problem.l2_error(state.x) if pinn else ""))
        if status != "converged":
            exit_code = 1

    _write_summary(rows, out_dir / "summary.csv")
    _print_summary(args, rows)
    return exit_code


SUMMARY_COLUMNS = ("solver", "status", "qn_iters", "ls_steps", "f_evals",
                   "final_f", "final_gnorm_inf", "wall_time_s", "l2_error",
                   "update_skips", "tau_fallbacks")


def _summary_cell(column, value):
    """Floats round-trip (17 digits) except the wall time; the rest as is."""
    if column == "wall_time_s":
        return f"{value:.6f}"
    return _fmt(value) if isinstance(value, float) else value


def _write_summary(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        for row in rows:
            writer.writerow([_summary_cell(column, row[column])
                             for column in SUMMARY_COLUMNS])


def _print_summary(args, rows):
    print(f"problem: {args.problem}  tol: {args.tol:g}  max_iters: {args.max_iters}")
    header = (f"{'solver':<10} {'status':<20} {'iters':>6} {'ls':>6} "
              f"{'fevals':>7} {'skips':>6} {'taufb':>6} {'final_f':>13} "
              f"{'gnorm_inf':>13} {'time_s':>9}")
    print(header)
    for row in rows:
        print(f"{row['solver']:<10} {row['status']:<20} {row['qn_iters']:>6} "
              f"{row['ls_steps']:>6} {row['f_evals']:>7} "
              f"{row['update_skips']:>6} {row['tau_fallbacks']:>6} "
              f"{row['final_f']:>13.4e} {row['final_gnorm_inf']:>13.4e} "
              f"{row['wall_time_s']:>9.3f}"
              + (f"  l2_err={row['l2_error']:.3e}" if row["l2_error"] != "" else ""))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Run quasi-Newton solver variants on benchmark problems "
                    "and write convergence traces.")
    parser.add_argument("--solver", required=True,
                        choices=SOLVER_NAMES + ("all",),
                        help="solver variant to run, or 'all' for every variant")
    parser.add_argument("--problem", required=True, choices=PROBLEM_NAMES)
    parser.add_argument("--n", type=int, default=None,
                        help="problem dimension (quadratic, rosenbrock)")
    parser.add_argument("--m", type=int, default=8,
                        help="hidden width of the pinn1d network")
    parser.add_argument("--npoints", type=int, default=32,
                        help="number of interior collocation points (pinn1d)")
    parser.add_argument("--tol", type=float, default=SolverConfig.grad_tol,
                        help="gradient infinity-norm stopping tolerance")
    parser.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)
    parser.add_argument("--c1", type=float, default=SolverConfig.c1,
                        help="sufficient-decrease constant")
    parser.add_argument("--c2", type=float, default=SolverConfig.c2,
                        help="curvature constant")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    solvers = list(SOLVER_NAMES) if args.solver == "all" else [args.solver]
    return run_benchmark(args, solvers)


if __name__ == "__main__":
    sys.exit(main())
