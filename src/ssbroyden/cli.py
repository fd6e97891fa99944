"""Benchmark harness: run solver variants on named problems, emit traces.

Each run writes one trace file (CSV or JSON) per solver into the output
directory, plus a summary.csv comparing the runs.  Trace files contain
no timing data and are byte-deterministic for a fixed specification;
wall time appears only in the summary.
"""

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, fields
from operator import attrgetter
from pathlib import Path

from .core import norm_inf
from .problems import make_pinn1d, make_quadratic, make_rosenbrock
from .solver import Counters, IterationRecord, SolverConfig, solve
from .updates import VARIANT_ORDER

#: The problems ``bench`` runs: each name's factory, and the size flags
#: it takes mapped to that factory's keywords.
PROBLEMS = {"quadratic": (make_quadratic, {"--n": "n"}),
            "rosenbrock": (make_rosenbrock, {"--n": "n"}),
            "pinn1d": (make_pinn1d, {"--m": "m", "--npoints": "n_interior"})}
SOLVER_NAMES = tuple(v.value for v in VARIANT_ORDER)

# The JSON type of a record field's or summary value's Python type.
_JSON_TYPES = {bool: "boolean", int: "integer", float: "number", str: "string"}

#: The trace columns, one per IterationRecord field in field order:
#: (column, attribute, JSON type); only ``k`` is renamed, to ``iter``.
RECORD_FIELDS = tuple(("iter" if f.name == "k" else f.name, f.name, _JSON_TYPES[f.type])
                      for f in fields(IterationRecord))
TRACE_COLUMNS = tuple(column for column, _, _ in RECORD_FIELDS)
_record_values = attrgetter(*(attr for _, attr, _ in RECORD_FIELDS))


def _cell(value):
    """Every CSV cell, of a trace or summary.csv: a float round-trips
    (17 significant digits), a bool is 0/1, the rest goes through str."""
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, bool):
        return str(int(value))
    return str(value)


# A flat record's members as json.dumps(indent=2, sort_keys=True) nests
# them in the trace: keys sorted, one per line, at depth two.
_json_record = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": ")).encode


def run_summary(solver, problem, status, counters=Counters(), state=None):
    """The run-summary object ``bench`` writes next to a JSON trace, whose
    keys ``TRACE_SCHEMA`` lists; ``final_f`` and ``final_gnorm_inf`` are
    NaN without a ``state``, as for a solve that raised."""
    return {"solver": solver, "problem": problem, "status": status,
            **asdict(counters),
            "final_f": math.nan if state is None else state.f,
            "final_gnorm_inf": math.nan if state is None else norm_inf(state.g)}


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
        "summary": _object_schema([(key, _JSON_TYPES[type(value)])
                                   for key, value in run_summary("", "", "").items()]),
    },
}


def build_problem(args):
    """The problem named by the parsed ``bench`` arguments, made by its
    ``PROBLEMS`` factory from the size flags given, each passed as the
    keyword ``PROBLEMS`` maps it to; a size not given takes the
    factory's own default, a size flag the problem does not take raises
    ValueError."""
    make, keys = PROBLEMS[args.problem]
    flags = {"--n": args.n, "--m": args.m, "--npoints": args.npoints}
    for flag, value in flags.items():
        if value is not None and flag not in keys:
            raise ValueError(f"--problem {args.problem} takes no {flag}")
    return make(**{keys[flag]: value for flag, value in flags.items() if value is not None})


def emit_trace(trace, fmt, path, summary=None):
    """Write one run's per-iteration records to path.

    CSV column order is fixed; floats print with 17 significant digits
    so parsing the file recovers the in-memory doubles bitwise.  JSON
    mirrors the records and adds the run summary object, which
    ``TRACE_SCHEMA`` requires: without ``summary`` it raises ValueError.
    The JSON file holds the bytes of ``json.dumps(payload, indent=2,
    sort_keys=True)`` and a newline, ``payload`` being ``{"records":
    [...], "summary": summary}``.  Both formats are written to the open
    file record by record, so no string of the whole trace is built: a
    CSV row cell by cell through ``_cell``, a JSON record through
    ``json``'s own encoder, which alone decides how its numbers,
    non-finite values, booleans and key order are written.
    """
    path = Path(path)
    if fmt == "csv":
        with path.open("w") as fh:
            fh.write(",".join(TRACE_COLUMNS) + "\n")
            for r in trace.records:
                fh.write(",".join([_cell(value) for value in _record_values(r)]) + "\n")
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
                encoded = _json_record(dict(zip(TRACE_COLUMNS, _record_values(r))))
                fh.write(f"{separator}    {{\n      {encoded[1:-1]}\n    }}")
                separator = ",\n"
            close = "\n  ]" if trace.records else "]"
            fh.write(f'{close},\n  "summary": {tail}\n}}\n')
    else:
        raise ValueError(f"unknown trace format {fmt!r}")


SUMMARY_COLUMNS = ("solver", "status", "qn_iters", "ls_steps", "f_evals",
                   "final_f", "final_gnorm_inf", "wall_time_s", "l2_error",
                   "update_skips", "tau_fallbacks")


def run_benchmark(args, solvers):
    """Run each named solver on the problem of the parsed ``bench``
    arguments, one pass each: solve, then write its trace, its
    ``summary.csv`` row and its printed row; returns the exit code.  A
    write that fails prints ``error: cannot write <path>: ...``.  A
    trace that cannot be written sets exit 1 and the other solvers
    still run.  A ``summary.csv`` that cannot be made, opened or
    written, ``--out`` included, returns 1 at once: before any solve
    and any printed line if it cannot be opened.  Each printed line is
    flushed; a stdout that cannot be written is reported as ``stdout``
    and sets exit 1, the rest of the table goes to ``os.devnull`` and
    every trace and ``summary.csv`` row is still written."""
    try:
        problem = build_problem(args)
        configs = [SolverConfig(variant=name, grad_tol=args.tol,
                                max_iters=args.max_iters, c1=args.c1, c2=args.c2)
                   for name in solvers]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    summary_path = out_dir / "summary.csv"
    exit_code = 0

    def show(line):
        nonlocal exit_code
        try:
            print(line, flush=True)
        except OSError as exc:
            print(f"error: cannot write stdout: {exc}", file=sys.stderr)
            exit_code = 1
            # as the Python docs do for a closed pipe: later lines and the
            # exit-time flush go to os.devnull, not to the failed stream
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with summary_path.open("w", newline="") as fh:
            show(f"problem: {args.problem}  tol: {args.tol:g}  max_iters: {args.max_iters}")
            show(f"{'solver':<10} {'status':<20} {'iters':>6} {'ls':>6} "
                 f"{'fevals':>7} {'skips':>6} {'taufb':>6} {'final_f':>13} "
                 f"{'gnorm_inf':>13} {'time_s':>9}")
            fh.write(",".join(SUMMARY_COLUMNS) + "\n")
            for name, config in zip(solvers, configs):
                t0 = time.perf_counter()
                try:
                    trace, state, counters = solve(problem, problem.default_start(), config)
                except Exception as exc:  # surfaced per row, run the rest
                    print(f"error: {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                    trace = None
                    summary = run_summary(name, args.problem, f"error({type(exc).__name__})")
                else:
                    summary = run_summary(name, args.problem, trace.status, counters, state)
                wall = time.perf_counter() - t0

                if trace is not None:
                    trace_path = out_dir / f"{args.problem}_{name}.{args.format}"
                    try:
                        emit_trace(trace, args.format, trace_path, summary=summary)
                    except OSError as exc:
                        print(f"error: cannot write {trace_path}: {exc}", file=sys.stderr)
                        exit_code = 1
                reports_l2 = trace is not None and hasattr(problem, "l2_error")
                l2_error = problem.l2_error(state.x) if reports_l2 else ""
                # the wall time is a measurement, not a double to round-trip
                row = dict(summary, wall_time_s=f"{wall:.6f}", l2_error=l2_error)
                fh.write(",".join([_cell(row[column]) for column in SUMMARY_COLUMNS]) + "\n")
                show(f"{name:<10} {row['status']:<20} {row['qn_iters']:>6} "
                     f"{row['ls_steps']:>6} {row['f_evals']:>7} "
                     f"{row['update_skips']:>6} {row['tau_fallbacks']:>6} "
                     f"{row['final_f']:>13.4e} {row['final_gnorm_inf']:>13.4e} "
                     f"{wall:>9.3f}" + (f"  l2_err={l2_error:.3e}" if reports_l2 else ""))
                if summary["status"] != "converged":
                    exit_code = 1
    except OSError as exc:
        print(f"error: cannot write {summary_path}: {exc}", file=sys.stderr)
        return 1
    return exit_code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Run quasi-Newton solver variants on benchmark problems "
                    "and write convergence traces.")
    parser.add_argument("--solver", required=True,
                        choices=SOLVER_NAMES + ("all",),
                        help="solver variant to run, or 'all' for every variant")
    parser.add_argument("--problem", required=True, choices=PROBLEMS)
    parser.add_argument("--n", type=int, default=None,
                        help="problem dimension (quadratic, rosenbrock)")
    parser.add_argument("--m", type=int, help="hidden width of the pinn1d network")
    parser.add_argument("--npoints", type=int,
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
