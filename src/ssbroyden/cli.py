"""Benchmark harness: run solver variants on named problems, emit traces.

Each run writes one trace file (CSV or JSON) per solver into the output
directory, plus a summary.csv comparing the runs.  Trace files contain
no timing data and are byte-deterministic for a fixed specification;
wall time appears only in the summary.
"""

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from .core import norm_inf
from .linesearch import LineSearchParams
from .problems import PinnPoisson1D, default_start, make_pinn1d, make_quadratic, make_rosenbrock
from .solver import SolverConfig, solve
from .updates import VARIANT_ORDER, UpdateVariant

PROBLEM_NAMES = ("quadratic", "rosenbrock", "pinn1d")
SOLVER_NAMES = tuple(v.value for v in VARIANT_ORDER)

TRACE_COLUMNS = ("iter", "f", "gnorm_inf", "gnorm_2", "alpha", "theta",
                 "tau", "ls_evals", "skipped", "tau_fallback")

#: Machine-checkable shape of the JSON trace files.
TRACE_SCHEMA = {
    "type": "object",
    "required": ["records", "summary"],
    "properties": {
        "records": {
            "type": "array",
            "items": {
                "type": "object",
                "required": list(TRACE_COLUMNS),
                "properties": {
                    "iter": {"type": "integer"},
                    "f": {"type": "number"},
                    "gnorm_inf": {"type": "number"},
                    "gnorm_2": {"type": "number"},
                    "alpha": {"type": "number"},
                    "theta": {"type": "number"},
                    "tau": {"type": "number"},
                    "ls_evals": {"type": "integer"},
                    "skipped": {"type": "boolean"},
                    "tau_fallback": {"type": "boolean"},
                },
            },
        },
        "summary": {
            "type": "object",
            "required": ["solver", "problem", "status", "qn_iters", "f_evals",
                         "g_evals", "ls_steps", "update_skips", "tau_fallbacks",
                         "final_f", "final_gnorm_inf"],
            "properties": {
                "solver": {"type": "string"},
                "problem": {"type": "string"},
                "status": {"type": "string"},
                "qn_iters": {"type": "integer"},
                "f_evals": {"type": "integer"},
                "g_evals": {"type": "integer"},
                "ls_steps": {"type": "integer"},
                "update_skips": {"type": "integer"},
                "tau_fallbacks": {"type": "integer"},
                "final_f": {"type": "number"},
                "final_gnorm_inf": {"type": "number"},
            },
        },
    },
}


@dataclass
class RunSpecification:
    """Everything needed to reproduce a benchmark invocation."""

    solvers: List[str]
    problem: str
    n: Optional[int] = None
    m: int = 8
    npoints: int = 32
    tol: float = 1e-8
    max_iters: int = 1000
    c1: float = 1e-4
    c2: float = 0.9
    fmt: str = "csv"
    out_dir: Path = field(default_factory=lambda: Path("."))


def build_problem(spec):
    if spec.problem == "quadratic":
        return make_quadratic(spec.n if spec.n is not None else 10)
    if spec.problem == "rosenbrock":
        return make_rosenbrock(spec.n if spec.n is not None else 2)
    if spec.problem == "pinn1d":
        return make_pinn1d(m=spec.m, n_interior=spec.npoints)
    raise ValueError(f"unknown problem {spec.problem!r}")


def _fmt(value):
    """17 significant digits: enough to round-trip a double exactly."""
    return f"{float(value):.17g}"


def emit_trace(trace, fmt, path, summary=None):
    """Write one run's per-iteration records to path.

    CSV column order is fixed; floats print with 17 significant digits
    so parsing the file recovers the in-memory doubles bitwise.  JSON
    mirrors the records and adds the run summary object.
    """
    path = Path(path)
    if fmt == "csv":
        lines = [",".join(TRACE_COLUMNS)]
        for r in trace.records:
            lines.append(",".join([
                str(r.k), _fmt(r.f), _fmt(r.gnorm_inf), _fmt(r.gnorm_2),
                _fmt(r.alpha), _fmt(r.theta), _fmt(r.tau),
                str(r.ls_evals), str(int(r.skipped)), str(int(r.tau_fallback)),
            ]))
        path.write_text("\n".join(lines) + "\n")
    elif fmt == "json":
        records = [{
            "iter": r.k, "f": r.f, "gnorm_inf": r.gnorm_inf,
            "gnorm_2": r.gnorm_2, "alpha": r.alpha, "theta": r.theta,
            "tau": r.tau, "ls_evals": r.ls_evals, "skipped": r.skipped,
            "tau_fallback": r.tau_fallback,
        } for r in trace.records]
        payload = {"records": records, "summary": summary if summary is not None else {}}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        raise ValueError(f"unknown trace format {fmt!r}")


def run_benchmark(spec):
    """Execute the requested runs; returns the process exit code."""
    try:
        problem = build_problem(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(spec.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return 1

    ls_params = LineSearchParams(c1=spec.c1, c2=spec.c2)
    rows = []
    exit_code = 0
    for name in spec.solvers:
        config = SolverConfig(variant=UpdateVariant(name), grad_tol=spec.tol,
                              max_iters=spec.max_iters, line_search=ls_params)
        t0 = time.perf_counter()
        try:
            trace, state, counters = solve(problem, default_start(problem), config)
        except Exception as exc:  # surfaced per row, run the rest
            rows.append({"solver": name, "status": f"error({type(exc).__name__})",
                         "qn_iters": 0, "ls_steps": 0, "f_evals": 0,
                         "final_f": float("nan"), "final_gnorm_inf": float("nan"),
                         "wall_time_s": time.perf_counter() - t0, "l2_error": "",
                         "update_skips": 0, "tau_fallbacks": 0})
            exit_code = 1
            continue
        wall = time.perf_counter() - t0

        summary = {
            "solver": name,
            "problem": spec.problem,
            "status": trace.status,
            "qn_iters": counters.qn_iters,
            "f_evals": counters.f_evals,
            "g_evals": counters.g_evals,
            "ls_steps": counters.ls_steps,
            "update_skips": counters.update_skips,
            "tau_fallbacks": counters.tau_fallbacks,
            "final_f": state.f,
            "final_gnorm_inf": norm_inf(state.g),
        }
        trace_path = out_dir / f"{spec.problem}_{name}.{spec.fmt}"
        try:
            emit_trace(trace, spec.fmt, trace_path, summary=summary)
        except OSError as exc:
            print(f"error: cannot write {trace_path}: {exc}", file=sys.stderr)
            return 1

        row = {"solver": name, "status": trace.status,
               "qn_iters": counters.qn_iters, "ls_steps": counters.ls_steps,
               "f_evals": counters.f_evals, "final_f": state.f,
               "final_gnorm_inf": summary["final_gnorm_inf"],
               "wall_time_s": wall,
               "l2_error": problem.l2_error(state.x)
               if isinstance(problem, PinnPoisson1D) else "",
               "update_skips": counters.update_skips,
               "tau_fallbacks": counters.tau_fallbacks}
        rows.append(row)
        if trace.status != "converged":
            exit_code = 1

    _write_summary(rows, out_dir / "summary.csv")
    _print_summary(spec, rows)
    return exit_code


SUMMARY_COLUMNS = ("solver", "status", "qn_iters", "ls_steps", "f_evals",
                   "final_f", "final_gnorm_inf", "wall_time_s", "l2_error",
                   "update_skips", "tau_fallbacks")


def _write_summary(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        for row in rows:
            writer.writerow([
                row["solver"], row["status"], row["qn_iters"], row["ls_steps"],
                row["f_evals"],
                _fmt(row["final_f"]), _fmt(row["final_gnorm_inf"]),
                f"{row['wall_time_s']:.6f}",
                _fmt(row["l2_error"]) if row["l2_error"] != "" else "",
                row["update_skips"], row["tau_fallbacks"],
            ])


def _print_summary(spec, rows):
    print(f"problem: {spec.problem}  tol: {spec.tol:g}  max_iters: {spec.max_iters}")
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
    parser.add_argument("--tol", type=float, default=1e-8,
                        help="gradient infinity-norm stopping tolerance")
    parser.add_argument("--max-iters", type=int, default=1000)
    parser.add_argument("--c1", type=float, default=1e-4,
                        help="sufficient-decrease constant")
    parser.add_argument("--c2", type=float, default=0.9,
                        help="curvature constant")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    solvers = list(SOLVER_NAMES) if args.solver == "all" else [args.solver]
    spec = RunSpecification(
        solvers=solvers, problem=args.problem, n=args.n, m=args.m,
        npoints=args.npoints, tol=args.tol, max_iters=args.max_iters,
        c1=args.c1, c2=args.c2, fmt=args.format, out_dir=Path(args.out))
    return run_benchmark(spec)


if __name__ == "__main__":
    sys.exit(main())
