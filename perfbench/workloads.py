"""Workloads of the solver benchmark: cells, start points, one pass, the gate.

A workload is a fixed list of cells (one problem, one variant, one
iteration budget each).  One pass solves every cell once, one solve at
a time, through the public API; a closed loop with a single caller.
Every solve is checked by ``check_cell`` after the pass, outside the
timed region.

The library is imported from the ``src`` directory of the checkout; the
caller puts it on ``sys.path`` before importing this module.
"""

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Tuple

import numpy as np

import ssbroyden
from ssbroyden import cli as sb_cli
from ssbroyden.linesearch import LineSearchStatus

# Seeds other than 0 add uniform(-JITTER, JITTER) noise to the canonical
# start.  The PINN start is the LCG draw from uniform(-0.5, 0.5), so 0.05
# moves each weight by up to a tenth of the init range.
PINN_JITTER = 0.05
# The canonical Rosenbrock start tiles the pair (-1.2, 1.0).  Seeds move
# the shared pair and keep the tiling: noise on every coordinate turns the
# run into a genuinely 500-dimensional one that needs more than the
# 1000-iteration budget, a different regime from the canonical start.
# Line-search branching amplifies any change of start, so the iteration
# count still moves between seeds: over seeds 1-10 by an IQR of about 3%
# (ssbroyden) and 8% (bfgs) of the median; at 1e-2 ssbroyden moved 13%.
ROSENBROCK_JITTER = 1e-4

ROSENBROCK_X_TOL = 1e-5       # gate: ||x - 1||_inf at the end of the run
PINN_MIN_REDUCTION = 1e3      # gate: f(x0) / f(final) over the budget
PINN_STATUSES = ("max_iters", "converged")
WARMUP_ITERS = 5

ALL_VARIANTS = tuple(v.value for v in ssbroyden.VARIANT_ORDER)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; why each was chosen is in BENCHMARK.json."""

    name: str
    make_problem: Callable[[], ssbroyden.ObjectiveFunction]
    problem_label: str
    variants: Tuple[str, ...]
    max_iters: int
    emits: bool


WORKLOADS = {w.name: w for w in (
    Workload(
        "pinn-paper",
        lambda: ssbroyden.make_pinn1d(m=8, n_interior=32), "pinn1d",
        ALL_VARIANTS, 1000, True),
    Workload(
        "pinn-wide",
        lambda: ssbroyden.make_pinn1d(m=64, n_interior=512), "pinn1d",
        ("bfgs", "ssbroyden"), 300, False),
    Workload(
        "dense-ssbroyden",
        lambda: ssbroyden.make_rosenbrock(500), "rosenbrock",
        ("ssbroyden",), 1000, False),
    Workload(
        "dense-bfgs",
        lambda: ssbroyden.make_rosenbrock(500), "rosenbrock",
        ("bfgs",), 1000, False),
)}


def start_point(problem, seed):
    """Canonical start for seed 0, a deterministic perturbation otherwise."""
    x0 = ssbroyden.default_start(problem)
    # Seed 0 builds the generator too: its first use imports numpy.random,
    # and set-up time and memory should not depend on the seed.
    rng = np.random.default_rng(seed)
    if seed == 0:
        return x0
    if isinstance(problem, ssbroyden.RosenbrockProblem):
        pair = x0[:2] + ROSENBROCK_JITTER * rng.uniform(-1.0, 1.0, 2)
        return np.tile(pair, problem.dimension // 2)
    return x0 + PINN_JITTER * rng.uniform(-1.0, 1.0, x0.size)


@dataclass
class Cell:
    """One solve of a workload: inputs fixed before any timing starts."""

    variant: str
    problem: ssbroyden.ObjectiveFunction
    x0: np.ndarray
    f0: float
    config: ssbroyden.SolverConfig
    trace_path: Optional[Path]


def prepare(workload, seed, out_dir):
    """Build the problem, start point and configs of every cell."""
    problem = workload.make_problem()
    x0 = start_point(problem, seed)
    f0 = float(problem.value(x0))
    cells = []
    for variant in workload.variants:
        path = None
        if workload.emits:
            path = Path(out_dir) / f"{workload.problem_label}_{variant}.json"
        cells.append(Cell(variant, problem, x0, f0,
                          ssbroyden.SolverConfig(variant=variant,
                                                 max_iters=workload.max_iters),
                          path))
    return cells


@dataclass
class CellOutcome:
    """What one solve returned, or the exception it raised."""

    variant: str
    trace: object = None
    state: object = None
    counters: object = None
    non_wolfe: int = 0
    error: Optional[str] = None

    def counts(self):
        """Per-cell counts; any drift between runs is a behaviour change."""
        if self.error is not None:
            return None
        records = self.trace.records
        return {
            "qn_iters": self.counters.qn_iters,
            "f_evals": self.counters.f_evals,
            "update_skips": self.counters.update_skips,
            "tau_fallbacks": self.counters.tau_fallbacks,
            "resets": sum(1 for r in records if r.reset),
            "non_wolfe": self.non_wolfe,
            "status": self.trace.status,
            "final_f": float(self.state.f).hex(),
        }


def warm_up(cell):
    """Run WARMUP_ITERS iterations of the cell; the result is not used."""
    config = dataclasses.replace(cell.config, max_iters=WARMUP_ITERS)
    ssbroyden.solve(cell.problem, cell.x0, config)


def run_pass(workload, cells):
    """Solve every cell once, in order; emit its trace if the workload emits.

    ``ssbroyden.solve`` and ``cli.emit_trace`` are looked up on every call
    so that a tracer which patched them sees the calls.
    """
    outcomes = []
    for cell in cells:
        out = CellOutcome(cell.variant)
        try:
            def observer(state, d, outcome, new_state, record):
                if outcome.status is not LineSearchStatus.WOLFE_SATISFIED:
                    out.non_wolfe += 1
            out.trace, out.state, out.counters = ssbroyden.solve(
                cell.problem, cell.x0, cell.config, observer=observer)
            if cell.trace_path is not None:
                sb_cli.emit_trace(out.trace, "json", cell.trace_path,
                                  summary=trace_summary(workload, cell, out))
        except Exception as exc:  # a failed solve is counted, not dropped
            out.error = f"{type(exc).__name__}: {exc}"
        outcomes.append(out)
    return outcomes


def trace_summary(workload, cell, out):
    """The run-summary object ``bench`` writes next to a JSON trace."""
    c = out.counters
    return {
        "solver": cell.variant, "problem": workload.problem_label,
        "status": out.trace.status, "qn_iters": c.qn_iters,
        "f_evals": c.f_evals, "g_evals": c.g_evals, "ls_steps": c.ls_steps,
        "update_skips": c.update_skips, "tau_fallbacks": c.tau_fallbacks,
        "final_f": out.state.f,
        "final_gnorm_inf": float(np.max(np.abs(out.state.g))),
    }


def check_cell(workload, cell, out, reference):
    """Return the reasons this solve is wrong; an empty list means correct.

    ``reference`` is the same cell's outcome and trace bytes from the
    first pass of the run (None while checking that pass): every later
    pass must reproduce its counts and its emitted bytes exactly.
    """
    if out.error is not None:
        return [out.error]
    reasons = []
    c = out.counters
    if not c.f_evals == c.g_evals == c.ls_steps + 1:
        reasons.append(f"accounting: f_evals={c.f_evals} g_evals={c.g_evals} "
                       f"ls_steps={c.ls_steps}")
    if len(out.trace.records) != c.qn_iters:
        reasons.append(f"{len(out.trace.records)} records for {c.qn_iters} iterations")
    if workload.problem_label == "rosenbrock":
        err = float(np.max(np.abs(out.state.x - 1.0)))
        if out.trace.status != "converged" or not err <= ROSENBROCK_X_TOL:
            reasons.append(f"rosenbrock: status {out.trace.status}, "
                           f"||x-1||_inf = {err:.3g}")
    else:
        fs = [cell.f0] + [r.f for r in out.trace.records]
        if any(b >= a for a, b in zip(fs, fs[1:])):
            reasons.append("pinn: loss did not decrease strictly")
        if not fs[-1] * PINN_MIN_REDUCTION <= cell.f0:
            reasons.append(f"pinn: loss reduced only {cell.f0 / fs[-1]:.3g}x")
        if out.trace.status not in PINN_STATUSES:
            reasons.append(f"pinn: status {out.trace.status}")
    if cell.trace_path is not None:
        emitted = cell.trace_path.read_bytes()
        if reference is None:
            reasons += check_emission(workload, cell, out, emitted)
        elif emitted != reference[1]:
            reasons.append("emitted trace differs from the first pass")
    if reference is not None and out.counts() != reference[0].counts():
        reasons.append(f"counts {out.counts()} differ from the first pass "
                       f"{reference[0].counts()}")
    return reasons


def check_emission(workload, cell, out, emitted):
    """Schema-validate an emitted trace and emit it again byte-identically."""
    import jsonschema  # only the emitting workload needs it; keeps set-up lean

    reasons = []
    try:
        jsonschema.validate(json.loads(emitted), sb_cli.TRACE_SCHEMA)
    except (ValueError, jsonschema.ValidationError) as exc:
        reasons.append(f"emitted trace fails TRACE_SCHEMA: {exc}")
    again = cell.trace_path.with_suffix(".again.json")
    sb_cli.emit_trace(out.trace, "json", again,
                      summary=trace_summary(workload, cell, out))
    if again.read_bytes() != emitted:
        reasons.append("two emissions of the same run differ")
    again.unlink()
    return reasons
