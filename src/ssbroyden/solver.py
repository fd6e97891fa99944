"""Quasi-Newton driver: directions, line search, updates, accounting.

One iteration is: form d = -H g, line-search along d for a strong-Wolfe
step, move, then update H from the displacement/gradient-change pair
via the configured family member.  The driver separates outer
quasi-Newton iterations from inner line-search trials in its counters,
so cost comparisons between variants are meaningful.

Robustness policy: a non-descent direction resets H to the identity; a
pair failing the curvature guard, a singular mixing weight, or a lost
positive-definiteness diagnosis skips the update; a degenerate scale
factor falls back to tau = 1 but still applies the update.  All of
these events are flagged in the iteration records and counted.
"""

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Union

import numpy as np

from .core import EvaluationError, as_vector, matvec, norm_2, norm_inf
from .linesearch import (
    LineSearchParams,
    LineSearchStatus,
    ScalarRestriction,
    search,
    wolfe_check,
)
from .updates import UpdateVariant, propose_update

H0_SCALINGS = ("identity", "scaled_identity")


class LineSearchStallError(RuntimeError):
    """The line search found no point of sufficient decrease."""


@dataclass
class SolverConfig:
    """Run configuration.

    force_theta / force_tau are test hooks that override the computed
    scalars on every iteration (used to check that the general update
    specializes correctly); they are never set in normal runs.
    """

    variant: Union[UpdateVariant, str]
    grad_tol: float = 1e-8
    max_iters: int = 1000
    line_search: LineSearchParams = field(default_factory=LineSearchParams)
    h0_scaling: str = "identity"
    force_theta: Optional[float] = None
    force_tau: Optional[float] = None

    def __post_init__(self):
        self.variant = UpdateVariant(self.variant)
        if not self.grad_tol > 0.0:
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol:g}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if self.h0_scaling not in H0_SCALINGS:
            raise ValueError(f"h0_scaling must be one of {H0_SCALINGS}")


@dataclass
class SolverState:
    """Iterate data: point, value, gradient, inverse-Hessian approximation."""

    x: np.ndarray
    f: float
    g: np.ndarray
    H: np.ndarray
    k: int = 0


@dataclass
class Counters:
    """Evaluation and event accounting for one run.

    ls_steps counts every line-search trial evaluation; f_evals and
    g_evals additionally include the single evaluation at the start
    point, so f_evals = g_evals = ls_steps + 1 on a completed run.
    """

    qn_iters: int = 0
    f_evals: int = 0
    g_evals: int = 0
    ls_steps: int = 0
    update_skips: int = 0
    tau_fallbacks: int = 0


@dataclass
class IterationRecord:
    """Post-step snapshot: new iterate's value/gradient norms plus the
    step size, family scalars, and event flags for this iteration."""

    k: int
    f: float
    gnorm_inf: float
    gnorm_2: float
    alpha: float
    theta: float
    tau: float
    ls_evals: int
    skipped: bool
    tau_fallback: bool
    reset: bool


@dataclass
class ConvergenceTrace:
    """Ordered iteration records plus the terminal status of the run."""

    records: List[IterationRecord] = field(default_factory=list)
    status: str = "incomplete"


Observer = Callable[[SolverState, np.ndarray, object, SolverState, IterationRecord], None]


def convergence_check(g, tol):
    """True iff the gradient infinity norm is at or below tol."""
    return norm_inf(g) <= tol


def init_state(problem, x0, config):
    """Evaluate the start point and set H to the identity.

    The scaled_identity strategy does not change H here; the scale
    factor needs a (s, y) pair, so it is applied inside the first
    iteration that performs an update.
    """
    x = as_vector(x0, problem.dimension)
    f, g = problem.value_and_gradient(x)
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise EvaluationError("non-finite objective value or gradient at the start point")
    return SolverState(x=x, f=float(f), g=np.asarray(g, dtype=float),
                       H=np.eye(x.shape[0]), k=0)


def step(state, problem, config, counters, observer=None):
    """One outer iteration; returns (new_state, record).

    Mutates counters in place.  Raises LineSearchStallError when the
    search cannot produce even a sufficient-decrease point; counters
    are still charged for the failed search so accounting stays exact.
    """
    n = state.x.shape[0]
    H = state.H
    d = -matvec(H, state.g)
    reset = False
    if float(np.dot(d, state.g)) >= 0.0:
        # H no longer maps the gradient to a descent direction: restart
        # the curvature model from scratch.
        H = np.eye(n)
        d = -state.g
        reset = True

    restriction = ScalarRestriction(problem, state.x, d, state.f, state.g)
    outcome = search(restriction, config.line_search)
    counters.f_evals += outcome.n_evals
    counters.g_evals += outcome.n_evals
    counters.ls_steps += outcome.n_evals

    if outcome.status is not LineSearchStatus.WOLFE_SATISFIED:
        armijo, _ = wolfe_check(restriction.phi0, restriction.dphi0,
                                outcome.alpha, outcome.f_new,
                                float(np.dot(outcome.g_new, d)),
                                config.line_search.c1, config.line_search.c2)
        if not armijo:
            raise LineSearchStallError(
                f"line search stalled ({outcome.status.value}) with no "
                f"sufficient-decrease point at iteration {state.k + 1}")

    alpha = outcome.alpha
    s = alpha * d
    y = outcome.g_new - state.g
    x_new = state.x + alpha * d

    scale = 1.0
    if (config.h0_scaling == "scaled_identity"
            and counters.qn_iters == counters.update_skips):
        # No update has been applied yet in this run: rescale the
        # inherited H to match the observed curvature before the first
        # update.  If the update ends up skipped the scaling is
        # discarded with it.
        yy = float(np.dot(y, y))
        if yy > 0.0:
            scale = float(np.dot(y, s)) / yy
    update = propose_update(config.variant, H, s, y, state.g, alpha, scale=scale,
                            force_theta=config.force_theta,
                            force_tau=config.force_tau)
    counters.update_skips += update.skipped
    counters.tau_fallbacks += update.tau_fallback

    counters.qn_iters += 1
    new_state = SolverState(x=x_new, f=outcome.f_new, g=outcome.g_new,
                            H=update.H, k=state.k + 1)
    record = IterationRecord(
        k=new_state.k, f=new_state.f,
        gnorm_inf=norm_inf(new_state.g), gnorm_2=norm_2(new_state.g),
        alpha=alpha, theta=update.theta, tau=update.tau,
        ls_evals=outcome.n_evals, skipped=update.skipped,
        tau_fallback=update.tau_fallback, reset=reset)
    if observer is not None:
        observer(state, d, outcome, new_state, record)
    return new_state, record


def solve(problem, x0, config, observer=None):
    """Run to convergence, the iteration cap, or a line-search stall.

    Returns (trace, final_state, counters); trace.status is one of
    "converged", "max_iters", "line_search_failure".
    """
    counters = Counters()
    state = init_state(problem, x0, config)
    counters.f_evals += 1
    counters.g_evals += 1
    trace = ConvergenceTrace()
    while True:
        if convergence_check(state.g, config.grad_tol):
            trace.status = "converged"
            break
        if state.k >= config.max_iters:
            trace.status = "max_iters"
            break
        try:
            state, record = step(state, problem, config, counters, observer=observer)
        except LineSearchStallError:
            trace.status = "line_search_failure"
            break
        trace.records.append(record)
    return trace, state, counters
