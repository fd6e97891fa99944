"""Quasi-Newton driver: directions, line search, updates, accounting.

One iteration is: form d = -H g, line-search along d for a strong-Wolfe
step, move, then update H from the displacement/gradient-change pair
via the configured family member.  The iteration records are the one
account of a run: ``solve`` derives ``Counters`` from them, separating
outer quasi-Newton iterations from inner line-search trials, so cost
comparisons between variants are meaningful.

Robustness policy: a non-descent direction resets H to the identity; a
pair failing the curvature guard, a lost positive-definiteness
diagnosis, a pair too small for the update's terms to stay finite, or
a singular mixing weight skips the update; a degenerate scale factor
falls back to tau = 1 but still applies the update.  All of these
events are flagged in the iteration records and counted from them.

Checks happen where a fact enters, once: ``SolverConfig`` validates
the run settings, ``solve``/``init_state`` coerce the start point with
``as_vector``, every objective evaluation goes through
``core.evaluate``, the one door to the objective (gradient of the start
point's shape, f = inf for a non-finite result), and the line search
hands back only a step it accepted.

Events inside an iteration are values, not exceptions: the line search
rejects a trial with f = inf like any trial that fails sufficient
decrease, ``step`` returns no new state for a search that returns the
start of its ray (alpha = 0), which ends the run as
``line_search_failure``, and the update chain reports a skip reason.
Exceptions are kept for what leaves ``solve``:
``DimensionMismatchError`` from an evaluation, ``EvaluationError`` from
a non-finite start point, which leaves nothing to back off to, and
``ValueError`` from ``SolverConfig``.

Each derived number of an iteration is computed once: ``step`` forms
the slope g^T d for its descent test and hands it to the search as
phi'(0), and the gradient's infinity norm in the iteration record is
the one ``solve`` tests for convergence.
"""

from dataclasses import dataclass, field
from typing import Callable, List, Union

import numpy as np

from .core import EvaluationError, as_vector, evaluate, matvec, norm_2, norm_inf
from .linesearch import search
from .updates import UpdateVariant, propose_update

H0_SCALINGS = ("identity", "scaled_identity")


@dataclass(frozen=True)
class SolverConfig:
    """Run configuration, validated once when constructed.

    c1 and c2 are the line search's sufficient-decrease and curvature
    constants, with 0 < c1 < c2 < 1.  The config is frozen, so its
    fields cannot change after validation; derive a changed copy with
    ``dataclasses.replace``, which validates it again.  The class-level
    field defaults are the library's run defaults, which the ``bench``
    CLI also uses.
    """

    variant: Union[UpdateVariant, str]
    grad_tol: float = 1e-8
    max_iters: int = 1000
    c1: float = 1e-4
    c2: float = 0.9
    h0_scaling: str = "identity"

    def __post_init__(self):
        object.__setattr__(self, "variant", UpdateVariant(self.variant))
        if not 0.0 < self.grad_tol < np.inf:
            raise ValueError(f"grad_tol must be positive and finite, got {self.grad_tol:g}")
        if (isinstance(self.max_iters, bool)
                or not isinstance(self.max_iters, (int, np.integer))):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if not 0.0 < self.c1 < self.c2 < 1.0:
            raise ValueError(
                f"need 0 < c1 < c2 < 1, got c1={self.c1:g}, c2={self.c2:g}")
        if self.h0_scaling not in H0_SCALINGS:
            raise ValueError(f"h0_scaling must be one of {H0_SCALINGS}")


@dataclass
class SolverState:
    """Iterate data: point, value, gradient, inverse-Hessian approximation.

    ``h_fresh`` is True while ``H`` is an identity the solver (re)started
    from and no update has been applied to it since: at the start point
    and after a reset.  Under ``scaled_identity`` such an ``H`` is
    rescaled before it is updated.

    ``step`` consumes the state's ``H``: an applied unscaled update
    overwrites it, so the next state shares it (``new_state.H is
    state.H``).  Copy ``H`` to keep the matrix of an earlier iterate.
    """

    x: np.ndarray
    f: float
    g: np.ndarray
    H: np.ndarray
    k: int = 0
    h_fresh: bool = True


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


@dataclass(frozen=True)
class Counters:
    """Evaluation and event accounting for one run, derived from its records.

    ls_steps counts every line-search trial evaluation; f_evals and
    g_evals additionally include the single evaluation at the start
    point, so f_evals = g_evals = ls_steps + 1 on a completed run.
    ``solve`` builds them once, at the end, with :meth:`of`.
    """

    qn_iters: int = 0
    f_evals: int = 0
    g_evals: int = 0
    ls_steps: int = 0
    update_skips: int = 0
    tau_fallbacks: int = 0

    @classmethod
    def of(cls, records, failed_evals):
        """Counters of ``records`` plus a final failed search's evaluations."""
        ls_steps = sum(r.ls_evals for r in records) + failed_evals
        return cls(qn_iters=len(records), f_evals=ls_steps + 1,
                   g_evals=ls_steps + 1, ls_steps=ls_steps,
                   update_skips=sum(r.skipped for r in records),
                   tau_fallbacks=sum(r.tau_fallback for r in records))


@dataclass
class ConvergenceTrace:
    """Ordered iteration records plus the terminal status of the run."""

    records: List[IterationRecord] = field(default_factory=list)
    status: str = "incomplete"


# Called by ``step`` as observer(state, d, outcome, new_state, record)
# after the update; ``state.H`` is then already the updated matrix when
# the update was applied in place (see ``SolverState``).
Observer = Callable[[SolverState, np.ndarray, object, SolverState, IterationRecord], None]


def init_state(problem, x0, config):
    """Evaluate the start point and set H to the identity.

    Raises DimensionMismatchError when x0 is not a vector of length
    ``problem.dimension`` or the gradient has another shape, and
    EvaluationError when the value or gradient is not finite.

    The scaled_identity strategy does not change H here; the scale
    factor needs a (s, y) pair, so ``step`` applies it to the fresh H
    when it first updates it.
    """
    x = as_vector(x0, problem.dimension)
    f, g = evaluate(problem, x)
    if f == np.inf:
        raise EvaluationError(
            f"{type(problem).__name__} produced a non-finite value or gradient")
    return SolverState(x=x, f=f, g=g, H=np.eye(x.shape[0]), k=0)


def step(state, problem, config, observer=None):
    """One outer iteration; returns (outcome, new_state, record).

    ``new_state`` and ``record`` are None when the line search finds no
    sufficient-decrease point and returns the start of its ray
    (``outcome.alpha == 0``); its ``outcome.n_evals`` is then the one
    account of the failed search's evaluations.

    The step consumes ``state.H``.  An applied update that needs no
    rescale writes H' over it, so ``new_state.H is state.H`` and an
    observer sees the updated matrix as ``state.H`` too.  After a reset,
    a skipped update or a rescaled fresh identity, ``state.H`` is left
    as it was.
    """
    n = state.x.shape[0]
    H = state.H
    h_fresh = state.h_fresh
    d = -matvec(H, state.g)
    dphi0 = float(np.dot(state.g, d))
    reset = False
    if dphi0 >= 0.0:
        # H no longer maps the gradient to a descent direction: restart
        # the curvature model from scratch.  The search relies on this
        # and does not re-test descent.
        H = np.eye(n)
        h_fresh = True
        d = -state.g
        dphi0 = float(np.dot(state.g, d))
        reset = True

    outcome = search(problem, state.x, d, state.f, dphi0, config.c1, config.c2)
    if not outcome.sufficient_decrease:
        return outcome, None, None

    alpha = outcome.alpha
    s = alpha * d
    y = outcome.g_new - state.g
    x_new = state.x + s

    scale = 1.0
    if config.h0_scaling == "scaled_identity" and h_fresh:
        # H is the identity the run (re)started from: rescale it to
        # match the observed curvature before updating it (Nocedal &
        # Wright, eq. 6.20).  If the update ends up skipped the scaling
        # is discarded with it.
        yy = float(np.dot(y, y))
        if yy > 0.0:
            scale = float(np.dot(y, s)) / yy
    update = propose_update(config.variant, H, s, y, state.g, alpha, scale=scale)
    skipped = update.skip_reason is not None
    new_state = SolverState(x=x_new, f=outcome.f_new, g=outcome.g_new,
                            H=update.H, k=state.k + 1,
                            h_fresh=h_fresh and skipped)
    record = IterationRecord(
        k=new_state.k, f=new_state.f,
        gnorm_inf=norm_inf(new_state.g), gnorm_2=norm_2(new_state.g),
        alpha=alpha, theta=update.theta, tau=update.tau,
        ls_evals=outcome.n_evals, skipped=skipped,
        tau_fallback=update.tau_fallback, reset=reset)
    if observer is not None:
        observer(state, d, outcome, new_state, record)
    return outcome, new_state, record


def solve(problem, x0, config, observer=None):
    """Run to convergence, the iteration cap, or a line-search stall.

    Returns (trace, final_state, counters); trace.status is one of
    "converged", "max_iters", "line_search_failure".  Raises
    DimensionMismatchError for a start point or a gradient of the wrong
    shape and EvaluationError for a non-finite value or gradient at the
    start point.  A non-finite trial of the line search is rejected and
    counted like any other trial; a search whose trials leave no point
    of sufficient decrease ends the run as "line_search_failure".
    """
    state = init_state(problem, x0, config)
    trace = ConvergenceTrace()
    failed_evals = 0
    gnorm = norm_inf(state.g)
    while True:
        if gnorm <= config.grad_tol:
            trace.status = "converged"
            break
        if state.k >= config.max_iters:
            trace.status = "max_iters"
            break
        outcome, new_state, record = step(state, problem, config, observer=observer)
        if record is None:
            trace.status = "line_search_failure"
            failed_evals = outcome.n_evals
            break
        state = new_state
        trace.records.append(record)
        gnorm = record.gnorm_inf
    return trace, state, Counters.of(trace.records, failed_evals)
