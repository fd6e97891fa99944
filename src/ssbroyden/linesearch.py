"""Strong-Wolfe line search along a descent direction.

Two-phase scheme: a bracketing loop that expands the trial step by
factors of two until it either satisfies both Wolfe conditions or
brackets a suitable interval, followed by a zoom loop that shrinks the
bracket with safeguarded cubic interpolation until a point satisfying
the strong Wolfe conditions is found.

The search works on the ray phi(alpha) = f(x + alpha*d).  The caller
passes phi(0) and phi'(0) = g0^T d, which it has already computed for
its own descent test (``solver.step`` resets to -g a direction whose
slope is not negative and finite).  The search applies the same test:
along a slope that is not negative and finite, as -g has when g^T g
overflows (-inf) or underflows (-0), it returns the start of the ray
without a trial.  The only settings are the Wolfe constants c1 and c2,
which the caller passes from its ``SolverConfig``; the first trial and
the two trial budgets are the module constants below.  The bracketing
phase doubles the step at most ``MAX_BRACKET_ITERS - 1`` times, so no
trial exceeds ``ALPHA_INIT * 2**19``.

Every trial evaluates the objective value and gradient together, through
``core.evaluate``, the one door to the objective, so the per-search
evaluation count equals the number of trial steps.  A misshapen
gradient raises.  A rejected evaluation, f = inf, is a trial with
phi = inf and phi' = NaN: it fails sufficient decrease, so it caps the
bracket from above, and the cubic fit through it is not finite, so
:func:`interpolate_trial` bisects towards the last finite point.  The
search hands back only a step it accepted, else the start of the ray
(alpha = 0), so the caller does not re-test sufficient decrease.
"""

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import evaluate


# First trial step: the unit quasi-Newton step is tried first.
ALPHA_INIT = 1.0
# Trial budgets of the bracketing and zoom phases.
MAX_BRACKET_ITERS = 20
MAX_ZOOM_ITERS = 30


class LineSearchStatus(enum.Enum):
    WOLFE_SATISFIED = "wolfe_satisfied"
    MAX_ITERS_REACHED = "max_iters_reached"
    DEGENERATE_INTERVAL = "degenerate_interval"


@dataclass
class LineSearchOutcome:
    """Result of one search: the chosen step and its evaluation data.

    A search with no trial of sufficient decrease returns the start of
    the ray: ``alpha = 0``, ``f_new = phi(0)`` and ``g_new = None``;
    ``alpha > 0`` says a step was accepted.
    """

    alpha: float
    f_new: float
    g_new: Optional[np.ndarray]
    n_evals: int
    status: LineSearchStatus


class _Trial(NamedTuple):
    alpha: float
    phi: float
    dphi: float
    g: Optional[np.ndarray]


def wolfe_check(phi0, dphi0, alpha, phi_a, dphi_a, c1, c2):
    """Evaluate both strong Wolfe conditions at a trial step.

    Returns ``(armijo, curvature)`` where armijo is the sufficient
    decrease test phi(a) <= phi(0) + c1*a*phi'(0) and curvature is
    |phi'(a)| <= c2*|phi'(0)|.
    """
    armijo = phi_a <= phi0 + c1 * alpha * dphi0
    curvature = abs(dphi_a) <= c2 * abs(dphi0)
    return armijo, curvature


def interpolate_trial(lo, hi):
    """Next trial inside the bracket, by cubic Hermite interpolation.

    Fits the cubic matching value and slope at both endpoints and takes
    its interior minimiser, clamped into the central 80% of the interval
    so the bracket width shrinks geometrically.  Degenerate fits (no
    interior minimiser, zero denominator, non-finite result) fall back
    to the midpoint.
    """
    a_lo, a_hi = lo.alpha, hi.alpha
    midpoint = 0.5 * (a_lo + a_hi)
    width = abs(a_hi - a_lo)
    if width <= 0.0:
        return midpoint
    lower = min(a_lo, a_hi) + 0.1 * width
    upper = max(a_lo, a_hi) - 0.1 * width
    d1 = lo.dphi + hi.dphi - 3.0 * (lo.phi - hi.phi) / (a_lo - a_hi)
    radicand = d1 * d1 - lo.dphi * hi.dphi
    if radicand < 0.0:
        return midpoint
    d2 = math.copysign(math.sqrt(radicand), a_hi - a_lo)
    denom = hi.dphi - lo.dphi + 2.0 * d2
    if denom == 0.0:
        return midpoint
    alpha = a_hi - (a_hi - a_lo) * (hi.dphi + d2 - d1) / denom
    if not math.isfinite(alpha):
        return midpoint
    return min(max(alpha, lower), upper)


def search(problem, x, d, f0, dphi0, c1, c2):
    """Find a step satisfying the strong Wolfe conditions along x + alpha*d.

    ``f0`` is the value at ``x`` and ``dphi0 = g0^T d`` the slope of the
    ray there, both of which the caller already paid for.  On success
    the outcome status is WOLFE_SATISFIED.  If the iteration budget runs
    out or the zoom bracket collapses, the sufficient-decrease trial
    with the lowest phi is returned, else the start of the ray (alpha =
    0, ``f0``, ``g_new=None``), with a status describing why the search
    stopped.  A ``dphi0`` that is not negative and finite is no descent
    slope, so the start of the ray comes back at once: no evaluation,
    DEGENERATE_INTERVAL.  At -inf the bound phi(0) + c1*alpha*phi'(0)
    is -inf for every step, which no trial meets; at -0, as when g^T g
    underflows, both Wolfe conditions hold with equality at a flat
    step, which would be accepted without descent.
    """
    n_evals = 0
    start = _Trial(0.0, f0, dphi0, None)
    best_armijo = start

    def try_step(alpha):
        nonlocal n_evals, best_armijo
        phi, g = evaluate(problem, x + alpha * d)
        dphi = float(np.dot(g, d)) if phi < math.inf else math.nan
        n_evals += 1
        trial = _Trial(alpha, phi, dphi, g)
        armijo, curvature = wolfe_check(f0, dphi0, alpha, phi, dphi, c1, c2)
        # The first Armijo trial replaces the start even at phi == f0
        # (a flat ray can pass Armijo in floating point); later ones only
        # with a lower phi.
        if armijo and (best_armijo is start or trial.phi < best_armijo.phi):
            best_armijo = trial
        return trial, armijo, curvature

    def outcome(trial, status):
        return LineSearchOutcome(alpha=trial.alpha, f_new=trial.phi,
                                 g_new=trial.g, n_evals=n_evals, status=status)

    if not -math.inf < dphi0 < 0.0:
        return outcome(start, LineSearchStatus.DEGENERATE_INTERVAL)

    def zoom(lo, hi):
        # Invariants: lo satisfies sufficient decrease with the lowest
        # phi so far, and lo.dphi * (hi.alpha - lo.alpha) < 0.
        for _ in range(MAX_ZOOM_ITERS):
            width = abs(hi.alpha - lo.alpha)
            if width <= 1e-14 * max(1.0, abs(lo.alpha), abs(hi.alpha)):
                return outcome(best_armijo, LineSearchStatus.DEGENERATE_INTERVAL)
            trial, armijo, curvature = try_step(interpolate_trial(lo, hi))
            if (not armijo) or trial.phi >= lo.phi:
                hi = trial
            else:
                if curvature:
                    return outcome(trial, LineSearchStatus.WOLFE_SATISFIED)
                if trial.dphi * (hi.alpha - lo.alpha) >= 0.0:
                    hi = lo
                lo = trial
        return outcome(best_armijo, LineSearchStatus.MAX_ITERS_REACHED)

    prev = start
    alpha = ALPHA_INIT
    for i in range(MAX_BRACKET_ITERS):
        trial, armijo, curvature = try_step(alpha)
        if (not armijo) or (i > 0 and trial.phi >= prev.phi):
            return zoom(prev, trial)
        if curvature:
            return outcome(trial, LineSearchStatus.WOLFE_SATISFIED)
        if trial.dphi >= 0.0:
            return zoom(trial, prev)
        prev = trial
        alpha *= 2.0
    return outcome(best_armijo, LineSearchStatus.MAX_ITERS_REACHED)
