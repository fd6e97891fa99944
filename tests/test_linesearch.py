import numpy as np
import pytest

from ssbroyden import RosenbrockProblem, SolverConfig, linesearch, make_quadratic, solve
from ssbroyden.linesearch import (
    LineSearchStatus,
    _Trial,
    interpolate_trial,
    search,
    wolfe_check,
)

from conftest import CountingObjective, LogBarrier, SteepValley

C1, C2 = 1e-4, 0.9


# ---------------------------------------------------------------- params

def test_params_defaults():
    cfg = SolverConfig(variant="bfgs")
    assert (cfg.c1, cfg.c2) == (C1, C2)
    assert linesearch.ALPHA_INIT == 1.0
    assert (linesearch.MAX_BRACKET_ITERS, linesearch.MAX_ZOOM_ITERS) == (20, 30)


# ----------------------------------------------------------- wolfe check

def test_wolfe_check_at_parabola_minimum():
    # phi(a) = (a-1)^2: at a=1 both conditions hold
    assert wolfe_check(1.0, -2.0, 1.0, 0.0, 0.0, 1e-4, 0.9) == (True, True)


def test_wolfe_check_small_step_fails_curvature():
    # near a=0 the slope is still steep
    a = 1e-8
    phi = (a - 1.0) ** 2
    dphi = 2.0 * (a - 1.0)
    armijo, curvature = wolfe_check(1.0, -2.0, a, phi, dphi, 1e-4, 0.9)
    assert armijo and not curvature


def test_wolfe_check_linear_never_satisfies_curvature():
    # phi(a) = -a keeps full slope forever
    armijo, curvature = wolfe_check(0.0, -1.0, 5.0, -5.0, -1.0, 1e-4, 0.9)
    assert armijo and not curvature


def test_wolfe_check_armijo_violation():
    armijo, _ = wolfe_check(1.0, -2.0, 2.0, 1.0001, 2.0, 1e-4, 0.9)
    assert not armijo


# --------------------------------------------------------- interpolation

def test_interpolate_symmetric_parabola_vertex():
    lo = _Trial(0.0, 1.0, -2.0, None)
    hi = _Trial(2.0, 1.0, 2.0, None)
    assert interpolate_trial(lo, hi) == 1.0


def test_interpolate_degenerate_fit_bisects():
    # data with a negative cubic discriminant falls back to the midpoint
    lo = _Trial(0.0, 1.0, -1.0, None)
    hi = _Trial(1.0, 1.0 - 2.0 / 3.0, -1.0, None)
    assert interpolate_trial(lo, hi) == 0.5
    # d1 = 1 and a zero radicand give a zero denominator
    hi = _Trial(1.0, 0.0, -1.0, None)
    assert interpolate_trial(lo, hi) == 0.5


def test_interpolate_clamps_vertex_into_band():
    # parabola phi(a) = (a - 0.01)^2 has its vertex outside the 10% band
    lo = _Trial(0.0, 1e-4, -0.02, None)
    hi = _Trial(1.0, 0.9801, 1.98, None)
    assert interpolate_trial(lo, hi) == 0.1


def test_interpolate_respects_interval_orientation():
    # same parabola handed in with the endpoints swapped
    lo = _Trial(1.0, 0.9801, 1.98, None)
    hi = _Trial(0.0, 1e-4, -0.02, None)
    out = interpolate_trial(lo, hi)
    assert out == 0.1


def test_interpolate_zero_width_bracket_returns_midpoint():
    # lo.alpha == hi.alpha: the cubic fit would divide by a_lo - a_hi = 0
    lo = _Trial(0.5, 1.0, -1.0, None)
    hi = _Trial(0.5, 0.9, 1.0, None)
    assert interpolate_trial(lo, hi) == 0.5


# ---------------------------------------------------------------- search

def test_search_quadratic_accepts_unit_step():
    quad = make_quadratic(2)
    x = np.array([3.0, 4.0])
    f0, g0 = quad.value_and_gradient(x)
    d = -np.linalg.solve(np.diag(quad.diag), g0)  # Newton step
    out = search(quad, x, d, f0, float(g0 @ d), C1, C2)
    assert out.status is LineSearchStatus.WOLFE_SATISFIED
    assert out.alpha == 1.0
    assert out.n_evals == 1
    assert out.f_new == 0.0


def test_search_rosenbrock_steepest_descent_pin():
    rosen = RosenbrockProblem(2)
    x = rosen.default_start()
    f0, g0 = rosen.value_and_gradient(x)
    out = search(rosen, x, -g0, f0, float(g0 @ -g0), C1, C2)
    assert out.status is LineSearchStatus.WOLFE_SATISFIED
    assert abs(out.alpha - 0.0007892073839786151) <= 1e-12
    assert out.f_new == pytest.approx(4.128138340789158, rel=1e-12)
    assert out.n_evals == 8
    # re-verify both inequalities from scratch
    phi_a, g_a = rosen.value_and_gradient(x - out.alpha * g0)
    dphi_a = float(g_a @ -g0)
    dphi0 = float(g0 @ -g0)
    assert phi_a <= f0 + 1e-4 * out.alpha * dphi0
    assert abs(dphi_a) <= 0.9 * abs(dphi0)
    assert np.array_equal(g_a, out.g_new)


def test_search_eval_accounting_and_determinism():
    counted = CountingObjective(RosenbrockProblem(2))
    x = counted.inner.default_start()
    f0, g0 = counted.value_and_gradient(x)
    counted.calls = 0
    out1 = search(counted, x, -g0, f0, float(g0 @ -g0), C1, C2)
    assert counted.calls == out1.n_evals
    out2 = search(counted, x, -g0, f0, float(g0 @ -g0), C1, C2)
    assert out1.alpha == out2.alpha
    assert out1.f_new == out2.f_new
    assert out1.n_evals == out2.n_evals
    assert out1.status is out2.status


class _Recording(CountingObjective):
    """CountingObjective that also keeps each trial point and value."""

    def __init__(self, inner):
        super().__init__(inner)
        self.trials = []

    def value_and_gradient(self, x):
        f, g = super().value_and_gradient(x)
        self.trials.append((x.copy(), f))
        return f, g


def assert_returns_start(out, f0, status, n_evals):
    """The outcome of a search that accepted no step: the ray's start."""
    assert out.status is status
    assert out.n_evals == n_evals
    assert out.alpha == 0.0
    assert out.f_new == f0
    assert out.g_new is None


def test_search_budget_exhaustion_falls_back(monkeypatch):
    monkeypatch.setattr(linesearch, "MAX_BRACKET_ITERS", 1)
    monkeypatch.setattr(linesearch, "MAX_ZOOM_ITERS", 1)
    rosen = _Recording(RosenbrockProblem(2))
    x = rosen.inner.default_start()
    f0, g0 = rosen.inner.value_and_gradient(x)
    dphi0 = float(g0 @ -g0)
    out = search(rosen, x, -g0, f0, dphi0, C1, C2)
    # neither trial passed Armijo: the start of the ray comes back
    assert_returns_start(out, f0, LineSearchStatus.MAX_ITERS_REACHED, 2)
    assert len(rosen.trials) == 2
    for point, phi in rosen.trials:
        alpha = float((point - x) @ -g0) / float(g0 @ g0)
        assert 0.0 < alpha <= 1.0
        assert phi > f0 + C1 * alpha * dphi0


def test_search_without_sufficient_decrease_says_so():
    # the Armijo band of the steep valley lies below the degenerate-
    # interval floor, so no trial passes and the start of the ray returns
    prob = _Recording(SteepValley())
    x = np.zeros(1)
    f0, g0 = prob.inner.value_and_gradient(x)
    dphi0 = float(g0 @ -g0)
    out = search(prob, x, -g0, f0, dphi0, C1, C2)
    assert_returns_start(out, f0, LineSearchStatus.DEGENERATE_INTERVAL, 16)
    assert prob.calls == 16
    for point, phi in prob.trials:
        alpha = float(point[0] / -g0[0])
        assert alpha > 0.0 and phi > f0 + C1 * alpha * dphi0


def test_search_along_a_slope_of_minus_inf_makes_no_trial():
    # phi(0) + c1 alpha phi'(0) is -inf for every alpha > 0, a bound no
    # trial meets, so the start of the ray comes back unevaluated
    prob = CountingObjective(RosenbrockProblem(2))
    x = prob.inner.default_start()
    f0, g0 = prob.inner.value_and_gradient(x)
    out = search(prob, x, -g0, f0, -np.inf, C1, C2)
    assert_returns_start(out, f0, LineSearchStatus.DEGENERATE_INTERVAL, 0)
    assert prob.calls == 0


def test_search_along_a_slope_of_minus_zero_makes_no_trial():
    # phi'(0) = -0, as -g has when g^T g underflows, is no descent slope:
    # both Wolfe conditions would hold with equality at a flat trial
    prob = CountingObjective(RosenbrockProblem(2))
    x = prob.inner.default_start()
    f0, g0 = prob.inner.value_and_gradient(x)
    out = search(prob, x, -g0, f0, -0.0, C1, C2)
    assert_returns_start(out, f0, LineSearchStatus.DEGENERATE_INTERVAL, 0)
    assert prob.calls == 0


class _FlatValley:
    """f(x) = 1e16 + 100 x^2: near its minimum f rounds to 1e16 exactly."""

    dimension = 1

    def value_and_gradient(self, x):
        t = float(x[0])
        return 1e16 + 100.0 * t * t, np.array([200.0 * t])


def test_search_keeps_armijo_trial_level_with_start():
    # From x = 0.01 every trial near the minimum rounds to phi(0) = 1e16,
    # which passes Armijo in floating point (f0 + c1 alpha phi'(0) rounds
    # to f0).  The first such trial is the step, not the start of the ray,
    # and the run converges on it.
    prob = _FlatValley()
    x = np.array([0.01])
    f0, g0 = prob.value_and_gradient(x)
    out = search(prob, x, -g0, f0, float(g0 @ -g0), C1, C2)
    assert out.status is LineSearchStatus.DEGENERATE_INTERVAL
    assert out.f_new == f0
    assert out.alpha == 0.010000000000000002 and out.n_evals == 22
    assert np.array_equal(out.g_new, prob.value_and_gradient(x - out.alpha * g0)[1])
    trace, _, counters = solve(prob, x, SolverConfig(variant="bfgs"))
    assert trace.status == "converged"
    assert (counters.qn_iters, counters.f_evals) == (2, 24)


class _LinearDrop:
    """f(x) = -sum(x): descends forever along d = ones."""

    dimension = 4

    def value_and_gradient(self, x):
        return float(-np.sum(x)), -np.ones_like(x)


def test_search_expansion_stops_at_bracket_budget():
    prob = _LinearDrop()
    x = np.zeros(4)
    f0, g0 = prob.value_and_gradient(x)
    out = search(prob, x, -g0, f0, float(g0 @ -g0), C1, C2)
    assert out.status is LineSearchStatus.MAX_ITERS_REACHED
    assert out.alpha == 2.0 ** 19  # a fallback that kept an Armijo step
    assert out.n_evals == 20  # doubling path 1, 2, ..., 2^19
    assert out.f_new == -4.0 * 2.0 ** 19


def test_search_backs_off_from_nonfinite_trial():
    # the unit step lands at x = 2 - 9.5 < 0, where f is NaN: that trial
    # is rejected and the zoom bisects back into the domain
    prob = CountingObjective(LogBarrier(1))
    x = prob.inner.default_start()
    f0, g0 = prob.inner.value_and_gradient(x)
    out = search(prob, x, -g0, f0, float(g0 @ -g0), C1, C2)
    assert out.status is LineSearchStatus.WOLFE_SATISFIED
    assert 0.0 < out.alpha < 2.0 / 9.5
    assert np.isfinite(out.f_new) and out.f_new < f0
    assert prob.calls == out.n_evals > 1


class _Poisoned:
    """Finite only at the origin, the start point the tests pass."""

    dimension = 2

    def value_and_gradient(self, x):
        return np.inf, np.full(2, np.nan)


def test_search_with_only_nonfinite_trials_says_so():
    # every trial is rejected: the first one opens the zoom, which halves
    # the bracket until its budget runs out, and the start of the ray is
    # returned
    prob = _Recording(_Poisoned())
    x = np.zeros(2)
    d = np.array([1.0, 0.0])
    out = search(prob, x, d, 0.0, -1.0, C1, C2)
    n_evals = 1 + linesearch.MAX_ZOOM_ITERS
    assert_returns_start(out, 0.0, LineSearchStatus.MAX_ITERS_REACHED, n_evals)
    assert prob.calls == n_evals
    assert [point[0] for point, _ in prob.trials] == [0.5 ** i for i in range(n_evals)]
    assert all(phi == np.inf for _, phi in prob.trials)
