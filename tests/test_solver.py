import dataclasses
import tracemalloc

import numpy as np
import pytest

from ssbroyden import (
    Counters,
    DimensionMismatchError,
    EvaluationError,
    QuadraticProblem,
    SolverConfig,
    UpdateVariant,
    VARIANT_ORDER,
    init_state,
    make_pinn1d,
    make_quadratic,
    make_rosenbrock,
    solve,
)
from ssbroyden.solver import step
from ssbroyden.updates import propose_update

from conftest import CountingObjective, LogBarrier, SteepValley
from oracles import (direct_broyden_update, gaussian_solve, reference_bfgs,
                     scipy_bfgs_update)

# frozen reference trajectory: bfgs on the diag(1, 10) quadratic from [1, 1]
GOLDEN_BFGS_F = (0.40459540459540461, 3.270678150244208e-05, 0.0)


def unit_quadratic():
    return QuadraticProblem(np.ones(2))


# ---------------------------------------------------------------- config

def test_config_coerces_variant_strings():
    cfg = SolverConfig(variant="ssbroyden")
    assert cfg.variant is UpdateVariant.SSBROYDEN
    cfg = SolverConfig(variant=UpdateVariant.DFP)
    assert cfg.variant is UpdateVariant.DFP


@pytest.mark.parametrize("kwargs", [
    {"variant": "newton"},
    {"variant": "bfgs", "grad_tol": 0.0},
    {"variant": "bfgs", "max_iters": 0},
    {"variant": "bfgs", "h0_scaling": "hessian"},
    {"variant": "bfgs", "c1": 0.5, "c2": 0.3},  # ordering violated
    {"variant": "bfgs", "c1": 0.0},
    {"variant": "bfgs", "c2": 1.0},
    {"variant": "bfgs", "max_iters": 2.5},
    {"variant": "bfgs", "max_iters": True},
    {"variant": "bfgs", "grad_tol": float("inf")},
    {"variant": "bfgs", "grad_tol": float("nan")},
])
def test_config_rejects_invalid_values(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


def test_config_is_frozen():
    # a field set after construction would bypass the validation
    cfg = SolverConfig(variant="bfgs")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.c1 = 0.95
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.max_iters = 0
    assert cfg == SolverConfig(variant="bfgs")


def test_config_replace_validates_again():
    cfg = SolverConfig(variant="ssbroyden", max_iters=7)
    with pytest.raises(ValueError):
        dataclasses.replace(cfg, max_iters=0)
    with pytest.raises(ValueError):
        dataclasses.replace(cfg, c1=0.95)
    short = dataclasses.replace(cfg, max_iters=3)
    assert short.variant is UpdateVariant.SSBROYDEN
    assert (short.max_iters, cfg.max_iters) == (3, 7)


# ------------------------------------------------------------ init state

def test_init_state_unit_quadratic():
    cfg = SolverConfig(variant="bfgs")
    state = init_state(unit_quadratic(), [3.0, 4.0], cfg)
    assert state.f == 12.5
    assert np.array_equal(state.g, [3.0, 4.0])
    assert np.array_equal(state.H, np.eye(2))
    assert state.k == 0


def test_init_state_rosenbrock_start_value():
    cfg = SolverConfig(variant="bfgs")
    state = init_state(make_rosenbrock(2), np.array([-1.2, 1.0]), cfg)
    assert abs(state.f - 24.2) <= 1e-12


def test_init_state_rejects_nonfinite():
    cfg = SolverConfig(variant="bfgs")
    with pytest.raises(EvaluationError):
        init_state(unit_quadratic(), [np.nan, 0.0], cfg)


# ----------------------------------------------------------- convergence

class _Bowl:
    """Duck-typed f(x) = x^T x / 2, whose gradient is x itself."""

    dimension = 2

    def value_and_gradient(self, x):
        return 0.5 * float(x @ x), x.copy()


def test_solve_converges_at_gradient_tolerance_boundary():
    tol = 1e-8
    cfg = SolverConfig(variant="bfgs", grad_tol=tol)
    trace, _, counters = solve(_Bowl(), [tol, -0.5 * tol], cfg)
    assert trace.status == "converged"
    assert trace.records == [] and counters.qn_iters == 0
    trace, _, counters = solve(_Bowl(), [2 * tol, -0.5 * tol], cfg)
    assert trace.status == "converged"
    assert counters.qn_iters == len(trace.records) == 1
    assert trace.records[0].gnorm_inf <= tol


# ------------------------------------------------------------- one step

@pytest.mark.parametrize("variant", VARIANT_ORDER, ids=lambda v: v.value)
def test_single_newton_step_on_unit_quadratic(variant):
    trace, state, counters = solve(unit_quadratic(), [3.0, 4.0],
                                   SolverConfig(variant=variant))
    assert trace.status == "converged"
    assert counters.qn_iters == 1
    assert len(trace.records) == 1
    assert np.allclose(state.x, 0.0, atol=1e-15)
    rec = trace.records[0]
    assert rec.alpha == 1.0
    assert rec.k == 1
    # s = y here, so the updated model stays the identity
    assert np.allclose(state.H, np.eye(2), atol=1e-12)


# --------------------------------------------------------- golden traces

def test_bfgs_trace_matches_frozen_values():
    quad = QuadraticProblem(np.array([1.0, 10.0]))
    trace, state, counters = solve(quad, [1.0, 1.0], SolverConfig(variant="bfgs"))
    assert trace.status == "converged"
    assert counters.qn_iters == len(GOLDEN_BFGS_F)
    for rec, f_ref in zip(trace.records, GOLDEN_BFGS_F):
        assert abs(rec.f - f_ref) <= 1e-10 * max(1.0, abs(f_ref))


def test_bfgs_trace_matches_live_reference():
    quad = QuadraticProblem(np.array([1.0, 10.0]))
    trace, _, _ = solve(quad, [1.0, 1.0], SolverConfig(variant="bfgs"))
    ref = reference_bfgs(quad.value_and_gradient, np.array([1.0, 1.0]),
                         gtol=1e-8, max_iters=100)
    assert len(ref) == len(trace.records)
    for rec, f_ref in zip(trace.records, ref):
        assert abs(rec.f - f_ref) <= 1e-10 * max(1.0, abs(f_ref))


# ------------------------------------------------- descent and counters

@pytest.mark.parametrize("variant", VARIANT_ORDER, ids=lambda v: v.value)
@pytest.mark.parametrize("make", [lambda: make_quadratic(10),
                                  lambda: make_rosenbrock(2)],
                         ids=["quad10", "rosen2"])
def test_monotone_descent_and_accounting(variant, make):
    counted = CountingObjective(make())
    x0 = counted.inner.default_start()
    trace, state, counters = solve(counted, x0, SolverConfig(variant=variant,
                                                             max_iters=500))
    assert trace.status == "converged"
    f_prev = counted.inner.value_and_gradient(np.asarray(x0, dtype=float))[0]
    for rec in trace.records:
        assert rec.f < f_prev
        f_prev = rec.f
    assert counters.qn_iters == len(trace.records)
    assert counters.ls_steps == sum(rec.ls_evals for rec in trace.records)
    assert counters.f_evals == counters.ls_steps + 1
    assert counters.g_evals == counters.f_evals
    assert counted.calls == counters.f_evals


def test_counters_are_frozen():
    # derived once from the records, so they cannot drift from them
    _, _, counters = solve(unit_quadratic(), [3.0, 4.0], SolverConfig(variant="bfgs"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        counters.qn_iters += 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        counters.update_skips = 0
    assert counters == Counters(qn_iters=1, f_evals=2, g_evals=2, ls_steps=1)


# ------------------------------------------------------- tiny scales

@pytest.mark.parametrize("variant", VARIANT_ORDER, ids=lambda v: v.value)
def test_update_at_tiny_scales_keeps_h_finite(variant):
    # with grad_tol far below what the quadratic can reach, y^T s shrinks
    # until rho^2 y^T H y overflows and b underflows to 0; such updates
    # are skipped, so H stays finite and the run ends at its cap
    quad = make_quadratic(10)
    finite = []

    def observer(state, d, outcome, new_state, record):
        finite.append(bool(np.isfinite(new_state.H).all()))

    trace, _, counters = solve(quad, quad.default_start(),
                               SolverConfig(variant=variant, grad_tol=1e-300,
                                            max_iters=300),
                               observer=observer)
    assert trace.status in ("converged", "max_iters", "line_search_failure")
    assert len(finite) == len(trace.records) > 0 and all(finite)
    assert counters.update_skips > 0


# ---------------------------------------------------------- H in place

@pytest.mark.parametrize("variant", VARIANT_ORDER, ids=lambda v: v.value)
def test_step_updates_h_in_place(variant):
    # an applied update from an unscaled H overwrites the state's matrix;
    # a reset or a rescaled first H0 updates a new matrix and leaves the
    # state's H as it was
    quad = make_quadratic(10)
    cfg = SolverConfig(variant=variant)
    state = init_state(quad, quad.default_start(), cfg)
    H = state.H
    _, new_state, record = step(state, quad, cfg)
    assert not record.skipped and not record.reset
    assert new_state.H is H
    assert not np.array_equal(H, np.eye(10))

    state = new_state
    state.H = -np.eye(10)
    _, new_state, record = step(state, quad, cfg)
    assert record.reset and not record.skipped
    assert new_state.H is not state.H
    assert np.array_equal(state.H, -np.eye(10))

    cfg = SolverConfig(variant=variant, h0_scaling="scaled_identity")
    state = init_state(quad, quad.default_start(), cfg)
    _, new_state, record = step(state, quad, cfg)
    assert not record.skipped
    assert new_state.H is not state.H
    assert np.array_equal(state.H, np.eye(10))


@pytest.mark.parametrize("variant", ["bfgs", "dfp", "ssbroyden"])
def test_solve_holds_one_matrix(variant):
    # one variant per branch of the kernel (phi == 1, phi == 0, general):
    # five iterations at n = 300 keep one n x n matrix live, plus the
    # vectors, never a second H nor any update scratch of matrix size
    rosen = make_rosenbrock(300)
    x0 = rosen.default_start()
    cfg = SolverConfig(variant=variant, max_iters=5)
    tracemalloc.start()
    try:
        trace, state, _ = solve(rosen, x0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.status == "max_iters"
    assert not any(r.skipped or r.reset for r in trace.records)
    assert peak < state.H.nbytes + 64 * 1024


# ------------------------------------------------------------- oracles

@pytest.mark.parametrize("variant", VARIANT_ORDER, ids=lambda v: v.value)
def test_run_updates_match_direct_form_oracle(variant):
    # at every iteration of 20 on the paper-size network, where the
    # dynamic theta and the scale tau vary from step to step, the updated
    # H matches the inverse of the direct (B) form; the observer copies
    # each H, since the next step overwrites it
    pinn = make_pinn1d(m=8, n_interior=32)
    previous = [np.eye(pinn.dimension)]
    checked = []

    def observer(state, d, outcome, new_state, record):
        assert not (record.skipped or record.reset)
        ref = direct_broyden_update(previous[0], new_state.x - state.x,
                                    new_state.g - state.g, record.theta, record.tau)
        checked.append(np.max(np.abs(new_state.H - ref)) <= 1e-12 * np.max(np.abs(ref)))
        previous[0] = new_state.H.copy()

    solve(pinn, pinn.default_start(), SolverConfig(variant=variant, max_iters=20),
          observer=observer)
    assert len(checked) == 20 and all(checked)


@pytest.mark.parametrize("problem", [make_quadratic(10), make_rosenbrock(8)],
                         ids=["quad10", "rosen8"])
def test_scaled_identity_first_step_matches_scipy_auto_scale(problem):
    # scipy's BFGS rescales its identity by y^T s / y^T y before the first
    # update, as scaled_identity does
    pytest.importorskip("scipy.optimize")
    cfg = SolverConfig(variant="bfgs", h0_scaling="scaled_identity")
    state = init_state(problem, problem.default_start(), cfg)
    _, new_state, record = step(state, problem, cfg)
    assert not record.skipped
    ref = scipy_bfgs_update(None, new_state.x - state.x, new_state.g - state.g,
                            init_scale="auto")
    assert np.max(np.abs(new_state.H - ref)) <= 1e-14 * np.max(np.abs(ref))


# ------------------------------------------------------------ reset path

def test_indefinite_model_triggers_reset():
    quad = unit_quadratic()
    cfg = SolverConfig(variant="bfgs")
    state = init_state(quad, [3.0, 4.0], cfg)
    state.H = -np.eye(2)  # -H g is an ascent direction
    _, new_state, record = step(state, quad, cfg)
    assert record.reset
    assert np.allclose(new_state.x, 0.0, atol=1e-15)
    assert np.allclose(new_state.H, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("variant", VARIANT_ORDER, ids=lambda v: v.value)
def test_scaled_identity_rescales_identity_after_reset(variant):
    # mid-run, after an applied update, an indefinite H forces a reset;
    # the identity it restarts from is rescaled like the first H0
    quad = make_quadratic(10)
    cfg = SolverConfig(variant=variant, h0_scaling="scaled_identity")
    _, state, record = step(init_state(quad, quad.default_start(), cfg), quad, cfg)
    assert not record.skipped and not state.h_fresh
    state.H = -np.eye(10)
    _, new_state, record = step(state, quad, cfg)
    assert record.reset and not record.skipped
    s = record.alpha * -state.g
    y = new_state.g - state.g
    expected = propose_update(variant, np.eye(10), s, y, state.g, record.alpha,
                              scale=float(y @ s) / float(y @ y))
    assert np.array_equal(new_state.H, expected.H)
    assert not new_state.h_fresh


# -------------------------------------------------------- first-step H0

def test_scaled_identity_noop_when_curvature_is_unit():
    # on the unit quadratic y = s, so the rescale factor is exactly 1
    quad = unit_quadratic()
    t_plain, _, _ = solve(quad, [3.0, 4.0], SolverConfig(variant="ssbfgs"))
    t_scaled, _, _ = solve(quad, [3.0, 4.0],
                           SolverConfig(variant="ssbfgs",
                                        h0_scaling="scaled_identity"))
    assert t_plain.records == t_scaled.records


def first_scaled_step(variant):
    """One scaled_identity step on make_quadratic(10): (state, new_state,
    record, gamma, s, y)."""
    quad = make_quadratic(10)
    cfg = SolverConfig(variant=variant, h0_scaling="scaled_identity")
    state = init_state(quad, quad.default_start(), cfg)
    _, new_state, record = step(state, quad, cfg)
    s = new_state.x - state.x
    y = new_state.g - state.g
    return state, new_state, record, float(y @ s) / float(y @ y), s, y


def test_scaled_identity_first_step_matches_manual_rescale():
    for variant in VARIANT_ORDER:
        state, new_state, record, gamma, s, y = first_scaled_step(variant)
        assert not record.skipped
        expected = propose_update(variant, np.eye(10), s, y, state.g,
                                  record.alpha, scale=gamma)
        assert np.max(np.abs(new_state.H - expected.H)) <= 1e-12
        assert (record.theta, record.tau) == (expected.theta, expected.tau)


def test_scaled_identity_first_update_uses_scaled_b():
    # b = s^T H_work^-1 s / y^T s for the rescaled H_work = gamma * I,
    # not for the I that produced the direction
    for variant in VARIANT_ORDER:
        state, _, record, gamma, s, y = first_scaled_step(variant)
        assert abs(gamma - 1.0) > 0.5
        H_work = gamma * np.eye(10)
        result = propose_update(variant, np.eye(10), s, y, state.g,
                                record.alpha, scale=gamma)
        b_oracle = float(s @ gaussian_solve(H_work, s)) / float(y @ s)
        assert abs(result.coeffs.b - b_oracle) <= 1e-10 * b_oracle


def test_scaled_identity_still_converges():
    for variant in VARIANT_ORDER:
        trace, _, _ = solve(make_quadratic(10), make_quadratic(10).default_start(),
                            SolverConfig(variant=variant,
                                         h0_scaling="scaled_identity"))
        assert trace.status == "converged"


# ----------------------------------------------------------- stall path

def test_line_search_stall_reported_with_exact_accounting():
    # the failed search's evaluations are the one count no record carries
    counted = CountingObjective(SteepValley())
    trace, state, counters = solve(counted, np.zeros(1),
                                   SolverConfig(variant="bfgs", max_iters=5))
    assert trace.status == "line_search_failure"
    assert trace.records == []
    assert counters.qn_iters == 0
    assert counters.f_evals == counters.g_evals == counters.ls_steps + 1
    assert counters.ls_steps > 0
    assert counters.f_evals == counted.calls
    assert np.array_equal(state.x, np.zeros(1))  # no step was taken


# ------------------------------------------------------------ max iters

def test_iteration_cap_status():
    trace, _, counters = solve(make_rosenbrock(2), [-1.2, 1.0],
                               SolverConfig(variant="bfgs", max_iters=3))
    assert trace.status == "max_iters"
    assert counters.qn_iters == 3
    assert len(trace.records) == 3


# ---------------------------------------------- the evaluation boundary

class _BreaksAfter:
    """Duck-typed 2-D Rosenbrock (no ObjectiveFunction checks) whose
    evaluations pass through ``breaks(f, g)`` after ``healthy_calls``."""

    dimension = 2

    def __init__(self, healthy_calls, breaks):
        self.inner = make_rosenbrock(2)
        self.left = healthy_calls
        self.breaks = breaks

    def value_and_gradient(self, x):
        self.left -= 1
        f, g = self.inner.value_and_gradient(x)
        return self.breaks(f, g) if self.left < 0 else (f, g)


def _poison(f, g):
    return np.nan, np.full(2, np.nan)


def _truncate(f, g):
    return f, g[:1]


def test_nonfinite_start_raises_evaluation_error():
    with pytest.raises(EvaluationError):
        solve(_BreaksAfter(0, _poison), [-1.2, 1.0], SolverConfig(variant="bfgs"))


def test_nonfinite_midrun_ends_line_search_failure():
    # 13 healthy calls are the start point and the 8 + 3 + 1 trials of the
    # first three iterations; every trial of the fourth search is NaN, so
    # it is rejected trial by trial (1 bracket + 30 zoom trials) and the
    # run ends with the three records it made, not with an exception
    cfg = SolverConfig(variant="bfgs")
    plain, _, _ = solve(make_rosenbrock(2), [-1.2, 1.0], cfg)
    assert [r.ls_evals for r in plain.records[:3]] == [8, 3, 1]
    poisoned = _BreaksAfter(13, _poison)
    trace, state, counters = solve(poisoned, [-1.2, 1.0], cfg)
    assert trace.status == "line_search_failure"
    assert trace.records == plain.records[:3]
    assert counters == Counters(qn_iters=3, f_evals=44, g_evals=44, ls_steps=43,
                                update_skips=0, tau_fallbacks=0)
    assert poisoned.left == 13 - counters.f_evals
    assert state.k == 3 and np.isfinite(state.H).all()


@pytest.mark.parametrize("variant", VARIANT_ORDER, ids=lambda v: v.value)
def test_nonfinite_trial_is_rejected_not_raised(variant):
    # the first unit step of each run leaves the barrier's domain; the
    # search backs off and every variant reaches the minimiser x = 0.1
    barrier = LogBarrier(4)
    trace, state, counters = solve(barrier, barrier.default_start(),
                                   SolverConfig(variant=variant))
    assert trace.status == "converged"
    assert [r.ls_evals for r in trace.records] == [5, 5, 1, 1, 1, 1, 1, 1, 1]
    assert counters == Counters(qn_iters=9, f_evals=18, g_evals=18, ls_steps=17,
                                update_skips=0, tau_fallbacks=0)
    assert np.max(np.abs(state.x - 0.1)) <= 1e-10


@pytest.mark.parametrize("healthy_calls", [0, 5], ids=["start", "midrun"])
def test_wrong_gradient_length_raises_dimension_mismatch(healthy_calls):
    with pytest.raises(DimensionMismatchError):
        solve(_BreaksAfter(healthy_calls, _truncate), [-1.2, 1.0],
              SolverConfig(variant="bfgs"))


class _SharedGradient:
    """Wrapper returning the inner gradient in one buffer it reuses."""

    def __init__(self, inner):
        self.inner = inner
        self.dimension = inner.dimension
        self.buffer = np.empty(inner.dimension)

    def value_and_gradient(self, x):
        f, g = self.inner.value_and_gradient(x)
        self.buffer[:] = g
        return f, self.buffer


@pytest.mark.parametrize("variant", VARIANT_ORDER, ids=lambda v: v.value)
def test_reused_gradient_buffer_is_not_aliased(variant):
    # the solver holds the gradients of two points at once; aliasing them
    # would make y = 0 and skip every update
    cfg = SolverConfig(variant=variant, max_iters=200)
    rosen = make_rosenbrock(8)
    trace, _, _ = solve(_SharedGradient(rosen), rosen.default_start(), cfg)
    plain, _, _ = solve(rosen, rosen.default_start(), cfg)
    assert trace.records == plain.records
    assert trace.status == plain.status


def test_list_gradient_is_coerced_on_every_evaluation():
    listed = _BreaksAfter(0, lambda f, g: (f, g.tolist()))
    cfg = SolverConfig(variant="bfgs", max_iters=5)
    trace, state, _ = solve(listed, [-1.2, 1.0], cfg)
    assert type(state.g) is np.ndarray and state.g.dtype == np.float64
    plain, _, _ = solve(make_rosenbrock(2), [-1.2, 1.0], cfg)
    assert trace.records == plain.records


# ------------------------------------------------------------- tuning

def test_custom_line_search_params_flow_through():
    cfg = SolverConfig(variant="bfgs", c2=0.4)
    trace, _, _ = solve(make_rosenbrock(2), [-1.2, 1.0], cfg)
    assert trace.status == "converged"
