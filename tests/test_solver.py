import numpy as np
import pytest

from ssbroyden import (
    Counters,
    EvaluationError,
    LineSearchParams,
    QuadraticProblem,
    RosenbrockProblem,
    SolverConfig,
    UpdateVariant,
    VARIANT_ORDER,
    convergence_check,
    init_state,
    make_quadratic,
    make_rosenbrock,
    propose_update,
    solve,
    step,
)

from conftest import CountingObjective
from oracles import gaussian_solve, reference_bfgs

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
])
def test_config_rejects_invalid_values(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


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

def test_convergence_check_boundary():
    tol = 1e-8
    assert convergence_check(np.zeros(3), tol)
    assert convergence_check(np.array([tol, 0.0]), tol)
    assert not convergence_check(np.array([2 * tol, 0.0]), tol)


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


def test_general_form_reproduces_bfgs_trajectory():
    # the dynamic-family machinery pinned at theta=0, tau=1 must follow
    # the dedicated rank-two path step for step
    rosen = make_rosenbrock(2)
    x0 = rosen.default_start()
    t_bfgs, _, _ = solve(rosen, x0, SolverConfig(variant="bfgs"))
    t_pinned, _, _ = solve(rosen, x0, SolverConfig(
        variant="ssbroyden", force_theta=0.0, force_tau=1.0))
    assert t_pinned.status == "converged"
    assert len(t_pinned.records) == len(t_bfgs.records)
    for ra, rb in zip(t_bfgs.records, t_pinned.records):
        assert abs(ra.f - rb.f) <= 1e-12 * max(1.0, abs(ra.f))
        assert abs(ra.gnorm_inf - rb.gnorm_inf) <= 1e-10
        assert ra.alpha == pytest.approx(rb.alpha, rel=1e-10, abs=1e-13)


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


# ------------------------------------------------------------ reset path

def test_indefinite_model_triggers_reset():
    quad = unit_quadratic()
    cfg = SolverConfig(variant="bfgs")
    state = init_state(quad, [3.0, 4.0], cfg)
    state.H = -np.eye(2)  # -H g is an ascent direction
    counters = Counters()
    new_state, record = step(state, quad, cfg, counters)
    assert record.reset
    assert np.allclose(new_state.x, 0.0, atol=1e-15)
    assert np.allclose(new_state.H, np.eye(2), atol=1e-12)


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
    new_state, record = step(state, quad, cfg, Counters())
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

class _SteepValley:
    """f(x) = -x + K x^2 with K so large the sufficient-decrease band
    lies below the line search's degenerate-interval floor."""

    dimension = 1

    def __init__(self, k=1e16):
        self.k = k

    def value_and_gradient(self, x):
        t = float(x[0])
        return -t + self.k * t * t, np.array([-1.0 + 2.0 * self.k * t])


def test_line_search_stall_reported_with_exact_accounting():
    trace, state, counters = solve(_SteepValley(), np.zeros(1),
                                   SolverConfig(variant="bfgs", max_iters=5))
    assert trace.status == "line_search_failure"
    assert trace.records == []
    assert counters.qn_iters == 0
    assert counters.f_evals == counters.g_evals == counters.ls_steps + 1
    assert counters.ls_steps > 0
    assert np.array_equal(state.x, np.zeros(1))  # no step was taken


# ------------------------------------------------------------ max iters

def test_iteration_cap_status():
    trace, _, counters = solve(make_rosenbrock(2), [-1.2, 1.0],
                               SolverConfig(variant="bfgs", max_iters=3))
    assert trace.status == "max_iters"
    assert counters.qn_iters == 3
    assert len(trace.records) == 3


# --------------------------------------------------------- error escape

class _PoisonAfter:
    dimension = 2

    def __init__(self, inner, healthy_calls):
        self.inner = inner
        self.left = healthy_calls

    def value_and_gradient(self, x):
        self.left -= 1
        if self.left < 0:
            return np.nan, np.full(2, np.nan)
        return self.inner.value_and_gradient(x)


def test_nonfinite_midrun_raises_evaluation_error():
    poisoned = _PoisonAfter(make_rosenbrock(2), healthy_calls=5)
    with pytest.raises(EvaluationError):
        solve(poisoned, [-1.2, 1.0], SolverConfig(variant="bfgs"))


# ------------------------------------------------------------- tuning

def test_custom_line_search_params_flow_through():
    cfg = SolverConfig(variant="bfgs",
                       line_search=LineSearchParams(c2=0.4))
    trace, _, _ = solve(make_rosenbrock(2), [-1.2, 1.0], cfg)
    assert trace.status == "converged"
