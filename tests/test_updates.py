import contextlib
import dataclasses
import itertools
import math
import os
import re
import subprocess
import sys
import sysconfig
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssbroyden import SolverConfig, VARIANT_ORDER, UpdateVariant, make_pinn1d
from ssbroyden import updates
from ssbroyden.solver import init_state, step
from ssbroyden.updates import (
    UpdateCoefficients,
    apply_update,
    compute_base_coefficients,
    compute_phi,
    compute_tau,
    compute_theta,
    curvature_guard,
    propose_update,
)

import kernel_ab
from conftest import (base_coefficients, expression_update, family_update, numpy_flags, propose,
                      quasi_newton_instance)
from oracles import (direct_broyden_update, gaussian_solve, jacobi_eigenvalues,
                     scipy_bfgs_update, sigma_from_determinants, theta_bounds)

ALL_VARIANTS = list(VARIANT_ORDER)
DYNAMIC = [UpdateVariant.BROYDEN, UpdateVariant.SSBROYDEN]


def make_coeffs(**kw):
    base = dict(ys=1.0, rho=1.0, h=1.0, b=1.0, a=0.0, c=0.0,
                Hy=np.zeros(2), yHy=1.0)
    base.update(kw)
    return UpdateCoefficients(**base)


# ---------------------------------------------------------------- variants

def test_variant_enumeration_and_flags():
    assert [v.value for v in VARIANT_ORDER] == [
        "bfgs", "ssbfgs", "dfp", "ssdfp", "broyden", "ssbroyden"]
    assert UpdateVariant.BFGS.fixed_theta == 0.0
    assert UpdateVariant.SSBFGS.fixed_theta == 0.0
    assert UpdateVariant.DFP.fixed_theta == 1.0
    assert UpdateVariant.SSDFP.fixed_theta == 1.0
    assert UpdateVariant.BROYDEN.fixed_theta is None
    assert UpdateVariant.SSBROYDEN.fixed_theta is None
    assert [v.self_scaled for v in VARIANT_ORDER] == [
        False, True, False, True, False, True]


# ------------------------------------------------------- base coefficients

def test_base_coefficients_identity_pair():
    # s = y with H = I collapses every ratio to 1
    s = np.array([1.0, 0.0])
    c = compute_base_coefficients(np.eye(2), s, s, 1.0, -s, 1.0)
    assert c.ys == 1.0
    assert c.rho == 1.0
    assert c.h == 1.0
    assert c.b == 1.0
    assert c.a == 0.0
    assert c.c == 0.0


def test_base_coefficients_hand_case():
    # H=I, y=[1,0], s=[2,0] from alpha=2, g_prev=[-1,0]
    c = compute_base_coefficients(np.eye(2), np.array([2.0, 0.0]),
                                  np.array([1.0, 0.0]), 2.0,
                                  np.array([-1.0, 0.0]), 2.0)
    assert c.rho == 0.5
    assert c.h == 0.5
    assert c.b == 2.0
    assert c.a == 0.0
    assert c.c == 0.0


def test_base_coefficients_lost_pd_returns_none():
    s = np.array([1.0, 0.0])
    assert compute_base_coefficients(-np.eye(2), s, s, 1.0, -s, 1.0) is None


def test_b_matches_linear_solve_oracle(instance_suite):
    # b from the direction identity vs the explicit (s^T H^-1 s)/(y^T s)
    for inst in instance_suite[:50]:
        c = base_coefficients(inst)
        z = gaussian_solve(inst["H"], inst["s"])
        b_oracle = float(inst["s"] @ z) / float(inst["y"] @ inst["s"])
        assert abs(c.b - b_oracle) <= 1e-10 * max(1.0, abs(b_oracle))


def test_a_nonnegative_before_clamp(instance_suite):
    for inst in instance_suite:
        c = base_coefficients(inst)
        assert c.b * c.h - 1.0 >= -1e-12
        assert c.a >= 0.0


# ----------------------------------------------------------------- theta

def test_theta_fixed_variants():
    coeffs = make_coeffs(h=3.0, b=2.0, a=5.0, c=0.9)
    for variant, expected in [(UpdateVariant.BFGS, 0.0),
                              (UpdateVariant.SSBFGS, 0.0),
                              (UpdateVariant.DFP, 1.0),
                              (UpdateVariant.SSDFP, 1.0)]:
        assert compute_theta(variant, coeffs) == expected


def test_theta_dynamic_worked_case():
    # h=2, b=2 -> a=3, c=sqrt(3/4): rho- = 2 - sqrt(3), and the unclamped
    # value (1-b)/b = -0.5 lies below theta- = (rho- - 1)/a = (1 - sqrt(3))/3
    coeffs = make_coeffs(h=2.0, b=2.0, a=3.0, c=math.sqrt(0.75))
    theta = compute_theta(UpdateVariant.SSBROYDEN, coeffs)
    assert abs(theta - (1.0 - math.sqrt(3.0)) / 3.0) <= 1e-15


def test_theta_clamped_to_upper_bound():
    # h=3, b=0.4, a=0.2: rho- = min(1, 3 (1 - c)) = 1, so theta+ = 1 lies
    # below the unclamped value (1-b)/b = 1.5
    coeffs = make_coeffs(h=3.0, b=0.4, a=0.2, c=math.sqrt(0.2 / 1.2))
    assert compute_theta(UpdateVariant.BROYDEN, coeffs) == 1.0


def test_theta_degenerate_a_clamps_to_zero():
    # theta- collapses to 0; (1-b)/b = -0.5 is clamped up to it
    coeffs = make_coeffs(h=0.5, b=2.0, a=0.0, c=0.0)
    assert compute_theta(UpdateVariant.BROYDEN, coeffs) == 0.0


def test_theta_clamped_within_bounds(instance_suite, interior_theta_suite):
    # the bounds come from the oracle's b and h, not from the library
    checked = 0
    for inst in instance_suite + interior_theta_suite:
        t_minus, t_plus, a = theta_bounds(inst["H"], inst["s"], inst["y"])
        if a <= 1e-12:
            continue
        coeffs = base_coefficients(inst)
        for variant in DYNAMIC:
            theta = compute_theta(variant, coeffs)
            assert t_minus - 1e-9 * max(1.0, abs(t_minus)) <= theta
            assert theta <= t_plus + 1e-9 * max(1.0, abs(t_plus))
            checked += 1
    assert checked > 0


def test_interior_theta_suite_separates_variants(interior_theta_suite):
    # the suite the tests above share with instance_suite exercises the
    # dynamic theta and the self-scaling tau: broyden is not dfp, and
    # ssbfgs is not bfgs, on nearly every instance
    def differ(a, b, inst):
        return not np.array_equal(propose(a, inst), propose(b, inst))

    dynamic = sum(differ(UpdateVariant.BROYDEN, UpdateVariant.DFP, inst)
                  for inst in interior_theta_suite)
    scaled = sum(differ(UpdateVariant.SSBFGS, UpdateVariant.BFGS, inst)
                 for inst in interior_theta_suite)
    assert len(interior_theta_suite) == 100
    assert dynamic >= 90 and scaled >= 90, (dynamic, scaled)
    for inst in interior_theta_suite:
        assert 0.0 != compute_theta(UpdateVariant.BROYDEN,
                                    base_coefficients(inst)) != 1.0


def test_theta_plus_unbounded_when_rho_minus_vanishes():
    # a = b h - 1 ~ 1e16, so c = sqrt(a / (1 + a)) rounds to 1 and
    # rho_minus = h (1 - c) is 0: theta_plus = 1/rho_minus is +inf, not a
    # ZeroDivisionError, and the pair ends in the named singular_phi skip
    H = np.diag([1.0, 1e-6])
    s = np.array([1.0, 1.0])
    y = np.array([1.0, -1.0 + 1e-5])
    g_prev = -np.linalg.solve(H, s)
    assert curvature_guard(s, y, float(np.dot(y, s)))
    before = H.tobytes()
    for variant in DYNAMIC:
        result = propose_update(variant, H, s, y, g_prev, 1.0)
        assert result.coeffs.a > 4.5e15 and result.coeffs.c == 1.0
        assert result.skip_reason == "singular_phi"
        assert H.tobytes() == before
        assert math.isfinite(result.theta)


# ------------------------------------------------------------------- tau

def test_tau_unscaled_variants_are_one():
    # returned before any sigma arithmetic: b = 0 would divide by zero
    for coeffs in (make_coeffs(h=2.0, b=3.0, a=5.0), make_coeffs(b=0.0)):
        for variant in (UpdateVariant.BFGS, UpdateVariant.DFP, UpdateVariant.BROYDEN):
            assert compute_tau(variant, 0.5, coeffs, 4) == 1.0


def test_tau_identity_pair_is_one():
    coeffs = make_coeffs(b=1.0, a=0.0)
    assert compute_tau(UpdateVariant.SSBFGS, 0.0, coeffs, 2) == 1.0


def test_tau_nonpositive_theta_branch():
    # theta=0, b=2, a=1: rho+ = 0.5, sigma = 1, tau = min(rho+ sigma_pow, sigma)
    coeffs = make_coeffs(b=2.0, a=1.0)
    assert compute_tau(UpdateVariant.SSBFGS, 0.0, coeffs, 11) == 0.5


def test_tau_positive_theta_branch():
    # theta=1, b=2, a=1, N=3: sigma=2, sigma_pow=2^(-1/2), tau=0.5*2^(-1/2)
    coeffs = make_coeffs(b=2.0, a=1.0)
    tau = compute_tau(UpdateVariant.SSDFP, 1.0, coeffs, 3)
    assert abs(tau - 0.5 / math.sqrt(2.0)) <= 1e-15


def test_tau_dimension_one_exponent():
    # n=1: the exponent 1/(1-n) would divide by zero, so sigma_pow is 1;
    # theta=0.5, b=2, a=1 gives tau = rho+ min(1, 1/theta) = 0.5
    coeffs = make_coeffs(b=2.0, a=1.0)
    assert compute_tau(UpdateVariant.SSBROYDEN, 0.5, coeffs, 1) == 0.5


def test_tau_zero_sigma_degenerates():
    # theta=-1, a=1 -> sigma=0 -> tau collapses below the floor
    coeffs = make_coeffs(b=2.0, a=1.0)
    assert compute_tau(UpdateVariant.SSBFGS, -1.0, coeffs, 4) is None


def test_tau_tiny_positive_sigma_degenerates():
    coeffs = make_coeffs(b=2.0, a=1.0 - 1e-9)
    assert compute_tau(UpdateVariant.SSBFGS, -1.0, coeffs, 4) is None


SELF_SCALED = [v for v in ALL_VARIANTS if v.self_scaled]


def determinant_tau(H, s, y, theta):
    """tau rebuilt from sigma = b det(B') / det(B), which the library never
    computes, and b = s^T B s / y^T s from B = H^-1, with the case logic
    of the self-scaled Broyden class as the literature states it
    (Al-Baali 1998; Urban, Stefanou & Pons 2025): rho+ = min(1, 1/b),
    sigma^(1/(1-n)) taken as 1 at n = 1 and as 0 at sigma = 0, then
    tau = min(rho+ sigma^(1/(1-n)), sigma) for theta <= 0 and
    tau = rho+ min(sigma^(1/(1-n)), 1/theta) for theta > 0."""
    n = s.size
    sigma = sigma_from_determinants(H, s, y, theta)
    b = float(s @ gaussian_solve(H, s)) / float(y @ s)
    rho_plus = min(1.0, 1.0 / b)
    if n == 1:
        sigma_pow = 1.0
    elif sigma == 0.0:
        sigma_pow = 0.0
    else:
        sigma_pow = abs(sigma) ** (1.0 / (1.0 - n))
    if theta <= 0.0:
        return min(rho_plus * sigma_pow, sigma)
    return rho_plus * min(sigma_pow, 1.0 / theta)


@pytest.mark.parametrize("variant", SELF_SCALED, ids=lambda v: v.value)
def test_tau_matches_determinant_oracle(variant, instance_suite, interior_theta_suite):
    branches = {"theta <= 0": 0, "theta > 0": 0, "tau < 1": 0}
    for inst in instance_suite + interior_theta_suite:
        H, s, y, n = inst["H"], inst["s"], inst["y"], inst["n"]
        coeffs = base_coefficients(inst)
        theta = compute_theta(variant, coeffs)
        expected = determinant_tau(H, s, y, theta)
        tau = compute_tau(variant, theta, coeffs, n)
        assert tau is not None and expected > updates.TAU_MIN
        assert abs(tau - expected) <= 1e-11 * expected, (theta, tau, expected)
        branches["theta <= 0" if theta <= 0.0 else "theta > 0"] += 1
        branches["tau < 1"] += tau < 1.0 - 1e-12
    assert branches["tau < 1"] >= 90, branches
    if variant is UpdateVariant.SSBROYDEN:
        assert min(branches.values()) >= 50, branches


@pytest.mark.parametrize("m, n_interior", [(4, 16), (8, 32)])
@pytest.mark.parametrize("variant", SELF_SCALED, ids=lambda v: v.value)
def test_run_tau_matches_determinant_oracle(variant, m, n_interior):
    # along 20 iterations of a pinn1d run, each recorded tau against the
    # determinant oracle at the H the step started from (copied, since
    # the step overwrites it) and the step's own s and y
    problem = make_pinn1d(m=m, n_interior=n_interior)
    config = SolverConfig(variant=variant, max_iters=20)
    state = init_state(problem, problem.default_start(), config)
    taus = []
    for _ in range(20):
        H = state.H.copy()
        outcome, new_state, record = step(state, problem, config)
        assert not (record.skipped or record.reset or record.tau_fallback)
        s = outcome.alpha * -(H @ state.g)
        expected = determinant_tau(H, s, new_state.g - state.g, record.theta)
        assert abs(record.tau - expected) <= 1e-11 * expected, (record.k, record.tau, expected)
        taus.append(record.tau)
        state = new_state
    assert any(tau < 1.0 - 1e-12 for tau in taus), taus  # ssbfgs: 2 or 3 of 20


# ------------------------------------------------------------------- phi

def test_phi_limits():
    assert compute_phi(0.0, 2.0, 3.0) == 1.0
    assert compute_phi(1.0, 2.0, 3.0) == 0.0


def test_phi_singular_denominator():
    # h*b - 1 = -0.5 and theta = 2 zero the denominator exactly
    assert compute_phi(2.0, 0.5, 1.0) is None


# --------------------------------------------------------------- updates

def woodbury_bfgs(H, s, y, rho, tau):
    """Literal triple-product form, written independently of the library."""
    n = s.size
    left = np.eye(n) - rho * np.outer(s, y)
    return (left @ H @ left.T) / tau + rho * np.outer(s, s)


def classic_dfp(H, s, y, tau):
    Hy = H @ y
    ys = float(y @ s)
    return (H - np.outer(Hy, Hy) / float(y @ Hy)) / tau + np.outer(s, s) / ys


def test_fixed_point_identity_all_variants():
    s = np.array([0.6, -0.8, 0.3])
    inst = {"H": np.eye(3), "s": s, "y": s.copy(), "g_prev": -s,
            "alpha": 1.0, "n": 3}
    for variant in ALL_VARIANTS:
        H_new = propose(variant, inst)
        assert np.allclose(H_new, np.eye(3), rtol=0, atol=1e-12)


def test_general_matches_woodbury_bfgs(instance_suite):
    for inst in instance_suite[:60]:
        rho = 1.0 / float(inst["y"] @ inst["s"])
        for tau in (1.0, 2.0):
            got = family_update(inst, theta=0.0, tau=tau)
            ref = woodbury_bfgs(inst["H"], inst["s"], inst["y"], rho, tau)
            assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_general_matches_classic_dfp(instance_suite):
    for inst in instance_suite[:60]:
        for tau in (1.0, 0.7):
            got = family_update(inst, theta=1.0, tau=tau)
            ref = classic_dfp(inst["H"], inst["s"], inst["y"], tau)
            assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_mixed_update_is_phi_blend_of_bfgs_and_dfp(instance_suite):
    # H_phi = (1 - phi) H_dfp + phi H_bfgs, with h and b from the oracles
    for inst in instance_suite[:60]:
        H, s, y = inst["H"], inst["s"], inst["y"]
        ys = float(y @ s)
        hb = float(y @ H @ y) * float(s @ gaussian_solve(H, s)) / ys ** 2
        for theta in (0.4, 1.7):
            phi = (1.0 - theta) / (1.0 + (hb - 1.0) * theta)
            ref = (phi * woodbury_bfgs(H, s, y, 1.0 / ys, 1.0)
                   + (1.0 - phi) * classic_dfp(H, s, y, 1.0))
            got = family_update(inst, theta=theta)
            assert np.max(np.abs(got - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
def test_update_matches_direct_form_oracle(variant, instance_suite,
                                           interior_theta_suite):
    # the inverse of the direct (B) form with the library's theta and tau:
    # checks phi, the duality of theta and phi, and the kernel's terms
    # against formulas the library does not contain
    for inst in instance_suite + interior_theta_suite:
        H = inst["H"].copy()
        result = propose_update(variant, H, inst["s"], inst["y"], inst["g_prev"],
                                inst["alpha"])
        assert result.skip_reason is None
        ref = direct_broyden_update(inst["H"], inst["s"], inst["y"],
                                    result.theta, result.tau)
        assert np.max(np.abs(H - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_bfgs_matches_scipy_oracle(instance_suite):
    pytest.importorskip("scipy.optimize")
    for inst in instance_suite:
        got = propose(UpdateVariant.BFGS, inst)
        ref = scipy_bfgs_update(inst["H"], inst["s"], inst["y"])
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
def test_secant_equation_full_suite(variant, instance_suite, interior_theta_suite):
    for inst in instance_suite + interior_theta_suite:
        H_new = propose(variant, inst)
        resid = np.max(np.abs(H_new @ inst["y"] - inst["s"]))
        assert resid <= 1e-10 * max(1.0, np.max(np.abs(inst["s"])))


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
def test_update_is_exactly_symmetric(variant, instance_suite, interior_theta_suite):
    for inst in instance_suite[:60] + interior_theta_suite:
        H_new = propose(variant, inst)
        assert np.array_equal(H_new, H_new.T)


def special_value_cases(inst):
    """``(H, s, coeffs)`` over ``kernel_ab``'s special-value grid of one
    instance; the scalars of ``coeffs`` may be 0, subnormal or infinite."""
    for _, H, s, y in kernel_ab.special_values(inst["H"], inst["s"], inst["y"]):
        yield H, s, kernel_ab.coefficients(updates, H, s, y)


@pytest.mark.parametrize("tau", [1.0, 0.7])
@pytest.mark.parametrize("phi", [1.0, 0.0, 0.4, -0.3])
def test_kernel_matches_expression_form_bitwise(phi, tau, instance_suite, sized_suite):
    # The kernel writes H' over its input matrix, must round exactly like
    # the expression form (the golden iteration counts depend on it) and
    # must only read its vectors, from n = 1 to n = 500.
    for i, inst in enumerate(instance_suite + sized_suite):
        H, s = inst["H"], inst["s"]
        coeffs = base_coefficients(inst)
        vectors = (s, coeffs.Hy)
        before = [a.tobytes() for a in vectors]
        ref = expression_update(H, s, coeffs, phi, tau)
        work = H.copy()
        got = apply_update(work, s, coeffs, phi, tau)
        assert got is work, f"instance {i}: result is not the input matrix"
        assert got.tobytes() == ref.tobytes(), f"instance {i}: rounds differently"
        for name, a, b in zip(("s", "Hy"), vectors, before):
            assert a.tobytes() == b, f"instance {i}: kernel wrote into {name}"
        assert np.array_equal(got, got.T), f"instance {i}: result not symmetric"
    # Signed zeros, subnormals, overflow to inf and the NaN it breeds:
    # every entry that is not NaN has the expression form's bits, signs of
    # zero and infinities included, and NaN sits in the same places.
    cases = 0
    for inst in instance_suite[1:12] + sized_suite[4:5]:
        for H, s, coeffs in special_value_cases(inst):
            with np.errstate(all="ignore"):
                ref = expression_update(H, s, coeffs, phi, tau)
                got = apply_update(H.copy(), s, coeffs, phi, tau)
            nan = np.isnan(ref)
            assert np.array_equal(np.isnan(got), nan), f"case {cases}: NaN moved"
            assert got[~nan].tobytes() == ref[~nan].tobytes(), f"case {cases}"
            assert got.tobytes() == got.T.copy().tobytes(), f"case {cases}: not symmetric"
            cases += 1
    assert cases == 12 * 25


@pytest.mark.parametrize("tau", [1.0, 0.7])
@pytest.mark.parametrize("phi", [1.0, 0.0, 0.4, -0.3])
def test_kernel_raises_the_expression_forms_flags(phi, tau, instance_suite, sized_suite):
    # The flags apply_update replays are the ones the expression form
    # raises, on the signed zeros, subnormals and infinities of the
    # special-value grid: no path forms a term the expression form does
    # not, and none drops one it forms.
    cases = 0
    for inst in instance_suite[1:12] + sized_suite[4:5]:
        for H, s, coeffs in special_value_cases(inst):
            ref = numpy_flags(expression_update, H, s, coeffs, phi, tau)
            got = numpy_flags(apply_update, H.copy(), s, coeffs, phi, tau)
            assert got == ref, f"case {cases}"
            cases += 1
    assert cases == 12 * 25


@pytest.mark.parametrize("tau", [1.0, 0.7])
def test_kernel_forms_only_the_weights_its_path_uses(tau, instance_suite):
    # rho^2 y^T H y = 1e400 overflows, but only the phi = 1 path uses it:
    # the phi = 0 path, whose s s^T rho term is ~1, raises nothing.
    inst = instance_suite[5]
    s = inst["s"] * (1e-100 / np.linalg.norm(inst["s"]))
    coeffs = dataclasses.replace(base_coefficients(inst), ys=1e-200, rho=1e200, yHy=1.0)
    for phi, flags in ((1.0, {"overflow"}), (0.0, set())):
        assert numpy_flags(expression_update, inst["H"], s, coeffs, phi, tau) == flags
        assert numpy_flags(apply_update, inst["H"].copy(), s, coeffs, phi, tau) == flags


@pytest.mark.parametrize("n", [1, 2, 25, 31, 33, 67, 128, 129, 160, 193, 300, 500])
def test_permuting_rows_and_columns_permutes_the_update_bitwise(n):
    # Every element of H gets the same operations wherever it falls:
    # permuting the rows and columns of H and the entries of s and Hy
    # permutes H' bit for bit, at sizes from 1 to 500 and across the
    # scaled and unscaled loops of each phi case.
    inst = quasi_newton_instance(np.random.default_rng(n), n)
    H, s = inst["H"], inst["s"]
    coeffs = base_coefficients(inst)
    p = np.random.default_rng(n + 1).permutation(n)
    moved = dataclasses.replace(coeffs, Hy=coeffs.Hy[p])
    for phi, tau in itertools.product((1.0, 0.0, 0.4), (1.0, 0.7)):
        got = apply_update(H.copy(), s, coeffs, phi, tau)
        got_moved = apply_update(H[np.ix_(p, p)], s[p], moved, phi, tau)
        assert got_moved.tobytes() == got[np.ix_(p, p)].tobytes(), (phi, tau)


@pytest.mark.parametrize("n", [4, 33, 67, 500])
def test_two_division_paths_read_no_lower_entry_outside_the_diagonal_blocks(n):
    # Where tau != 1 and phi != 1 the kernel reads H's upper triangle and
    # its 4 x 4 diagonal blocks only: NaN in every other entry below the
    # diagonal leaves H' bitwise the H' of the symmetric H.
    inst = quasi_newton_instance(np.random.default_rng(n), n)
    H, s = inst["H"], inst["s"]
    coeffs = base_coefficients(inst)
    block = np.arange(n) // 4
    for phi in (0.0, 0.4):
        poisoned = H.copy()
        poisoned[block[:, None] > block] = np.nan
        ref = apply_update(H.copy(), s, coeffs, phi, 0.7)
        got = apply_update(poisoned, s, coeffs, phi, 0.7)
        assert got.tobytes() == ref.tobytes(), phi


@pytest.mark.parametrize("phi", [1.0, 0.0, 0.4])
def test_kernel_holds_no_matrix_sized_scratch(phi, sized_suite):
    # One call at n = 300 (a 703 KiB matrix) writes the result over its
    # input and allocates nothing beyond the kernel's 2.4 KiB v scratch
    # and the small objects of the call.
    inst = sized_suite[3]  # n = 300
    H, s = inst["H"].copy(), inst["s"]
    n = inst["n"]
    coeffs = base_coefficients(inst)
    tracemalloc.start()
    try:
        apply_update(H, s, coeffs, phi, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024 + 3 * n * 8


@pytest.mark.parametrize("n", [300, 25])
def test_kernel_leaves_numpy_state_as_found(n, sized_suite):
    # The kernel touches neither numpy's ufunc buffer size nor its error
    # state, also when it raises.
    inst = sized_suite[3] if n == 300 else quasi_newton_instance(
        np.random.default_rng(25), n)
    H, s = inst["H"], inst["s"]
    coeffs = base_coefficients(inst)
    caller_bufsize = np.setbufsize(4096)
    try:
        with np.errstate(divide="raise"):
            state = (np.getbufsize(), np.geterr())
            for phi in (1.0, 0.0, 0.4):
                apply_update(H.copy(), s, coeffs, phi, 0.7)
                assert (np.getbufsize(), np.geterr()) == state
            with pytest.raises(FloatingPointError):
                apply_update(H.copy(), s, dataclasses.replace(coeffs, yHy=0.0),
                             0.0, 1.0)
            assert (np.getbufsize(), np.geterr()) == state
    finally:
        np.setbufsize(caller_bufsize)


def test_kernel_replays_its_flags_after_writing_h(instance_suite):
    # The loop's IEEE flags reach np.errstate as numpy's own would: a
    # raised error comes after H is fully written, also where v divides
    # by zero, a flag set to warn warns once, and an ignored one is silent.
    inst = instance_suite[5]
    H, s = inst["H"], inst["s"]
    coeffs = dataclasses.replace(base_coefficients(inst), yHy=0.0)
    for phi in (0.0, 0.4):
        with np.errstate(all="ignore"):
            ref = expression_update(H, s, coeffs, phi, 1.0)
        assert not np.isfinite(ref).any()
        work = H.copy()
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError, match="divide"):
            apply_update(work, s, coeffs, phi, 1.0)
        nan = np.isnan(ref)
        assert np.array_equal(np.isnan(work), nan), phi
        assert work[~nan].tobytes() == ref[~nan].tobytes(), phi
        with np.errstate(all="warn"), pytest.warns(RuntimeWarning) as caught:
            apply_update(H.copy(), s, coeffs, phi, 1.0)
        assert ["divide by zero" in str(w.message) for w in caught].count(True) == 1, phi
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            apply_update(H.copy(), s * 1e200, dataclasses.replace(coeffs, yHy=1.0), phi, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                apply_update(H.copy(), s, coeffs, phi, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        apply_update(H.copy(), s, base_coefficients(inst), 0.4, 0.7)


def read_only(H):
    H = H.copy()
    H.flags.writeable = False
    return H


UNWRITABLE_H = {
    "fortran": np.asfortranarray,
    "float32": lambda H: H.astype(np.float32),
    "read_only": read_only,
    "short": lambda H: H[:-1].copy(),
    "strided": lambda H: np.kron(H, np.ones((2, 2)))[::2, ::2],
}


@pytest.mark.parametrize("kind", UNWRITABLE_H)
def test_kernel_rejects_h_it_cannot_write_in_place(kind, instance_suite):
    # an H the loop cannot walk as a dense float64 n x n block is refused
    # before anything is written
    inst = instance_suite[5]
    bad = UNWRITABLE_H[kind](inst["H"])
    before = bad.tobytes()
    with pytest.raises(ValueError, match="C-contiguous, writeable float64"):
        apply_update(bad, inst["s"], base_coefficients(inst), 0.4, 0.7)
    assert bad.tobytes() == before


UNREADABLE_VECTOR = {
    "float32": lambda a: a.astype(np.float32),
    "strided": lambda a: np.repeat(a, 2)[::2],
    "short": lambda a: a[:-1].copy(),
    "missing": lambda a: None,
}


@pytest.mark.parametrize("kind", UNREADABLE_VECTOR)
@pytest.mark.parametrize("name", ["s", "Hy"])
def test_kernel_rejects_vectors_it_cannot_read(name, kind, instance_suite):
    # s and Hy must be contiguous float64 vectors of one length n;
    # anything else is refused by the extension entry before H is
    # written, also through apply_update.
    inst = instance_suite[5]
    H = inst["H"].copy()
    before = H.tobytes()
    coeffs = base_coefficients(inst)
    vectors = {"s": inst["s"], "Hy": coeffs.Hy}
    vectors[name] = UNREADABLE_VECTOR[kind](vectors[name])
    message = "needs C-contiguous float64 s and Hy of one length n"
    with pytest.raises(ValueError, match=message):
        updates._rank_two_update(H, *vectors.values(), coeffs.ys, coeffs.rho, coeffs.yHy,
                                 0.4, 0.7)
    assert H.tobytes() == before
    bad = dataclasses.replace(coeffs, Hy=vectors["Hy"])
    with pytest.raises(ValueError, match=message):
        apply_update(H, vectors["s"], bad, 0.0, 0.7)
    assert H.tobytes() == before


def test_kernel_releases_every_view_it_takes(instance_suite):
    # An accepted call and each refusal of the two tests above leave the
    # reference counts of H, s and Hy as they were: a view the entry takes
    # holds a reference until it is released.
    inst = instance_suite[5]
    coeffs = base_coefficients(inst)
    good = (inst["H"].copy(), inst["s"], coeffs.Hy)
    calls = [good] + [(bad(good[0]), *good[1:]) for bad in UNWRITABLE_H.values()]
    calls += [(*good[:i], bad(good[i]), *good[i + 1:])
              for i, bad in itertools.product((1, 2), UNREADABLE_VECTOR.values())]
    for arrays in calls:
        counted = [a for a in arrays if a is not None]
        before = [sys.getrefcount(a) for a in counted]
        with pytest.raises(ValueError) if arrays is not good else contextlib.nullcontext():
            updates._rank_two_update(*arrays, coeffs.ys, coeffs.rho, coeffs.yHy, 0.4, 0.7)
        assert [sys.getrefcount(a) for a in counted] == before


def test_default_clone_is_the_same_loop(tmp_path, instance_suite, sized_suite):
    # On x86-64 with glibc the loader picks the AVX2 copy of the loop on
    # a CPU that has AVX2.  A module built without the target_clones line
    # runs the baseline copy only: it gives the same bytes and flags on
    # the six (phi, tau) cases, at n = 1 to 500 and on the special-value grid.
    clones = b'__attribute__((target_clones("avx2", "default")))\n'
    code = updates.KERNEL_SOURCE.read_bytes()
    assert code.count(clones) == 1
    source = tmp_path / "_kernel.c"
    source.write_bytes(code.replace(clones, b""))
    baseline = updates.load_kernel(updates.build_kernel(source)).rank_two_update
    cases = [(inst["H"], inst["s"], base_coefficients(inst)) for inst in sized_suite]
    for inst in instance_suite[1:12] + sized_suite[4:5]:
        cases += special_value_cases(inst)
    for (H, s, coeffs), phi, tau in itertools.product(cases, (1.0, 0.0, 0.4), (1.0, 0.7)):
        args = (s, coeffs.Hy, coeffs.ys, coeffs.rho, coeffs.yHy, phi, tau)
        package, default = H.copy(), H.copy()
        assert updates._rank_two_update(package, *args) == baseline(default, *args)
        assert default.tobytes() == package.tobytes()


# ------------------------------------------------------- kernel build

def test_kernel_build_reuses_the_cached_library(tmp_path, monkeypatch):
    # A second build of the same source loads the cached file: no compiler
    # runs, for the package's own library as for a fresh copy.
    source = tmp_path / "_kernel.c"
    source.write_bytes(updates.KERNEL_SOURCE.read_bytes())
    built = updates.build_kernel(source)
    assert built.parent == tmp_path / "__pycache__"
    assert updates.load_kernel(built).rank_two_update

    def no_compiler(*args, **kwargs):
        raise AssertionError("the compiler ran for a cached library")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    assert updates.build_kernel(source) == built
    assert updates.build_kernel().is_file()
    assert sorted(p.name for p in built.parent.iterdir()) == [built.name]


def test_kernel_cache_name_follows_the_source_bytes(tmp_path, monkeypatch):
    # Each source gets its own file, written under a temporary name and
    # moved into place, where it replaces the build it supersedes, so a
    # return to an earlier source compiles it again; a stub compiler
    # copies the source to its output.
    commands = []

    def fake_compiler(command, input, capture_output):
        commands.append(command)
        Path(command[command.index("-o") + 1]).write_bytes(input)
        return subprocess.CompletedProcess(command, 0, b"", b"")

    monkeypatch.setattr(subprocess, "run", fake_compiler)
    source = tmp_path / "_kernel.c"
    code = updates.KERNEL_SOURCE.read_bytes()
    paths = []
    for text in (code, code + b"\n", code):
        source.write_bytes(text)
        paths.append(updates.build_kernel(source))
    assert paths[0] == paths[2] != paths[1]
    assert len(commands) == 3
    assert all(command[-1] == "-" and ".tmp" in command[command.index("-o") + 1]
               and all(flag in command for flag in updates.KERNEL_CFLAGS)
               for command in commands)
    assert list((tmp_path / "__pycache__").iterdir()) == [paths[2]]
    assert paths[2].read_bytes() == code


def test_kernel_build_names_the_command_that_failed(tmp_path, monkeypatch):
    # No compiler on the PATH, with sysconfig's CC and with cc when CC is
    # unset, then a source that does not compile: each fails with the
    # command in the message and leaves no partial file.
    source = tmp_path / "_kernel.c"
    source.write_bytes(updates.KERNEL_SOURCE.read_bytes() + b"/* fresh */\n")
    flags = " ".join(updates.KERNEL_CFLAGS)
    with monkeypatch.context() as patch:
        patch.setenv("PATH", str(tmp_path / "no-such-dir"))
        for compiler in (sysconfig.get_config_var("CC"), None):
            patch.setattr(sysconfig, "get_config_var", lambda name: compiler)
            command = re.escape(f"`{compiler or 'cc'} {flags} -x c -o ")
            with pytest.raises(RuntimeError, match=command):
                updates.build_kernel(source)
    source.write_bytes(b"this is not C\n")
    with pytest.raises(RuntimeError, match=re.escape(f"{flags} -x c -o ") + ".* exited"):
        updates.build_kernel(source)
    assert list((tmp_path / "__pycache__").iterdir()) == []


def test_kernel_build_without_python_headers_names_the_command(tmp_path, monkeypatch):
    # A fresh source and an include directory without Python.h: the
    # compile fails with the command in the message, and no file is left.
    include = tmp_path / "include"
    include.mkdir()
    source = tmp_path / "_kernel.c"
    source.write_bytes(updates.KERNEL_SOURCE.read_bytes() + b"/* no headers */\n")
    monkeypatch.setattr(sysconfig, "get_paths", lambda: {"include": str(include)})
    command = re.escape(f"-o {source.parent / '__pycache__'}/") + r"\S+\.tmp " + re.escape(
        f"-I{include} -` exited")
    with pytest.raises(RuntimeError, match=f"(?s)cannot build the update kernel: `.*"
                                           f"{command}.*Python.h"):
        updates.build_kernel(source)
    assert list((tmp_path / "__pycache__").iterdir()) == []


def test_kernel_build_reports_an_uncreatable_cache_directory(tmp_path, monkeypatch):
    # The cache directory cannot be made: RuntimeError, as for a failing
    # compiler, not the bare OSError, and no file is left behind.
    source = tmp_path / "_kernel.c"
    source.write_bytes(updates.KERNEL_SOURCE.read_bytes() + b"/* uncached */\n")

    def denied(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "mkdir", denied)
    with pytest.raises(RuntimeError, match="cannot build the update kernel: .*Permission denied"):
        updates.build_kernel(source)
    assert list(tmp_path.iterdir()) == [source]


def test_import_with_a_cached_kernel_runs_no_compiler_modules():
    # Only a compile needs subprocess, shlex and sysconfig: with the library
    # cached (this process has built it), a fresh interpreter imports the
    # package without loading any of them.
    code = ("import sys; before = set(sys.modules); import ssbroyden; print(sorted("
            "{'subprocess', 'shlex', 'sysconfig'} & (set(sys.modules) - before)))")
    src = str(Path(updates.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_jacobi_oracle_agrees_with_lapack(instance_suite):
    # validate the rotation-based eigen oracle before leaning on eigvalsh
    for inst in instance_suite[:15]:
        H_new = propose(UpdateVariant.SSBROYDEN, inst)
        ours = jacobi_eigenvalues(H_new)
        lapack = np.linalg.eigvalsh(H_new)
        scale = max(1.0, np.max(np.abs(lapack)))
        assert np.max(np.abs(ours - lapack)) <= 1e-8 * scale


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
def test_update_preserves_positive_definiteness(variant, instance_suite,
                                                interior_theta_suite):
    for inst in instance_suite + interior_theta_suite:
        H_new = propose(variant, inst)
        assert np.min(np.linalg.eigvalsh(H_new)) > -1e-10


# ------------------------------------------------------- curvature guard

def test_curvature_guard_cases():
    s = np.array([1.0, 0.0])
    assert curvature_guard(s, s, 1.0)
    assert not curvature_guard(s, -s, -1.0)
    assert not curvature_guard(s, np.array([0.0, 1.0]), 0.0)  # exactly zero


def test_propose_update_skips_pair_failing_guard():
    # y^T s < 0 is caught by the guard alone; H comes back unchanged
    s = np.array([1.0, 0.0])
    H = np.eye(2)
    before = H.tobytes()
    for variant in ALL_VARIANTS:
        result = propose_update(variant, H, s, -s, -s, 1.0)
        assert result.skip_reason == "curvature_guard"
        assert H.tobytes() == before
        assert result.coeffs is None


def test_propose_update_skips_lost_positive_definiteness():
    # s = y passes the guard, but y^T H y < 0 for H = -I
    s = np.array([1.0, 0.0])
    H = -np.eye(2)
    before = H.tobytes()
    for variant in ALL_VARIANTS:
        result = propose_update(variant, H, s, s, -s, 1.0)
        assert result.skip_reason == "not_spd"
        assert H.tobytes() == before
        assert result.coeffs is None
        assert (result.theta, result.tau, result.tau_fallback) == (0.0, 1.0, False)


def test_propose_update_skips_nonpositive_b():
    # b = -alpha s^T g_prev / y^T s is s^T B s / y^T s, so b <= 0 means
    # the inverse of H is not positive definite along s (b also reaches 0
    # by underflow, where theta's (1 - b) / b would divide by zero)
    s = np.array([1.0, 0.0])
    H = np.eye(2)
    before = H.tobytes()
    for g_prev in (s, np.zeros(2)):
        for variant in ALL_VARIANTS:
            result = propose_update(variant, H, s, s, g_prev, 1.0)
            assert result.skip_reason == "not_spd"
            assert H.tobytes() == before
            assert result.coeffs is None


def test_propose_update_skips_pair_too_small_to_update():
    # y^T s = 1e-310 passes the guard, whose 1e-10 ||s|| ||y|| is 1e-320,
    # but rho = 1 / y^T s overflows, and the update would write inf into H
    s = np.array([1e-155, 0.0])
    H = np.eye(2)
    before = H.tobytes()
    for variant in ALL_VARIANTS:
        result = propose_update(variant, H, s, s, -s, 1.0)
        assert result.skip_reason == "overflow"
        assert H.tobytes() == before
        assert result.coeffs.b == 1.0


def test_propose_update_rescale_keeps_gamma_one_when_yy_underflows():
    # y^T s ~ 1e-13 passes the guard (1e-10 ||s|| ||y|| ~ 1e-23), but
    # y^T y = 1e-326 underflows to 0: gamma stays 1 instead of dividing
    # by zero, and the chain skips exactly as without the rescale
    s, y, g_prev = np.array([1e150]), np.array([1e-163]), np.array([-1e150])
    assert curvature_guard(s, y, float(y @ s)) and float(y @ y) == 0.0
    H = np.eye(1)
    before = H.tobytes()
    for rescale in (False, True):
        result = propose_update(UpdateVariant.BFGS, H, s, y, g_prev, 1.0,
                                rescale=rescale)
        assert result.skip_reason == "not_spd"
        assert H.tobytes() == before


# The update suites reach neither a vanishing phi denominator nor an
# unusable tau, so the two tests below stub the step that reports it.

def test_propose_update_skips_singular_phi(monkeypatch, instance_suite):
    monkeypatch.setattr(updates, "compute_phi", lambda theta, h, b: None)
    inst = instance_suite[0]
    H = inst["H"]
    before = H.tobytes()
    for variant in ALL_VARIANTS:
        result = propose_update(variant, H, inst["s"], inst["y"],
                                inst["g_prev"], inst["alpha"])
        assert result.skip_reason == "singular_phi"
        assert H.tobytes() == before
        assert result.coeffs is not None


def test_propose_update_tau_fallback_applies_unscaled_update(monkeypatch, instance_suite):
    monkeypatch.setattr(updates, "compute_tau", lambda variant, theta, coeffs, n: None)
    inst = instance_suite[0]
    H, s = inst["H"], inst["s"]
    for variant in ALL_VARIANTS:
        work = H.copy()
        result = propose_update(variant, work, s, inst["y"], inst["g_prev"],
                                inst["alpha"])
        assert result.skip_reason is None
        assert result.tau_fallback and result.tau == 1.0
        phi = compute_phi(result.theta, result.coeffs.h, result.coeffs.b)
        expected = apply_update(H.copy(), s, result.coeffs, phi, 1.0)
        assert work.tobytes() == expected.tobytes()
        assert not np.array_equal(work, H)


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
def test_propose_update_overwrites_h_whenever_it_applies(variant, instance_suite):
    # an applied update writes H' over the H it is given, rescaled or not:
    # the bytes of the kernel run on H, or on the matrix gamma * H
    inst = instance_suite[3]
    s, y = inst["s"], inst["y"]
    gamma = float(y @ s) / float(y @ y)
    for rescale, scale in ((False, 1.0), (True, gamma)):
        work = inst["H"].copy()
        result = propose_update(variant, work, s, y, inst["g_prev"], inst["alpha"],
                                rescale=rescale)
        assert result.skip_reason is None
        phi = compute_phi(result.theta, result.coeffs.h, result.coeffs.b)
        expected = apply_update(inst["H"] * scale, s, result.coeffs, phi, result.tau)
        assert work.tobytes() == expected.tobytes()


# ------------------------------------------------------------ properties

@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6), st.integers(2, 10),
       st.sampled_from(ALL_VARIANTS))
def test_property_secant_and_symmetry(seed, n, variant):
    rng = np.random.default_rng(seed)
    inst = quasi_newton_instance(rng, n)
    H_new = propose(variant, inst)
    assert np.array_equal(H_new, H_new.T)
    resid = np.max(np.abs(H_new @ inst["y"] - inst["s"]))
    assert resid <= 1e-10 * max(1.0, np.max(np.abs(inst["s"])))


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10**6), st.integers(2, 8))
def test_property_tau_scaling_keeps_secant(seed, n):
    # scaling the inherited term must not disturb the secant equation
    rng = np.random.default_rng(seed)
    inst = quasi_newton_instance(rng, n)
    coeffs = base_coefficients(inst)
    theta = compute_theta(UpdateVariant.SSBROYDEN, coeffs)
    for tau in (0.25, 1.0, 3.5):
        H_new = family_update(inst, theta, tau)
        resid = np.max(np.abs(H_new @ inst["y"] - inst["s"]))
        assert resid <= 1e-10 * max(1.0, np.max(np.abs(inst["s"])))
