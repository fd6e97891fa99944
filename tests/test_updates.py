import ctypes
import dataclasses
import itertools
import math
import re
import subprocess
import sysconfig
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssbroyden import VARIANT_ORDER, UpdateVariant
from ssbroyden import updates
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

from conftest import (base_coefficients, expression_update, family_update, propose,
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
        return not np.array_equal(propose(a, inst).H, propose(b, inst).H)

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
    for variant in DYNAMIC:
        result = propose_update(variant, H, s, y, g_prev, 1.0)
        assert result.coeffs.a > 4.5e15 and result.coeffs.c == 1.0
        assert result.skip_reason == "singular_phi"
        assert result.H is H and np.array_equal(H, np.diag([1.0, 1e-6]))
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


@pytest.mark.parametrize("variant", SELF_SCALED, ids=lambda v: v.value)
def test_tau_matches_determinant_oracle(variant, instance_suite, interior_theta_suite):
    # tau rebuilt from sigma = b det(B') / det(B), which the library never
    # computes, and b = s^T B s / y^T s from B = H^-1, with the case logic
    # of the self-scaled Broyden class as the literature states it
    # (Al-Baali 1998; Urban, Stefanou & Pons 2025): rho+ = min(1, 1/b),
    # sigma^(1/(1-n)) taken as 1 at n = 1 and as 0 at sigma = 0, then
    # tau = min(rho+ sigma^(1/(1-n)), sigma) for theta <= 0 and
    # tau = rho+ min(sigma^(1/(1-n)), 1/theta) for theta > 0.
    branches = {"theta <= 0": 0, "theta > 0": 0, "tau < 1": 0}
    for inst in instance_suite + interior_theta_suite:
        H, s, y, n = inst["H"], inst["s"], inst["y"], inst["n"]
        coeffs = base_coefficients(inst)
        theta = compute_theta(variant, coeffs)
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
            expected = min(rho_plus * sigma_pow, sigma)
        else:
            expected = rho_plus * min(sigma_pow, 1.0 / theta)
        tau = compute_tau(variant, theta, coeffs, n)
        assert tau is not None and expected > updates.TAU_MIN
        assert abs(tau - expected) <= 1e-11 * expected, (theta, tau, expected)
        branches["theta <= 0" if theta <= 0.0 else "theta > 0"] += 1
        branches["tau < 1"] += tau < 1.0 - 1e-12
    assert branches["tau < 1"] >= 90, branches
    if variant is UpdateVariant.SSBROYDEN:
        assert min(branches.values()) >= 50, branches


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
        H_new = propose(variant, inst).H
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
        result = propose(variant, inst)
        ref = direct_broyden_update(inst["H"], inst["s"], inst["y"],
                                    result.theta, result.tau)
        assert np.max(np.abs(result.H - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_bfgs_matches_scipy_oracle(instance_suite):
    pytest.importorskip("scipy.optimize")
    for inst in instance_suite:
        got = propose(UpdateVariant.BFGS, inst).H
        ref = scipy_bfgs_update(inst["H"], inst["s"], inst["y"])
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
def test_secant_equation_full_suite(variant, instance_suite, interior_theta_suite):
    for inst in instance_suite + interior_theta_suite:
        H_new = propose(variant, inst).H
        resid = np.max(np.abs(H_new @ inst["y"] - inst["s"]))
        assert resid <= 1e-10 * max(1.0, np.max(np.abs(inst["s"])))


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
def test_update_is_exactly_symmetric(variant, instance_suite, interior_theta_suite):
    for inst in instance_suite[:60] + interior_theta_suite:
        H_new = propose(variant, inst).H
        assert np.array_equal(H_new, H_new.T)


def special_value_cases(inst):
    """``(H, s, coeffs)`` from one instance with -0 and +0 entries in H
    and s, H and the vectors scaled by every pair of 1, subnormal, tiny
    and huge factors; the scalars of ``coeffs`` follow from the scaled
    arrays and may be 0, subnormal or infinite."""
    H0, s0 = inst["H"].copy(), inst["s"].copy()
    H0[0, 1:] = H0[1:, 0] = -0.0
    H0[0, 0] = 0.0
    s0[:2] = (-0.0, 0.0)
    for h_scale, v_scale in itertools.product((1.0, 1e-310, 1e-160, 1e160, 1e300),
                                              repeat=2):
        H, s, y = H0 * h_scale, s0 * v_scale, inst["y"] * v_scale
        with np.errstate(all="ignore"):
            Hy = H @ y
            ys, yHy = np.dot(y, s), np.dot(y, Hy)
            rho = 1.0 / ys
        yield H, s, UpdateCoefficients(ys=float(ys), rho=float(rho), h=0.0, b=0.0,
                                       a=0.0, c=0.0, Hy=Hy, yHy=float(yHy))


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
            cases += 1
    assert cases == 12 * 25


@pytest.mark.parametrize("n", [1, 2, 25, 128, 129, 160, 193, 300, 500])
def test_panels_are_balanced(n):
    # The single pass is one panel of all n rows, balanced in that every
    # row gets the same operations wherever it falls: permuting the rows
    # and columns of H and the entries of s and Hy permutes H' bit for
    # bit, at the sizes where row panels once split H (193 with a short
    # last one) and across the scaled and unscaled loops of each phi case.
    inst = quasi_newton_instance(np.random.default_rng(n), n)
    H, s = inst["H"], inst["s"]
    coeffs = base_coefficients(inst)
    p = np.random.default_rng(n + 1).permutation(n)
    moved = dataclasses.replace(coeffs, Hy=coeffs.Hy[p])
    for phi, tau in itertools.product((1.0, 0.0, 0.4), (1.0, 0.7)):
        got = apply_update(H.copy(), s, coeffs, phi, tau)
        got_moved = apply_update(H[np.ix_(p, p)], s[p], moved, phi, tau)
        assert got_moved.tobytes() == got[np.ix_(p, p)].tobytes(), (phi, tau)


@pytest.mark.parametrize("phi", [1.0, 0.0, 0.4])
def test_kernel_holds_result_plus_one_panel(phi, sized_suite):
    # One call at n = 300 (a 703 KiB matrix) writes the result over its
    # input, and the one panel of scratch it may hold is empty: nothing
    # beyond a few 2.4 KiB vectors (v and its two terms) and the small
    # objects of the foreign call.
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
    # raised error comes after H is fully written, a flag set to warn
    # warns, and an ignored one is silent.
    inst = instance_suite[5]
    H, s = inst["H"], inst["s"]
    coeffs = dataclasses.replace(base_coefficients(inst), yHy=0.0)
    with np.errstate(all="ignore"):
        ref = expression_update(H, s, coeffs, 0.0, 1.0)
    assert np.isinf(ref).any()
    work = H.copy()
    with np.errstate(divide="raise"), pytest.raises(FloatingPointError, match="divide"):
        apply_update(work, s, coeffs, 0.0, 1.0)
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(work), nan)
    assert work[~nan].tobytes() == ref[~nan].tobytes()
    with np.errstate(all="warn"), pytest.warns(RuntimeWarning, match="divide by zero"):
        apply_update(H.copy(), s, coeffs, 0.0, 1.0)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        apply_update(H.copy(), s * 1e200, dataclasses.replace(coeffs, yHy=1.0), 0.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            apply_update(H.copy(), s, coeffs, 0.0, 1.0)
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


# ------------------------------------------------------- kernel build

def test_kernel_build_reuses_the_cached_library(tmp_path, monkeypatch):
    # A second build of the same source loads the cached file: no compiler
    # runs, for the package's own library as for a fresh copy.
    source = tmp_path / "_kernel.c"
    source.write_bytes(updates.KERNEL_SOURCE.read_bytes())
    built = updates.build_kernel(source)
    assert built.parent == tmp_path / "__pycache__"
    assert ctypes.CDLL(str(built)).rank_two_update

    def no_compiler(*args, **kwargs):
        raise AssertionError("the compiler ran for a cached library")

    monkeypatch.setattr(updates.subprocess, "run", no_compiler)
    assert updates.build_kernel(source) == built
    assert updates.build_kernel().is_file()
    assert sorted(p.name for p in built.parent.iterdir()) == [built.name]


def test_kernel_cache_name_follows_the_source_bytes(tmp_path, monkeypatch):
    # Each source gets its own file, written under a temporary name and
    # moved into place; a stub compiler copies the source to its output.
    commands = []

    def fake_compiler(command, input, capture_output):
        commands.append(command)
        Path(command[command.index("-o") + 1]).write_bytes(input)
        return subprocess.CompletedProcess(command, 0, b"", b"")

    monkeypatch.setattr(updates.subprocess, "run", fake_compiler)
    source = tmp_path / "_kernel.c"
    code = updates.KERNEL_SOURCE.read_bytes()
    paths = []
    for text in (code, code + b"\n", code):
        source.write_bytes(text)
        paths.append(updates.build_kernel(source))
    assert paths[0] == paths[2] != paths[1]
    assert len(commands) == 2
    assert all(command[-1] == "-" and ".tmp" in command[command.index("-o") + 1]
               and all(flag in command for flag in updates.KERNEL_CFLAGS)
               for command in commands)
    assert sorted(p.name for p in (tmp_path / "__pycache__").iterdir()) == sorted(
        p.name for p in set(paths))
    assert paths[1].read_bytes() == code + b"\n"


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
            patch.setattr(updates.sysconfig, "get_config_var", lambda name: compiler)
            command = re.escape(f"`{compiler or 'cc'} {flags} -x c -o ")
            with pytest.raises(RuntimeError, match=command):
                updates.build_kernel(source)
    source.write_bytes(b"this is not C\n")
    with pytest.raises(RuntimeError, match=re.escape(f"{flags} -x c -o ") + ".* exited"):
        updates.build_kernel(source)
    assert list((tmp_path / "__pycache__").iterdir()) == []


def test_jacobi_oracle_agrees_with_lapack(instance_suite):
    # validate the rotation-based eigen oracle before leaning on eigvalsh
    for inst in instance_suite[:15]:
        H_new = propose(UpdateVariant.SSBROYDEN, inst).H
        ours = jacobi_eigenvalues(H_new)
        lapack = np.linalg.eigvalsh(H_new)
        scale = max(1.0, np.max(np.abs(lapack)))
        assert np.max(np.abs(ours - lapack)) <= 1e-8 * scale


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
def test_update_preserves_positive_definiteness(variant, instance_suite,
                                                interior_theta_suite):
    for inst in instance_suite + interior_theta_suite:
        H_new = propose(variant, inst).H
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
    for variant in ALL_VARIANTS:
        result = propose_update(variant, H, s, -s, -s, 1.0)
        assert result.skip_reason == "curvature_guard"
        assert result.H is H
        assert result.coeffs is None


def test_propose_update_skips_lost_positive_definiteness():
    # s = y passes the guard, but y^T H y < 0 for H = -I
    s = np.array([1.0, 0.0])
    H = -np.eye(2)
    for variant in ALL_VARIANTS:
        result = propose_update(variant, H, s, s, -s, 1.0)
        assert result.skip_reason == "not_spd"
        assert result.H is H
        assert result.coeffs is None
        assert (result.theta, result.tau, result.tau_fallback) == (0.0, 1.0, False)


def test_propose_update_skips_nonpositive_b():
    # b = -alpha s^T g_prev / y^T s is s^T B s / y^T s, so b <= 0 means
    # the inverse of H is not positive definite along s (b also reaches 0
    # by underflow, where theta's (1 - b) / b would divide by zero)
    s = np.array([1.0, 0.0])
    H = np.eye(2)
    for g_prev in (s, np.zeros(2)):
        for variant in ALL_VARIANTS:
            result = propose_update(variant, H, s, s, g_prev, 1.0)
            assert result.skip_reason == "not_spd"
            assert result.H is H
            assert result.coeffs is None


def test_propose_update_skips_pair_too_small_to_update():
    # y^T s = 1e-310 passes the guard, whose 1e-10 ||s|| ||y|| is 1e-320,
    # but rho = 1 / y^T s overflows, and the update would write inf into H
    s = np.array([1e-155, 0.0])
    H = np.eye(2)
    for variant in ALL_VARIANTS:
        result = propose_update(variant, H, s, s, -s, 1.0)
        assert result.skip_reason == "overflow"
        assert result.H is H
        assert result.coeffs.b == 1.0


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
        assert result.H is H and H.tobytes() == before
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
        assert result.H is work
        phi = compute_phi(result.theta, result.coeffs.h, result.coeffs.b)
        expected = apply_update(H.copy(), s, result.coeffs, phi, 1.0)
        assert result.H.tobytes() == expected.tobytes()
        assert not np.array_equal(result.H, H)


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
def test_propose_update_overwrites_h_only_when_unscaled(variant, instance_suite):
    # scale == 1 consumes H; a scaled update works on the copy H * scale
    # and leaves H as it was, so a skip can discard the scaling
    inst = instance_suite[3]
    args = (inst["s"], inst["y"], inst["g_prev"], inst["alpha"])
    work = inst["H"].copy()
    result = propose_update(variant, work, *args)
    assert result.skip_reason is None and result.H is work
    work = inst["H"].copy()
    result = propose_update(variant, work, *args, scale=0.5)
    assert result.skip_reason is None and result.H is not work
    assert np.array_equal(work, inst["H"])


# ------------------------------------------------------------ properties

@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6), st.integers(2, 10),
       st.sampled_from(ALL_VARIANTS))
def test_property_secant_and_symmetry(seed, n, variant):
    rng = np.random.default_rng(seed)
    inst = quasi_newton_instance(rng, n)
    H_new = propose(variant, inst).H
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
