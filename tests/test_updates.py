import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssbroyden import (
    CurvatureError,
    LostPositiveDefinitenessError,
    ScalingDegeneracyError,
    SingularUpdateError,
    UpdateCoefficients,
    UpdateVariant,
    VARIANT_ORDER,
    compute_base_coefficients,
    compute_tau,
    compute_theta,
    curvature_guard,
)
from ssbroyden.updates import compute_phi

from conftest import propose, quasi_newton_instance
from oracles import gaussian_solve, jacobi_eigenvalues

ALL_VARIANTS = list(VARIANT_ORDER)
DYNAMIC = [UpdateVariant.BROYDEN, UpdateVariant.SSBROYDEN]


def make_coeffs(**kw):
    base = dict(rho=1.0, h=1.0, b=1.0, a=0.0, c=0.0,
                Hy=np.zeros(2), yHy=1.0, v=np.zeros(2))
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
    c = compute_base_coefficients(np.eye(2), s, s, -s, 1.0)
    assert c.rho == 1.0
    assert c.h == 1.0
    assert c.b == 1.0
    assert c.a == 0.0
    assert c.c == 0.0
    assert np.allclose(c.v, 0.0, atol=1e-15)


def test_base_coefficients_hand_case():
    # H=I, y=[1,0], s=[2,0] from alpha=2, g_prev=[-1,0]
    c = compute_base_coefficients(np.eye(2), np.array([2.0, 0.0]),
                                  np.array([1.0, 0.0]),
                                  np.array([-1.0, 0.0]), 2.0)
    assert c.rho == 0.5
    assert c.h == 0.5
    assert c.b == 2.0
    assert c.a == 0.0
    assert c.c == 0.0


def test_base_coefficients_curvature_error():
    s = np.array([1.0, 0.0])
    with pytest.raises(CurvatureError):
        compute_base_coefficients(np.eye(2), s, -s, -s, 1.0)


def test_base_coefficients_lost_pd_error():
    s = np.array([1.0, 0.0])
    with pytest.raises(LostPositiveDefinitenessError):
        compute_base_coefficients(-np.eye(2), s, s, -s, 1.0)


def test_b_matches_linear_solve_oracle(instance_suite):
    # b from the direction identity vs the explicit (s^T H^-1 s)/(y^T s)
    for inst in instance_suite[:50]:
        c = compute_base_coefficients(inst["H"], inst["s"], inst["y"],
                                      inst["g_prev"], inst["alpha"])
        z = gaussian_solve(inst["H"], inst["s"])
        b_oracle = float(inst["s"] @ z) / float(inst["y"] @ inst["s"])
        assert abs(c.b - b_oracle) <= 1e-10 * max(1.0, abs(b_oracle))


def test_a_nonnegative_before_clamp(instance_suite):
    for inst in instance_suite:
        c = compute_base_coefficients(inst["H"], inst["s"], inst["y"],
                                      inst["g_prev"], inst["alpha"])
        assert c.b * c.h - 1.0 >= -1e-12
        assert c.a >= 0.0


# ----------------------------------------------------------------- theta

def test_theta_fixed_variants():
    coeffs = make_coeffs(h=3.0, b=2.0, a=5.0, c=0.9)
    for variant, expected in [(UpdateVariant.BFGS, 0.0),
                              (UpdateVariant.SSBFGS, 0.0),
                              (UpdateVariant.DFP, 1.0),
                              (UpdateVariant.SSDFP, 1.0)]:
        theta, t_minus, t_plus, r_minus = compute_theta(variant, coeffs)
        assert theta == expected
        assert (t_minus, t_plus, r_minus) == (0.0, 0.0, 1.0)


def test_theta_dynamic_worked_case():
    # h=2, b=2 -> a=3, c=sqrt(3/4); closed forms fall out in sqrt(3)
    coeffs = make_coeffs(h=2.0, b=2.0, a=3.0, c=math.sqrt(0.75))
    theta, t_minus, t_plus, r_minus = compute_theta(UpdateVariant.SSBROYDEN, coeffs)
    assert abs(r_minus - (2.0 - math.sqrt(3.0))) <= 1e-15
    assert abs(t_minus - (1.0 - math.sqrt(3.0)) / 3.0) <= 1e-15
    assert abs(t_plus - (2.0 + math.sqrt(3.0))) <= 1e-14
    # the unclamped value (1-b)/b = -0.5 lies below the lower bound
    assert theta == t_minus


def test_theta_degenerate_a_clamps_to_zero():
    coeffs = make_coeffs(h=0.5, b=2.0, a=0.0, c=0.0)
    theta, t_minus, t_plus, r_minus = compute_theta(UpdateVariant.BROYDEN, coeffs)
    assert r_minus == 0.5
    assert t_minus == 0.0
    assert t_plus == 2.0
    assert theta == 0.0  # (1-b)/b = -0.5 clamped up to the bound


def test_theta_clamped_within_bounds(instance_suite):
    for inst in instance_suite:
        coeffs = compute_base_coefficients(inst["H"], inst["s"], inst["y"],
                                           inst["g_prev"], inst["alpha"])
        for variant in DYNAMIC:
            theta, t_minus, t_plus, _ = compute_theta(variant, coeffs)
            if coeffs.a > 1e-12:
                assert t_minus <= theta <= t_plus


# ------------------------------------------------------------------- tau

def test_tau_unscaled_variants_are_one():
    coeffs = make_coeffs(h=2.0, b=3.0, a=5.0)
    for variant in (UpdateVariant.BFGS, UpdateVariant.DFP, UpdateVariant.BROYDEN):
        tau, _, _, _ = compute_tau(variant, 0.5, coeffs, 4)
        assert tau == 1.0


def test_tau_identity_pair_is_one():
    coeffs = make_coeffs(b=1.0, a=0.0)
    tau, sigma, sigma_pow, rho_plus = compute_tau(UpdateVariant.SSBFGS, 0.0, coeffs, 2)
    assert (tau, sigma, sigma_pow, rho_plus) == (1.0, 1.0, 1.0, 1.0)


def test_tau_nonpositive_theta_branch():
    coeffs = make_coeffs(b=2.0, a=1.0)
    tau, sigma, sigma_pow, rho_plus = compute_tau(UpdateVariant.SSBFGS, 0.0, coeffs, 11)
    assert rho_plus == 0.5
    assert sigma == 1.0
    assert sigma_pow == 1.0
    assert tau == 0.5


def test_tau_positive_theta_branch():
    # theta=1, b=2, a=1, N=3: sigma=2, sigma_pow=2^(-1/2), tau=0.5*2^(-1/2)
    coeffs = make_coeffs(b=2.0, a=1.0)
    tau, sigma, sigma_pow, _ = compute_tau(UpdateVariant.SSDFP, 1.0, coeffs, 3)
    assert sigma == 2.0
    assert abs(sigma_pow - 1.0 / math.sqrt(2.0)) <= 1e-15
    assert abs(tau - 0.5 / math.sqrt(2.0)) <= 1e-15


def test_tau_dimension_one_exponent():
    coeffs = make_coeffs(b=2.0, a=1.0)
    _, _, sigma_pow, _ = compute_tau(UpdateVariant.SSBFGS, 0.0, coeffs, 1)
    assert sigma_pow == 1.0


def test_tau_zero_sigma_degenerates():
    # theta=-1, a=1 -> sigma=0 -> tau collapses below the floor
    coeffs = make_coeffs(b=2.0, a=1.0)
    with pytest.raises(ScalingDegeneracyError):
        compute_tau(UpdateVariant.SSBFGS, -1.0, coeffs, 4)


def test_tau_tiny_positive_sigma_degenerates():
    coeffs = make_coeffs(b=2.0, a=1.0 - 1e-9)
    with pytest.raises(ScalingDegeneracyError):
        compute_tau(UpdateVariant.SSBFGS, -1.0, coeffs, 4)


# ------------------------------------------------------------------- phi

def test_phi_limits():
    assert compute_phi(0.0, 2.0, 3.0) == 1.0
    assert compute_phi(1.0, 2.0, 3.0) == 0.0


def test_phi_singular_denominator():
    # h*b - 1 = -0.5 and theta = 2 zero the denominator exactly
    with pytest.raises(SingularUpdateError):
        compute_phi(2.0, 0.5, 1.0)


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
        for tau in (1.0, 2.0):
            result = propose(UpdateVariant.SSBROYDEN, inst,
                             force_theta=0.0, force_tau=tau)
            ref = woodbury_bfgs(inst["H"], inst["s"], inst["y"], result.coeffs.rho, tau)
            assert np.max(np.abs(result.H - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_general_matches_classic_dfp(instance_suite):
    for inst in instance_suite[:60]:
        for tau in (1.0, 0.7):
            result = propose(UpdateVariant.SSBROYDEN, inst,
                             force_theta=1.0, force_tau=tau)
            ref = classic_dfp(inst["H"], inst["s"], inst["y"], tau)
            assert np.max(np.abs(result.H - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


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
            got = propose(UpdateVariant.BROYDEN, inst, force_theta=theta).H
            assert np.max(np.abs(got - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
def test_secant_equation_full_suite(variant, instance_suite):
    for inst in instance_suite:
        H_new = propose(variant, inst).H
        resid = np.max(np.abs(H_new @ inst["y"] - inst["s"]))
        assert resid <= 1e-10 * max(1.0, np.max(np.abs(inst["s"])))


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
def test_update_is_exactly_symmetric(variant, instance_suite):
    for inst in instance_suite[:60]:
        H_new = propose(variant, inst).H
        assert np.array_equal(H_new, H_new.T)


def test_jacobi_oracle_agrees_with_lapack(instance_suite):
    # validate the rotation-based eigen oracle before leaning on eigvalsh
    for inst in instance_suite[:15]:
        H_new = propose(UpdateVariant.SSBROYDEN, inst).H
        ours = jacobi_eigenvalues(H_new)
        lapack = np.linalg.eigvalsh(H_new)
        scale = max(1.0, np.max(np.abs(lapack)))
        assert np.max(np.abs(ours - lapack)) <= 1e-8 * scale


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
def test_update_preserves_positive_definiteness(variant, instance_suite):
    for inst in instance_suite:
        H_new = propose(variant, inst).H
        assert np.min(np.linalg.eigvalsh(H_new)) > -1e-10


# ------------------------------------------------------- curvature guard

def test_curvature_guard_cases():
    s = np.array([1.0, 0.0])
    assert curvature_guard(s, s, 1e-10)
    assert not curvature_guard(s, -s, 1e-10)
    assert not curvature_guard(s, np.array([0.0, 1.0]), 1e-10)  # exactly zero


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
    for tau in (0.25, 1.0, 3.5):
        H_new = propose(UpdateVariant.SSBROYDEN, inst, force_tau=tau).H
        resid = np.max(np.abs(H_new @ inst["y"] - inst["s"]))
        assert resid <= 1e-10 * max(1.0, np.max(np.abs(inst["s"])))
