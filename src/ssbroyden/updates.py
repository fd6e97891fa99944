"""Rank-two inverse-Hessian updates for the self-scaled Broyden family.

The family is parameterised by two per-iteration scalars: the mixing
parameter ``theta`` interpolating between BFGS (``theta = 0``) and DFP
(``theta = 1``), and the scale factor ``tau`` applied to the inherited
curvature term (``tau = 1`` means no scaling).  Every member is

    H' = (1/tau) * (H - (H y)(H y)^T / y^T H y + phi * (y^T H y) * v v^T)
         + s s^T / (y^T s)

with ``v = s / (y^T s) - H y / (y^T H y)`` and
``phi = (1 - theta) / (1 + (h b - 1) theta)``.  Since ``v^T y = 0``, the
secant equation ``H' y = s`` holds for every member and every ``tau``.

:func:`propose_update` runs the whole per-iteration chain (curvature
guard, base coefficients, ``theta``, ``tau``, ``phi``) and hands the
result to :func:`apply_update`, the one kernel that forms ``H'``.  The
kernel picks its terms from ``phi``, not from the variant: ``phi == 1``
(BFGS) uses the expanded product form, in which the ``v`` term folds
into ``s (Hy)^T`` cross terms; ``phi == 0`` (DFP) drops the ``v`` term;
any other ``phi`` adds it.

The kernel works in two n x n buffers, the result and one scratch
matrix, and builds each term in place; it allocates nothing else of
size n x n and keeps nothing between calls.  It applies the terms in a
fixed order, the order of the floating-point expressions the variants
have always used, so every element rounds exactly as before and
iteration counts and trajectories are bitwise unchanged.  The order is
part of the contract: a single compact form
``H/tau + [s, Hy] M [s, Hy]^T`` is algebraically equal but rounds
differently, and in its place five of the six 8-D Rosenbrock golden
iteration counts of the acceptance suite move by one to a few
iterations.
"""

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import matvec, norm_2

# Below this, a = b*h - 1 is treated as zero (s is H-parallel to y) and the
# dynamic-theta bounds switch to their limit values.
A_DEGENERATE = 1e-12
# Guard on the phi denominator 1 + (h*b - 1)*theta.
PHI_DENOM_EPS = 1e-12
# Smallest usable scale factor; anything at or below it triggers a fallback.
TAU_MIN = 1e-8
# Relative threshold of the curvature guard.
CURVATURE_EPS = 1e-10


class LostPositiveDefinitenessError(RuntimeError):
    """y^T H y <= 0: the inverse-Hessian approximation is no longer SPD."""


class SingularUpdateError(RuntimeError):
    """The phi denominator vanished; the update would be singular."""


class ScalingDegeneracyError(RuntimeError):
    """The computed tau is non-positive, tiny, or non-finite."""


class UpdateVariant(enum.Enum):
    """The six members of the update family, keyed by their CLI names."""

    BFGS = "bfgs"
    SSBFGS = "ssbfgs"
    DFP = "dfp"
    SSDFP = "ssdfp"
    BROYDEN = "broyden"
    SSBROYDEN = "ssbroyden"

    @property
    def fixed_theta(self):
        """0.0 / 1.0 for the fixed-mixing variants, None for dynamic ones."""
        if self in (UpdateVariant.BFGS, UpdateVariant.SSBFGS):
            return 0.0
        if self in (UpdateVariant.DFP, UpdateVariant.SSDFP):
            return 1.0
        return None

    @property
    def self_scaled(self):
        return self in (UpdateVariant.SSBFGS, UpdateVariant.SSDFP, UpdateVariant.SSBROYDEN)


#: Canonical ordering used by the CLI and the benchmark summaries.
VARIANT_ORDER = tuple(UpdateVariant)


@dataclass(frozen=True)
class UpdateCoefficients:
    """Curvature ratios and vectors of one accepted step."""

    rho: float          # 1 / (y^T s)
    h: float            # (y^T H y) / (y^T s)
    b: float            # (s^T B s) / (y^T s), via the direction identity
    a: float            # b*h - 1, clamped to >= 0
    c: float            # sqrt(a / (1 + a)), 0 in the degenerate case
    Hy: np.ndarray      # H y
    yHy: float          # y^T H y
    v: np.ndarray       # s/(y^T s) - Hy/yHy


@dataclass(frozen=True)
class UpdateResult:
    """Outcome of :func:`propose_update` for one iteration.

    ``H`` is the updated matrix, or the input matrix unchanged when
    ``skipped``.  ``theta`` and ``tau`` are the values used (0 and 1 when
    the chain stopped before computing them); ``coeffs`` is None when the
    chain stopped before the base coefficients.
    """

    H: np.ndarray
    theta: float = 0.0
    tau: float = 1.0
    skipped: bool = False
    tau_fallback: bool = False
    coeffs: Optional[UpdateCoefficients] = None


def curvature_guard(s, y):
    """Accept the pair iff y^T s > CURVATURE_EPS * ||s|| * ||y||.

    The strong Wolfe conditions guarantee y^T s > 0 in exact arithmetic;
    this guards against floating-point failure of that guarantee.  A
    rejected pair means the update is skipped and H carried over.
    """
    ys = float(np.dot(y, s))
    return ys > CURVATURE_EPS * norm_2(s) * norm_2(y)


def compute_base_coefficients(H, s, y, g_prev, alpha, scale=1.0):
    """Curvature ratios for an accepted step.

    ``b`` is computed without forming the direct Hessian approximation:
    because ``s = alpha * d`` with ``d = -H_d g_prev``, the identity
    ``B_d s = -alpha * g_prev`` gives ``s^T B_d s = -alpha * s^T g_prev``.
    ``H`` may be ``scale * H_d``, a rescaled copy of the matrix ``H_d``
    that produced the direction; its inverse is ``B_d / scale``, so ``b``
    is divided by ``scale``.

    Requires ``y^T s > 0``, which :func:`curvature_guard` establishes
    before this is called, and positive-definite ``H``.
    """
    ys = float(np.dot(y, s))
    Hy = matvec(H, y)
    yHy = float(np.dot(y, Hy))
    if yHy <= 0.0:
        raise LostPositiveDefinitenessError(f"y^T H y = {yHy:g} <= 0")
    rho = 1.0 / ys
    h = yHy / ys
    b = -alpha * float(np.dot(s, g_prev)) / ys / scale
    # Cauchy-Schwarz in the H inner product gives b*h >= 1 up to rounding.
    a = max(b * h - 1.0, 0.0)
    c = 0.0 if a < A_DEGENERATE else math.sqrt(a / (1.0 + a))
    v = s / ys - Hy / yHy
    return UpdateCoefficients(rho=rho, h=h, b=b, a=a, c=c, Hy=Hy, yHy=yHy, v=v)


def compute_theta(variant, coeffs):
    """Mixing parameter and its clamp interval.

    Returns ``(theta, theta_minus, theta_plus, rho_minus)``.  Fixed-theta
    variants report placeholder bounds (0, 0) and ``rho_minus = 1``.  The
    dynamic variants clamp ``(1 - b)/b`` into ``[theta_minus, theta_plus]``;
    when ``a`` is degenerate the lower bound collapses to 0 and the clamp
    keeps the update inside the convex class.
    """
    fixed = variant.fixed_theta
    if fixed is not None:
        return fixed, 0.0, 0.0, 1.0
    rho_minus = min(1.0, coeffs.h * (1.0 - coeffs.c))
    theta_minus = 0.0 if coeffs.a < A_DEGENERATE else (rho_minus - 1.0) / coeffs.a
    theta_plus = 1.0 / rho_minus
    theta = max(theta_minus, min(theta_plus, (1.0 - coeffs.b) / coeffs.b))
    return theta, theta_minus, theta_plus, rho_minus


def compute_tau(variant, theta, coeffs, n):
    """Scale factor for the inherited curvature term.

    Returns ``(tau, sigma, sigma_pow, rho_plus)``; ``tau = 1`` for the
    unscaled variants.  ``sigma_pow = |sigma|^(1/(1-n))`` attenuates with
    dimension; for ``n = 1`` the exponent is undefined and ``sigma_pow``
    is taken as 1, and ``sigma = 0`` gives ``sigma_pow = 0`` so the
    min() selects a finite alternative.

    Raises :class:`ScalingDegeneracyError` when the computed ``tau`` is
    non-finite or not safely positive; the caller is expected to fall
    back to ``tau = 1`` for the iteration.
    """
    rho_plus = min(1.0, 1.0 / coeffs.b)
    sigma = 1.0 + theta * coeffs.a
    if n == 1:
        sigma_pow = 1.0
    elif sigma == 0.0:
        sigma_pow = 0.0
    else:
        sigma_pow = abs(sigma) ** (1.0 / (1.0 - n))
    if not variant.self_scaled:
        return 1.0, sigma, sigma_pow, rho_plus
    if theta <= 0.0:
        tau = min(rho_plus * sigma_pow, sigma)
    else:
        tau = rho_plus * min(sigma_pow, 1.0 / theta)
    if not math.isfinite(tau) or tau <= TAU_MIN:
        raise ScalingDegeneracyError(f"tau = {tau:g} is unusable")
    return tau, sigma, sigma_pow, rho_plus


def compute_phi(theta, h, b):
    """Weight of the v v^T term; guards against a vanishing denominator."""
    denom = 1.0 + (h * b - 1.0) * theta
    if abs(denom) <= PHI_DENOM_EPS:
        raise SingularUpdateError(f"phi denominator {denom:g} is within tolerance of zero")
    return (1.0 - theta) / denom


def apply_update(H, s, coeffs, phi, tau):
    """Form H' for the family member with weight ``phi`` and scale ``tau``.

    Returns a new array; ``H``, ``s`` and the vectors of ``coeffs`` are
    only read.  The kernel allocates two n x n arrays, the result and
    one scratch buffer, and applies every term in place, in this order:

    * ``phi == 1`` (the expanded BFGS product):
      ``out = s (Hy)^T + (Hy) s^T``, ``out *= rho``, ``out = H - out``,
      ``out += (rho^2 y^T H y) s s^T``;
    * otherwise: ``tmp = (Hy)(Hy)^T``, ``tmp /= y^T H y``,
      ``out = H - tmp``, and ``out += (phi y^T H y) v v^T`` when
      ``phi != 0``;
    * then ``out /= tau`` (skipped for ``tau == 1``, where the division
      is exact) and ``out += rho s s^T``.

    Each ``u u^T`` term is scaled as a whole matrix and then added, so
    every element sees the same roundings in the same order as the
    expression ``(H - ... + ...) / tau + rho * outer(s, s)``.  That
    order is part of the contract: an algebraically equal reordering
    rounds differently and moves the 8-D Rosenbrock golden iteration
    counts.  Every term is an outer product ``u u^T`` or a symmetric
    pair sum, so the result is exactly symmetric.
    """
    rho = coeffs.rho
    if phi == 1.0:
        tmp = np.multiply.outer(s, coeffs.Hy)
        out = tmp + tmp.T
        out *= rho
        np.subtract(H, out, out=out)
        np.multiply.outer(s, s, out=tmp)
        tmp *= rho * rho * coeffs.yHy
        out += tmp
    else:
        tmp = np.multiply.outer(coeffs.Hy, coeffs.Hy)
        tmp /= coeffs.yHy
        out = H - tmp
        if phi != 0.0:
            np.multiply.outer(coeffs.v, coeffs.v, out=tmp)
            tmp *= phi * coeffs.yHy
            out += tmp
    if tau != 1.0:
        out /= tau
    np.multiply.outer(s, s, out=tmp)
    tmp *= rho
    out += tmp
    return out


def propose_update(variant, H, s, y, g_prev, alpha, scale=1.0):
    """Run curvature guard -> coefficients -> theta -> tau -> phi -> apply.

    ``H`` is the matrix that produced the step ``s = alpha * (-H g_prev)``;
    the update is applied to ``scale * H``.  A pair that fails the
    guard, a lost positive definiteness or a singular ``phi`` yields
    ``skipped=True`` with ``H`` returned unchanged; a degenerate ``tau``
    falls back to 1 with ``tau_fallback=True``.
    """
    if not curvature_guard(s, y):
        return UpdateResult(H=H, skipped=True)
    H_work = H if scale == 1.0 else H * scale
    try:
        coeffs = compute_base_coefficients(H_work, s, y, g_prev, alpha, scale)
    except LostPositiveDefinitenessError:
        return UpdateResult(H=H, skipped=True)
    theta = compute_theta(variant, coeffs)[0]
    tau_fallback = False
    try:
        tau = compute_tau(variant, theta, coeffs, s.shape[0])[0]
    except ScalingDegeneracyError:
        tau, tau_fallback = 1.0, True
    try:
        phi = compute_phi(theta, coeffs.h, coeffs.b)
    except SingularUpdateError:
        return UpdateResult(H=H, theta=theta, tau=tau, skipped=True,
                            tau_fallback=tau_fallback, coeffs=coeffs)
    return UpdateResult(H=apply_update(H_work, s, coeffs, phi, tau), theta=theta,
                        tau=tau, tau_fallback=tau_fallback, coeffs=coeffs)
