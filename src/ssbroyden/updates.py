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

Every event of the chain is a value, not an exception: a step that
fails a guard returns None, and :func:`propose_update` turns that None
into a skip reason or the ``tau = 1`` fallback.  Exceptions are kept
for what leaves ``solve``: ``DimensionMismatchError`` from an
evaluation, ``EvaluationError`` from a non-finite start point and
``ValueError`` from ``SolverConfig``.

The kernel writes H' over H and works in one panel of scratch, two
for ``phi == 1``: it forms H' in row panels of at most ``PANEL_BYTES``
(128 KiB) each, so that a panel's passes stay in cache and the scratch
is small enough for the allocator to reuse without returning it to the
OS.  :func:`panel_rows` balances the panels: it keeps the number of
128 KiB panels but gives each the fewest rows that keep that number, so
that no panel is a runt and the scratch is no larger than the panels
need (at n = 193, three panels of 65/65/63 rows).  A panel's terms read
only its own rows of H, so a solve holds one n x n matrix, not a
second one for the result.  The kernel builds each term of a panel in
place and keeps nothing between calls; for n <= 128 the one panel is
the whole matrix.  If a floating-point error
raised under ``np.errstate`` stops it, H is left partly updated.  It
applies the terms in a fixed order, the order of the floating-point
expressions the variants have always used, so every element rounds
exactly as before and iteration counts and trajectories are bitwise
unchanged; the ``phi == 1`` branch forms ``s s^T`` once per panel for
both of its ``s s^T`` terms, which are the same products.  The order is
part of the contract: a single compact form ``H/tau + [s, Hy] M [s,
Hy]^T`` is algebraically equal but rounds differently, and in its place
five of the six 8-D Rosenbrock golden iteration counts of the
acceptance suite move by one to a few iterations.

A panel's outer products broadcast both operands (one with stride 0),
so numpy cannot fold their rows into one inner loop.  When such rows
are shorter than numpy's ufunc buffer (8192 elements by default),
numpy (2.4, the version measured) copies both operands through the
buffer instead of reading them in place, which makes an outer product
three to four times slower than an in-place pass over the same panel.
The kernel therefore forms its panels with the buffer at numpy's
minimum, ``MIN_UFUNC_BUFSIZE`` elements, whenever one panel holds more
elements than the caller's buffer (n > 90 at the default), and
restores the caller's size on the way out, also when a floating-point
error is raised.  Below that size the save and restore would cost more
than they save.  The buffer only decides where operands are copied:
every element gets the same operations in the same order, so the
results are bitwise the same.
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
# Most bytes of one row panel of the update kernel's scratch: small enough
# that a panel's passes stay in L2 and that the scratch stays below glibc's
# default mmap threshold (128 KiB), so freeing it never returns pages to
# the OS that the next call would fault back in.
PANEL_BYTES = 128 * 1024
# numpy's smallest ufunc buffer, in elements; the kernel's panels are formed
# with it (see the module docstring).
MIN_UFUNC_BUFSIZE = 16


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

    ys: float           # y^T s
    rho: float          # 1 / (y^T s)
    h: float            # (y^T H y) / (y^T s)
    b: float            # (s^T B s) / (y^T s), via the direction identity
    a: float            # b*h - 1, clamped to >= 0
    c: float            # sqrt(a / (1 + a)), 0 in the degenerate case
    Hy: np.ndarray      # H y
    yHy: float          # y^T H y


@dataclass(frozen=True)
class UpdateResult:
    """Outcome of :func:`propose_update` for one iteration.

    ``skip_reason`` is None for an applied update, else why it was
    skipped: ``"curvature_guard"``, ``"not_spd"``, ``"overflow"`` or
    ``"singular_phi"``.  ``H`` is the updated matrix, written over the
    input matrix (or over its scaled copy), or the input matrix unchanged
    when skipped.  ``theta`` and ``tau`` are the values used (0
    and 1 when the chain stopped before computing them); ``coeffs`` is
    None when the chain stopped before the base coefficients.
    """

    H: np.ndarray
    theta: float = 0.0
    tau: float = 1.0
    skip_reason: Optional[str] = None
    tau_fallback: bool = False
    coeffs: Optional[UpdateCoefficients] = None


def curvature_guard(s, y, ys):
    """Accept the pair iff ``ys = y^T s > CURVATURE_EPS * ||s|| * ||y||``.

    The strong Wolfe conditions guarantee y^T s > 0 in exact arithmetic;
    this guards against floating-point failure of that guarantee.  A
    rejected pair means the update is skipped and H carried over.
    """
    return ys > CURVATURE_EPS * norm_2(s) * norm_2(y)


def compute_base_coefficients(H, s, y, ys, g_prev, alpha, scale=1.0):
    """Curvature ratios for an accepted step.

    ``b`` is computed without forming the direct Hessian approximation:
    because ``s = alpha * d`` with ``d = -H_d g_prev``, the identity
    ``B_d s = -alpha * g_prev`` gives ``s^T B_d s = -alpha * s^T g_prev``.
    ``H`` may be ``scale * H_d``, a rescaled copy of the matrix ``H_d``
    that produced the direction; its inverse is ``B_d / scale``, so ``b``
    is divided by ``scale``.

    ``ys`` is ``float(np.dot(y, s))``, computed once by the caller.
    Requires ``y^T s > 0``, which :func:`curvature_guard` establishes
    before this is called.  Returns None when ``y^T H y <= 0`` or ``b <= 0``
    (also by underflow): ``H`` is no longer positive definite.
    """
    Hy = matvec(H, y)
    yHy = float(np.dot(y, Hy))
    rho = 1.0 / ys
    h = yHy / ys
    b = -alpha * float(np.dot(s, g_prev)) / ys / scale
    if not (yHy > 0.0 and b > 0.0):
        return None
    # Cauchy-Schwarz in the H inner product gives b*h >= 1 up to rounding.
    a = max(b * h - 1.0, 0.0)
    c = 0.0 if a < A_DEGENERATE else math.sqrt(a / (1.0 + a))
    return UpdateCoefficients(ys=ys, rho=rho, h=h, b=b, a=a, c=c, Hy=Hy, yHy=yHy)


def compute_theta(variant, coeffs):
    """Mixing parameter theta of the variant.

    Fixed-theta variants return their 0 or 1.  The dynamic variants clamp
    ``(1 - b)/b`` into ``[theta_minus, theta_plus]`` with
    ``rho_minus = min(1, h (1 - c))``, ``theta_minus = (rho_minus - 1)/a``
    and ``theta_plus = 1/rho_minus``; when ``a`` is degenerate the lower
    bound collapses to 0 and the clamp keeps the update inside the
    convex class.  ``rho_minus`` is 0 when ``c`` rounds to 1 or
    ``h (1 - c)`` underflows; ``theta_plus`` is then its limit, +inf.
    """
    fixed = variant.fixed_theta
    if fixed is not None:
        return fixed
    rho_minus = min(1.0, coeffs.h * (1.0 - coeffs.c))
    theta_minus = 0.0 if coeffs.a < A_DEGENERATE else (rho_minus - 1.0) / coeffs.a
    theta_plus = math.inf if rho_minus == 0.0 else 1.0 / rho_minus
    return max(theta_minus, min(theta_plus, (1.0 - coeffs.b) / coeffs.b))


def compute_tau(variant, theta, coeffs, n):
    """Scale factor for the inherited curvature term.

    Returns 1 for the unscaled variants.  The self-scaled ones combine
    ``rho_plus = min(1, 1/b)``, ``sigma = 1 + theta a`` and
    ``sigma_pow = |sigma|^(1/(1-n))``, which attenuates with dimension;
    for ``n = 1`` the exponent is undefined and ``sigma_pow`` is taken as
    1, and ``sigma = 0`` gives ``sigma_pow = 0`` so the min() selects a
    finite alternative.

    Returns None when the computed ``tau`` is non-finite or not safely
    positive; the caller falls back to ``tau = 1`` for the iteration.
    """
    if not variant.self_scaled:
        return 1.0
    rho_plus = min(1.0, 1.0 / coeffs.b)
    sigma = 1.0 + theta * coeffs.a
    if n == 1:
        sigma_pow = 1.0
    elif sigma == 0.0:
        sigma_pow = 0.0
    else:
        sigma_pow = abs(sigma) ** (1.0 / (1.0 - n))
    if theta <= 0.0:
        tau = min(rho_plus * sigma_pow, sigma)
    else:
        tau = rho_plus * min(sigma_pow, 1.0 / theta)
    if not math.isfinite(tau) or tau <= TAU_MIN:
        return None
    return tau


def compute_phi(theta, h, b):
    """Weight of the v v^T term, or None when its denominator vanishes."""
    denom = 1.0 + (h * b - 1.0) * theta
    if abs(denom) <= PHI_DENOM_EPS:
        return None
    return (1.0 - theta) / denom


def panel_rows(n):
    """Rows of one row panel of :func:`apply_update` at dimension ``n``.

    The panels are as many as ``PANEL_BYTES`` panels would be,
    ``ceil(n / rows_max)`` with ``rows_max = PANEL_BYTES // (8 n)`` (at
    least 1), and each gets the fewest rows that keep that count,
    ``ceil(n / panels)``; the last panel is then short by fewer rows
    than there are panels.  ``n`` itself when one panel holds the
    matrix.
    """
    rows_max = max(1, PANEL_BYTES // (8 * n))
    panels = -(-n // rows_max)
    return -(-n // panels)


def apply_update(H, s, coeffs, phi, tau):
    """Overwrite ``H`` with H' for the family member with weight ``phi``
    and scale ``tau``; returns ``H``.

    ``s`` and the vectors of ``coeffs`` are only read.  The kernel forms
    H' in row panels of ``rows = panel_rows(n)`` rows of n, the last
    panel holding what is left.  A panel's terms read only its own
    rows of ``H`` and the vectors ``s``, ``Hy`` and ``v``, which are all
    formed before the loop, so each panel of ``H`` is overwritten in
    place once its rows are read.  The scratch is one panel, two for
    ``phi == 1``.  On rows ``[i, j)`` of ``o = H`` it applies every term
    in this order:

    * ``phi == 1`` (the expanded BFGS product):
      ``cross = s_i (Hy)^T + (Hy)_i s^T``, ``cross *= rho``,
      ``o -= cross``, then ``ss = s_i s^T`` in the cross panel and
      ``o += (rho^2 y^T H y) ss``;
    * otherwise: ``tmp = (Hy)_i (Hy)^T``, ``tmp /= y^T H y``,
      ``o -= tmp``, and ``o += (phi y^T H y) v_i v^T`` when
      ``phi != 0``, with ``v = s / (y^T s) - Hy / (y^T H y)`` formed
      only in that branch;
    * then ``o /= tau`` (skipped for ``tau == 1``, where the division
      is exact) and ``o += rho s_i s^T``, for ``phi == 1`` as
      ``ss *= rho`` on the product formed above.

    Each ``u u^T`` term is scaled as a whole panel and then added, so
    every element sees the same roundings in the same order as the
    expression ``(H - ... + ...) / tau + rho * outer(s, s)``; the cross
    term of row i, column k is ``s_i Hy_k + Hy_i s_k``, the element of
    ``C + C^T`` with ``C = s (Hy)^T``.  That order is part of the
    contract: an algebraically equal reordering rounds differently and
    moves the 8-D Rosenbrock golden iteration counts.  Every term is an
    outer product ``u u^T`` or a symmetric pair sum, so the result is
    exactly symmetric.  When a floating-point error raised under
    ``np.errstate`` stops the kernel, ``H`` is left partly updated.

    When a panel holds more than ``np.getbufsize()`` elements, the
    panels are formed with numpy's ufunc buffer set to
    ``MIN_UFUNC_BUFSIZE``, so that the outer products read their
    operands in place instead of copying them through the buffer.  The
    caller's size is saved by ``np.setbufsize`` and restored by it in a
    ``finally``, not left to ``np.errstate``, which restores the buffer
    size only from numpy 2.0 on.  The error state is not touched.
    """
    n = s.shape[0]
    rho = coeffs.rho
    Hy = coeffs.Hy
    rows = panel_rows(n)
    work = np.empty((rows, n))
    if phi == 1.0:
        cross_work = np.empty((rows, n))
        ss_weight = rho * rho * coeffs.yHy
    elif phi != 0.0:
        v = s / coeffs.ys - Hy / coeffs.yHy
        vv_weight = phi * coeffs.yHy
    old_bufsize = (np.setbufsize(MIN_UFUNC_BUFSIZE) if rows * n > np.getbufsize()
                   else None)
    try:
        for i in range(0, n, rows):
            j = min(i + rows, n)
            o = H[i:j]
            tmp = work[:j - i]
            s_i = s[i:j]
            if phi == 1.0:
                cross = cross_work[:j - i]
                np.multiply.outer(s_i, Hy, out=cross)
                np.multiply.outer(Hy[i:j], s, out=tmp)
                cross += tmp
                cross *= rho
                o -= cross
                ss = np.multiply.outer(s_i, s, out=cross)
                np.multiply(ss, ss_weight, out=tmp)
                o += tmp
            else:
                np.multiply.outer(Hy[i:j], Hy, out=tmp)
                tmp /= coeffs.yHy
                o -= tmp
                if phi != 0.0:
                    np.multiply.outer(v[i:j], v, out=tmp)
                    tmp *= vv_weight
                    o += tmp
            if tau != 1.0:
                o /= tau
            if phi != 1.0:
                ss = np.multiply.outer(s_i, s, out=tmp)
            ss *= rho
            o += ss
    finally:
        if old_bufsize is not None:
            np.setbufsize(old_bufsize)
    return H


def propose_update(variant, H, s, y, g_prev, alpha, scale=1.0):
    """Run curvature guard -> coefficients -> theta -> tau -> phi -> apply.

    ``H`` is the matrix that produced the step ``s = alpha * (-H g_prev)``;
    the update is applied to ``scale * H``.  An applied update consumes
    ``H``: with ``scale == 1`` the kernel overwrites ``H`` itself and
    returns it, otherwise it overwrites the scaled copy ``H * scale``
    and leaves ``H`` as it was.  A pair that fails the guard, a lost
    positive definiteness, a pair so small that ``rho^2 y^T H y``
    overflows (where the guard's bound underflows to 0) or a singular
    ``phi`` yields ``skip_reason`` ``"curvature_guard"``, ``"not_spd"``,
    ``"overflow"`` or ``"singular_phi"`` with ``H`` returned unchanged
    (a scaling is discarded with the skip); an unusable ``tau`` falls
    back to 1 with ``tau_fallback=True``.
    """
    ys = float(np.dot(y, s))
    if not curvature_guard(s, y, ys):
        return UpdateResult(H=H, skip_reason="curvature_guard")
    H_work = H if scale == 1.0 else H * scale
    coeffs = compute_base_coefficients(H_work, s, y, ys, g_prev, alpha, scale)
    if coeffs is None:
        return UpdateResult(H=H, skip_reason="not_spd")
    if not math.isfinite(coeffs.rho * coeffs.rho * coeffs.yHy):
        return UpdateResult(H=H, skip_reason="overflow", coeffs=coeffs)
    theta = compute_theta(variant, coeffs)
    tau = compute_tau(variant, theta, coeffs, s.shape[0])
    tau_fallback = tau is None
    if tau_fallback:
        tau = 1.0
    phi = compute_phi(theta, coeffs.h, coeffs.b)
    if phi is None:
        return UpdateResult(H=H, theta=theta, tau=tau, skip_reason="singular_phi",
                            tau_fallback=tau_fallback, coeffs=coeffs)
    return UpdateResult(H=apply_update(H_work, s, coeffs, phi, tau), theta=theta,
                        tau=tau, tau_fallback=tau_fallback, coeffs=coeffs)
