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

The kernel is one compiled loop, ``_kernel.c``, that writes H' over H
in a single pass with no matrix-sized scratch, so a solve holds one
n x n matrix.  It rounds every element as the variants' floating-point
expressions do (see :func:`apply_update`).  It is compiled on first
import, with sysconfig's ``CC`` (else ``cc``) and ``KERNEL_CFLAGS``, to
the package's ``__pycache__`` and loaded through ``ctypes``; a C
compiler is needed only while no library for the source is cached.
"""

import ctypes
import enum
import hashlib
import math
import os
import shlex
import subprocess
import sysconfig
from dataclasses import dataclass
from pathlib import Path
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
# The C source of the update kernel and the flags it is built with.
KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")
KERNEL_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")


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


def build_kernel(source=KERNEL_SOURCE):
    """Path of the shared library built from the C file ``source``.

    It is cached in the ``__pycache__`` next to ``source``, named by a hash
    of the source bytes and ``KERNEL_CFLAGS``.  A missing one is compiled
    to a temporary name and moved into place, so no process loads a half
    written file; a failing compiler raises RuntimeError naming the command.
    """
    code = Path(source).read_bytes()
    key = hashlib.sha256(code + "\0".join(KERNEL_CFLAGS).encode()).hexdigest()[:16]
    path = Path(source).parent / "__pycache__" / f"_kernel-{key}.so"
    if path.exists():
        return path
    path.parent.mkdir(exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    command = [*shlex.split(sysconfig.get_config_var("CC") or "cc"), *KERNEL_CFLAGS,
               "-x", "c", "-o", str(tmp), "-"]
    try:
        done = subprocess.run(command, input=code, capture_output=True)
        if done.returncode == 0:
            return tmp.replace(path)
        error = f"exited {done.returncode}:\n{done.stderr.decode(errors='replace')}"
    except OSError as exc:
        error = str(exc)
    finally:
        tmp.unlink(missing_ok=True)
    raise RuntimeError(f"cannot build the update kernel: `{shlex.join(command)}` {error}")


_rank_two_update = ctypes.CDLL(str(build_kernel())).rank_two_update
_rank_two_update.restype = ctypes.c_int
_rank_two_update.argtypes = ((ctypes.c_void_p, ctypes.c_ssize_t) + (ctypes.c_void_p,) * 3
                             + (ctypes.c_double,) * 4)
# np.divide operands that raise divide by zero, overflow, underflow and
# invalid: the kernel's flag bits 1, 2, 4 and 8, in the order numpy reports them.
_FLAG_OPERANDS = np.array([[1.0, 1e308, 1e-308, 0.0], [0.0, 1e-10, 1e10, 0.0]])


def apply_update(H, s, coeffs, phi, tau):
    """Overwrite ``H`` with H' for the family member with weight ``phi``
    and scale ``tau``; returns ``H``.

    ``H`` must be a C-contiguous, writeable float64 n x n array, else
    ValueError; ``s`` and the vectors of ``coeffs`` are only read.  Each
    element ``o = H[i, k]`` gets, in this order, each step rounded once:

    * ``phi == 1`` (the expanded BFGS product):
      ``o -= (s_i Hy_k + Hy_i s_k) rho``, ``o += (s_i s_k) (rho^2 y^T H y)``;
    * otherwise ``o -= (Hy_i Hy_k) / y^T H y``, then, if ``phi != 0``,
      ``o += (v_i v_k) (phi y^T H y)``, ``v = s / y^T s - Hy / y^T H y``;
    * then ``o /= tau`` unless ``tau == 1``, and ``o += (s_i s_k) rho``.

    That order is the contract: a compact form ``H/tau + [s, Hy] M [s,
    Hy]^T`` is algebraically equal but rounds differently, and moves five
    of the six 8-D Rosenbrock golden iteration counts.  Every term is
    symmetric in i and k, so the result is exactly symmetric.  The loop
    returns the IEEE flags it raised, and one numpy operation raising the
    same flags replays them under the caller's ``np.errstate``, after
    ``H`` is fully written.
    """
    n = s.shape[0]
    s = np.ascontiguousarray(s, dtype=np.float64)
    Hy = np.ascontiguousarray(coeffs.Hy, dtype=np.float64)
    if not (H.flags.carray and H.dtype == np.float64 and H.shape == (n, n)
            and Hy.shape == (n,)):
        raise ValueError("apply_update needs a C-contiguous, writeable float64 (n, n) H")
    v = None if phi in (0.0, 1.0) else s / coeffs.ys - Hy / coeffs.yHy
    raised = _rank_two_update(H.ctypes.data, n, s.ctypes.data, Hy.ctypes.data,
                              None if v is None else v.ctypes.data, coeffs.rho,
                              coeffs.yHy, phi, tau)
    if raised:
        np.divide(*_FLAG_OPERANDS[:, [bool(raised & 1 << bit) for bit in range(4)]])
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
