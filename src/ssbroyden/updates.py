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

The kernel is one compiled function of ``_kernel.c`` that writes H' over
H with no matrix-sized scratch, so a solve holds one n x n matrix.  It
rounds every element as the variants' floating-point expressions do,
bit for bit (see :func:`apply_update`), and needs a symmetric H: where
``tau != 1`` and ``phi != 1`` it reads only the upper triangle of H and
its 4 x 4 diagonal blocks.  The header of ``_kernel.c`` describes its two
traversals and why each path takes the one it does.  The file is one
CPython extension module, :data:`kernel`, which also holds the two
elementwise passes of ``problems.PinnPoisson1D``; it is built and loaded
once, here, and :func:`replay_flags` raises the IEEE flags every entry
returns.  It is compiled on first import, with sysconfig's ``CC``
(else ``cc``), ``KERNEL_CFLAGS`` and the Python headers, to the
package's ``__pycache__``; a C compiler, the Python headers and the
modules that run the compiler are needed only while no module for the
source and the interpreter's ABI is cached.  On x86-64 with glibc the
update loop is built for AVX2 and for baseline x86-64, and the dynamic loader
picks the copy the CPU can run; the loops make no reduction, so both
copies give the same bits.
"""

import enum
import hashlib
import math
import os
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import module_from_spec, spec_from_file_location
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
    ``"singular_phi"``.  The result holds no matrix: an applied update
    writes H' over the H it was given, and a skip leaves that H
    unchanged.  ``theta`` and ``tau`` are the values used (0 and 1 when
    the chain stopped before computing them); ``coeffs`` is None when
    the chain stopped before the base coefficients.
    """

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
    The coefficients are those of ``scale * H``, formed without building
    that matrix: ``H y`` is multiplied by ``scale``, and since the inverse
    of ``scale * H`` is ``B_d / scale``, ``b`` is divided by ``scale``.

    ``ys`` is ``float(np.dot(y, s))``, computed once by the caller.
    Requires ``y^T s > 0``, which :func:`curvature_guard` establishes
    before this is called.  Returns None when ``y^T H y <= 0`` or ``b <= 0``
    (also by underflow): ``H`` is no longer positive definite.
    """
    Hy = matvec(H, y)
    if scale != 1.0:
        Hy *= scale
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
    """Path of the extension module built from the C file ``source``.

    It is cached in the ``__pycache__`` next to ``source``, named by a hash
    of the source bytes, ``KERNEL_CFLAGS`` and the interpreter's extension
    suffix, which names its ABI, and ends in that suffix.  A missing one
    is compiled against the Python headers to a temporary name and moved
    into place, so no process loads a half written file; just before the
    move, the builds it supersedes (the others with this suffix there)
    are removed.  A cache directory that cannot be made or a failing
    compiler (one that finds no ``Python.h`` included) raises
    RuntimeError naming the command.
    """
    code = Path(source).read_bytes()
    suffix = EXTENSION_SUFFIXES[0]
    key = hashlib.sha256(code + "\0".join((*KERNEL_CFLAGS, suffix)).encode()).hexdigest()[:16]
    path = Path(source).parent / "__pycache__" / f"_kernel-{key}{suffix}"
    if path.exists():
        return path
    # Imported here: only a compile needs them.
    import shlex
    import subprocess
    import sysconfig

    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    command = [*shlex.split(sysconfig.get_config_var("CC") or "cc"), *KERNEL_CFLAGS,
               "-x", "c", "-o", str(tmp), "-I" + sysconfig.get_paths()["include"], "-"]
    try:
        path.parent.mkdir(exist_ok=True)
        done = subprocess.run(command, input=code, capture_output=True)
        if done.returncode == 0:
            for stale in path.parent.glob(f"_kernel-*{suffix}"):
                stale.unlink(missing_ok=True)
            return tmp.replace(path)
        error = f"exited {done.returncode}:\n{done.stderr.decode(errors='replace')}"
    except OSError as exc:
        error = str(exc)
    finally:
        tmp.unlink(missing_ok=True)
    raise RuntimeError(f"cannot build the update kernel: `{shlex.join(command)}` {error}")


def load_kernel(path):
    """The extension module at ``path``, as built by :func:`build_kernel`."""
    spec = spec_from_file_location("ssbroyden._kernel", path)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: The compiled module: the update kernel here and the PINN grid's two
#: elementwise passes, which ``problems`` takes from here.
kernel = load_kernel(build_kernel())
_rank_two_update = kernel.rank_two_update
# np.divide operands that raise divide by zero, overflow, underflow and
# invalid: the entries' flag bits 1, 2, 4 and 8, in the order numpy reports them.
_FLAG_OPERANDS = np.array([[1.0, 1e308, 1e-308, 0.0], [0.0, 1e-10, 1e10, 0.0]])


def replay_flags(raised):
    """Raise again, through one numpy operation and so under the caller's
    ``np.errstate``, the IEEE flags an entry of :data:`kernel` returned:
    bits 1 divide by zero, 2 overflow, 4 underflow and 8 invalid.  numpy
    names that operation, ``divide``, in its warnings and errors."""
    if raised:
        np.divide(*_FLAG_OPERANDS[:, [bool(raised & 1 << bit) for bit in range(4)]])


def apply_update(H, s, coeffs, phi, tau):
    """Overwrite ``H`` with H' for the family member with weight ``phi``
    and scale ``tau``; returns ``H``.

    ``H`` must be a symmetric, C-contiguous, writeable float64 n x n
    array and ``s`` and ``coeffs.Hy`` C-contiguous float64 vectors of
    length n, else ValueError (symmetry is not checked), and nothing is
    written; the vectors are only read.  Each element ``o = H[i, k]``
    gets, in this order, each step rounded once:

    * ``phi == 1`` (the expanded BFGS product):
      ``o -= (s_i Hy_k + Hy_i s_k) rho``, ``o += (s_i s_k) (rho^2 y^T H y)``;
    * otherwise ``o -= (Hy_i Hy_k) / y^T H y``, then, if ``phi != 0``,
      ``o += (v_i v_k) (phi y^T H y)``, ``v = s / y^T s - Hy / y^T H y``;
    * then ``o /= tau`` unless ``tau == 1``, and ``o += (s_i s_k) rho``.

    That order is the contract: a compact form ``H/tau + [s, Hy] M [s,
    Hy]^T`` is algebraically equal but rounds differently, and moves five
    of the six 8-D Rosenbrock golden iteration counts.  Where
    ``tau != 1`` and ``phi != 1`` only the upper triangle of ``H`` and
    its 4 x 4 diagonal blocks are read, and each ``H'[i, k]``, ``i < k``,
    is also written to ``H'[k, i]``: since ``H`` is symmetric and every
    term commutes exactly, each element still gets the bits its own
    operations give, and the result is exactly symmetric.  The header of
    ``_kernel.c`` describes the traversals.
    The kernel forms ``v`` itself and returns the IEEE flags it raised
    (the mirrored elements' operations raise the same ones), which one
    numpy operation replays under the caller's ``np.errstate`` after
    ``H`` is fully written, for every ``phi``.

    The kernel is the extension entry ``rank_two_update``, which takes H,
    s and Hy through the buffer protocol and checks them there: a call
    costs ~1-2 us at n = 25.  Its AVX2 copy, which the dynamic loader
    picks on an x86-64 CPU with AVX2 under glibc, and its baseline copy
    give the same bits.
    """
    replay_flags(_rank_two_update(H, s, coeffs.Hy, coeffs.ys, coeffs.rho, coeffs.yHy, phi, tau))
    return H


def propose_update(variant, H, s, y, g_prev, alpha, rescale=False):
    """Run curvature guard -> coefficients -> theta -> tau -> phi -> apply.

    ``H`` is the matrix that produced the step ``s = alpha * (-H g_prev)``.
    ``rescale`` applies the update to ``gamma * H``, ``gamma = y^T s /
    y^T y`` (Nocedal & Wright, eq. 6.20) from the guard's ``y^T s``, or
    to ``H`` when ``y^T y`` underflows to 0.  An applied update writes
    H' over ``H``, the rescale included.  A pair that fails the guard, a
    lost positive definiteness, a pair so small that ``rho^2 y^T H y``
    overflows (where the guard's bound underflows to 0) or a singular
    ``phi`` yields ``skip_reason`` ``"curvature_guard"``, ``"not_spd"``,
    ``"overflow"`` or ``"singular_phi"`` and leaves ``H`` unchanged (a
    rescale is discarded with the skip); an unusable ``tau`` falls back
    to 1 with ``tau_fallback=True``.
    """
    ys = float(np.dot(y, s))
    if not curvature_guard(s, y, ys):
        return UpdateResult(skip_reason="curvature_guard")
    scale = 1.0
    if rescale:
        yy = float(np.dot(y, y))
        scale = ys / yy if yy > 0.0 else 1.0
    coeffs = compute_base_coefficients(H, s, y, ys, g_prev, alpha, scale)
    if coeffs is None:
        return UpdateResult(skip_reason="not_spd")
    if not math.isfinite(coeffs.rho * coeffs.rho * coeffs.yHy):
        return UpdateResult(skip_reason="overflow", coeffs=coeffs)
    theta = compute_theta(variant, coeffs)
    tau = compute_tau(variant, theta, coeffs, s.shape[0])
    tau_fallback = tau is None
    if tau_fallback:
        tau = 1.0
    phi = compute_phi(theta, coeffs.h, coeffs.b)
    if phi is None:
        return UpdateResult(theta=theta, tau=tau, skip_reason="singular_phi",
                            tau_fallback=tau_fallback, coeffs=coeffs)
    if scale != 1.0:
        H *= scale
    apply_update(H, s, coeffs, phi, tau)
    return UpdateResult(theta=theta, tau=tau, tau_fallback=tau_fallback, coeffs=coeffs)
