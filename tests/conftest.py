"""Shared generators and helpers for the test suite."""

import sys
from pathlib import Path

import numpy as np
import pytest

from ssbroyden import ObjectiveFunction
from ssbroyden.updates import (
    apply_update,
    compute_base_coefficients,
    compute_phi,
    propose_update,
)

# The rare-path objectives are the digest script's own, so that the tests
# and the bitwise digests exercise the same functions.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from digest import LogBarrier, SteepValley  # noqa: E402,F401


def bounded_spectrum_spd(rng, n, lo=0.5, hi=2.5):
    """SPD matrix with eigenvalues drawn uniformly from [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = rng.uniform(lo, hi, n)
    c = (q * d) @ q.T
    return 0.5 * (c + c.T)  # enforce bitwise symmetry


def quasi_newton_instance(rng, n, g_spectrum=(0.5, 2.5)):
    """One valid (H, s, y, g_prev, alpha) tuple for the update formulas.

    s lies exactly along the quasi-Newton direction -H g_prev, and y = G s
    for a random SPD G with eigenvalues in ``g_spectrum``, i.e. the pair
    (s, y) a quadratic with Hessian G would generate.  That keeps
    y^T s > 0 without any post-hoc nudging.
    """
    H = bounded_spectrum_spd(rng, n, 0.5, 5.0)
    g_prev = rng.standard_normal(n)
    while np.linalg.norm(g_prev) < 1e-3:
        g_prev = rng.standard_normal(n)
    alpha = 0.25 + 1.5 * rng.random()
    d = -(H @ g_prev)
    s = alpha * d
    y = bounded_spectrum_spd(rng, n, *g_spectrum) @ s
    return {"H": H, "s": s, "y": y, "g_prev": g_prev, "alpha": alpha, "n": n}


def propose(variant, inst):
    """propose_update on a copy of one instance's H, which the applied
    update overwrites; returns that copy.  The instances never hit a
    skip."""
    H = inst["H"].copy()
    result = propose_update(variant, H, inst["s"], inst["y"], inst["g_prev"],
                            inst["alpha"])
    assert result.skip_reason is None
    return H


def base_coefficients(inst):
    """``compute_base_coefficients`` of one instance, with y^T s computed
    the way ``propose_update`` computes it."""
    s, y = inst["s"], inst["y"]
    return compute_base_coefficients(inst["H"], s, y, float(np.dot(y, s)),
                                     inst["g_prev"], inst["alpha"])


def family_update(inst, theta, tau=1.0):
    """The family member for a given theta and tau on one instance.

    Runs the update kernel directly, bypassing the variant's own choice
    of theta and tau, on a copy of the instance's H; returns the updated
    copy.
    """
    coeffs = base_coefficients(inst)
    return apply_update(inst["H"].copy(), inst["s"], coeffs,
                        compute_phi(theta, coeffs.h, coeffs.b), tau)


def expression_update(H, s, coeffs, phi, tau):
    """The update kernel written as whole-array expressions.

    Bitwise reference for ``apply_update``: each term is a fresh array
    and the operations run in the order the kernel's contract fixes.  The
    scalars are numpy float64, so numpy reports the IEEE flags that the
    scalar products raise, as it does for the array operations.
    """
    rho, ys, yHy, phi, tau = map(np.float64, (coeffs.rho, coeffs.ys, coeffs.yHy, phi, tau))
    if phi == 1.0:
        cross = np.outer(s, coeffs.Hy)
        cross = cross + cross.T
        core = H - rho * cross + (rho * rho * yHy) * np.outer(s, s)
    else:
        core = H - np.outer(coeffs.Hy, coeffs.Hy) / yHy
        if phi != 0.0:
            v = s / ys - coeffs.Hy / yHy
            core = core + (phi * yHy) * np.outer(v, v)
    return core / tau + rho * np.outer(s, s)


def expression_pinn_evaluation(pinn, x):
    """``PinnPoisson1D.value_and_gradient`` written as whole-array
    expressions.

    Bitwise reference for the workspace evaluation: every intermediate
    is a fresh array and the operations run in the same order.
    """
    w1, b1, w2, b2 = pinn.split(x)
    n_int = pinn.n_interior
    z = np.outer(pinn.xs, w1) + b1
    t = np.tanh(z)
    t1 = 1.0 - t * t
    t2 = -2.0 * t * t1
    t3 = -2.0 * t1 * (1.0 - 3.0 * t * t)
    w1sq = w1 * w1
    r = t2 @ (w2 * w1sq) + pinn.forcing
    loss = 0.5 * float(np.dot(r, r)) / n_int
    rT2 = t2.T @ r
    rT3 = t3.T @ r
    rxT3 = t3.T @ (r * pinn.xs)
    g_w1 = (2.0 * w1 * w2 * rT2 + w2 * w1sq * rxT3) / n_int
    g_b1 = (w2 * w1sq * rT3) / n_int
    g_w2 = (w1sq * rT2) / n_int
    g_b2 = 0.0
    tb = np.tanh(np.outer(pinn.x_boundary, w1) + b1)
    e = tb @ w2 + b2
    n_bnd = e.size
    loss += 0.5 * float(np.dot(e, e)) / n_bnd
    tb1 = 1.0 - tb * tb
    g_w1 = g_w1 + (w2 * ((e * pinn.x_boundary) @ tb1)) / n_bnd
    g_b1 = g_b1 + (w2 * (e @ tb1)) / n_bnd
    g_w2 = g_w2 + (e @ tb) / n_bnd
    g_b2 = g_b2 + float(np.sum(e)) / n_bnd
    return loss, np.concatenate([g_w1, g_b1, g_w2, [g_b2]])


def numpy_flags(function, *args):
    """Names of the IEEE flags numpy reports while ``function(*args)`` runs."""
    seen = set()
    with np.errstate(all="call", call=lambda kind, flag: seen.add(kind)):
        function(*args)
    return seen


@pytest.fixture(scope="session")
def instance_suite():
    """200 deterministic update instances with N cycling through 2..12."""
    rng = np.random.default_rng(20260822)
    return [quasi_newton_instance(rng, 2 + (i % 11)) for i in range(200)]


@pytest.fixture(scope="session")
def interior_theta_suite():
    """100 update instances built like ``instance_suite``'s, N cycling
    through 2..12, but with G's spectrum in [0.05, 0.3].

    That lies mostly below the spectrum [0.2, 2] of H's inverse, so
    b = s^T H^-1 s / y^T s is mostly above 1: the dynamic theta leaves
    DFP's theta = 1 for a value inside [theta_minus, theta_plus], and
    ``ssbfgs``'s tau leaves 1.  In ``instance_suite`` (b <= 1 on nearly
    every instance) ``broyden`` is bitwise ``dfp`` and ``ssbfgs`` is
    ``bfgs`` almost everywhere.
    """
    rng = np.random.default_rng(20261019)
    return [quasi_newton_instance(rng, 2 + (i % 11), g_spectrum=(0.05, 0.3))
            for i in range(100)]


@pytest.fixture(scope="session")
def sized_suite():
    """Update instances outside ``instance_suite``'s sizes (2 to 12): two
    each at n = 160 and n = 300, then n = 193, n = 1 and n = 500, then
    n = 33, n = 67 and n = 1001, which end one, three and one past a
    multiple of 4, the last with an H (8 MB) past a 2 MiB L2."""
    rng = np.random.default_rng(20261018)
    return [quasi_newton_instance(rng, n)
            for n in (160, 160, 300, 300, 193, 1, 500, 33, 67, 1001)]


class CountingObjective(ObjectiveFunction):
    """Wrapper counting combined evaluations of an inner problem."""

    def __init__(self, inner):
        self.inner = inner
        self.dimension = inner.dimension
        self.calls = 0

    def value_and_gradient(self, x):
        self.calls += 1
        return self.inner.value_and_gradient(x)
