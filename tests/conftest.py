"""Shared generators and helpers for the test suite."""

import numpy as np
import pytest

from ssbroyden import ObjectiveFunction, propose_update


def random_spd(rng, n, shift=0.5):
    """Exactly symmetric positive-definite matrix with a spread spectrum."""
    m = rng.standard_normal((n, n))
    c = m @ m.T
    c = 0.5 * (c + c.T)  # enforce bitwise symmetry
    return c + shift * np.eye(n)


def bounded_spectrum_spd(rng, n, lo=0.5, hi=2.5):
    """SPD matrix with eigenvalues drawn uniformly from [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = rng.uniform(lo, hi, n)
    c = (q * d) @ q.T
    return 0.5 * (c + c.T)  # enforce bitwise symmetry


def quasi_newton_instance(rng, n):
    """One valid (H, s, y, g_prev, alpha) tuple for the update formulas.

    s lies exactly along the quasi-Newton direction -H g_prev, and y = G s
    for a random SPD G, i.e. the pair (s, y) a quadratic with Hessian G
    would generate.  That keeps y^T s > 0 without any post-hoc nudging.
    """
    H = bounded_spectrum_spd(rng, n, 0.5, 5.0)
    g_prev = rng.standard_normal(n)
    while np.linalg.norm(g_prev) < 1e-3:
        g_prev = rng.standard_normal(n)
    alpha = 0.25 + 1.5 * rng.random()
    d = -(H @ g_prev)
    s = alpha * d
    y = bounded_spectrum_spd(rng, n, 0.5, 2.5) @ s
    return {"H": H, "s": s, "y": y, "g_prev": g_prev, "alpha": alpha, "n": n}


def propose(variant, inst, **kwargs):
    """propose_update on one instance; the instances never hit a skip."""
    result = propose_update(variant, inst["H"], inst["s"], inst["y"],
                            inst["g_prev"], inst["alpha"], **kwargs)
    assert not result.skipped
    return result


@pytest.fixture(scope="session")
def instance_suite():
    """200 deterministic update instances with N cycling through 2..12."""
    rng = np.random.default_rng(20260822)
    return [quasi_newton_instance(rng, 2 + (i % 11)) for i in range(200)]


class CountingObjective(ObjectiveFunction):
    """Wrapper counting combined evaluations of an inner problem."""

    def __init__(self, inner):
        self.inner = inner
        self.dimension = inner.dimension
        self.calls = 0

    def value_and_gradient(self, x):
        self.calls += 1
        return self.inner.value_and_gradient(x)
