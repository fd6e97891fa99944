"""Benchmark objectives with analytic gradients.

Three problems at desk scale: a separable convex quadratic, the
pairwise extended Rosenbrock function, and a collocation least-squares
training problem for a tiny one-hidden-layer tanh network fitted to a
1D Poisson equation (u'' = -f on (0,1) with zero boundary values,
manufactured solution sin(pi*x)).

The network problem is deliberately stiff and nonconvex; its loss is

    L = 1/(2*N_int) * sum_i (u''(x_i) + f(x_i))^2
      + 1/(2*N_bnd) * sum_j (u(x_j) - u*(x_j))^2

over a fixed uniform interior grid and the two endpoints.  All tanh
derivatives are formed from t = tanh(z) alone: tanh' = 1 - t^2,
tanh'' = -2 t (1 - t^2), tanh''' = -2 (1 - t^2)(1 - 3 t^2).
"""

import numpy as np

from .core import ObjectiveFunction, as_vector, require_integer
from .updates import kernel, replay_flags

# 64-bit linear congruential generator constants for the deterministic
# network initializer (reproducible without a platform RNG).
LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
LCG_SEED = 42
_LCG_MOD = 1 << 64


class QuadraticProblem(ObjectiveFunction):
    """f(x) = 1/2 * sum_i diag_i * x_i^2 with positive, finite diagonal curvatures.

    ``diag`` is a copy of the curvatures given, checked once: a later
    write to the caller's array changes neither the problem nor what
    was checked.
    """

    def __init__(self, diag):
        diag = as_vector(diag).copy()
        if not np.all((diag > 0.0) & (diag < np.inf)):
            raise ValueError("all diagonal curvatures must be positive and finite")
        self.diag = diag
        self.dimension = diag.size

    def value_and_gradient(self, x):
        x = self._validated(x)
        g = self.diag * x
        f = 0.5 * float(np.dot(g, x))
        return f, g

    def default_start(self):
        return np.ones(self.dimension)


class RosenbrockProblem(ObjectiveFunction):
    """Pairwise extended Rosenbrock function of even dimension.

    f(x) = sum over pairs (a, b) of 100*(b - a^2)^2 + (1 - a)^2, with
    the unique global minimum f = 0 at the all-ones point.
    """

    def __init__(self, n=2):
        require_integer("dimension", n)
        if n < 2 or n % 2 != 0:
            raise ValueError(f"dimension must be even and >= 2, got {n}")
        self.dimension = int(n)

    def value_and_gradient(self, x):
        x = self._validated(x)
        a = x[0::2]
        b = x[1::2]
        gap = b - a * a
        f = float(np.sum(100.0 * gap * gap + (1.0 - a) ** 2))
        g = np.empty_like(x)
        g[0::2] = -400.0 * a * gap - 2.0 * (1.0 - a)
        g[1::2] = 200.0 * gap
        return f, g

    def default_start(self):
        return np.tile([-1.2, 1.0], self.dimension // 2)


class PinnPoisson1D(ObjectiveFunction):
    """Collocation least-squares loss for u'' + f = 0, u(0) = u(1) = 0.

    The trial function is a width-m tanh network
    u(x) = sum_j w2_j * tanh(w1_j * x + b1_j) + b2, so the parameter
    vector is [w1, b1, w2, b2] of length 3m + 1.  The forcing
    f(x) = pi^2 sin(pi*x) makes u*(x) = sin(pi*x) the exact solution.
    Interior residuals are enforced on the uniform grid
    x_i = i / (n_interior + 1).

    ``value_and_gradient`` forms tanh and its three derivatives in a
    ``(4, n_interior + 2, m)`` workspace allocated once, here: the rows
    are the interior grid followed by the two boundary points, a
    read-only vector made here too, so one pass over the grid serves
    both terms of the loss.  Two passes of the compiled module in
    ``updates`` (see ``_kernel.c``) fill the workspace on either side of
    numpy's ``tanh``: z = w1 x + b1, and then, from t = tanh(z), the
    three derivative rows.  Each element gets the IEEE operations the
    whole-array expressions give it, in their order, so the bits are
    numpy's; the flags they raise are replayed through one numpy
    operation under the caller's ``np.errstate``.  ``tanh`` and the
    reductions stay numpy's.  The interior and boundary parts of the
    w1, b1 and w2 gradient are built in a ``(2, 3, m)`` scratch, also
    allocated here, and added into the returned gradient, so an
    evaluation allocates no ``(n_interior, m)`` array.  What it returns
    is freshly allocated and never aliases the grid or either buffer.
    Because of the shared buffers, one instance must not be evaluated
    from two threads at once.
    """

    def __init__(self, m=8, n_interior=32):
        require_integer("m", m)
        require_integer("n_interior", n_interior)
        if m < 1 or n_interior < 1:
            raise ValueError("need m >= 1 hidden units and n_interior >= 1 points")
        self.m = int(m)
        self.n_interior = int(n_interior)
        self.dimension = 3 * self.m + 1
        self.xs = np.arange(1, self.n_interior + 1) / (self.n_interior + 1)
        self.forcing = np.pi ** 2 * np.sin(np.pi * self.xs)
        self.x_boundary = np.array([0.0, 1.0])
        n_int, m = self.n_interior, self.m
        # The workspace rows: the interior points, then the boundary points.
        self._grid = np.concatenate([self.xs, self.x_boundary])
        self._grid.flags.writeable = False
        # t, t1, t2 and t3 of value_and_gradient.
        self._work = np.empty((4, n_int + 2, m))
        # The interior and boundary parts of [g_w1, g_b1, g_w2].
        self._parts = np.empty((2, 3, m))
        # Views into both, made once: at the paper's size, unpacking or
        # slicing an array on every call costs as much as the arithmetic.
        t, t1, t2, t3 = self._work
        self._work_views = (t, t2[:n_int], t3[:n_int], t[n_int:], t1[n_int:])
        self._part_views = (*self._parts.reshape(2, 3 * m),
                            *self._parts.reshape(6, m))

    def split(self, x):
        """Parameter vector -> (w1, b1, w2, b2) views."""
        m = self.m
        return x[0:m], x[m:2 * m], x[2 * m:3 * m], x[3 * m]

    def value_and_gradient(self, x):
        # The compiled passes read w1 and b1 as contiguous vectors.
        x = np.ascontiguousarray(self._validated(x))
        w1, b1, w2, b2 = self.split(x)
        n_int = self.n_interior
        t, t2_int, t3_int, tb, tb1 = self._work_views
        (interior, boundary,
         g_w1, g_b1, g_w2, gb_w1, gb_b1, gb_w2) = self._part_views

        # tanh and its derivatives on every row, built in place in the
        # workspace.
        replay_flags(kernel.pinn_z(self._work, self._grid, w1, b1))  # t = w1 x + b1
        np.tanh(t, out=t)                       # t = tanh(z)
        # t1 = 1 - t t, t2 = (-2 t1) t and t3 = (1 - (3 t) t)(-2 t1);
        # doubling is exact, so (-2 t1) t rounds as (-2 t) t1.
        replay_flags(kernel.pinn_derivatives(self._work))

        # Interior: second-derivative residuals on the interior rows.
        w1sq = w1 * w1
        w2w1sq = w2 * w1sq
        r = np.dot(t2_int, w2w1sq)              # u''(x_i)
        r += self.forcing
        loss = 0.5 * float(np.dot(r, r)) / n_int

        rT2 = np.dot(r, t2_int)                 # (m,)
        rT3 = np.dot(r, t3_int)
        rxT3 = np.dot(r * self.xs, t3_int)
        np.multiply(2.0, w1, out=g_w1)
        g_w1 *= w2
        g_w1 *= rT2
        g_w1 += w2w1sq * rxT3
        np.multiply(w2w1sq, rT3, out=g_b1)
        np.multiply(w1sq, rT2, out=g_w2)
        interior /= n_int

        # Boundary: value mismatch at the two endpoints, the last two
        # rows; u* vanishes at both, so the mismatch is u itself.
        e = np.dot(tb, w2)
        e += b2
        loss += 0.5 * float(np.dot(e, e)) / 2
        np.dot(e * self.x_boundary, tb1, out=gb_w1)
        gb_w1 *= w2
        np.dot(e, tb1, out=gb_b1)
        gb_b1 *= w2
        np.dot(e, tb, out=gb_w2)
        boundary /= 2.0

        g = np.empty(self.dimension)
        np.add(interior, boundary, out=g[:-1])
        # The b2 gradient: 0.0, its interior part, plus the mean of e.
        # e0 + e1 is the sum np.sum(e) forms up to the sign of a zero
        # result, and adding 0.0 makes that sign +.
        e0, e1 = e.tolist()
        g[-1] = 0.0 + (e0 + e1) / 2
        return loss, g

    def network_values(self, x, points):
        """Evaluate the trial function at the given points."""
        x = self._validated(x)
        w1, b1, w2, b2 = self.split(x)
        return np.tanh(np.outer(points, w1) + b1) @ w2 + b2

    def l2_error(self, x):
        """Root-mean-square error of the trial function against
        sin(pi*x) over the interior grid."""
        diff = self.network_values(x, self.xs) - np.sin(np.pi * self.xs)
        return float(np.sqrt(np.mean(diff * diff)))

    def default_start(self):
        """Deterministic uniform(-0.5, 0.5) init from a 64-bit LCG.

        The state advances before each draw and each draw maps to
        state / 2^64 - 0.5, filling the [w1, b1, w2, b2] layout in order.
        """
        state = LCG_SEED
        values = np.empty(self.dimension)
        for i in range(self.dimension):
            state = (LCG_MULTIPLIER * state + LCG_INCREMENT) % _LCG_MOD
            values[i] = state / _LCG_MOD - 0.5
        return values


def default_start(problem):
    """Canonical start point for a benchmark problem."""
    return problem.default_start()


def make_quadratic(n=10):
    """Quadratic with curvatures 1..n (condition number n)."""
    require_integer("n", n)
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return QuadraticProblem(np.arange(1, n + 1, dtype=float))


# The problem classes under their factory names: one signature and one
# set of defaults each.
make_rosenbrock = RosenbrockProblem
make_pinn1d = PinnPoisson1D
