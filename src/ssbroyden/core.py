"""Dense linear-algebra helpers, the objective-function contract and
the solver's one door to the objective.

Vectors are 1-D float64 ndarrays, symmetric matrices are 2-D float64
ndarrays that are exactly symmetric (``M[i, j] == M[j, i]`` bitwise);
the update kernel, ``updates.apply_update``, keeps them so.

Inputs are checked once, where they enter: ``require_integer`` on the
problems' sizes and the iteration cap, ``as_vector`` at the start point
and :func:`evaluate` on every objective evaluation, which marks a
non-finite result as a rejected evaluation, f = inf.  The kernels the
solver calls on the hot path (``matvec``) trust their operands.
"""

import math

import numpy as np


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimensions."""


class EvaluationError(RuntimeError):
    """An objective evaluation produced a non-finite value or gradient."""


def require_integer(name, value):
    """Reject a count that int() would truncate: bools and non-integers."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def as_vector(x, n=None):
    """Coerce ``x`` to a 1-D float64 array, optionally checking its length."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatchError(f"expected a 1-D vector, got shape {v.shape}")
    if n is not None and v.size != n:
        raise DimensionMismatchError(f"expected length {n}, got {v.size}")
    return v


def matvec(m, x):
    """Product of an n x n (symmetric) matrix with a length-n vector.

    Unchecked: the solver builds both operands itself.
    """
    return m @ x


def evaluate(problem, x):
    """Value and gradient of ``problem`` at ``x``: ``(f, g)``.

    ``f`` is a float, ``g`` a float64 copy of the gradient (an objective
    may reuse its buffer); a gradient of another shape than ``x`` raises
    :class:`DimensionMismatchError`.  A non-finite value or gradient is a
    rejected evaluation, returned as ``f = inf``.  This is the solver's
    only call into the objective, so a duck-typed objective gets the
    same checks as an :class:`ObjectiveFunction`.
    """
    f, g = problem.value_and_gradient(x)
    f = float(f)
    g = np.array(g, dtype=float)
    if g.shape != x.shape:
        raise DimensionMismatchError(
            f"gradient has shape {g.shape}, expected {x.shape}")
    if not (math.isfinite(f) and np.isfinite(g).all()):
        f = math.inf
    return f, g


def norm_inf(v):
    return float(np.abs(v).max())


def norm_2(v):
    """Euclidean norm of a 1-D float vector: the ``sqrt(dot(v, v))``
    that ``np.linalg.norm`` computes for one, without its wrapper."""
    return math.sqrt(float(np.dot(v, v)))


class ObjectiveFunction:
    """Contract for a smooth objective with an analytic gradient.

    Subclasses set ``dimension`` and implement ``value_and_gradient``;
    ``value`` and ``gradient`` fall back to the combined evaluation.
    Evaluations must be deterministic.  A direct call checks only that
    ``x`` is a vector of length ``dimension`` (``_validated``) and
    returns what it computes, NaN or Inf included; :func:`evaluate`,
    the solver's door to the objective, is the checked call.
    """

    dimension: int

    def value_and_gradient(self, x):
        raise NotImplementedError

    def value(self, x):
        return self.value_and_gradient(x)[0]

    def gradient(self, x):
        return self.value_and_gradient(x)[1]

    def _validated(self, x):
        return as_vector(x, self.dimension)
