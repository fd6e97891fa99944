"""Dense linear-algebra helpers and the objective-function contract.

Vectors are 1-D float64 ndarrays, symmetric matrices are 2-D float64
ndarrays that are exactly symmetric (``M[i, j] == M[j, i]`` bitwise);
the update kernel keeps them so by assembling every term from outer
products ``u u^T`` and symmetric pair sums, never from generic
matrix-matrix products.
"""

import numpy as np


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimensions."""


class EvaluationError(RuntimeError):
    """An objective evaluation produced a non-finite value or gradient."""


def as_vector(x, n=None):
    """Coerce ``x`` to a 1-D float64 array, optionally checking its length."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatchError(f"expected a 1-D vector, got shape {v.shape}")
    if n is not None and v.size != n:
        raise DimensionMismatchError(f"expected length {n}, got {v.size}")
    return v


def matvec(m, x):
    """Product of a square (symmetric) matrix with a vector."""
    m = np.asarray(m, dtype=float)
    x = as_vector(x)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[1] != x.size:
        raise DimensionMismatchError(
            f"matrix is {m.shape[0]}x{m.shape[1]} but vector has length {x.size}"
        )
    return m @ x


def norm_inf(v):
    return float(np.max(np.abs(v)))


def norm_2(v):
    return float(np.linalg.norm(v))


class ObjectiveFunction:
    """Contract for a smooth objective with an analytic gradient.

    Subclasses set ``dimension`` and implement ``value_and_gradient``;
    ``value`` and ``gradient`` fall back to the combined evaluation.
    Evaluations must be deterministic and raise :class:`EvaluationError`
    on non-finite output rather than returning NaN/Inf.
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

    def _checked(self, f, g):
        """Validate an evaluation result, surfacing NaN/Inf explicitly."""
        f = float(f)
        if not np.isfinite(f) or not np.all(np.isfinite(g)):
            raise EvaluationError(f"{type(self).__name__} produced a non-finite evaluation")
        return f, g
