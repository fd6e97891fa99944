import math

import numpy as np
import pytest

from ssbroyden import (DimensionMismatchError, EvaluationError, ObjectiveFunction,
                       SolverConfig, init_state)
from ssbroyden.core import as_vector, evaluate, matvec, norm_2, norm_inf

from oracles import naive_matvec


def test_as_vector_coerces_lists():
    v = as_vector([1, 2, 3])
    assert v.dtype == np.float64
    assert v.shape == (3,)


def test_as_vector_rejects_bad_shapes():
    with pytest.raises(DimensionMismatchError):
        as_vector(np.zeros((2, 2)))
    with pytest.raises(DimensionMismatchError):
        as_vector([])
    with pytest.raises(DimensionMismatchError):
        as_vector([1.0, 2.0], n=3)


def test_matvec_matches_double_loop_oracle():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 9):
        m = rng.standard_normal((n, n))
        x = rng.standard_normal(n)
        assert np.allclose(matvec(m, x), naive_matvec(m, x), rtol=0, atol=1e-13)


class _Returns:
    """Duck-typed objective that returns a fixed (f, g) pair."""

    dimension = 2

    def __init__(self, f, g):
        self.f, self.g = f, g

    def value_and_gradient(self, x):
        return self.f, self.g


def test_evaluate_returns_float_and_float64_gradient():
    f, g = evaluate(_Returns(np.float32(1.5), [1, 2]), np.zeros(2))
    assert type(f) is float and f == 1.5
    assert type(g) is np.ndarray and g.dtype == np.float64
    assert np.array_equal(g, [1.0, 2.0])


@pytest.mark.parametrize("f, g, error", [
    (float("nan"), [0.0, 0.0], EvaluationError),
    (1.0, [0.0, float("inf")], EvaluationError),
    (-float("inf"), [0.0, 0.0], EvaluationError),
    (1.0, [0.0], DimensionMismatchError),
    (1.0, [[0.0, 0.0]], DimensionMismatchError),
], ids=["nan-value", "inf-gradient", "-inf-value", "short-gradient", "2d-gradient"])
def test_evaluate_rejects_bad_results(f, g, error):
    # A misshapen gradient raises at every evaluation.  A non-finite value
    # or gradient is a rejected evaluation, f = inf, and only the start
    # point turns that into an error.
    problem = _Returns(f, g)
    if error is DimensionMismatchError:
        with pytest.raises(error):
            evaluate(problem, np.zeros(2))
    else:
        f_out, g_out = evaluate(problem, np.zeros(2))
        assert f_out == math.inf
        assert g_out.shape == (2,) and g_out.dtype == np.float64
    with pytest.raises(error):
        init_state(problem, np.zeros(2), SolverConfig(variant="bfgs"))


def test_norms():
    v = np.array([3.0, -4.0])
    assert norm_inf(v) == 4.0
    assert norm_2(v) == 5.0


@pytest.mark.parametrize("n", [1, 2, 25, 500])
def test_norm_2_matches_numpy_bitwise(n):
    rng = np.random.default_rng(n)
    for magnitude in 10.0 ** np.arange(-150, 151, 25):
        v = magnitude * rng.standard_normal(n)
        assert norm_2(v).hex() == float(np.linalg.norm(v)).hex()


class _SquareObjective(ObjectiveFunction):
    dimension = 2

    def value_and_gradient(self, x):
        x = self._validated(x)
        return float(x @ x), 2.0 * x


def test_value_and_gradient_delegation():
    obj = _SquareObjective()
    assert obj.value([1.0, 2.0]) == 5.0
    assert np.array_equal(obj.gradient([1.0, 2.0]), [2.0, 4.0])


def test_validated_enforces_dimension():
    obj = _SquareObjective()
    with pytest.raises(DimensionMismatchError):
        obj.value_and_gradient([1.0, 2.0, 3.0])
