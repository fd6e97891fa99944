import numpy as np
import pytest

from ssbroyden import DimensionMismatchError, EvaluationError, ObjectiveFunction
from ssbroyden.core import as_vector, matvec, norm_2, norm_inf

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


def test_matvec_rejects_mismatched_shapes():
    with pytest.raises(DimensionMismatchError):
        matvec(np.zeros((2, 3)), np.zeros(3))
    with pytest.raises(DimensionMismatchError):
        matvec(np.eye(2), np.zeros(3))


def test_norms():
    v = np.array([3.0, -4.0])
    assert norm_inf(v) == 4.0
    assert norm_2(v) == 5.0


class _NanObjective(ObjectiveFunction):
    dimension = 2

    def value_and_gradient(self, x):
        x = self._validated(x)
        return self._checked(float("nan"), x)


class _SquareObjective(ObjectiveFunction):
    dimension = 2

    def value_and_gradient(self, x):
        x = self._validated(x)
        return self._checked(float(x @ x), 2.0 * x)


def test_checked_raises_on_non_finite():
    with pytest.raises(EvaluationError):
        _NanObjective().value_and_gradient([1.0, 2.0])


def test_value_and_gradient_delegation():
    obj = _SquareObjective()
    assert obj.value([1.0, 2.0]) == 5.0
    assert np.array_equal(obj.gradient([1.0, 2.0]), [2.0, 4.0])


def test_validated_enforces_dimension():
    obj = _SquareObjective()
    with pytest.raises(DimensionMismatchError):
        obj.value_and_gradient([1.0, 2.0, 3.0])
