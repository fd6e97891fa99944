import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssbroyden import (
    PinnPoisson1D,
    QuadraticProblem,
    RosenbrockProblem,
    make_pinn1d,
    make_quadratic,
    make_rosenbrock,
)
from ssbroyden import problems, updates
from ssbroyden.core import evaluate
from ssbroyden.updates import kernel
from ssbroyden.problems import (
    LCG_INCREMENT,
    LCG_MULTIPLIER,
    LCG_SEED,
    default_start,
)

from conftest import expression_pinn_evaluation, numpy_flags
from oracles import finite_difference_gradient

# frozen reproducible start for the width-4 network (13 parameters)
GOLDEN_LCG_M4 = (
    0.06823032664390771, -0.2745365710522486, -0.08716168117048817,
    0.1303980498395979, 0.18014780724211565, -0.4737710893000615,
    -0.478239196688907, -0.3475449575423879, -0.026039154194443692,
    -0.4752006840250517, -0.14324789835594254, 0.028899203301731125,
    0.4204702833737127,
)


def rel_err(approx, exact):
    return np.max(np.abs(approx - exact)) / max(1.0, np.max(np.abs(exact)))


# ------------------------------------------------------------- quadratic

def test_quadratic_value_and_gradient():
    quad = QuadraticProblem(np.array([1.0, 10.0]))
    f, g = quad.value_and_gradient(np.array([1.0, 1.0]))
    assert f == 5.5
    assert np.array_equal(g, [1.0, 10.0])


def test_quadratic_rejects_bad_diagonal():
    with pytest.raises(ValueError):
        QuadraticProblem(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        QuadraticProblem(np.array([1.0, -2.0]))
    with pytest.raises(ValueError, match="positive and finite"):
        QuadraticProblem([1.0, np.inf])


def test_quadratic_keeps_a_copy_of_its_diagonal():
    # a later write to the caller's array cannot undo the curvature check
    diag = np.array([1.0, 2.0])
    quad = QuadraticProblem(diag)
    diag[0] = -5.0
    assert np.array_equal(quad.diag, [1.0, 2.0])
    assert quad.value_and_gradient(np.ones(2))[0] == 1.5


def test_make_quadratic_spectrum():
    quad = make_quadratic(10)
    assert np.array_equal(quad.diag, np.arange(1.0, 11.0))
    assert quad.dimension == 10
    assert np.array_equal(quad.default_start(), np.ones(10))


def test_quadratic_rejects_bad_sizes():
    # Sizes int() would truncate are rejected; numpy integers pass.
    for n in (2.5, True, 4.0, np.float64(2.0)):
        with pytest.raises(ValueError):
            make_quadratic(n)
    # and the message names the size, not the shape it would make
    for n in (0, -1):
        with pytest.raises(ValueError, match=rf"^dimension must be >= 1, got {n}$"):
            make_quadratic(n)
    assert make_quadratic(np.int64(3)).dimension == 3


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 10**6))
def test_quadratic_nonnegative_with_exact_gradient(seed):
    rng = np.random.default_rng(seed)
    quad = make_quadratic(6)
    x = rng.standard_normal(6) * 10.0
    f, g = quad.value_and_gradient(x)
    assert f >= 0.0
    assert np.array_equal(g, quad.diag * x)


# ------------------------------------------------------------ rosenbrock

def test_rosenbrock_minimum_and_start():
    rosen = RosenbrockProblem(2)
    f, g = rosen.value_and_gradient(np.ones(2))
    assert f == 0.0
    assert np.array_equal(g, np.zeros(2))
    assert np.array_equal(rosen.default_start(), [-1.2, 1.0])
    f0, _ = rosen.value_and_gradient(rosen.default_start())
    assert abs(f0 - 24.2) <= 1e-12


def test_rosenbrock_rejects_odd_or_small_dimension():
    # Sizes int() would truncate are rejected too; numpy integers pass.
    for n in (0, 1, 3, 7, 4.0, 2.5, True, np.float64(4.0)):
        with pytest.raises(ValueError):
            RosenbrockProblem(n)
    assert RosenbrockProblem(np.int64(4)).dimension == 4


def test_rosenbrock_extended_start_repeats_pairs():
    rosen = make_rosenbrock(8)
    assert np.array_equal(rosen.default_start(),
                          [-1.2, 1.0, -1.2, 1.0, -1.2, 1.0, -1.2, 1.0])
    # pairwise structure: value is 4x the 2-D value at the repeated point
    f8, _ = rosen.value_and_gradient(rosen.default_start())
    f2, _ = RosenbrockProblem(2).value_and_gradient(np.array([-1.2, 1.0]))
    assert abs(f8 - 4.0 * f2) <= 1e-12


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 10**6), st.sampled_from([2, 4, 8]))
def test_rosenbrock_nonnegative(seed, n):
    rng = np.random.default_rng(seed)
    f, _ = RosenbrockProblem(n).value_and_gradient(rng.standard_normal(n) * 3.0)
    assert f >= 0.0


# ------------------------------------------------------------------ pinn

def test_pinn_zero_network_loss_closed_form():
    # u = 0 leaves only the forcing residual; the interior sum of
    # sin^2 over 16 uniform points is 17/2, so loss = 17 pi^4 / 64
    pinn = PinnPoisson1D(m=8, n_interior=16)
    x = np.zeros(pinn.dimension)
    f, _ = pinn.value_and_gradient(x)
    assert abs(f - 17.0 * np.pi ** 4 / 64.0) <= 1e-12


def naive_pinn_loss(pinn, x):
    """Scalar-loop reimplementation of the collocation loss."""
    w1, b1, w2, b2 = pinn.split(x)
    total = 0.0
    for xi in pinn.xs:
        upp = 0.0
        for j in range(pinn.m):
            t = math.tanh(w1[j] * xi + b1[j])
            upp += w2[j] * w1[j] ** 2 * (-2.0 * t * (1.0 - t * t))
        r = upp + math.pi ** 2 * math.sin(math.pi * xi)
        total += r * r
    total /= 2.0 * pinn.n_interior
    # u* = sin(pi x) vanishes at both ends
    for xb in pinn.x_boundary:
        u = sum(w2[j] * math.tanh(w1[j] * xb + b1[j]) for j in range(pinn.m)) + b2
        total += u ** 2 / 4.0
    return total


def test_pinn_loss_matches_direct_summation():
    pinn = PinnPoisson1D(m=4, n_interior=16)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.standard_normal(pinn.dimension)
        f, _ = pinn.value_and_gradient(x)
        assert abs(f - naive_pinn_loss(pinn, x)) <= 1e-12 * max(1.0, abs(f))


def test_pinn_zero_network_boundary_exactly_zero():
    pinn = make_pinn1d()
    vals = pinn.network_values(np.zeros(pinn.dimension), pinn.x_boundary)
    assert np.array_equal(vals, [0.0, 0.0])


def test_pinn_l2_error_zero_network():
    pinn = make_pinn1d()
    expected = math.sqrt(float(np.mean(np.sin(np.pi * pinn.xs) ** 2)))
    assert abs(pinn.l2_error(np.zeros(pinn.dimension)) - expected) <= 1e-14


def test_pinn_rejects_bad_sizes():
    with pytest.raises(ValueError):
        PinnPoisson1D(m=0)
    with pytest.raises(ValueError):
        PinnPoisson1D(m=4, n_interior=0)
    # Sizes int() would truncate are rejected; numpy integers pass.
    for m, n_int in ((2.5, 7), (2, 7.9), (True, 7), (2, True), (4.0, 7),
                     (np.float64(2.0), 7)):
        with pytest.raises(ValueError):
            make_pinn1d(m=m, n_interior=n_int)
    pinn = make_pinn1d(m=np.int64(3), n_interior=np.int32(7))
    assert (pinn.m, pinn.n_interior, pinn.dimension) == (3, 7, 10)


@pytest.mark.parametrize("m, n_int", [(1, 1), (3, 7), (8, 32), (64, 512)])
def test_pinn_workspace_matches_expression_form_bitwise(m, n_int):
    # The workspace evaluation rounds exactly like the whole-array
    # expressions, also when evaluations at two points interleave.
    pinn = PinnPoisson1D(m=m, n_interior=n_int)
    rng = np.random.default_rng(m + n_int)
    x1, x2, x3 = (rng.uniform(-1.5, 1.5, pinn.dimension) for _ in range(3))
    # Signed zeros: all +0, all -0, and each entry's sign drawn at random,
    # alone and mixed into a random point.
    zeros = np.zeros(pinn.dimension)
    signs = rng.choice([0.0, -0.0], pinn.dimension)
    mixed = np.where(rng.random(pinn.dimension) < 0.5, signs, x1)
    for x in (pinn.default_start(), x1, x2, x1, x3, zeros, -zeros, signs,
              mixed):
        f, g = pinn.value_and_gradient(x)
        f_ref, g_ref = expression_pinn_evaluation(pinn, x)
        assert float.hex(f) == float.hex(f_ref)
        assert g.tobytes() == g_ref.tobytes()


@pytest.mark.parametrize("m, n_int", [(3, 7), (8, 32), (64, 512)])
def test_pinn_nonfinite_and_huge_parameters_match_expression_form(m, n_int):
    # Entries of +-inf, NaN and +-1e308 (whose products overflow) give the
    # values of the whole-array expressions, NaN where they give NaN; the
    # NaN payload bits may differ.  m = 1 is left out: there np.dot of a
    # one-column matrix with a +-0 weight gives 0 for a NaN or inf entry,
    # where the expressions' @ gives NaN.
    pinn = PinnPoisson1D(m=m, n_interior=n_int)
    rng = np.random.default_rng(m * n_int)
    specials = [np.inf, -np.inf, np.nan, 1e308, -1e308]
    points = []
    # One special entry in each of the w1, b1, w2 and b2 blocks in turn,
    # so inf as well as NaN reaches f and g ...
    for value in specials:
        for block in range(4):
            x = rng.uniform(-1.5, 1.5, pinn.dimension)
            x[block * m + rng.integers(m if block < 3 else 1)] = value
            points.append(x)
    # ... and points mixing all of them with signed zeros.
    for share in (0.25, 0.5, 1.0):
        x = rng.uniform(-1.5, 1.5, pinn.dimension)
        where = rng.random(pinn.dimension) < share
        x[where] = rng.choice(specials + [0.0, -0.0], where.sum())
        points.append(x)
    for x in points:
        with np.errstate(all="ignore"):
            f, g = pinn.value_and_gradient(x)
            f_ref, g_ref = expression_pinn_evaluation(pinn, x)
        assert f == f_ref or (math.isnan(f) and math.isnan(f_ref))
        assert np.array_equal(g, g_ref, equal_nan=True)


def test_pinn_width_one_nan_point_is_rejected_by_evaluate():
    # The m = 1 case left out above: np.dot with the +-0 weight w2 drops
    # the NaN bias from f, so f is finite where the expressions give NaN,
    # but g still holds NaN, so core.evaluate rejects the point (f = inf)
    # and no solve sees the finite f.
    pinn = PinnPoisson1D(m=1, n_interior=4)
    x = np.array([0.5, np.nan, 0.0, 0.1])
    with np.errstate(all="ignore"):
        f, g = pinn.value_and_gradient(x)
        f_ref, _ = expression_pinn_evaluation(pinn, x)
    assert math.isfinite(f) and math.isnan(f_ref)
    assert np.isnan(g).any()
    assert evaluate(pinn, x)[0] == math.inf


def test_pinn_gradient_does_not_alias_workspace():
    pinn = PinnPoisson1D(m=8, n_interior=32)
    rng = np.random.default_rng(3)
    x1, x2 = (rng.uniform(-1.0, 1.0, pinn.dimension) for _ in range(2))
    _, g1 = pinn.value_and_gradient(x1)
    kept = g1.copy()
    assert not np.shares_memory(g1, pinn._work)
    assert not np.shares_memory(g1, pinn._parts)
    _, g2 = pinn.value_and_gradient(x2)
    assert not np.shares_memory(g2, pinn._work)
    assert not np.shares_memory(g2, pinn._parts)
    assert not np.shares_memory(g1, g2)
    assert g1.tobytes() == kept.tobytes()


def test_pinn_evaluation_allocates_less_than_one_grid_array():
    # One evaluation at the benchmark's width holds no (N, m) temporary:
    # the grid arrays live in the workspace made at construction.
    pinn = PinnPoisson1D(m=64, n_interior=512)
    x = pinn.default_start()
    pinn.value_and_gradient(x)
    tracemalloc.start()
    try:
        pinn.value_and_gradient(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 64 * 8


def test_pinn_grid_is_read_only_and_never_shared():
    pinn = PinnPoisson1D(m=8, n_interior=32)
    grid = pinn._grid
    assert grid.shape == (34,)
    assert np.array_equal(grid, np.concatenate([pinn.xs, pinn.x_boundary]))
    with pytest.raises(ValueError):
        grid[0] = 2.0
    with pytest.raises(ValueError):
        grid *= 2.0
    _, g = pinn.value_and_gradient(pinn.default_start())
    assert not np.shares_memory(g, grid)
    assert not np.shares_memory(grid, pinn._work)


def test_pinn_strided_point_matches_its_contiguous_copy():
    # The compiled passes read w1 and b1 as contiguous vectors; a strided
    # point is evaluated as its copy is.
    pinn = PinnPoisson1D(m=3, n_interior=7)
    strided = np.random.default_rng(5).uniform(-1.0, 1.0, 2 * pinn.dimension)[::2]
    f, g = pinn.value_and_gradient(strided)
    f_ref, g_ref = pinn.value_and_gradient(strided.copy())
    assert float.hex(f) == float.hex(f_ref)
    assert g.tobytes() == g_ref.tobytes()


def pinn_flag_points(pinn, rng):
    """Points whose evaluation raises IEEE flags: z overflows in one unit
    (w1 = b1 = 1e308), and inf or NaN entries in each block in turn."""
    m = pinn.m
    points = []
    for unit in (0, m - 1):
        x = rng.uniform(-1.5, 1.5, pinn.dimension)
        x[unit] = x[m + unit] = 1e308
        points.append(x)
    for value in (np.inf, -np.inf, np.nan):
        for block in range(4):
            x = rng.uniform(-1.5, 1.5, pinn.dimension)
            x[block * m + rng.integers(m if block < 3 else 1)] = value
            points.append(x)
    return points


@pytest.mark.parametrize("m, n_int", [(3, 7), (8, 32)])
def test_pinn_reports_the_expression_forms_flags(m, n_int):
    # The compiled passes' flags are replayed through numpy: an evaluation
    # reports the kinds the whole-array expressions report, and a kind set
    # to raise raises.
    pinn = PinnPoisson1D(m=m, n_interior=n_int)
    points = pinn_flag_points(pinn, np.random.default_rng(m + n_int))
    kinds = set()
    for i, x in enumerate(points):
        got = numpy_flags(pinn.value_and_gradient, x)
        assert got == numpy_flags(expression_pinn_evaluation, pinn, x), i
        kinds |= got
    assert kinds == {"overflow", "invalid value"}
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        pinn.value_and_gradient(points[0])


def test_pinn_passes_come_from_the_one_loaded_module():
    # problems builds and loads nothing: it takes the module updates loaded.
    assert problems.kernel is updates.kernel
    assert problems.replay_flags is updates.replay_flags


def test_pinn_passes_refuse_buffers_they_cannot_use():
    # A workspace of the wrong shape, strided or read-only, a grid of the
    # wrong length and a float32 or short w1 are refused before anything
    # is written, and every view taken is released.
    pinn = PinnPoisson1D(m=4, n_interior=7)
    x = pinn.default_start()
    pinn.value_and_gradient(x)
    before = pinn._work.tobytes()
    good = {"pinn_z": (pinn._work, pinn._grid, x[:4], x[4:8]),
            "pinn_derivatives": (pinn._work,)}
    read_only = pinn._work.copy()
    read_only.flags.writeable = False
    bad_works = [np.zeros((3, 9, 4)), np.zeros((4, 9, 8))[:, :, ::2],
                 np.zeros((4, 9, 4), dtype=np.float32), read_only]
    calls = [(name, (work, *args[1:])) for name, args in good.items() for work in bad_works]
    z_args = good["pinn_z"]
    calls += [("pinn_z", (np.zeros((4, 10, 4)), *z_args[1:])),
              ("pinn_z", (z_args[0], z_args[1][:-1], *z_args[2:])),
              ("pinn_z", (*z_args[:2], z_args[2].astype(np.float32), z_args[3])),
              ("pinn_z", (*z_args[:2], z_args[2][:-1], z_args[3])),
              ("pinn_z", (*z_args[:3], None))]
    for name, args in calls:
        arrays = [a for a in args if a is not None]
        kept = [(a.tobytes(), sys.getrefcount(a)) for a in arrays]
        with pytest.raises(ValueError, match=f"^{name} needs"):
            getattr(kernel, name)(*args)
        assert [(a.tobytes(), sys.getrefcount(a)) for a in arrays] == kept, name
    assert pinn._work.tobytes() == before
    # The same calls with good buffers, around tanh, fill it as before.
    assert kernel.pinn_z(*good["pinn_z"]) == 0
    np.tanh(pinn._work[0], out=pinn._work[0])
    assert kernel.pinn_derivatives(*good["pinn_derivatives"]) == 0
    assert pinn._work.tobytes() == before


# -------------------------------------------------------- start vectors

def test_pinn_initial_parameters_frozen_vector():
    pinn = PinnPoisson1D(m=4)
    assert pinn.dimension == 13
    assert np.array_equal(pinn.default_start(), GOLDEN_LCG_M4)


def test_pinn_initial_parameters_integer_recurrence():
    # independent integer reimplementation of the generator
    pinn = PinnPoisson1D(m=6)
    state = LCG_SEED
    expected = []
    for _ in range(pinn.dimension):
        state = (LCG_MULTIPLIER * state + LCG_INCREMENT) % (1 << 64)
        expected.append(state / 2.0 ** 64 - 0.5)
    assert np.array_equal(pinn.default_start(), expected)


def test_default_start_helper_dispatches():
    for prob in (make_quadratic(4), make_rosenbrock(4), make_pinn1d(m=4)):
        assert np.array_equal(default_start(prob), prob.default_start())


# ------------------------------------------------------ gradient checks

def test_gradient_quadratic_exact_under_central_difference():
    quad = make_quadratic(10)
    x = quad.default_start()
    fd = finite_difference_gradient(quad, x, h=1e-5)
    _, g = quad.value_and_gradient(x)
    assert rel_err(fd, g) <= 1e-8


def test_gradient_rosenbrock_finite_difference():
    rosen = make_rosenbrock(2)
    x = rosen.default_start()
    fd = finite_difference_gradient(rosen, x, h=1e-6)
    _, g = rosen.value_and_gradient(x)
    assert rel_err(fd, g) <= 1e-6


def test_gradient_pinn_finite_difference():
    pinn = PinnPoisson1D(m=4, n_interior=16)
    x = pinn.default_start()
    fd = finite_difference_gradient(pinn, x, h=1e-6)
    _, g = pinn.value_and_gradient(x)
    assert rel_err(fd, g) <= 1e-5


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10**6))
def test_gradient_pinn_random_points(seed):
    rng = np.random.default_rng(seed)
    pinn = PinnPoisson1D(m=3, n_interior=8)
    x = rng.uniform(-1.0, 1.0, pinn.dimension)
    fd = finite_difference_gradient(pinn, x, h=1e-6)
    _, g = pinn.value_and_gradient(x)
    assert rel_err(fd, g) <= 1e-5
