import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from mosteff.errors import SingularMatrix
from mosteff.problems import NonlinearProblem
from mosteff.solvers import SolverConfig, run
from mosteff.linalg import (
    all_finite,
    invert,
    lu_factor,
    lu_solve,
    max_norm_mat,
    max_norm_vec,
    mult_condition,
    solve_condition,
)


def test_max_norms_hand_values():
    assert max_norm_vec(np.array([1.0, -3.0, 2.0])) == 3.0
    # max absolute row sum
    a = np.array([[1.0, -2.0], [3.0, 0.5]])
    assert max_norm_mat(a) == 3.5
    assert max_norm_mat(np.eye(4)) == 1.0


def test_lu_solve_matches_numpy():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = rng.integers(1, 9)
        a = rng.uniform(-1.0, 1.0, (m, m)) + np.eye(m) * m
        b = rng.uniform(-1.0, 1.0, m)
        x = lu_solve(a, b)
        assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-12, atol=1e-12)
        assert max_norm_vec(a @ x - b) <= 1e-10 * (1.0 + max_norm_vec(b))


def test_lu_solve_needs_pivoting():
    # zero pivot in the (0,0) slot; succeeds only with row exchange
    a = np.array([[0.0, 1.0], [1.0, 1.0]])
    assert np.allclose(lu_solve(a, np.array([1.0, 3.0])), [2.0, 1.0])


def test_lu_factor_matrix_rhs():
    # one factorization solves against [b | I]: the solution, the inverse
    # and the condition that the singularity rule reads
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    x, inverse, cond = lu_factor(a, np.array([3.0, 2.0]))
    assert np.allclose(a @ inverse, np.eye(2), atol=1e-14)
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)
    assert cond == max_norm_mat(a) * max_norm_mat(inverse)
    assert lu_factor(a)[0] is None
    sol = np.linalg.solve(a, np.column_stack(([3.0, 2.0], np.eye(2))))
    assert np.array_equal(x, sol[:, 0]) and np.array_equal(inverse, sol[:, 1:])
    # b must have one entry per row; a single entry is not broadcast
    for b in ([1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(ValueError, match="entries"):
            lu_factor(a, np.array(b))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8, 16, 64])
def test_invert_is_the_inverse_a_step_solve_gives(m):
    # without b, lu_factor solves against [0 | I]: the same layout as a
    # step's [b | I], so invert's bits are the step's inverse
    rng = np.random.default_rng(m)
    a = rng.uniform(-1.0, 1.0, (m, m)) + np.eye(m) * m
    assert np.array_equal(invert(a), lu_factor(a, rng.uniform(-1.0, 1.0, m))[1])


def test_singular_raises():
    with pytest.raises(SingularMatrix):
        lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]]))
    for m in (3, 9):  # the Python-float and the numpy norm
        with pytest.raises(SingularMatrix, match="zero or non-finite matrix"):
            lu_factor(np.zeros((m, m)))
    # tiny pivot relative to the matrix scale counts as singular
    with pytest.raises(SingularMatrix):
        lu_factor(np.array([[1e30, 1e30], [1e30, 1e30 * (1.0 + 1e-16)]]))


# Singular only to rounding: elimination leaves a pivot of ~1.1e-15, below
# PIVOT_RTOL * ||A|| = 2e-14, and the condition number is ~4e15.
NEAR_SINGULAR = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])


def test_singular_to_rounding_raises():
    with pytest.raises(SingularMatrix):
        lu_factor(NEAR_SINGULAR)
    with pytest.raises(SingularMatrix):
        lu_solve(NEAR_SINGULAR, np.array([1.0, 2.0]))
    with pytest.raises(SingularMatrix):
        invert(NEAR_SINGULAR)


def test_newton_on_singular_to_rounding_system_is_an_outcome():
    a, b = NEAR_SINGULAR, np.array([1.0, 2.0])
    problem = NonlinearProblem(dimension=2, eval=lambda x: a @ x - b, analytic_jacobian=lambda x: a.copy())
    trace = run(problem, np.zeros(2), SolverConfig(method="newton"))
    assert trace.outcome == "singular_linear_system"


def test_ill_conditioned_but_regular_does_not_raise():
    # condition ~4e13, and a tiny (0,0) entry that only pivoting gets past
    for a in (np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]]), np.array([[1e-20, 1.0], [1.0, 1.0]])):
        x = lu_solve(a, np.array([1.0, 2.0]))
        assert max_norm_vec(a @ x - np.array([1.0, 2.0])) <= 1e-12
        assert max_norm_mat(a @ invert(a) - np.eye(2)) <= 1e-12


def test_singular_on_nonfinite():
    # the norm test refuses the matrix before any factorization
    for entry in (np.nan, np.inf, -np.inf):
        with pytest.raises(SingularMatrix, match="zero or non-finite matrix"):
            lu_factor(np.array([[entry, 0.0], [0.0, 1.0]]))


def test_invert_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = rng.integers(1, 7)
        a = rng.uniform(-1.0, 1.0, (m, m)) + np.eye(m) * m
        assert max_norm_mat(a @ invert(a) - np.eye(m)) <= 1e-12


def test_solve_condition_oracle():
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    assert solve_condition(a) == pytest.approx(np.linalg.cond(a, np.inf), rel=1e-13)


def test_mult_condition():
    # product cancels: ||a|| ||b|| / ||ab|| = 2 * 2 / 1
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    b = np.array([[1.0, -1.0], [0.0, 1.0]])
    assert mult_condition(a, b) == pytest.approx(4.0, rel=1e-14)
    assert mult_condition(np.eye(3), np.eye(3)) == 1.0
    # a product of zero norm has infinite condition
    assert mult_condition(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.0, 1.0]])) == math.inf


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
    st.floats(-100.0, 100.0),
)
def test_max_norm_vec_homogeneous(values, scale):
    v = np.array(values)
    assert max_norm_vec(scale * v) == pytest.approx(abs(scale) * max_norm_vec(v), rel=1e-12)


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
)
def test_max_norm_vec_triangle(u_vals, v_vals):
    m = min(len(u_vals), len(v_vals))
    u, v = np.array(u_vals[:m]), np.array(v_vals[:m])
    assert max_norm_vec(u + v) <= max_norm_vec(u) + max_norm_vec(v) + 1e-9


# Entries from the whole float64 line, with the special values drawn often.
ENTRIES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.2e-308, 1.7e308, -1.7e308]),
    st.floats(width=64),
)


# Sizes 1-8 as often as larger ones: up to 7 entries a row the helpers read
# Python floats, from 8 on the numpy reductions.
SIZES = st.one_of(st.integers(1, 8), st.integers(9, 300))
ORDERS = st.one_of(st.integers(1, 8), st.integers(9, 12))


@st.composite
def float_arrays(draw):
    # 1-d or square 2-d arrays, as given or as a non-contiguous view
    if draw(st.booleans()):
        a = draw(arrays(np.float64, SIZES, elements=ENTRIES))
        views = [a, a[::-1], a[::2]]
    else:
        n = draw(ORDERS)
        a = draw(arrays(np.float64, (n, n), elements=ENTRIES))
        views = [a, a.T, a[::-1, ::-1], a[n // 2:, n // 2:]]
    return draw(st.sampled_from(views))


def _same_bits(x, y):
    return (math.isnan(x) and math.isnan(y)) or struct.pack("<d", x) == struct.pack("<d", y)


# Rows of magnitudes 1e-8 to 1e8, where the order of the additions shows in
# the bits: in the 8-by-8 matrix a left-to-right row sum differs from the
# pairwise one, so taking 8 entries a row as Python floats fails the test.
MIXED = np.random.default_rng(29).standard_normal((8, 8)) * np.logspace(-8, 8, 8)


@given(float_arrays())
@example(np.array([1e200, 1e200]))  # finite, but the squares overflow
@example(np.array([math.inf, math.nan]))
@example(np.array([math.nan, math.inf]))
@example(np.array([5.0, math.nan]))  # NaN after a larger finite entry
@example(np.array([[1.0, 2.0], [math.nan, 0.0]]))  # NaN in a later row
@example(np.array([[1.7e308, 1.7e308], [0.0, 0.0]]))  # finite, but the row sum overflows
@example(np.concatenate((np.ones(255), [math.inf])))
@example(np.array([-0.0]))
@example(np.array([[-0.0, 5e-324], [-5e-324, 2.2e-308]]))  # subnormals
@example(np.array([[1.0, 1e-16, 1e-16]]))  # a compensated sum rounds up to 1 + 2^-52
@example(MIXED[0, :7])
@example(MIXED[0])
@example(MIXED[:7, :7])
@example(MIXED[:7, :7].T)
@example(MIXED)
@example(MIXED.T)
def test_helpers_match_the_ufunc_reductions(a):
    # the Python-float, argmax and dot-product bodies give the reductions'
    # results exactly
    with np.errstate(over="ignore"):  # a row sum of huge entries overflows
        assert all_finite(a) is bool(np.isfinite(a).all())
        if a.ndim == 1:
            got, want = max_norm_vec(a), float(np.maximum.reduce(np.abs(a)))
        else:
            got, want = max_norm_mat(a), float(np.maximum.reduce(np.add.reduce(np.abs(a), axis=1)))
    assert type(got) is float
    assert _same_bits(got, want)


def test_all_finite_warns_of_no_overflow():
    # the sum of squares overflows for these finite entries; the test
    # answers without a RuntimeWarning, as np.isfinite does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all_finite(np.array([1e200, -1e300]))
        assert all_finite(np.full((3, 3), 1.7e308))
        assert not all_finite(np.array([1e200, math.inf]))
