import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mosteff.errors import SingularMatrix
from mosteff.problems import NonlinearProblem
from mosteff.solvers import SolverConfig, run
from mosteff.linalg import (
    SOLVE_COLUMNS,
    all_finite,
    as_matrix,
    as_vector,
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


@pytest.mark.parametrize("convert, value, message", [
    (as_vector, 1.0, "expected a 1-d vector of dimension >= 1"),
    (as_vector, [], "expected a 1-d vector of dimension >= 1"),
    (as_vector, np.eye(2), "expected a 1-d vector of dimension >= 1"),
    (as_matrix, [1.0, 2.0], "expected a square 2-d matrix"),
    (as_matrix, np.ones((2, 3)), "expected a square 2-d matrix"),
    (as_matrix, np.ones((2, 2, 2)), "expected a square 2-d matrix"),
], ids=["vector-scalar", "vector-empty", "vector-matrix", "matrix-vector", "matrix-2x3", "matrix-3d"])
def test_conversions_refuse_the_wrong_shape(convert, value, message):
    with pytest.raises(ValueError, match=message):
        convert(value)


def test_lu_factor_matrix_rhs():
    # one factorization solves against [b | 0] with b, [0 | I] without, and
    # returns ||A|| beside the solution for its callers' singularity rules
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    norm, sol = lu_factor(a, np.array([3.0, 2.0]))
    assert norm == max_norm_mat(a) == 3.0
    assert sol.shape == (2, SOLVE_COLUMNS)
    assert np.allclose(sol[:, 0], [1.0, 1.0], atol=1e-14) and not sol[:, 1:].any()
    assert np.array_equal(sol[:, 0], lu_solve(a, np.array([3.0, 2.0])))
    norm, sol = lu_factor(a)
    assert sol.shape == (2, 3) and not sol[:, 0].any()
    assert np.allclose(a @ sol[:, 1:], np.eye(2), atol=1e-14)
    assert np.array_equal(sol[:, 1:], invert(a))
    # b must have one entry per row; a single entry is not broadcast
    for b in ([1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(ValueError, match="entries"):
            lu_factor(a, np.array(b))


def test_lu_factor_of_an_integer_matrix_is_that_of_its_float_copy():
    # an int matrix and rhs are converted, not refused, with the float bits
    a, b = np.array([[4, 1, 0], [1, 3, -1], [0, -1, 2]]), np.array([1, 2, 3])
    (norm, sol), (norm_f, sol_f) = (lu_factor(a, b), lu_factor(a.astype(float), b.astype(float)))
    assert a.dtype.kind == "i" and norm == norm_f and np.array_equal(sol, sol_f)
    assert np.array_equal(lu_solve(a, b), lu_solve(a.astype(float), b.astype(float)))
    assert np.array_equal(invert(a), invert(a.astype(float)))
    assert solve_condition(a) == solve_condition(a.astype(float))


def _seeded_system(m):
    # a diagonally dominant A and a b, each at a seeded scale
    rng = np.random.default_rng(m)
    a = (rng.uniform(-1.0, 1.0, (m, m)) + np.eye(m) * m) * 10.0 ** rng.uniform(-3.0, 3.0)
    return a, rng.uniform(-1.0, 1.0, m) * 10.0 ** rng.uniform(-3.0, 3.0)


def _solve_against_b_and_i(a, b):
    # the layout a newton or steffensen step solved against before it
    # solved against b alone: [b | I], the solution and the inverse together
    rhs = np.eye(len(b), len(b) + 1, 1)
    rhs[:, 0] = b
    return np.linalg.solve(a, rhs)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8, 16, 64])
def test_invert_is_the_inverse_a_step_solve_gave(m):
    # without b, lu_factor solves against [0 | I]: the layout of the steps'
    # [b | I], so invert's bits, and B0's, are that solve's inverse
    a, b = _seeded_system(m)
    assert np.array_equal(invert(a), _solve_against_b_and_i(a, b)[:, 1:])


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8, 16, 64, 256])
def test_a_solve_has_the_bits_of_column_0_of_a_solve_against_b_and_i(m):
    # the zero columns of [b | 0] keep the step's bits: column 0 of a
    # one-column solve differs from that of [b | I] on most of these
    a, b = _seeded_system(m)
    assert np.array_equal(lu_solve(a, b), _solve_against_b_and_i(a, b)[:, 0])


def test_singular_raises():
    with pytest.raises(SingularMatrix):
        lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]]))
    for m in (3, 9):  # the Python-float and the numpy norm
        with pytest.raises(SingularMatrix, match="zero or non-finite matrix"):
            lu_factor(np.zeros((m, m)))
    # tiny pivot relative to the matrix scale counts as singular, whether
    # or not the LU leaves it exactly zero
    tiny_pivot = np.array([[1e30, 1e30], [1e30, 1e30 * (1.0 + 1e-16)]])
    for refuse in (invert, solve_condition, lambda a: lu_solve(a, np.array([1.0, 0.0]))):
        with pytest.raises(SingularMatrix):
            refuse(tiny_pivot)


# Singular only to rounding: elimination leaves a pivot of ~1.1e-15, below
# PIVOT_RTOL * ||A|| = 2e-14, and the condition number is ~4e15.
NEAR_SINGULAR = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])


def test_singular_to_rounding_raises():
    with pytest.raises(SingularMatrix):
        solve_condition(NEAR_SINGULAR)
    with pytest.raises(SingularMatrix):
        lu_solve(NEAR_SINGULAR, np.array([1.0, 2.0]))
    with pytest.raises(SingularMatrix):
        invert(NEAR_SINGULAR)


def test_a_solve_refuses_by_the_bound_its_b_reaches():
    # ||A|| ||x|| / ||b|| is only a lower bound of the condition: for
    # b = A (1, 1), which misses NEAR_SINGULAR's amplified direction, it is
    # about 1 and the solve returns x, while the exact rule refuses A
    b = NEAR_SINGULAR @ np.ones(2)
    x = lu_solve(NEAR_SINGULAR, b)
    assert max_norm_vec(x) * max_norm_mat(NEAR_SINGULAR) < 10.0 * max_norm_vec(b)
    for exact_rule in (invert, solve_condition):
        with pytest.raises(SingularMatrix):
            exact_rule(NEAR_SINGULAR)


def test_a_zero_right_side_has_the_zero_solution():
    for m in (1, 3, 9):
        a, _ = _seeded_system(m)
        x = lu_solve(a, np.zeros(m))
        assert x.shape == (m,) and not x.any()


def test_a_solution_that_overflows_is_judged_by_the_exact_rule():
    # finite A and b whose solution overflows: refused when A is singular to
    # the exact rule, returned as it is when b is too large for a regular A
    with pytest.raises(SingularMatrix, match="condition"):
        lu_solve(np.array([[1e-300, 0.0], [0.0, 1.0]]), np.array([1e300, 1.0]))
    assert lu_solve(np.array([[1e-15]]), np.array([1e308])).tolist() == [math.inf]


# 2-by-2 and 3-by-3 matrices singular to rounding or nearly so: a rank-one
# u v^T, plus delta times a perturbation, over delta from 1e-18 to 1e-10
# relative to ||u v^T||; b has entries of either sign
NEAR_SINGULAR_SYSTEMS = st.integers(2, 3).flatmap(lambda m: st.tuples(
    arrays(np.float64, m, elements=st.floats(-4.0, 4.0).filter(lambda v: abs(v) >= 0.25)),
    arrays(np.float64, m, elements=st.floats(-4.0, 4.0).filter(lambda v: abs(v) >= 0.25)),
    arrays(np.float64, (m, m), elements=st.floats(-1.0, 1.0)),
    st.floats(-18.0, -10.0),
    arrays(np.float64, m, elements=st.floats(-1.0, 1.0)),
))


@settings(max_examples=300)
@given(NEAR_SINGULAR_SYSTEMS)
@example((np.ones(2), np.ones(2), np.array([[0.0, 0.0], [0.0, 1.0]]), -15.0, np.array([1.0, 1.0])))
@example((np.ones(2), np.ones(2), np.array([[0.0, 0.0], [0.0, 1.0]]), -15.0, np.array([1.0, -1.0])))
def test_the_exact_rule_refuses_what_a_solve_refuses(system):
    # the bound is sound: whenever lu_solve refuses A, so do solve_condition
    # and invert (Higham 2002, ch. 15: ||A|| ||x|| / ||b|| <= ||A|| ||A^-1||)
    u, v, e, exponent, b = system
    rank_one = np.outer(u, v)
    a = rank_one + 10.0 ** exponent * max_norm_mat(rank_one) * e
    try:
        lu_solve(a, b)
    except SingularMatrix:
        for exact_rule in (invert, solve_condition):
            with pytest.raises(SingularMatrix):
                exact_rule(a)


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


def test_an_overflowing_product_has_infinite_condition():
    # ||AB|| overflows to inf, as do ||A|| ||B||; the quotient would be NaN,
    # which diagnose's max over two conditions keeps only when it comes first
    big = np.array([[1e200, 0.0], [0.0, 1.0]])
    with np.errstate(over="ignore"):
        overflowing = mult_condition(big, big)
    finite = mult_condition(np.eye(2), np.eye(2))
    assert overflowing == math.inf
    assert max(overflowing, finite) == max(finite, overflowing) == math.inf


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
