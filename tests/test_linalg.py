import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mosteff.errors import SingularMatrix
from mosteff.problems import NonlinearProblem
from mosteff.solvers import SolverConfig, run
from mosteff.linalg import (
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


def test_singular_raises():
    with pytest.raises(SingularMatrix):
        lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularMatrix):
        lu_factor(np.zeros((3, 3)))
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
    with pytest.raises(SingularMatrix):
        lu_factor(np.array([[np.nan, 0.0], [0.0, 1.0]]))


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
    assert mult_condition(np.eye(2), np.eye(2), np.zeros((2, 2))) == math.inf


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
