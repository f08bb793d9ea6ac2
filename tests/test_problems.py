import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mosteff.divdiff import evaluate, numeric_jacobian
from mosteff.errors import SingularMatrix
from mosteff.linalg import lu_solve, max_norm_mat, max_norm_vec
from mosteff import problems
from mosteff.problems import REGISTRY, academic_system, affine_problem, build, example_3d


def test_registry_names():
    assert tuple(REGISTRY) == ("example3d", "academic", "affine")


@pytest.mark.parametrize("name", REGISTRY)
def test_known_solution_is_a_root(name):
    problem = build(name, epsilon=2.0) if name == "academic" else build(name)
    assert max_norm_vec(evaluate(problem, problem.known_solution)) <= 1e-12


@pytest.mark.parametrize("name", REGISTRY)
def test_analytic_jacobian_matches_central_difference(name):
    problem = build(name, epsilon=1.5) if name == "academic" else build(name)
    rng = np.random.default_rng(17)
    for _ in range(100):
        x = rng.uniform(-0.4, 0.4, problem.dimension)
        ana = problem.analytic_jacobian(x)
        num = numeric_jacobian(problem, x)
        assert max_norm_mat(ana - num) <= 1e-6 * (1.0 + max_norm_mat(ana))


def test_example3d_values():
    problem = example_3d()
    x = np.array([0.5, 0.25, -0.3])
    f = evaluate(problem, x)
    assert f[0] == 0.5
    assert f[1] == pytest.approx(0.25**2 + 0.25, rel=1e-15)
    assert f[2] == math.expm1(-0.3)
    assert np.allclose(problem.known_solution, 0.0)
    # root Jacobian is the identity
    assert max_norm_mat(problem.analytic_jacobian(problem.known_solution) - np.eye(3)) == 0.0


def test_example3d_domain_is_open_ball():
    problem = example_3d()
    assert problem.domain_check(np.array([0.99, 0.0, -0.99]))
    assert not problem.domain_check(np.array([0.0, -1.0, 0.0]))


def test_academic_values():
    problem = academic_system(2.0)
    x = np.array([0.3, -0.4])
    f = evaluate(problem, x)
    assert f[0] == pytest.approx(2 * 0.3 - 0.3**2 / 2.0 - 0.4 - (-0.4) ** 2 / 4.0, rel=1e-14)
    assert f[1] == pytest.approx(0.3 - 0.4, rel=1e-14)
    assert np.allclose(problem.known_solution, 0.0)


def test_affine_default_root():
    problem = build("affine")
    assert np.allclose(problem.known_solution, [1.0, 1.0])
    # the Jacobian of an affine map is its matrix, everywhere
    a = problem.analytic_jacobian(np.array([5.0, -7.0]))
    assert np.allclose(a, [[2.0, 1.0], [1.0, 1.0]])


def test_affine_custom():
    problem = affine_problem(np.array([[3.0, 0.0], [0.0, 2.0]]), np.array([6.0, 4.0]))
    assert np.allclose(problem.known_solution, [2.0, 2.0])


def test_affine_problem_refuses_a_by_its_condition_whatever_b():
    # singular to rounding (test_linalg.NEAR_SINGULAR); b = A (1, 1) misses
    # its amplified direction, so a solve alone would pass A
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    b = a @ np.ones(2)
    lu_solve(a, b)
    with pytest.raises(SingularMatrix):
        affine_problem(a, b)


def test_build_errors():
    with pytest.raises(ValueError, match="unknown problem 'nope'; registered: example3d, academic, affine"):
        build("nope")
    with pytest.raises(TypeError):
        build("academic")  # epsilon required
    # params go to the constructor as they are, so an unknown one is refused
    with pytest.raises(TypeError):
        build("example3d", epsilon=3.0)
    with pytest.raises(TypeError):
        build("academic", epsilon=2.0, r_tilde=0.5)
    with pytest.raises(TypeError):
        build("example3d", r_tilde=0.5)  # the domain is the fixed unit ball


@pytest.mark.parametrize("epsilon", [0.0, math.nan, math.inf, -math.inf])
def test_academic_epsilon_must_be_finite_and_nonzero(epsilon):
    with pytest.raises(ValueError, match="finite and nonzero"):
        build("academic", epsilon=epsilon)


def _large_affine_draws(n):
    # well-conditioned 3x3 systems (cond_inf about 2.3) with large right sides
    rng = np.random.default_rng(0)
    for _ in range(n):
        yield rng.normal(size=(3, 3)) + 3.0 * np.eye(3), 1e4 * rng.normal(size=3)


def test_affine_root_check_is_relative_to_the_terms():
    # A x* and b are about 1e4 here, so most roots that are exact to rounding
    # leave a residual above 1e-12; every draw must still register
    above_absolute_bound = 0
    for a, b in _large_affine_draws(200):
        problem = build("affine", a=a, b=b)
        residual = max_norm_vec(evaluate(problem, problem.known_solution))
        assert residual <= 1e-14 * max_norm_vec(b)
        above_absolute_bound += residual > 1e-12
    assert above_absolute_bound >= 100


@pytest.mark.parametrize("rel", [1e-9, -1e-6])
def test_wrong_declared_root_is_rejected(rel):
    for a, b in [(((2.0, 1.0), (1.0, 1.0)), (3.0, 2.0)), *_large_affine_draws(3)]:
        problem = affine_problem(a, b)
        wrong = dataclasses.replace(problem, known_solution=problem.known_solution * (1.0 + rel))
        with pytest.raises(AssertionError, match="registered problem affine"):
            problems._check_registration(wrong)


@pytest.mark.parametrize("arg", ["a", "b"])
def test_affine_problem_rejects_complex_coefficients(arg):
    complex_arg = {"a": [[2.0, 1.0j], [1.0, 1.0]], "b": [3.0, 2.0 + 1j]}[arg]
    with pytest.raises(ValueError, match="complex"):
        affine_problem(**{arg: complex_arg})


# The registry's callbacks as they were written on numpy float64 scalars,
# example3d's with libm's exponentials.  Their Python-float forms must give
# the same bits.
def _academic_reference(eps):
    def f(w):
        x, y = w
        return np.array([2.0 * x - x * x / eps + y - y * y / (2.0 * eps), x + y])

    def jac(w):
        x, y = w
        return np.array([[2.0 - 2.0 * x / eps, 1.0 - y / eps], [1.0, 1.0]])

    return f, jac


def _libm(exp, z):
    # libm raises OverflowError where the value overflows to inf
    try:
        return exp(float(z))
    except OverflowError:
        return math.inf


def _example3d_reference():
    def f(w):
        x, y, z = w
        return np.array([x, y * y + y, _libm(math.expm1, z)])

    def jac(w):
        return np.diag([1.0, 2.0 * w[1] + 1.0, _libm(math.exp, w[2])])

    return f, jac, lambda w: max_norm_vec(w) < 1.0


def _assert_same_bits(value, reference):
    # equal values, NaN where the reference has NaN, and the sign of every zero
    assert value.dtype == reference.dtype and value.shape == reference.shape
    assert np.array_equal(value, reference, equal_nan=True)
    signed = ~np.isnan(reference)
    assert np.array_equal(np.signbit(value[signed]), np.signbit(reference[signed]))


_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, math.nan, math.inf, -math.inf,
             1.0, -1.0, math.nextafter(1.0, 0.0), math.nextafter(-1.0, 0.0), 1e154, 1.5e154, 800.0]
# magnitudes up to 1e300 (x * x and e^z overflow), the unit box, and the specials
_COORDINATE = st.one_of(st.floats(-1e300, 1e300), st.floats(-2.0, 2.0), st.sampled_from(_SPECIALS))
_EPSILON = st.sampled_from([sign * e for sign in (1.0, -1.0) for e in (1e-3, 0.1, 1.0, 3.0, 1e10)])


@settings(max_examples=400)
@given(eps=_EPSILON, point=st.lists(_COORDINATE, min_size=2, max_size=2))
@example(eps=1e-3, point=[1e300, -1e300])
@example(eps=-1e10, point=[-0.0, 5e-324])
@example(eps=3.0, point=[math.inf, math.nan])
def test_academic_callbacks_match_the_numpy_scalar_forms(eps, point):
    problem = academic_system(eps)
    f, jac = _academic_reference(eps)
    w = np.array(point)
    with np.errstate(all="ignore"):
        _assert_same_bits(problem.eval(w), f(w))
        _assert_same_bits(problem.analytic_jacobian(w), jac(w))


@settings(max_examples=400)
@given(point=st.lists(_COORDINATE, min_size=3, max_size=3))
@example(point=[math.nan, 0.0, 0.0])
@example(point=[-0.0, 1e300, 800.0])
@example(point=[0.0, -0.0, -math.inf])
def test_example3d_callbacks_match_the_libm_scalar_forms(point):
    problem = example_3d()
    f, jac, inside = _example3d_reference()
    w = np.array(point)
    with np.errstate(all="ignore"):
        _assert_same_bits(problem.eval(w), f(w))
        _assert_same_bits(problem.analytic_jacobian(w), jac(w))
        numpy_forms = np.expm1(w[2]), np.exp(w[2])
    assert problem.domain_check(w) is inside(w)
    # numpy's exp rounds differently on some arguments, but never gives a
    # NaN or an inf where libm does not, so every typed outcome is numpy's
    for value, numpy_value in zip((problem.eval(w)[2], problem.analytic_jacobian(w)[2, 2]), numpy_forms):
        assert (math.isnan(value), math.isinf(value)) == (np.isnan(numpy_value), np.isinf(numpy_value))


@pytest.mark.parametrize("face", [-1.0, 1.0])
@pytest.mark.parametrize("axis", range(3))
def test_example3d_domain_check_on_the_faces_of_the_box(axis, face):
    # on a face the point is outside; one step of rounding inward, inside
    check, reference = example_3d().domain_check, _example3d_reference()[2]
    for value, expected in [(face, False), (math.nextafter(face, 0.0), True)]:
        w = np.full(3, 0.5)
        w[axis] = value
        assert check(w) is reference(w) is expected
