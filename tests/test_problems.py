import dataclasses
import math

import numpy as np
import pytest

from mosteff.divdiff import evaluate, numeric_jacobian
from mosteff.linalg import max_norm_mat, max_norm_vec
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
    assert f[2] == pytest.approx(np.expm1(-0.3), rel=1e-15)
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
