"""Built-in nonlinear systems and the problem registry.

Each problem is a plain immutable record: an evaluation map on a domain,
an optional analytic Jacobian, and an optional known root used for error
reporting in traces.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .linalg import as_matrix, as_vector, lu_solve, max_norm_mat, max_norm_vec, solve_condition
from . import divdiff


@dataclass(frozen=True)
class NonlinearProblem:
    """A map F: Omega in R^m -> R^m with optional extras.

    eval must preserve dimension and be re-entrant.  domain_check returns
    a bool (or numpy.bool_), True for points inside Omega; any other value
    is an invalid evaluation.  domain_check=None means all of R^m.
    known_solution, when present, is a root to full double precision.

    divdiff.evaluate and problem_jacobian hand every callback a 1-d float64
    ndarray.  The registry's callbacks rely on this: they read the point
    with tolist() and do their scalar arithmetic on Python floats, which
    rounds as numpy's float64 scalars do at a fraction of the cost, so a list
    passed to them directly no longer works.
    """

    dimension: int
    eval: Callable[[np.ndarray], np.ndarray]
    analytic_jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    known_solution: Optional[np.ndarray] = None
    domain_check: Optional[Callable[[np.ndarray], bool]] = None
    name: str = ""


def _overflow_to_inf(exp, z):
    try:
        return exp(z)
    except OverflowError:
        return math.inf


def example_3d():
    """Separable 3-d test map F(x,y,z) = (x, y^2+y, e^z-1) on the open
    unit max-norm ball around its root at the origin.

    The Jacobian at the root is the identity, which makes this the standard
    fixture for the convergence-radius machinery."""

    def f(w):
        x, y, z = w.tolist()
        return np.array([x, y * y + y, _overflow_to_inf(math.expm1, z)])

    def jac(w):
        _, y, z = w.tolist()
        return np.array([[1.0, 0.0, 0.0], [0.0, 2.0 * y + 1.0, 0.0], [0.0, 0.0, _overflow_to_inf(math.exp, z)]])

    def inside(w):
        # the bool max_norm_vec(w) < 1.0 gives: a NaN fails both
        x, y, z = w.tolist()
        return -1.0 < x < 1.0 and -1.0 < y < 1.0 and -1.0 < z < 1.0

    return NonlinearProblem(
        dimension=3,
        eval=f,
        analytic_jacobian=jac,
        known_solution=np.zeros(3),
        domain_check=inside,
        name="example3d",
    )


def academic_system(epsilon):
    """Planar system (2x - x^2/eps + y - y^2/(2 eps), x + y) with root (0,0).

    Small eps sharpens the nonlinearity: the Jacobian is singular along the
    line 2x - y = eps, so iterates that wander near it are punished.  This is
    the stress test distinguishing the update-based methods from classical
    Steffensen.
    """
    eps = float(epsilon)
    if eps == 0.0 or not np.isfinite(eps):
        raise ValueError("epsilon must be finite and nonzero")

    def f(w):
        x, y = w.tolist()
        return np.array([2.0 * x - x * x / eps + y - y * y / (2.0 * eps), x + y])

    def jac(w):
        x, y = w.tolist()
        return np.array([[2.0 - 2.0 * x / eps, 1.0 - y / eps], [1.0, 1.0]])

    return NonlinearProblem(
        dimension=2,
        eval=f,
        analytic_jacobian=jac,
        known_solution=np.zeros(2),
        name=f"academic(eps={eps:g})",
    )


def affine_problem(a=((2.0, 1.0), (1.0, 1.0)), b=(3.0, 2.0)):
    """F(x) = Ax - b for invertible A; exactness oracle for every method.

    Raises SingularMatrix when ||A|| ||A^-1|| is at or above
    1 / linalg.PIVOT_RTOL, whatever b is: lu_solve's bound alone would pass
    such an A for a b that misses its most amplified directions.
    """
    a = as_matrix(a)
    b = as_vector(b)
    solve_condition(a)
    root = lu_solve(a, b)

    return NonlinearProblem(
        dimension=b.size,
        eval=lambda x: a @ x - b,
        analytic_jacobian=lambda x: a.copy(),
        known_solution=root,
        name="affine",
    )


REGISTRY = {"example3d": example_3d, "academic": academic_system, "affine": affine_problem}


def build(name, **params):
    """Construct a registered problem by CLI name, passing params to its
    constructor (an unknown or missing parameter raises TypeError).

    example3d:  none
    academic:   epsilon (required)
    affine:     a, b (default [[2,1],[1,1]], (3,2))
    """
    if name not in REGISTRY:
        raise ValueError(f"unknown problem {name!r}; registered: {', '.join(REGISTRY)}")
    problem = REGISTRY[name](**params)
    _check_registration(problem)
    return problem


def _check_registration(problem):
    # Known roots must actually be roots, up to the rounding of F's terms:
    # an affine F = A x - b at x* subtracts terms as large as ||A|| ||x*||,
    # so the residual is measured against 1 + ||F'(x*)|| ||x*||.
    root = problem.known_solution
    if root is not None:
        residual = max_norm_vec(divdiff.evaluate(problem, root))
        scale = 1.0 + max_norm_mat(divdiff.problem_jacobian(problem, root)) * max_norm_vec(root)
        if residual > 1e-12 * scale:
            raise AssertionError(
                f"registered problem {problem.name}: ||F(x*)|| = {residual:.3e}"
                f" exceeds 1e-12 * {scale:.3e}"
            )
