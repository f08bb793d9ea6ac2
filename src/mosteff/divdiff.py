"""Component-wise first-order divided differences.

The operator [u, v; F] is built column by column from a "staircase" of m+1
points: point j replaces the first j coordinates of v with those of u, and
column j is the difference quotient of consecutive staircase values.  The
last point is u itself, bit for bit, so a caller that already holds F(u)
passes it and the staircase costs m evaluations instead of m+1.  By
construction the secant identity

    [u, v; F] (u - v) = F(u) - F(v)

telescopes exactly in real arithmetic.  When a coordinate pair coincides the
quotient is 0/0 and the column degenerates to a partial derivative, which we
supply from the analytic Jacobian when the problem carries one and from a
central finite difference otherwise.
"""

import numpy as np

from .errors import DomainViolation, InvalidEvaluation, NonFiniteEvaluation
from .linalg import as_vector, max_norm_vec

# |u_j - v_j| below this relative tolerance switches column j to the
# derivative fallback (the divided difference is a 0/0 form there).
COINCIDENCE_RTOL = 1e-12

_FD_STEP = np.finfo(float).eps ** (1.0 / 3.0)


def evaluate(problem, x):
    """Evaluate F at x with domain, shape and finiteness checks.

    A ValueError or ArithmeticError raised by F (say math.log of a negative
    number, or an OverflowError) becomes InvalidEvaluation.
    """
    x = as_vector(x)
    if problem.domain_check is not None and not problem.domain_check(x):
        raise DomainViolation(f"evaluation point {x} is outside the domain")
    try:
        fx = np.asarray(problem.eval(x), dtype=float)
    except (ValueError, ArithmeticError) as exc:
        raise InvalidEvaluation(f"F({x}) raised {exc!r}") from exc
    if fx.shape != x.shape:
        raise InvalidEvaluation(f"F({x}) has shape {fx.shape}, expected {x.shape}")
    if not np.isfinite(fx).all():
        raise NonFiniteEvaluation(f"F({x}) has non-finite entries")
    return fx


def _central_column(problem, x, j):
    # Central difference in coordinate j with step h = eps^(1/3) (1+|x_j|).
    h = _FD_STEP * (1.0 + abs(x[j]))
    xp = x.copy()
    xm = x.copy()
    xp[j] += h
    xm[j] -= h
    return (evaluate(problem, xp) - evaluate(problem, xm)) / (2.0 * h)


def _derivative_column(problem, w, j):
    # Limit case of column j: the j-th partial derivative at the staircase
    # point w.  Analytic Jacobian wins when available.
    if problem.analytic_jacobian is not None:
        return np.asarray(problem.analytic_jacobian(w), dtype=float)[:, j]
    return _central_column(problem, w, j)


def divided_difference(problem, u, v, fu=None):
    """The m-by-m matrix [u, v; F] for a NonlinearProblem.

    Costs m+1 evaluations of F (the staircase points), or m when the caller
    passes fu = F(u), plus two more per coincident column when no analytic
    Jacobian is available.  fu must be what `evaluate(problem, u)` returns;
    it stands in for the staircase's last point, which equals u.
    """
    u = as_vector(u)
    v = as_vector(v)
    m = u.size
    point = v.copy()
    f_prev = evaluate(problem, point)
    d = np.empty((m, m))
    for j in range(m):
        point[j] = u[j]
        f_next = fu if fu is not None and j == m - 1 else evaluate(problem, point)
        gap = u[j] - v[j]
        if abs(gap) <= COINCIDENCE_RTOL * (1.0 + abs(u[j])):
            d[:, j] = _derivative_column(problem, point, j)
        else:
            d[:, j] = (f_next - f_prev) / gap
        f_prev = f_next
    return d


def secant_defect(problem, u, v):
    """|| [u,v;F](u-v) - (F(u)-F(v)) || — zero up to rounding by telescoping."""
    u = as_vector(u)
    v = as_vector(v)
    d = divided_difference(problem, u, v)
    return max_norm_vec(d @ (u - v) - (evaluate(problem, u) - evaluate(problem, v)))


def numeric_jacobian(problem, x):
    """Central-difference Jacobian, column step h_j = eps^(1/3) (1+|x_j|).

    Fallback for problems without an analytic Jacobian (Newton, moser and
    hald steps, the approximate-inverse B0 and its defect, constant
    estimation) and the IRK stage linearization.  Costs 2m evaluations.
    """
    x = as_vector(x)
    m = x.size
    jac = np.empty((m, m))
    for j in range(m):
        jac[:, j] = _central_column(problem, x, j)
    return jac


def problem_jacobian(problem, x):
    """Analytic Jacobian when present, numeric otherwise."""
    if problem.analytic_jacobian is not None:
        return np.asarray(problem.analytic_jacobian(as_vector(x)), dtype=float)
    return numeric_jacobian(problem, x)
