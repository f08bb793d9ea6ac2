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
from .linalg import all_finite, as_vector, max_norm_vec

# |u_j - v_j| below this relative tolerance switches column j to the
# derivative fallback (the divided difference is a 0/0 form there).
COINCIDENCE_RTOL = 1e-12

_FD_STEP = np.finfo(float).eps ** (1.0 / 3.0)

_FLOAT = np.dtype(float)


def real_values(values, what):
    """`values`, an ndarray that is not float64, converted to float64.

    A complex array raises InvalidEvaluation naming `what`: its imaginary
    part would be dropped without notice.  Any other dtype converts as
    np.asarray(values, dtype=float) would.  Callers check for float64
    first, so a float64 value pays one dtype identity test.
    """
    if values.dtype.kind == "c":
        raise InvalidEvaluation(f"{what} is complex")
    return values.astype(float)


def evaluate(problem, x):
    """Evaluate F at x with domain, shape and finiteness checks.

    A ValueError or ArithmeticError raised by F or by the domain check (say
    math.log of a negative number, or an OverflowError) becomes
    InvalidEvaluation, and so does a complex value of F.
    """
    # A 1-d float64 ndarray is what as_vector would return unchanged.
    if type(x) is not np.ndarray or x.dtype is not _FLOAT or x.ndim != 1 or not x.size:
        x = as_vector(x)
    try:
        if problem.domain_check is not None and not problem.domain_check(x):
            raise DomainViolation(f"evaluation point {x} is outside the domain")
        fx = np.asarray(problem.eval(x))
        if fx.dtype is not _FLOAT:
            fx = real_values(fx, f"F({x})")
    except (ValueError, ArithmeticError) as exc:
        raise InvalidEvaluation(f"F({x}) raised {exc!r}") from exc
    if fx.shape != x.shape:
        raise InvalidEvaluation(f"F({x}) has shape {fx.shape}, expected {x.shape}")
    if not all_finite(fx):
        raise NonFiniteEvaluation(f"F({x}) has non-finite entries")
    return fx


def _analytic_jacobian(problem, x):
    # F'(x) from the problem; a raising callback, a wrong shape or a
    # non-finite entry is mapped as in evaluate.
    try:
        jac = np.asarray(problem.analytic_jacobian(x))
        if jac.dtype is not _FLOAT:
            jac = real_values(jac, f"F'({x})")
    except (ValueError, ArithmeticError) as exc:
        raise InvalidEvaluation(f"F'({x}) raised {exc!r}") from exc
    if jac.shape != (x.size, x.size):
        raise InvalidEvaluation(f"F'({x}) has shape {jac.shape}, expected {(x.size, x.size)}")
    if not all_finite(jac):
        raise NonFiniteEvaluation(f"F'({x}) has non-finite entries")
    return jac


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
        return _analytic_jacobian(problem, w)[:, j]
    return _central_column(problem, w, j)


def coincident_pairs(u, gaps):
    """Where the quotient over gaps = u - v is a 0/0 form: |u_j - v_j| at
    most COINCIDENCE_RTOL (1 + |u_j|), entry by entry, for arrays of any
    shape."""
    return np.abs(gaps) <= COINCIDENCE_RTOL * (1.0 + np.abs(u))


def divided_difference(problem, u, v, fu=None):
    """The m-by-m matrix [u, v; F] for a NonlinearProblem.

    Staircase point j+1 feeds columns j and j+1 (point 0 only column 0,
    point m only column m-1), so it is evaluated only when one of them is
    not coincident.  That costs at most m+1 evaluations of F, or m when the
    caller passes fu = F(u), and none when every column coincides; each
    coincident column costs two more when no analytic Jacobian is
    available.  fu must be what `evaluate(problem, u)` returns; it stands
    in for the staircase's last point, which equals u.

    The loop visits the points in order, evaluating F at each point a
    column reads and then taking each coincident column's derivative there.
    It stacks what column j needs as row j of `ends` and `starts`, so one
    subtraction and one division form every column at once.  A coincident
    column stacks its derivative over a zero start and a unit gap, which
    gives the derivative back bit for bit.
    """
    u = as_vector(u)
    v = as_vector(v)
    m = u.size
    gaps = u - v
    coincident = coincident_pairs(u, gaps).tolist()
    next_coincident = coincident[1:] + [True]  # point m feeds no column m
    point = v.copy()
    ends = np.empty((m, m))  # row j: F at point j+1, or column j's derivative
    starts = np.empty((m, m))  # row j: F at point j, or 0
    if not coincident[0]:
        starts[0] = evaluate(problem, point)
    for j, u_j in enumerate(u.tolist()):
        point[j] = u_j
        if not (coincident[j] and next_coincident[j]):
            f = fu if fu is not None and j == m - 1 else evaluate(problem, point)
            if not next_coincident[j]:
                starts[j + 1] = f
        if coincident[j]:
            ends[j] = _derivative_column(problem, point, j)
            starts[j] = 0.0
            gaps[j] = 1.0
        else:
            ends[j] = f
    return np.divide(ends.T - starts.T, gaps, order="C")


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
        return _analytic_jacobian(problem, as_vector(x))
    return numeric_jacobian(problem, x)
