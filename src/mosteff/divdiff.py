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

Every value of F passes one gate.  `evaluate` takes one point: the domain
check, then F, its value checked by `checked_call`.  `evaluate_batch` takes
the rows of a block in order under the same rules and tests the whole
block's finiteness once, for a caller with many points and no use for a value
before the last (`analysis.estimate_constants`).  Both still call F once per
point.  `divided_difference` goes through `evaluate` point by point, since a
coincident column reads F' between two of its points.
"""

import numpy as np

from .errors import DomainViolation, InvalidEvaluation, NonFiniteEvaluation
from .linalg import all_finite, as_vector, max_norm_vec

# |u_j - v_j| below this relative tolerance switches column j to the
# derivative fallback (the divided difference is a 0/0 form there).
COINCIDENCE_RTOL = 1e-12

_FD_STEP = np.finfo(float).eps ** (1.0 / 3.0)

_FLOAT = np.dtype(float)

_F_AT = "F({0})"  # checked_call's `what` for a value of F


def checked_call(fn, args, shape, what, nonfinite=NonFiniteEvaluation):
    """fn(*args), a value of F, F' or an ODE rhs, as a float64 ndarray.

    A ValueError or ArithmeticError raised by fn (say math.log of a
    negative number, or an OverflowError) becomes InvalidEvaluation, and so
    does a complex value or one not of the given shape; another dtype
    converts as np.asarray(value, dtype=float) would.  A NaN or infinite
    entry raises `nonfinite`; nonfinite=None leaves that test to a caller
    that tests a whole block at once.  Any other exception, a TypeError
    above all, propagates unchanged: it is a fault in fn's code, not a
    value of fn.  Messages begin with what.format(*args), say "F({0})",
    formatted only on failure: an eager f"F({x})" costs more than most
    evaluations.
    """
    try:
        value = np.asarray(fn(*args))
        if value.dtype is not _FLOAT:
            if value.dtype.kind == "c":
                raise InvalidEvaluation(f"{what.format(*args)} is complex")
            value = value.astype(float)
    except (ValueError, ArithmeticError) as exc:
        raise InvalidEvaluation(f"{what.format(*args)} raised {exc!r}") from exc
    if value.shape != shape:
        raise InvalidEvaluation(f"{what.format(*args)} has shape {value.shape}, expected {shape}")
    if nonfinite is not None and not all_finite(value):
        raise _non_finite(nonfinite, what, args)
    return value


def _non_finite(nonfinite, what, args):
    return nonfinite(f"{what.format(*args)} has non-finite entries")


def _check_domain(domain_check, x):
    # evaluate's domain-check rules, for evaluate and evaluate_batch
    try:
        inside = domain_check(x)
    except (ValueError, ArithmeticError) as exc:
        raise InvalidEvaluation(f"domain check at {x} raised {exc!r}") from exc
    if not isinstance(inside, (bool, np.bool_)):
        raise InvalidEvaluation(f"domain check at {x} returned {inside!r}, not a bool")
    if not inside:
        raise DomainViolation(f"evaluation point {x} is outside the domain")


def evaluate(problem, x):
    """F at x after the domain check, its value checked by checked_call.

    A point outside the domain raises DomainViolation.  The domain check
    must return a bool or numpy.bool_: any other value (NaN, None, 0, a
    one-element array) raises InvalidEvaluation, and so does a ValueError
    or ArithmeticError raised by the check, as one raised by F does.
    """
    # A 1-d float64 ndarray is what as_vector would return unchanged.
    if type(x) is not np.ndarray or x.dtype is not _FLOAT or x.ndim != 1 or not x.size:
        x = as_vector(x)
    if problem.domain_check is not None:
        _check_domain(problem.domain_check, x)
    return checked_call(problem.eval, (x,), x.shape, _F_AT)


def evaluate_batch(problem, points):
    """F at each row of the k-by-m float64 array points, as a k-by-m array.

    Row by row, in order, it does what evaluate does at that row: the
    domain check, then one call of F, its value checked by checked_call,
    save that the finiteness of all k values is tested once, after the
    last row.  The outcome is that of evaluate called on the rows in turn:
    when a row raises, a non-finite value at an earlier row wins, so the
    error is the one the first failing evaluate would raise, with its type
    and message.  Unlike that loop, F may be called at rows after a
    non-finite one, up to the first row that raises or the last row.
    """
    values = []
    domain_check = problem.domain_check
    shape = points.shape[1:]
    try:
        for x in points:
            if domain_check is not None:
                _check_domain(domain_check, x)
            values.append(checked_call(problem.eval, (x,), shape, _F_AT, None))
    except Exception:  # a TypeError too: the loop would not reach it
        _raise_first_non_finite(points, values)
        raise
    values = np.reshape(values, points.shape)
    if not all_finite(values):
        _raise_first_non_finite(points, values)
    return values


def _raise_first_non_finite(points, values):
    # The error evaluate raises at the first of values with a NaN or
    # infinite entry, if there is one.
    for x, value in zip(points, values):
        if not all_finite(value):
            raise _non_finite(NonFiniteEvaluation, _F_AT, (x,)) from None


def _analytic_jacobian(problem, x):
    return checked_call(problem.analytic_jacobian, (x,), (x.size, x.size), "F'({0})")


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
    # point w, in an array of its own.  Analytic Jacobian wins when
    # available; its column is copied, since F' may write its value into a
    # buffer that it writes again at its next call.
    if problem.analytic_jacobian is not None:
        return _analytic_jacobian(problem, w)[:, j].copy()
    return _central_column(problem, w, j)


def as_point(problem, x, name="x"):
    """x as a 1-d float64 vector; ValueError naming both sizes when it does
    not have problem.dimension entries."""
    x = as_vector(x)
    if x.size != problem.dimension:
        raise ValueError(f"{name} has dimension {x.size}, problem {problem.name!r} needs {problem.dimension}")
    return x


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
    in for the staircase's last point, which equals u.  u, v or fu of a
    size other than problem.dimension raises ValueError.

    The loop visits the points in order, evaluating F at each point a
    column reads and then taking each coincident column's derivative there.
    Row j of the (m+1)-by-m block `values` holds F at point j, copied in
    before the point moves on (F may return its argument), and stays 0
    where no column reads the point.  One subtraction of consecutive rows
    gives every numerator; a coincident column's row is then replaced by
    its derivative and its gap by 1.0, so one division forms every column
    and gives the derivative back bit for bit.
    """
    u, v, m = as_vector(u), as_vector(v), problem.dimension
    if u.size != m or v.size != m:
        raise ValueError(f"u and v have {u.size} and {v.size} entries, problem {problem.name!r} needs {m}")
    if fu is not None and np.shape(fu) != (m,):
        raise ValueError(f"fu has shape {np.shape(fu)}, problem {problem.name!r} needs ({m},)")
    # coincident_pairs on Python floats, which round as float64 entries do
    u_list = u.tolist()
    gaps = [u_j - v_j for u_j, v_j in zip(u_list, v.tolist())]
    coincident = [abs(g) <= COINCIDENCE_RTOL * (1.0 + abs(u_j)) for u_j, g in zip(u_list, gaps)]
    coincident.append(True)  # point m feeds no column m
    point = v.copy()
    values = np.zeros((m + 1, m))
    derivatives = []
    if not coincident[0]:
        values[0] = evaluate(problem, point)
    for j, u_j in enumerate(u_list):
        point[j] = u_j
        if not (coincident[j] and coincident[j + 1]):
            values[j + 1] = fu if fu is not None and j == m - 1 else evaluate(problem, point)
        if coincident[j]:
            derivatives.append((j, _derivative_column(problem, point, j)))
            gaps[j] = 1.0
    rows = values[1:] - values[:-1]
    for j, derivative in derivatives:
        rows[j] = derivative
    return np.divide(rows.T, gaps, order="C")


def secant_defect(problem, u, v):
    """|| [u,v;F](u-v) - (F(u)-F(v)) ||, zero up to rounding by telescoping:
    public as the user's check of the secant identity of the paper's operator."""
    u, v = as_vector(u), as_vector(v)
    d = divided_difference(problem, u, v)
    return max_norm_vec(d @ (u - v) - (evaluate(problem, u) - evaluate(problem, v)))


def numeric_jacobian(problem, x):
    """Central-difference Jacobian, column step h_j = eps^(1/3) (1+|x_j|).

    Fallback for problems without an analytic Jacobian (Newton, moser and
    hald steps, the approximate-inverse B0 and its defect, constant
    estimation) and the IRK stage linearization.  Costs 2m evaluations.
    Raises ValueError when x does not have problem.dimension entries.
    """
    x = as_point(problem, x)
    m = x.size
    jac = np.empty((m, m))
    for j in range(m):
        jac[:, j] = _central_column(problem, x, j)
    return jac


def problem_jacobian(problem, x):
    """Analytic Jacobian when present, numeric otherwise; ValueError when x
    does not have problem.dimension entries."""
    if problem.analytic_jacobian is not None:
        return _analytic_jacobian(problem, as_point(problem, x))
    return numeric_jacobian(problem, x)
