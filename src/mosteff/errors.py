"""Exception types shared across the package.

A result that does not exist is None, not an exception: find_radius gives
None where no radius is feasible, and estimate_coc where no order can be
read.  A bad argument (a duplicate node, an unsupported stage count, a
problem without the known root an analysis needs) is a ValueError, not one
of these classes.  A matrix product of zero or non-finite norm is not an
error either: linalg.mult_condition, which diagnose reads, gives it an
infinite condition."""


class MosteffError(Exception):
    """Base class for all package errors."""


class SingularMatrix(MosteffError):
    """A matrix is singular to working precision.

    Raised for a zero or non-finite norm, an exact zero pivot, or a condition
    number ||A|| ||A^-1|| at or above 1 / linalg.PIVOT_RTOL.
    """


class DomainViolation(MosteffError):
    """An evaluation point left the problem's domain."""


class NonFiniteEvaluation(MosteffError):
    """An evaluation of F or of its analytic Jacobian F' returned NaN or
    infinity."""


class InvalidEvaluation(MosteffError):
    """An evaluation of F, F' or an ODE rhs returned an array of the wrong
    shape (F and the rhs shaped unlike their argument, F' not m-by-m) or a
    complex value, a domain check returned anything but a bool or
    numpy.bool_, or F, F', a domain check or an ODE rhs raised ValueError
    or ArithmeticError."""


class InnerSolverFailed(MosteffError):
    """The nonlinear stage solve inside an implicit RK step did not converge.

    The message names the step index, the time at failure and the inner
    trace outcome.
    """


class NonFiniteState(MosteffError):
    """The ODE state, or an rhs value, became NaN or infinite during integration."""
