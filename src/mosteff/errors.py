"""Exception types shared across the package."""


class MosteffError(Exception):
    """Base class for all package errors."""


class SingularMatrix(MosteffError):
    """A matrix is singular to working precision.

    Raised for a zero or non-finite norm, an exact zero pivot, or a condition
    number ||A|| ||A^-1|| at or above 1 / linalg.PIVOT_RTOL.
    """


class DegenerateProduct(MosteffError):
    """Matrix product has zero norm; multiplication condition undefined."""


class DomainViolation(MosteffError):
    """An evaluation point left the problem's domain."""


class NonFiniteEvaluation(MosteffError):
    """A function evaluation returned NaN or infinity."""


class InvalidEvaluation(MosteffError):
    """A function evaluation returned an array not shaped like its argument,
    or raised ValueError or ArithmeticError."""


class InsufficientData(MosteffError):
    """Not enough usable trace entries to estimate a convergence order."""


class DuplicateNodes(MosteffError):
    """Collocation nodes must be pairwise distinct."""


class UnsupportedStageCount(MosteffError):
    """Gauss nodes are tabulated for 1, 2 or 3 stages only."""


class InnerSolverFailed(MosteffError):
    """The nonlinear stage solve inside an implicit RK step did not converge.

    Carries the step index, the time at failure and the inner trace outcome.
    """

    def __init__(self, message, step_index=None, t=None, outcome=None):
        super().__init__(message)
        self.step_index = step_index
        self.t = t
        self.outcome = outcome


class NonFiniteState(MosteffError):
    """The ODE state became NaN or infinite during integration."""


class NoKnownSolution(MosteffError):
    """The requested analysis needs a problem with a known root."""
