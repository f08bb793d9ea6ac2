"""The solver family: five locally convergent iterations under one driver.

Two of the methods solve a linear system each step (newton, steffensen);
the other three (moser, hald, moser_steffensen) carry an evolving
approximate inverse B_n and touch only matrix products after B_0:

    newton             x+ = x - F'(x)^-1 F(x)
    steffensen         x+ = x - [x, x+F(x); F]^-1 F(x)
    moser              x+ = x - B F(x);  B+ = 2B - B F'(x)  B
    hald               x+ = x - B F(x);  B+ = 2B - B F'(x+) B
    moser_steffensen   x+ = x - B F(x);  B+ = 2B - B [x+, x+ + F(x+); F] B

moser_steffensen is therefore inversion-free: after the initial B_0 it
performs no solve and no inverse.  It is not yet derivative-free: F' builds
an approximate-inverse B_0 from J(x0), and divdiff takes from it the
partial derivative of each coincident staircase column (u_j = v_j).  A
run of table 3 calls F' 8 times, once for B_0 and 7 times for such
columns (ROADMAP item 2).
The update methods skip the B update after the step that ends the run, and
while the observed contraction forecasts convergence with the B in hand,
the way Radau5 keeps its Jacobian while its contraction stays small
(Hairer & Wanner, Solving ODEs II, IV.8).  With forecast_stop, which the
IRK stage solves set, the same forecast ends the run one step later,
without evaluating F at the final iterate, as IV.8's stopping test
eta_k ||dZ_k|| <= kappa Tol ends Radau5's Newton iteration.

A run records its iterates, residuals, errors, step norms and, for newton
and steffensen, the condition of each step's solve, which comes with the
step's LU.  The update methods' diagnostics (the B0 defect, the
multiplication condition of each B update and ||I - B F'(x*)||) observe a
run and never steer it, so they are a pass of their own: `diagnose(trace)`
fills them into a finished trace by replaying its B sequence, at the cost
of one T per update that the run made, J(x0) and F'(x*).  The trace holds
the problem, config and caller's B0 it was run with, so the replay needs
nothing else.

`run` is the one driver: a run's state lives in its locals.  It appends one
IterationRecord, a named tuple, per iteration and builds the IterationTrace
once, however the run ends.
"""

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import linalg
from .divdiff import as_point, divided_difference, evaluate, problem_jacobian
from .errors import (
    DomainViolation,
    InvalidEvaluation,
    NonFiniteEvaluation,
    SingularMatrix,
)
from .linalg import all_finite, as_matrix, as_vector, max_norm_mat, max_norm_vec
from .problems import NonlinearProblem

METHODS = ("newton", "steffensen", "moser", "hald", "moser_steffensen")
# The methods that carry an approximate inverse B instead of solving.
UPDATE_METHODS = ("moser", "hald", "moser_steffensen")

# Errors smaller than ERROR_FLOOR_RTOL*(1+||x*||) are below what double
# precision can resolve; records keep the raw number but flag it.
ERROR_FLOOR_RTOL = 1e-16

# A run whose iterate leaves the max-norm ball of this radius has diverged.
DIVERGENCE_BOUND = 1e8

# Safety factor of the convergence forecast: B is kept when
# the next residual, extrapolated at the observed contraction, is below
# KAPPA * residual_tolerance.  Chosen by a sweep over 1 .. 1e-4 on the
# Chapman integration (CHANGES.md): smaller values save fewer
# evaluations, larger ones add iterations.
KAPPA = 1e-3


@dataclass(frozen=True)
class B0Strategy:
    """How to build the initial approximate inverse B_0.

    approximate_inverse(t): inverse of the Jacobian at x0 plus a
       deterministic rank-one perturbation scaled so ||I - B0 J(x0)|| = t.
    scaled_identity(s): s * I (no Jacobian information at all).

    `value` is the variant's t or s.  A B0 already in hand goes to `run` as
    its b0 argument instead.
    """

    variant: str
    value: float

    def __post_init__(self):
        if self.variant == "approximate_inverse":
            if not 0.0 <= self.value < 1.0:
                raise ValueError("residual_target must lie in [0, 1)")
        elif self.variant == "scaled_identity":
            if not 0.0 < self.value < np.inf:
                raise ValueError("scale must be finite and positive")
        else:
            raise ValueError(f"unknown B0 variant {self.variant!r}")

    @staticmethod
    def approximate_inverse(residual_target):
        return B0Strategy("approximate_inverse", float(residual_target))

    @staticmethod
    def scaled_identity(scale):
        return B0Strategy("scaled_identity", float(scale))


@dataclass(frozen=True)
class SolverConfig:
    """Method, stopping rule and B0 strategy of a run; rk.integrate reads no b0_strategy."""

    method: str = "moser_steffensen"
    max_iterations: int = 50
    residual_tolerance: float = 1e-12
    step_tolerance: float = 1e-15
    b0_strategy: B0Strategy = field(
        default_factory=lambda: B0Strategy.approximate_inverse(0.0)
    )

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if (isinstance(self.max_iterations, bool) or not isinstance(self.max_iterations, numbers.Integral)
                or self.max_iterations < 1):
            raise ValueError("max_iterations must be an integer >= 1")
        # Written `not x > 0` so that NaN fails too.
        if not (self.residual_tolerance > 0 and self.step_tolerance > 0):
            raise ValueError("tolerances must be positive")
        if not isinstance(self.b0_strategy, B0Strategy):
            raise ValueError("b0_strategy must be a B0Strategy")


class IterationRecord(NamedTuple):
    index: int
    iterate: np.ndarray
    residual: Optional[float]  # None: not measured (a forecast stop)
    error: Optional[float] = None
    error_at_floor: bool = False
    step_norm: Optional[float] = None
    solve_condition: Optional[float] = None
    mult_condition_max: Optional[float] = None
    b_defect: Optional[float] = None  # ||I - B F'(x*)|| of the B the next step uses


class IterationTrace(NamedTuple):
    """The records of one run, how it ended and what it was run with.

    problem and config are the objects the run was given, and b0 is the B0
    the caller passed, as run used it, or None when run built B0 from
    config.b0_strategy: diagnose builds that one again, bit for bit.  A
    trace holds references only, and diagnose replays what they hold when
    it is called.  method and problem_name read config and problem.

    approx_inverse is None for newton and steffensen.  For the update
    methods it is B_N, the B of the final step, so x_N = x_{N-1} - B_N
    F(x_{N-1}).  A run that stops on a typed failure keeps the B it had
    then.  b_updates counts the B updates the run made (0 for newton and
    steffensen).  diagnose fills in the diagnostics that run leaves None.
    """

    problem: NonlinearProblem
    config: SolverConfig
    b0: Optional[np.ndarray]
    records: tuple  # of IterationRecord, one per iteration from x0 on
    outcome: str  # converged | max_iterations | diverged |
    #               singular_linear_system | domain_violation | invalid_evaluation
    b0_defect: Optional[float] = None  # ||I - B0 J(x0)||; None until diagnose fills it
    b0_product: Optional[float] = None  # ||B0 J(x0)||; None until diagnose fills it
    approx_inverse: Optional[np.ndarray] = None
    b_updates: int = 0

    @property
    def method(self):
        return self.config.method

    @property
    def problem_name(self):
        return self.problem.name

    @property
    def iterations(self):
        """Steps recorded after x0; 0 for a run that ended before any record."""
        return max(len(self.records) - 1, 0)

    def errors(self):
        """The recorded errors above the precision floor, in order."""
        return [rec.error for rec in self.records if rec.error is not None and not rec.error_at_floor]

    @property
    def final(self):
        """The last record; None for a run that ended before any record."""
        return self.records[-1] if self.records else None


@functools.lru_cache(maxsize=8)
def _checkerboard(m):
    # The m-by-m matrix of +1 where i + j is even and -1 elsewhere, built once
    # per size and read-only, since every caller shares it.
    i, j = np.indices((m, m))
    board = np.where((i + j) % 2 == 0, 1.0, -1.0)
    board.flags.writeable = False
    return board


def make_b0(problem, x0, strategy, jac=None):
    """Materialize the initial approximate inverse that `strategy` names at x0.

    `jac` is J(x0) when the caller has already formed it; otherwise the
    approximate-inverse strategy forms it here.  Returns a fresh array.
    Raises ValueError when x0 does not have problem.dimension entries.
    """
    m = as_point(problem, x0, "x0").size
    if strategy.variant == "scaled_identity":
        return strategy.value * np.eye(m)
    # approximate_inverse
    if jac is None:
        jac = problem_jacobian(problem, x0)
    binv = linalg.invert(jac)
    t = strategy.value
    if t == 0.0:
        return binv
    # Rank-one checkerboard perturbation, scaled to hit the target exactly:
    # ||I - (Binv + E) J|| = ||E J|| = t up to rounding.
    pert = _checkerboard(m)
    scale = max_norm_mat(pert @ jac)
    if scale == 0.0:
        pert = np.eye(m)
        scale = max_norm_mat(jac)
    return binv + (t / scale) * pert


# A function of its own, so that T, B T and B T B are freed on return, not
# held until the next step.
def _inverse_update(b, op, conditions=False):
    """B+ = 2B - B T B and, if `conditions`, the larger product condition.

    B T and B T B are formed once and feed both, and so are the four
    max-norms of B, T, B T and B T B; B+ is written into the buffer of B T,
    which saves one m-by-m temporary.
    """
    left = b @ op
    right = left @ b
    cond = None
    if conditions:
        norm_b, norm_left = max_norm_mat(b), max_norm_mat(left)
        cond = max(linalg.product_condition(norm_b, max_norm_mat(op), norm_left),
                   linalg.product_condition(norm_left, norm_b, max_norm_mat(right)))
    return np.subtract(2.0 * b, right, out=left), cond


def _diagnostic_jacobian(problem, z):
    """J(z) for a diagnostic, or None when it fails to form: a diagnostic
    observes a run and never ends it."""
    try:
        return problem_jacobian(problem, z)
    except tuple(_OUTCOMES):
        return None


def _jacobian(problem, z, fz):
    return problem_jacobian(problem, z)


def _steffensen_difference(problem, z, fz):
    # F(z) is in hand, so the staircase reuses it for its last point, z.
    return divided_difference(problem, z, z + fz, fu=fz)


# method -> (operator T, the point z it is taken at: x or x+).  T(z) is the
# Jacobian J(z) or the divided difference [z, z + F(z); F].  newton and
# steffensen solve with T(x); the UPDATE_METHODS feed T(z) to the inverse
# update B+ = 2B - B T B.
_OPERATORS = {
    "newton": (_jacobian, "x"),
    "steffensen": (_steffensen_difference, "x"),
    "moser": (_jacobian, "x"),
    "hald": (_jacobian, "x+"),
    "moser_steffensen": (_steffensen_difference, "x+"),
}


# The typed failures that end a run, and the outcome each one ends it with.
_OUTCOMES = {
    SingularMatrix: "singular_linear_system",
    DomainViolation: "domain_violation",
    NonFiniteEvaluation: "diverged",
    InvalidEvaluation: "invalid_evaluation",
}


def _verdict(n, size, residual, previous, step_norm, config):
    """(outcome or None, forecast, update B?) of iteration n, whose finite
    new iterate x_n has max-norm `size`; `previous` is the residual of
    x_{n-1}.  B is updated unless the iteration ends the run, is the last
    allowed, or forecasts convergence; diagnose replays run's updates by it."""
    if size > DIVERGENCE_BOUND:
        outcome = "diverged"
    elif residual <= config.residual_tolerance or step_norm <= config.step_tolerance:
        outcome = "converged"
    else:
        outcome = None
    forecast = residual * residual <= KAPPA * config.residual_tolerance * previous
    return outcome, forecast, not (forecast or outcome is not None or n == config.max_iterations)


@np.errstate(over="ignore", invalid="ignore")
def run(problem, x0, config, b0=None, *, forecast_stop=False):
    """Run the configured method and return its IterationTrace.

    b0, an m-by-m matrix, is the update methods' B0 in place of the one
    config.b0_strategy would build; newton and steffensen ignore it.  The
    run neither copies nor writes to b0; the trace keeps it as trace.b0,
    and a run that ends before its first B update returns it as
    trace.approx_inverse too.  Raises ValueError when x0 is
    not finite or when x0 or b0 does not fit the problem's dimension.

    Every method forms x_{n+1} = x_n - step the same way; a step that
    overflows or has a NaN entry records x_{n+1} with an infinite residual
    and ends the run diverged, before F is evaluated there.  The update methods skip the B
    update on the iteration that ends the run, which no step uses, and
    while the forecast residual r_n^2 / r_{n-1} is below KAPPA *
    residual_tolerance.

    forecast_stop=True (the IRK stage solves') ends the run on that
    forecast: when it holds on an iteration n that does not end the run,
    the run takes x_{n+1} = x_n - step and ends converged without
    evaluating F there.  That record's residual is None, meaning not
    measured; its step keeps the overflow test, DIVERGENCE_BOUND (which
    ends it diverged) and step_norm.  Without it every record's residual
    is measured, as the paper's tables print it.

    A typed failure ends the run as _OUTCOMES says,
    keeping the records and the B the run had reached.  numpy's overflow and
    invalid-value warnings are silenced inside run, in F and F' too: the
    outcome reports a non-finite value.  The np.errstate decorator sets that
    state on each call and restores the caller's on return, on an exception
    too, a run nested in F included.
    """
    x = as_point(problem, x0, "x0").copy()
    m = x.size
    if not all_finite(x):
        raise ValueError("x0 has non-finite entries")
    if b0 is not None:
        b0 = np.asarray(b0)
        if b0.shape != (m, m):
            raise ValueError(f"b0 has shape {b0.shape}, problem {problem.name!r} needs ({m}, {m})")
        b0 = as_matrix(b0)  # a float64 b0 is not copied; a complex one raises ValueError
    root = None if problem.known_solution is None else as_vector(problem.known_solution)
    floor = None if root is None else ERROR_FLOOR_RTOL * (1.0 + max_norm_vec(root))
    records = []
    b = None  # the approximate inverse of the update methods
    b_updates = 0

    def record(index, iterate, residual, step_norm=None, solve_condition=None):
        # iterate: a fresh array, which nothing writes to afterwards;
        # residual: a float, inf exactly when iterate is not finite (a
        # diverged step), or None when not measured (a forecast stop)
        error, at_floor = None, False
        if root is not None:
            error = max_norm_vec(iterate - root) if residual != math.inf else math.inf
            at_floor = error < floor
        # _make takes the fields as one tuple, for about 0.15 us less than
        # IterationRecord(...) per iteration; diagnose fills the last two
        records.append(IterationRecord._make((index, iterate, residual, error, at_floor, step_norm,
                                              solve_condition, None, None)))

    operator, point = _OPERATORS[config.method]
    try:
        fx = evaluate(problem, x)
        if config.method in UPDATE_METHODS:
            b = make_b0(problem, x, config.b0_strategy) if b0 is None else b0
        previous = max_norm_vec(fx)
        record(0, x, previous)

        forecast = False  # the previous iteration's residuals forecast convergence
        for n in range(1, config.max_iterations + 1):
            solve_cond = None
            if b is None:
                # One LU of T gives the step and ||T|| ||T^-1||; [::2] drops
                # T^-1, so that it is not held past the step.
                step, solve_cond = linalg.lu_factor(operator(problem, x, fx), fx)[::2]
            else:
                step = b @ fx
            x_next = x - step
            # One norm of x_{n+1} serves the overflow test (a NaN entry makes
            # it NaN) and the divergence bound.
            size = max_norm_vec(x_next)
            if not size < math.inf:
                record(n, x_next, math.inf, math.inf, solve_cond)
                outcome = "diverged"
                break
            step_norm = max_norm_vec(step)
            if forecast_stop and forecast:
                record(n, x_next, None, step_norm, solve_cond)
                outcome = "diverged" if size > DIVERGENCE_BOUND else "converged"
                break
            f_next = evaluate(problem, x_next)
            residual = max_norm_vec(f_next)
            outcome, forecast, update = _verdict(n, size, residual, previous, step_norm, config)
            if b is not None and update:
                z, fz = (x_next, f_next) if point == "x+" else (x, fx)
                b = _inverse_update(b, operator(problem, z, fz))[0]
                b_updates += 1
            record(n, x_next, residual, step_norm, solve_cond)
            x, fx, previous = x_next, f_next, residual
            if outcome is not None:
                break
        else:
            outcome = "max_iterations"
    except tuple(_OUTCOMES) as exc:
        outcome = _OUTCOMES[type(exc)]
    # Positional, in field order: keywords add about 0.6 us to each run,
    # which every IRK stage solve pays.
    return IterationTrace(problem, config, b0, tuple(records), outcome, None, None, b, b_updates)


@np.errstate(over="ignore", invalid="ignore")
def diagnose(trace):
    """The trace with the update methods' diagnostics filled in: ||I - B0
    J(x0)||, ||B0 J(x0)||, each update's multiplication condition and, when
    the root and an analytic F' are known, each record's b_defect; newton
    and steffensen traces, and traces without records, come back as they
    are.  It replays the run's B sequence from x0 = trace.records[0].iterate
    and B0, trace.b0 or else the one trace.config.b0_strategy builds,
    re-forming T(z) (and F(z) for a divided difference) only where _verdict
    says run updated B: one T per update, J(x0) and F'(x*).  A diagnostic
    whose Jacobian fails to form stays None, and a typed failure in the
    replay leaves the rest None; nothing else in the trace changes."""
    if trace.method not in UPDATE_METHODS or not trace.records:
        return trace
    problem, config = trace.problem, trace.config
    operator, point = _OPERATORS[config.method]
    x, root = trace.records[0].iterate, problem.known_solution
    records = list(trace.records)
    b0_defect = b0_product = None
    try:
        jac0 = _diagnostic_jacobian(problem, x)
        b = make_b0(problem, x, config.b0_strategy, jac0) if trace.b0 is None else trace.b0
        if jac0 is not None:
            product = b @ jac0
            b0_defect, b0_product = max_norm_mat(np.eye(len(b)) - product), max_norm_mat(product)
        jac_at_root = None
        if root is not None and problem.analytic_jacobian is not None:
            jac_at_root = _diagnostic_jacobian(problem, as_vector(root))
        for n, rec in enumerate(records):
            cond = b_defect = None
            # a diverged step (residual inf) or a forecast stop (None) makes no update
            measured = n and rec.residual not in (math.inf, None)
            if measured and _verdict(n, max_norm_vec(rec.iterate), rec.residual,
                                     records[n - 1].residual, rec.step_norm, config)[2]:
                z = rec.iterate if point == "x+" else records[n - 1].iterate
                fz = None if operator is _jacobian else evaluate(problem, z)
                b, cond = _inverse_update(b, operator(problem, z, fz), True)
            if jac_at_root is not None and all_finite(b):
                b_defect = max_norm_mat(np.eye(len(b)) - b @ jac_at_root)
            records[n] = rec._replace(mult_condition_max=cond, b_defect=b_defect)
    except tuple(_OUTCOMES):
        pass
    return trace._replace(records=tuple(records), b0_defect=b0_defect, b0_product=b0_product)
