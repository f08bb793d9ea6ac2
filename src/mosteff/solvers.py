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
lean run of table 3 calls F' 8 times, once for B_0 and 7 times for such
columns (ROADMAP item 2).
The update methods skip the B update after the step that ends the run, and
while the observed contraction forecasts convergence with the B in hand,
the way Radau5 keeps its Jacobian while its contraction stays small
(Hairer & Wanner, Solving ODEs II, IV.8).

Traces record per-step condition diagnostics so the methods can be compared
on equal footing.  Those diagnostics cost Jacobians and matrix products of
their own; SolverConfig(diagnostics=False) drops them, for callers that
only need the root (rk.integrate's stage solves).  They observe the run and
never steer it: the iterates are the same at both levels, a Jacobian formed
only for a diagnostic (_diagnostic_jacobian) leaves that diagnostic None
when it fails to form, and make_b0 alone decides whether B_0 needs J(x0).

`run` is the one driver: a run's state lives in its locals.  It appends one
IterationRecord, a named tuple, per iteration and builds the IterationTrace
once, however the run ends.
"""

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import linalg
from .divdiff import divided_difference, evaluate, problem_jacobian
from .errors import (
    DomainViolation,
    InvalidEvaluation,
    NonFiniteEvaluation,
    SingularMatrix,
)
from .linalg import all_finite, as_matrix, as_vector, max_norm_mat, max_norm_vec

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
    """Method, stopping rule, B0 strategy and diagnostics level of a run.

    diagnostics=True (the default) records the B0 defect, the
    multiplication condition of each B update and, when the root is known,
    b_defect.  They cost J(x0) (unless make_b0 forms it anyway), F'(x*),
    norms and products; diagnostics=False skips all of that.  Iterates,
    residuals, errors, B updates and outcomes are the same at both levels.
    rk.integrate reads neither diagnostics nor b0_strategy.
    """

    method: str = "moser_steffensen"
    max_iterations: int = 50
    residual_tolerance: float = 1e-12
    step_tolerance: float = 1e-15
    b0_strategy: B0Strategy = field(
        default_factory=lambda: B0Strategy.approximate_inverse(0.0)
    )
    diagnostics: bool = True

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
        if not isinstance(self.diagnostics, bool):
            raise ValueError("diagnostics must be True or False")


class IterationRecord(NamedTuple):
    index: int
    iterate: np.ndarray
    residual: float
    error: Optional[float] = None
    error_at_floor: bool = False
    step_norm: Optional[float] = None
    solve_condition: Optional[float] = None
    mult_condition_max: Optional[float] = None
    b_defect: Optional[float] = None  # ||I - B F'(x*)|| of the B the next step uses


class IterationTrace(NamedTuple):
    """The records of one run and how it ended.

    approx_inverse is None for newton and steffensen.  For the update
    methods it is B_N, the B of the final step, so x_N = x_{N-1} - B_N
    F(x_{N-1}).  A run that stops on a typed failure keeps the B it had
    then.  b_updates counts the B updates the run made (0 for newton and
    steffensen).
    """

    method: str
    problem_name: str
    records: tuple  # of IterationRecord, one per iteration from x0 on
    outcome: str  # converged | max_iterations | diverged |
    #               singular_linear_system | domain_violation | invalid_evaluation
    b0_defect: Optional[float] = None  # ||I - B0 J(x0)||; None without diagnostics
    b0_product: Optional[float] = None  # ||B0 J(x0)||; None without diagnostics
    approx_inverse: Optional[np.ndarray] = None
    b_updates: int = 0

    @property
    def iterations(self):
        """Steps recorded after x0; 0 for a run that ended before any record."""
        return max(len(self.records) - 1, 0)

    def errors(self):
        """The recorded errors above the precision floor, in order."""
        return [rec.error for rec in self.records if rec.error is not None and not rec.error_at_floor]

    @property
    def final(self):
        return self.records[-1]


def make_b0(problem, x0, strategy, jac=None):
    """Materialize the initial approximate inverse that `strategy` names at x0.

    `jac` is J(x0) when the caller has already formed it; otherwise the
    approximate-inverse strategy forms it here.  Returns a fresh array.
    """
    m = problem.dimension
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
    i, j = np.indices((m, m))
    pert = np.where((i + j) % 2 == 0, 1.0, -1.0)
    scale = max_norm_mat(pert @ jac)
    if scale == 0.0:
        pert = np.eye(m)
        scale = max_norm_mat(jac)
    return binv + (t / scale) * pert


# A function of its own, so that T, B T and B T B are freed on return, not
# held until the next step.
def _inverse_update(b, op, conditions):
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


# A function of its own, so that J(x0) is freed before the first step.
def _set_up_b0(problem, x0, config, b0):
    """B0 (b0, else make_b0's for config.b0_strategy) and, with diagnostics,
    ||I - B0 J(x0)|| and ||B0 J(x0)|| (else None, None).  The diagnostics
    take J(x0) from _diagnostic_jacobian, and make_b0 reuses it; make_b0
    alone decides whether B0 needs J(x0), and forms it when it is None."""
    jac0 = _diagnostic_jacobian(problem, x0) if config.diagnostics else None
    if b0 is None:
        b0 = make_b0(problem, x0, config.b0_strategy, jac0)
    if jac0 is None:
        return b0, None, None
    product = b0 @ jac0
    return b0, max_norm_mat(np.eye(len(b0)) - product), max_norm_mat(product)


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


def _ending(size, residual, step_norm, config):
    """The outcome that a finite iterate of max-norm `size` ends the run
    with, or None."""
    if size > DIVERGENCE_BOUND:
        return "diverged"
    if residual <= config.residual_tolerance or step_norm <= config.step_tolerance:
        return "converged"
    return None


def run(problem, x0, config, b0=None):
    """Run the configured method and return its IterationTrace.

    b0, an m-by-m matrix, is the update methods' B0 in place of the one
    config.b0_strategy would build; newton and steffensen ignore it.  The
    run neither copies nor writes to b0; a run that ends before its first B
    update returns it as trace.approx_inverse.  Raises ValueError when x0 is
    not finite or when x0 or b0 does not fit the problem's dimension.

    Every method forms x_{n+1} = x_n - step the same way; a step that
    overflows or has a NaN entry records x_{n+1} with an infinite residual
    and ends the run diverged, before F is evaluated there.  The update methods skip the B
    update on the iteration that ends the run, which no step uses, and
    while the forecast residual r_n^2 / r_{n-1} is below KAPPA *
    residual_tolerance.  A typed failure ends the run as _OUTCOMES says,
    keeping the records and the B the run had reached.  numpy's overflow and
    invalid-value warnings are silenced inside run, in F and F' too: the
    outcome reports a non-finite value.
    """
    m = problem.dimension
    x = as_vector(x0).copy()
    if x.size != m:
        raise ValueError(f"x0 has dimension {x.size}, problem {problem.name!r} needs {m}")
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
    b = b0_defect = b0_product = None  # b: the approximate inverse of the update methods
    jac_at_root = eye = None  # F'(x*) and the identity, for b_defect
    b_updates = 0

    def record(index, iterate, residual, b, step_norm=None, solve_condition=None,
               mult_condition_max=None):
        # iterate: a fresh array, which nothing writes to afterwards;
        # residual: a float, inf exactly when iterate is not finite (a
        # diverged step); b: the B whose defect the record holds, or None
        error, at_floor = None, False
        if root is not None:
            error = max_norm_vec(iterate - root) if residual < math.inf else math.inf
            at_floor = error < floor
        b_defect = None
        if jac_at_root is not None and b is not None and all_finite(b):
            b_defect = max_norm_mat(eye - b @ jac_at_root)
        # _make takes the fields as one tuple, for about 0.15 us less than
        # IterationRecord(...) per iteration
        records.append(IterationRecord._make((index, iterate, residual, error, at_floor, step_norm,
                                              solve_condition, mult_condition_max, b_defect)))

    operator, point = _OPERATORS[config.method]
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            fx = evaluate(problem, x)
            if config.method in UPDATE_METHODS:
                b, b0_defect, b0_product = _set_up_b0(problem, x, config, b0)
                if config.diagnostics and root is not None and problem.analytic_jacobian is not None:
                    jac_at_root = _diagnostic_jacobian(problem, root)
                    eye = np.eye(m)
            previous = max_norm_vec(fx)
            record(0, x, previous, b)

            for n in range(1, config.max_iterations + 1):
                solve_cond = mult_cond = None
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
                    record(n, x_next, math.inf, b, step_norm=math.inf, solve_condition=solve_cond)
                    outcome = "diverged"
                    break
                f_next = evaluate(problem, x_next)
                residual, step_norm = max_norm_vec(f_next), max_norm_vec(step)
                outcome = _ending(size, residual, step_norm, config)
                last = outcome is not None or n == config.max_iterations
                keep_b = last or residual * residual <= KAPPA * config.residual_tolerance * previous
                if b is not None and not keep_b:
                    z, fz = (x_next, f_next) if point == "x+" else (x, fx)
                    b, mult_cond = _inverse_update(b, operator(problem, z, fz), config.diagnostics)
                    b_updates += 1
                record(n, x_next, residual, b, step_norm=step_norm,
                       solve_condition=solve_cond, mult_condition_max=mult_cond)
                x, fx, previous = x_next, f_next, residual
                if outcome is not None:
                    break
            else:
                outcome = "max_iterations"
        except tuple(_OUTCOMES) as exc:
            outcome = _OUTCOMES[type(exc)]
    # Positional, in field order: keywords add about 0.6 us to each run,
    # which every IRK stage solve pays.
    return IterationTrace(config.method, problem.name, tuple(records), outcome, b0_defect,
                          b0_product, b, b_updates)
