"""The solver family: five locally convergent iterations under one driver.

Two of the methods solve a linear system each step (newton, steffensen);
the other three (moser, hald, moser_steffensen) carry an evolving
approximate inverse B_n and touch only matrix products after B_0:

    newton             x+ = x - F'(x)^-1 F(x)
    steffensen         x+ = x - [x, x+F(x); F]^-1 F(x)
    moser              x+ = x - B F(x);  B+ = 2B - B F'(x)  B
    hald               x+ = x - B F(x);  B+ = 2B - B F'(x+) B
    moser_steffensen   x+ = x - B F(x);  B+ = 2B - B [x+, x+ + F(x+); F] B

moser_steffensen is therefore derivative-free AND inversion-free: after the
initial B_0 it performs no solve, no inverse, and no Jacobian evaluation.
Traces record per-step condition diagnostics so the methods can be compared
on equal footing.  Those diagnostics cost Jacobians and matrix products of
their own; SolverConfig(diagnostics=False) drops them, together with the B
update after the step that ends the run, for callers that only need the
root (the IRK stage solves).
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import linalg
from .divdiff import divided_difference, evaluate, problem_jacobian
from .errors import (
    DegenerateProduct,
    DomainViolation,
    InvalidEvaluation,
    NonFiniteEvaluation,
    SingularMatrix,
)
from .linalg import as_vector, max_norm_mat, max_norm_vec

METHODS = ("newton", "steffensen", "moser", "hald", "moser_steffensen")
# The methods that carry an approximate inverse B instead of solving.
UPDATE_METHODS = ("moser", "hald", "moser_steffensen")

# Errors smaller than ERROR_FLOOR_RTOL*(1+||x*||) are below what double
# precision can resolve; records keep the raw number but flag it.
ERROR_FLOOR_RTOL = 1e-16

# A run whose iterate leaves the max-norm ball of this radius has diverged.
DIVERGENCE_BOUND = 1e8


@dataclass(frozen=True)
class B0Strategy:
    """How to build the initial approximate inverse B_0.

    approximate_inverse(t): inverse of the Jacobian at x0 plus a
       deterministic rank-one perturbation scaled so ||I - B0 J(x0)|| = t.
    scaled_identity(s): s * I (no Jacobian information at all).
    explicit(matrix): caller-supplied B0.
    """

    variant: str
    residual_target: Optional[float] = None
    scale: Optional[float] = None
    matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.variant == "approximate_inverse":
            t = self.residual_target
            if t is None or not 0.0 <= t < 1.0:
                raise ValueError("residual_target must lie in [0, 1)")
        elif self.variant == "scaled_identity":
            if self.scale is None or not self.scale > 0.0:
                raise ValueError("scale must be positive")
        elif self.variant == "explicit":
            if self.matrix is None:
                raise ValueError("explicit strategy needs a matrix")
        else:
            raise ValueError(f"unknown B0 variant {self.variant!r}")

    @staticmethod
    def approximate_inverse(residual_target):
        return B0Strategy("approximate_inverse", residual_target=float(residual_target))

    @staticmethod
    def scaled_identity(scale):
        return B0Strategy("scaled_identity", scale=float(scale))

    @staticmethod
    def explicit(matrix):
        return B0Strategy("explicit", matrix=linalg.as_matrix(matrix))


@dataclass(frozen=True)
class SolverConfig:
    """Method, stopping rule, B0 strategy and diagnostics level of a run.

    diagnostics=True (the default) records the B0 defect, the
    multiplication conditions and, when the root is known, b_defect, and
    updates B on every iteration.  diagnostics=False skips all of that and
    the B update on the iteration that ends the run; iterates, residuals,
    errors and outcomes are the same at both levels.
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
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        # Written `not x > 0` so that NaN fails too.
        if not (self.residual_tolerance > 0 and self.step_tolerance > 0):
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class IterationRecord:
    index: int
    iterate: np.ndarray
    residual: float
    error: Optional[float] = None
    error_at_floor: bool = False
    step_norm: Optional[float] = None
    solve_condition: Optional[float] = None
    mult_condition_max: Optional[float] = None
    b_defect: Optional[float] = None  # ||I - B_n F'(x*)|| when computable


@dataclass(frozen=True)
class IterationTrace:
    """The records of one run and how it ended.

    approx_inverse is None for newton and steffensen.  For the update
    methods it is the last B the run formed: with diagnostics on, B_{N+1},
    updated once more after the final step; with diagnostics off, B_N,
    the B of the final step, so x_N = x_{N-1} - B_N F(x_{N-1}).  A run
    that stops on a typed failure keeps the B it had then.
    """

    method: str
    problem_name: str
    records: tuple
    outcome: str  # converged | max_iterations | diverged |
    #               singular_linear_system | domain_violation | invalid_evaluation
    b0_defect: Optional[float] = None  # ||I - B0 J(x0)||; None without diagnostics
    b0_product: Optional[float] = None  # ||B0 J(x0)||; None without diagnostics
    approx_inverse: Optional[np.ndarray] = None

    def errors(self, above_floor=False):
        out = []
        for rec in self.records:
            if rec.error is None:
                continue
            if above_floor and rec.error_at_floor:
                continue
            out.append(rec.error)
        return out

    @property
    def final(self):
        return self.records[-1]


def make_b0(problem, x0, strategy, jac=None):
    """Materialize an initial approximate inverse at x0.

    `jac` is J(x0) when the caller has already formed it; otherwise the
    approximate-inverse strategy forms it here.
    """
    m = problem.dimension
    if strategy.variant == "explicit":
        return np.array(strategy.matrix, dtype=float)
    if strategy.variant == "scaled_identity":
        return strategy.scale * np.eye(m)
    # approximate_inverse
    if jac is None:
        jac = problem_jacobian(problem, x0)
    binv = linalg.invert(jac)
    t = strategy.residual_target
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


def _finite(x):
    return bool(np.isfinite(x).all())


def _norm_or_inf(value):
    v = float(value)
    return v if np.isfinite(v) else float("inf")


class _Run:
    """Mutable state of one run; produces the trace."""

    def __init__(self, problem, x0, config):
        self.problem = problem
        self.config = config
        self.x = as_vector(x0).astype(float, copy=True)
        if self.x.size != problem.dimension:
            raise ValueError(f"x0 has dimension {self.x.size}, problem {problem.name!r} needs {problem.dimension}")
        self.records = []
        self.outcome = "max_iterations"
        self.b = None  # the approximate inverse of the update methods
        self.b0_defect = None
        self.b0_product = None
        root = problem.known_solution
        self.root = None if root is None else as_vector(root)
        self.floor = (
            None if self.root is None else ERROR_FLOOR_RTOL * (1.0 + max_norm_vec(self.root))
        )
        self.jac_at_root = (
            problem_jacobian(problem, self.root)
            if config.diagnostics and self.root is not None and problem.analytic_jacobian is not None
            else None
        )

    def error_of(self, x):
        if self.root is None:
            return None, False
        if not _finite(x):
            return float("inf"), False
        err = max_norm_vec(x - self.root)
        return err, err < self.floor

    def b_defect(self):
        if self.jac_at_root is None or self.b is None or not _finite(self.b):
            return None
        return max_norm_mat(np.eye(len(self.b)) - self.b @ self.jac_at_root)

    def record(self, index, x, residual, step_norm=None, solve_condition=None,
               mult_condition_max=None):
        error, at_floor = self.error_of(x)
        self.records.append(
            IterationRecord(
                index=index,
                iterate=np.array(x, dtype=float),
                residual=_norm_or_inf(residual),
                error=error,
                error_at_floor=at_floor,
                step_norm=step_norm,
                solve_condition=solve_condition,
                mult_condition_max=mult_condition_max,
                b_defect=self.b_defect(),
            )
        )

    def finish(self):
        return IterationTrace(
            method=self.config.method,
            problem_name=self.problem.name,
            records=tuple(self.records),
            outcome=self.outcome,
            b0_defect=self.b0_defect,
            b0_product=self.b0_product,
            approx_inverse=self.b,
        )


def _mult_cond(a, b, product):
    try:
        return linalg.mult_condition(a, b, product)
    except DegenerateProduct:
        return float("inf")


# _solve_step and _inverse_update are functions of their own, so that T,
# T^-1 and the products are freed on return, not held until the next step.
def _solve_step(op, fx):
    """The step T^-1 F(x) and ||T|| ||T^-1||, from one factorization of T."""
    step, op_inv = linalg.lu_factor(op, fx)
    return step, max_norm_mat(op) * max_norm_mat(op_inv)


def _inverse_update(b, op, conditions):
    """B+ = 2B - B T B and, if `conditions`, the larger product condition.

    B T and B T B are formed once and feed both; B+ is written into the
    buffer of B T, which saves one m-by-m temporary.
    """
    left = b @ op
    right = left @ b
    cond = max(_mult_cond(b, op, left), _mult_cond(left, b, right)) if conditions else None
    return np.subtract(2.0 * b, right, out=left), cond


# A function of its own, so that J(x0) is freed before the first step.
def _set_up_b0(state, problem, config):
    """B0 and, with diagnostics, its defect, from at most one J(x0)."""
    strategy = config.b0_strategy
    jac0 = None
    if config.diagnostics or strategy.variant == "approximate_inverse":
        jac0 = problem_jacobian(problem, state.x)
    state.b = make_b0(problem, state.x, strategy, jac0)
    if config.diagnostics:
        product = state.b @ jac0
        state.b0_defect = max_norm_mat(np.eye(len(state.b)) - product)
        state.b0_product = max_norm_mat(product)


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


def run(problem, x0, config):
    """Run the configured method and return its IterationTrace.

    Raises ValueError when x0 does not have the problem's dimension.
    """
    state = _Run(problem, x0, config)
    try:
        _iterate(state, problem, config)
    except tuple(_OUTCOMES) as exc:
        state.outcome = _OUTCOMES[type(exc)]
    return state.finish()


def _ending(x, residual, step_norm, config):
    """The outcome that the iterate x ends the run with, or None."""
    if not _finite(x) or max_norm_vec(x) > DIVERGENCE_BOUND:
        return "diverged"
    if residual <= config.residual_tolerance or step_norm <= config.step_tolerance:
        return "converged"
    return None


def _iterate(state, problem, config):
    """Set up B0 when the method carries one, then step until the run ends.

    Typed failures propagate to `run`; state.outcome covers the rest.
    Without diagnostics the B update is skipped on the iteration that ends
    the run, since no step uses it.
    """
    operator, point = _OPERATORS[config.method]
    fx = evaluate(problem, state.x)
    if config.method in UPDATE_METHODS:
        _set_up_b0(state, problem, config)
    state.record(0, state.x, max_norm_vec(fx))

    for n in range(1, config.max_iterations + 1):
        b = state.b
        solve_cond = mult_cond = None
        if b is None:
            step, solve_cond = _solve_step(operator(problem, state.x, fx), fx)
            x_next = state.x - step
        else:
            step = b @ fx
            x_next = state.x - step
            if not _finite(x_next):
                state.record(n, x_next, float("inf"), step_norm=float("inf"))
                state.outcome = "diverged"
                return
        f_next = evaluate(problem, x_next)
        residual, step_norm = max_norm_vec(f_next), max_norm_vec(step)
        outcome = _ending(x_next, residual, step_norm, config)
        last = outcome is not None or n == config.max_iterations
        if b is not None and (config.diagnostics or not last):
            z, fz = (x_next, f_next) if point == "x+" else (state.x, fx)
            state.b, mult_cond = _inverse_update(b, operator(problem, z, fz), config.diagnostics)
        state.record(n, x_next, residual, step_norm=step_norm,
                     solve_condition=solve_cond, mult_condition_max=mult_cond)
        state.x, fx = x_next, f_next
        if outcome is not None:
            state.outcome = outcome
            return
