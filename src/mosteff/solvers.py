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
their own; SolverConfig(diagnostics=False) drops them, for callers that
only need the root (the IRK stage solves).  That lean level also skips
the B update after the step that ends the run, and while the observed
contraction forecasts convergence with the B in hand, the way Radau5
keeps its Jacobian while its contraction stays small (Hairer & Wanner,
Solving ODEs II, IV.8).
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import linalg
from .divdiff import divided_difference, evaluate, problem_jacobian
from .errors import (
    DomainViolation,
    InvalidEvaluation,
    NonFiniteEvaluation,
    SingularMatrix,
)
from .linalg import all_finite, as_vector, max_norm_mat, max_norm_vec

METHODS = ("newton", "steffensen", "moser", "hald", "moser_steffensen")
# The methods that carry an approximate inverse B instead of solving.
UPDATE_METHODS = ("moser", "hald", "moser_steffensen")

# Errors smaller than ERROR_FLOOR_RTOL*(1+||x*||) are below what double
# precision can resolve; records keep the raw number but flag it.
ERROR_FLOOR_RTOL = 1e-16

# A run whose iterate leaves the max-norm ball of this radius has diverged.
DIVERGENCE_BOUND = 1e8

# Safety factor of the lean level's convergence forecast: B is kept when
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

    A B0 already in hand goes to `run` as its b0 argument instead.
    """

    variant: str
    residual_target: Optional[float] = None
    scale: Optional[float] = None

    def __post_init__(self):
        if self.variant == "approximate_inverse":
            t = self.residual_target
            if t is None or not 0.0 <= t < 1.0:
                raise ValueError("residual_target must lie in [0, 1)")
        elif self.variant == "scaled_identity":
            if self.scale is None or not 0.0 < self.scale < np.inf:
                raise ValueError("scale must be finite and positive")
        else:
            raise ValueError(f"unknown B0 variant {self.variant!r}")

    @staticmethod
    def approximate_inverse(residual_target):
        return B0Strategy("approximate_inverse", residual_target=float(residual_target))

    @staticmethod
    def scaled_identity(scale):
        return B0Strategy("scaled_identity", scale=float(scale))


@dataclass(frozen=True)
class SolverConfig:
    """Method, stopping rule, B0 strategy and diagnostics level of a run.

    diagnostics=True (the default) records the B0 defect, the
    multiplication conditions and, when the root is known, b_defect, and
    updates B on every iteration.  diagnostics=False skips all of that and
    the B update on the iteration that ends the run.  It also skips the
    update methods' B update on an iteration n whose residuals forecast
    convergence with the same B, r_n * (r_n / r_{n-1}) <= KAPPA *
    residual_tolerance; the next step then reuses B.  Until the first such
    skip, iterates, residuals, errors and outcomes are the same at both
    levels; newton and steffensen match throughout.
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
    that stops on a typed failure keeps the B it had then.  b_updates
    counts the B updates the run made (0 for newton and steffensen).
    """

    method: str
    problem_name: str
    records: tuple
    outcome: str  # converged | max_iterations | diverged |
    #               singular_linear_system | domain_violation | invalid_evaluation
    b0_defect: Optional[float] = None  # ||I - B0 J(x0)||; None without diagnostics
    b0_product: Optional[float] = None  # ||B0 J(x0)||; None without diagnostics
    approx_inverse: Optional[np.ndarray] = None
    b_updates: int = 0

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
    """Materialize the initial approximate inverse that `strategy` names at x0.

    `jac` is J(x0) when the caller has already formed it; otherwise the
    approximate-inverse strategy forms it here.  Returns a fresh array.
    """
    m = problem.dimension
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


class _Run:
    """Mutable state of one run; produces the trace."""

    def __init__(self, problem, x0, config, b0):
        self.problem = problem
        self.config = config
        m = problem.dimension
        self.x = as_vector(x0).astype(float, copy=True)
        if self.x.size != m:
            raise ValueError(f"x0 has dimension {self.x.size}, problem {problem.name!r} needs {m}")
        self.b0 = None if b0 is None else np.asarray(b0, dtype=float)  # a float64 b0 is not copied
        if self.b0 is not None and self.b0.shape != (m, m):
            raise ValueError(f"b0 has shape {self.b0.shape}, problem {problem.name!r} needs ({m}, {m})")
        self.records = []
        self.outcome = "max_iterations"
        self.b = None  # the approximate inverse of the update methods
        self.b_updates = 0
        self.b0_defect = None
        self.b0_product = None
        root = problem.known_solution
        self.root = None if root is None else as_vector(root)
        self.floor = (
            None if self.root is None else ERROR_FLOOR_RTOL * (1.0 + max_norm_vec(self.root))
        )
        self.jac_at_root = None  # F'(x*) for b_defect; set with B0

    def error_of(self, x):
        if self.root is None:
            return None, False
        if not all_finite(x):
            return float("inf"), False
        err = max_norm_vec(x - self.root)
        return err, err < self.floor

    def b_defect(self):
        if self.jac_at_root is None or self.b is None or not all_finite(self.b):
            return None
        return max_norm_mat(np.eye(len(self.b)) - self.b @ self.jac_at_root)

    def record(self, index, x, residual, step_norm=None, solve_condition=None,
               mult_condition_max=None):
        error, at_floor = self.error_of(x)
        self.records.append(
            IterationRecord(
                index=index,
                iterate=x,  # a fresh array, which nothing writes to afterwards
                residual=residual,  # a float: finite, or inf for a diverged step
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
            b_updates=self.b_updates,
        )


# _solve_step and _inverse_update are functions of their own, so that T,
# T^-1 and the products are freed on return, not held until the next step.
def _solve_step(op, fx):
    """The step T^-1 F(x) and ||T|| ||T^-1||, from one factorization of T."""
    step, _, cond = linalg.lu_factor(op, fx)
    return step, cond


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


# A function of its own, so that J(x0) is freed before the first step.
def _set_up_b0(state, problem, config):
    """B0 (the caller's b0, else the one config.b0_strategy builds) and, with
    diagnostics, its defect, from at most one J(x0), and the analytic F'(x*)
    that b_defect reads when the root is known."""
    b0 = state.b0
    jac0 = None
    if config.diagnostics or (b0 is None and config.b0_strategy.variant == "approximate_inverse"):
        jac0 = problem_jacobian(problem, state.x)
    state.b = make_b0(problem, state.x, config.b0_strategy, jac0) if b0 is None else b0
    if config.diagnostics:
        product = state.b @ jac0
        state.b0_defect = max_norm_mat(np.eye(len(state.b)) - product)
        state.b0_product = max_norm_mat(product)
        if state.root is not None and problem.analytic_jacobian is not None:
            state.jac_at_root = problem_jacobian(problem, state.root)


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


def run(problem, x0, config, b0=None):
    """Run the configured method and return its IterationTrace.

    b0, an m-by-m matrix, is the update methods' B0 in place of the one
    config.b0_strategy would build; newton and steffensen ignore it.  The
    run neither copies nor writes to b0; a run that ends before its first B
    update returns it as trace.approx_inverse.  Raises ValueError when x0 or
    b0 does not fit the problem's dimension.
    """
    state = _Run(problem, x0, config, b0)
    try:
        _iterate(state, problem, config)
    except tuple(_OUTCOMES) as exc:
        state.outcome = _OUTCOMES[type(exc)]
    return state.finish()


def _ending(x, residual, step_norm, config):
    """The outcome that the iterate x ends the run with, or None."""
    if not max_norm_vec(x) <= DIVERGENCE_BOUND:  # also true for NaN and inf
        return "diverged"
    if residual <= config.residual_tolerance or step_norm <= config.step_tolerance:
        return "converged"
    return None


def _iterate(state, problem, config):
    """Set up B0 when the method carries one, then step until the run ends.

    Typed failures propagate to `run`; state.outcome covers the rest.
    Without diagnostics the B update is skipped on the iteration that ends
    the run, since no step uses it, and also while the forecast residual
    r_n^2 / r_{n-1} is below KAPPA * residual_tolerance.
    """
    operator, point = _OPERATORS[config.method]
    fx = evaluate(problem, state.x)
    if config.method in UPDATE_METHODS:
        _set_up_b0(state, problem, config)
    previous = max_norm_vec(fx)
    state.record(0, state.x, previous)

    for n in range(1, config.max_iterations + 1):
        b = state.b
        solve_cond = mult_cond = None
        if b is None:
            step, solve_cond = _solve_step(operator(problem, state.x, fx), fx)
            x_next = state.x - step
        else:
            step = b @ fx
            x_next = state.x - step
            if not all_finite(x_next):
                state.record(n, x_next, float("inf"), step_norm=float("inf"))
                state.outcome = "diverged"
                return
        f_next = evaluate(problem, x_next)
        residual, step_norm = max_norm_vec(f_next), max_norm_vec(step)
        outcome = _ending(x_next, residual, step_norm, config)
        last = outcome is not None or n == config.max_iterations
        keep_b = last or residual * residual <= KAPPA * config.residual_tolerance * previous
        if b is not None and (config.diagnostics or not keep_b):
            z, fz = (x_next, f_next) if point == "x+" else (state.x, fx)
            state.b, mult_cond = _inverse_update(b, operator(problem, z, fz), config.diagnostics)
            state.b_updates += 1
        state.record(n, x_next, residual, step_norm=step_norm,
                     solve_condition=solve_cond, mult_condition_max=mult_cond)
        state.x, fx, previous = x_next, f_next, residual
        if outcome is not None:
            state.outcome = outcome
            return
