"""Derivative-free, inversion-free nonlinear solvers with convergence-radius
analysis and an implicit Runge-Kutta driver for stiff ODEs."""

from .analysis import (
    ConditionReport,
    ConvergenceConstants,
    ScalarSequences,
    check_conditions,
    estimate_coc,
    estimate_constants,
    find_radius,
    generate_sequences,
)
from .chapman import DaySummary, chapman_problem, day_summaries, inner_config
from .divdiff import divided_difference, numeric_jacobian, secant_defect
from .errors import (
    DomainViolation,
    InnerSolverFailed,
    InsufficientData,
    InvalidEvaluation,
    MosteffError,
    NonFiniteEvaluation,
    NonFiniteState,
    SingularMatrix,
)
from .linalg import (
    invert,
    lu_solve,
    max_norm_mat,
    max_norm_vec,
    mult_condition,
    solve_condition,
)
from .problems import NonlinearProblem, academic_system, affine_problem, build, example_3d
from .rk import (
    ODEProblem,
    RKTableau,
    Trajectory,
    collocation_tableau,
    gauss_nodes,
    integrate,
)
from .solvers import (
    B0Strategy,
    IterationRecord,
    IterationTrace,
    SolverConfig,
    make_b0,
    run,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
