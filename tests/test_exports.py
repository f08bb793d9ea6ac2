"""The package's public names and settable fields, pinned: adding or
removing an export or a config field is an edit to these lists, made on
purpose and reviewed with the change."""

import dataclasses

import mosteff

EXPORTS = [
    "B0Strategy",
    "ChapmanParams",
    "ConditionReport",
    "ConvergenceConstants",
    "DaySummary",
    "DomainViolation",
    "InnerSolverFailed",
    "InsufficientData",
    "InvalidEvaluation",
    "IterationRecord",
    "IterationTrace",
    "MosteffError",
    "NonFiniteEvaluation",
    "NonFiniteState",
    "NonlinearProblem",
    "ODEProblem",
    "RKTableau",
    "ScalarSequences",
    "SingularMatrix",
    "SolverConfig",
    "Trajectory",
    "academic_system",
    "affine_problem",
    "analysis",
    "build",
    "chapman",
    "chapman_problem",
    "check_conditions",
    "collocation_tableau",
    "day_summaries",
    "divdiff",
    "divided_difference",
    "errors",
    "estimate_coc",
    "estimate_constants",
    "example_3d",
    "find_radius",
    "gauss_nodes",
    "generate_sequences",
    "inner_config",
    "integrate",
    "invert",
    "irk_step",
    "linalg",
    "lu_solve",
    "make_b0",
    "max_norm_mat",
    "max_norm_vec",
    "mult_condition",
    "numeric_jacobian",
    "problems",
    "rk",
    "run",
    "secant_defect",
    "solve_condition",
    "solvers",
]


def test_public_exports_are_pinned():
    assert sorted(mosteff.__all__) == EXPORTS


SOLVER_CONFIG_FIELDS = [
    "b0_strategy",
    "diagnostics",
    "max_iterations",
    "method",
    "residual_tolerance",
    "step_tolerance",
]

B0_STRATEGY_FIELDS = ["value", "variant"]


def test_settable_fields_are_pinned():
    assert sorted(f.name for f in dataclasses.fields(mosteff.SolverConfig)) == SOLVER_CONFIG_FIELDS
    assert sorted(f.name for f in dataclasses.fields(mosteff.B0Strategy)) == B0_STRATEGY_FIELDS
