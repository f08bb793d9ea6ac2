"""The package's public names and settable fields, pinned: adding or
removing an export or a config field is an edit to these lists, made on
purpose and reviewed with the change."""

import dataclasses
import inspect

import mosteff

EXPORTS = [
    "B0Strategy",
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


# Parameter names of every public callable, in order: a new keyword on a
# public function is a reviewed edit too.  The exception classes take
# Exception's arguments and define no __init__ of their own.
SIGNATURES = {
    "B0Strategy": ["variant", "value"],
    "ConditionReport": [
        "cond1", "cond2", "cond3", "cond1_value", "alpha1", "alpha_tilde1", "d0", "delta0",
        "delta1", "cond3_margin", "contraction", "consequence_a", "consequence_b",
    ],
    "ConvergenceConstants": ["M", "k", "beta", "delta", "r", "r_tilde"],
    "DaySummary": [
        "day", "t_start", "t_end", "y2_start", "y2_end", "y2_rise", "y2_min", "y1_max", "t_y1_max",
        "y1_min",
    ],
    "IterationRecord": [
        "index", "iterate", "residual", "error", "error_at_floor", "step_norm", "solve_condition",
        "mult_condition_max", "b_defect",
    ],
    "IterationTrace": [
        "method", "problem_name", "rows", "outcome", "b0_defect", "b0_product", "approx_inverse",
        "b_updates",
    ],
    "NonlinearProblem": [
        "dimension", "eval", "analytic_jacobian", "known_solution", "domain_check", "name",
    ],
    "ODEProblem": ["dimension", "rhs", "y0", "t_span"],
    "RKTableau": ["s", "c", "A", "b"],
    "ScalarSequences": ["alpha", "alpha_tilde", "beta", "delta", "d"],
    "SolverConfig": [
        "method", "max_iterations", "residual_tolerance", "step_tolerance", "b0_strategy",
        "diagnostics",
    ],
    "Trajectory": ["t", "y", "inner_iterations", "b0_rebuilds", "b_updates"],
    "academic_system": ["epsilon"],
    "affine_problem": ["a", "b"],
    "build": ["name", "params"],
    "chapman_problem": ["rate_sign"],
    "check_conditions": ["c"],
    "collocation_tableau": ["c"],
    "day_summaries": ["traj"],
    "divided_difference": ["problem", "u", "v", "fu"],
    "estimate_coc": ["trace_or_errors"],
    "estimate_constants": ["problem", "r_sample", "n_samples"],
    "example_3d": [],
    "find_radius": ["M", "k", "beta", "delta", "r_tilde"],
    "gauss_nodes": ["s"],
    "generate_sequences": ["c", "n_terms"],
    "inner_config": ["method"],
    "integrate": ["ode", "tab", "h", "inner"],
    "invert": ["a"],
    "lu_solve": ["a", "b"],
    "make_b0": ["problem", "x0", "strategy", "jac"],
    "max_norm_mat": ["a"],
    "max_norm_vec": ["v"],
    "mult_condition": ["a", "b"],
    "numeric_jacobian": ["problem", "x"],
    "run": ["problem", "x0", "config", "b0"],
    "secant_defect": ["problem", "u", "v"],
    "solve_condition": ["a"],
}


def test_public_signatures_are_pinned():
    signatures, exceptions = {}, []
    for name in mosteff.__all__:
        obj = getattr(mosteff, name)
        if isinstance(obj, type) and issubclass(obj, BaseException):
            exceptions.append(obj)
        elif callable(obj):
            signatures[name] = list(inspect.signature(obj).parameters)
    assert signatures == SIGNATURES
    assert all(cls.__init__ is Exception.__init__ for cls in exceptions)
