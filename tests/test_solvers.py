import dataclasses
import math

import numpy as np
import pytest

import mosteff.divdiff as divdiff
import mosteff.linalg as linalg
import mosteff.solvers as solvers
import mosteff.tables as tables
from mosteff.errors import SingularMatrix
from mosteff.linalg import invert, max_norm_mat, max_norm_vec
from mosteff.problems import NonlinearProblem, build
from mosteff.solvers import (
    METHODS,
    UPDATE_METHODS,
    B0Strategy,
    SolverConfig,
    make_b0,
    run,
)

AFFINE = build("affine")
ACADEMIC3 = build("academic", epsilon=3.0)


def test_methods_tuple():
    assert METHODS == ("newton", "steffensen", "moser", "hald", "moser_steffensen")


@pytest.mark.parametrize("method", METHODS)
def test_affine_one_step_exact(method):
    # with B0 = A^-1 every method lands on the root after one update
    config = SolverConfig(method=method)
    trace = run(AFFINE, np.zeros(2), config)
    assert trace.outcome == "converged"
    assert len(trace.records) == 2
    assert trace.final.residual <= 1e-12


def test_steffensen_equals_newton_on_affine():
    # the divided difference of an affine map is its matrix, so both methods
    # produce identical iterates
    x0 = np.array([3.0, -2.0])
    newton = run(AFFINE, x0, SolverConfig(method="newton"))
    steff = run(AFFINE, x0, SolverConfig(method="steffensen"))
    for rec_n, rec_s in zip(newton.records, steff.records):
        assert np.array_equal(rec_n.iterate, rec_s.iterate)


def test_error_floor_flag():
    trace = run(AFFINE, np.zeros(2), SolverConfig(method="newton"))
    final = trace.final
    assert final.error_at_floor
    assert final.error is not None and final.error <= 1e-16 * 2.0
    assert trace.errors(above_floor=True) == [trace.records[0].error]


def test_make_b0_defect_matches_target():
    x0 = np.array([-1.0, 1.0])
    jac = ACADEMIC3.analytic_jacobian(x0)
    for target in (1e-3, 1e-1, 0.999):
        b0 = make_b0(ACADEMIC3, x0, B0Strategy.approximate_inverse(target))
        defect = max_norm_mat(np.eye(2) - b0 @ jac)
        assert defect == pytest.approx(target, rel=1e-12)


def test_make_b0_exact_inverse_at_zero_target():
    x0 = np.array([-1.0, 1.0])
    b0 = make_b0(ACADEMIC3, x0, B0Strategy.approximate_inverse(0.0))
    jac = ACADEMIC3.analytic_jacobian(x0)
    assert max_norm_mat(np.eye(2) - b0 @ jac) <= 1e-14


def test_make_b0_singular_jacobian():
    problem = build("academic", epsilon=1.0)
    # the Jacobian at (1, 1) has a zero first row
    with pytest.raises(SingularMatrix):
        make_b0(problem, np.array([1.0, 1.0]), B0Strategy.approximate_inverse(1e-3))


def test_make_b0_scaled_identity_and_explicit():
    x0 = np.array([-1.0, 1.0])
    b_scaled = make_b0(ACADEMIC3, x0, B0Strategy.scaled_identity(0.01))
    assert np.allclose(b_scaled, 0.01 * np.eye(2))
    matrix = np.array([[0.5, 0.1], [0.0, 0.4]])
    b_explicit = make_b0(ACADEMIC3, x0, B0Strategy.explicit(matrix))
    assert np.array_equal(b_explicit, matrix)


def test_b0_diagnostics_recorded():
    trace = run(
        ACADEMIC3,
        np.array([-1.0, 1.0]),
        SolverConfig(method="moser_steffensen", b0_strategy=B0Strategy.approximate_inverse(1e-1)),
    )
    assert trace.b0_defect == pytest.approx(0.1, rel=1e-12)
    assert trace.b0_product <= 1.1 + 1e-12


def test_inverse_update_contracts_on_frozen_matrix():
    rng = np.random.default_rng(12345)
    a = rng.uniform(-1.0, 1.0, (5, 5)) + np.eye(5) * 5
    b = 0.5 * invert(a)  # ||I - B0 A|| = 0.5
    defect = max_norm_mat(np.eye(5) - b @ a)
    for _ in range(10):
        b = 2.0 * b - b @ a @ b
        new_defect = max_norm_mat(np.eye(5) - b @ a)
        assert new_defect <= defect**2 + 1e-10
        defect = new_defect


def test_no_linear_solves_after_explicit_b0(monkeypatch):
    # the defining structural property: with B0 given, the iteration is built
    # from products only
    b0 = invert(ACADEMIC3.analytic_jacobian(np.array([-1.0, 1.0])))
    calls = []

    def forbid(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(linalg, "lu_factor", forbid("lu_factor", linalg.lu_factor))
    monkeypatch.setattr(linalg, "invert", forbid("invert", linalg.invert))
    trace = run(
        ACADEMIC3,
        np.array([-1.0, 1.0]),
        SolverConfig(method="moser_steffensen", b0_strategy=B0Strategy.explicit(b0)),
    )
    assert trace.outcome == "converged"
    assert calls == []


def test_newton_does_solve(monkeypatch):
    # one factorization per Newton iteration gives the step and its condition
    calls = []
    original = linalg.lu_factor

    def wrapper(*args, **kwargs):
        calls.append("lu_factor")
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg, "lu_factor", wrapper)
    trace = run(ACADEMIC3, np.array([-1.0, 1.0]), SolverConfig(method="newton"))
    assert calls
    assert len(calls) == len(trace.records) - 1


def test_moser_steffensen_converges_quadratically():
    trace = run(
        ACADEMIC3,
        np.array([-1.0, 1.0]),
        SolverConfig(
            method="moser_steffensen",
            b0_strategy=B0Strategy.approximate_inverse(1e-3),
            residual_tolerance=1e-24,
            step_tolerance=1e-30,
            max_iterations=30,
        ),
    )
    assert trace.outcome == "converged"
    errors = trace.errors(above_floor=True)
    # once inside the quadratic regime each error is roughly the square of
    # the previous one
    assert errors[-1] <= 10.0 * errors[-2] ** 2


def test_condition_diagnostics_by_family():
    newton = run(ACADEMIC3, np.array([-1.0, 1.0]), SolverConfig(method="newton"))
    assert all(rec.solve_condition is not None for rec in newton.records[1:])
    assert all(rec.mult_condition_max is None for rec in newton.records)
    ms = run(ACADEMIC3, np.array([-1.0, 1.0]), SolverConfig(method="moser_steffensen"))
    assert all(rec.mult_condition_max is not None for rec in ms.records[1:])
    assert all(rec.solve_condition is None for rec in ms.records)


def test_outcome_max_iterations():
    trace = run(
        ACADEMIC3,
        np.array([-1.0, 1.0]),
        SolverConfig(method="moser_steffensen", max_iterations=1, residual_tolerance=1e-30),
    )
    assert trace.outcome == "max_iterations"
    assert len(trace.records) == 2


def test_outcome_diverged():
    # a huge scaled-identity B0 overshoots far past the divergence bound
    trace = run(
        AFFINE,
        np.array([2.0, 2.0]),
        SolverConfig(method="moser_steffensen", b0_strategy=B0Strategy.scaled_identity(1e9), max_iterations=5),
    )
    assert trace.outcome == "diverged"


def test_outcome_singular_linear_system():
    problem = build("academic", epsilon=1.0)
    trace = run(problem, np.array([1.0, 1.0]), SolverConfig(method="newton"))
    assert trace.outcome == "singular_linear_system"


def test_outcome_domain_violation():
    problem = build("example3d")
    # x + F(x) leaves the unit ball, so the divided difference cannot be formed
    trace = run(problem, np.array([0.9, 0.0, 0.0]), SolverConfig(method="steffensen"))
    assert trace.outcome == "domain_violation"


def test_trace_carries_final_approx_inverse():
    a = AFFINE.analytic_jacobian(np.zeros(2))
    config = SolverConfig(method="moser_steffensen", b0_strategy=B0Strategy.approximate_inverse(0.5))
    trace = run(AFFINE, np.zeros(2), config)
    assert trace.outcome == "converged"
    assert np.allclose(trace.approx_inverse, invert(a), rtol=0.0, atol=1e-10)
    # the final B is the one the last record's defect was measured on
    assert trace.final.b_defect == max_norm_mat(np.eye(2) - trace.approx_inverse @ a)
    assert run(AFFINE, np.zeros(2), SolverConfig(method="newton")).approx_inverse is None


# No analytic Jacobian.  From this start both the central-difference step at
# x0 and the Steffensen point x0 + F(x0) leave the unit ball, so every method
# meets the domain boundary before or in its first step.
EDGE_OF_BALL = NonlinearProblem(
    dimension=2,
    eval=lambda w: np.array([w[0] ** 2 - 0.25, w[1]]),
    domain_check=lambda w: max_norm_vec(w) < 1.0,
    name="edge-of-ball",
)


@pytest.mark.parametrize(
    "b0",
    [B0Strategy.approximate_inverse(0.0), B0Strategy.explicit(np.eye(2))],
    ids=["approx-inverse", "explicit-identity"],
)
@pytest.mark.parametrize("method", METHODS)
def test_domain_violation_at_setup_is_an_outcome(method, b0):
    config = SolverConfig(method=method, b0_strategy=b0)
    trace = run(EDGE_OF_BALL, np.array([1.0 - 1e-7, 0.0]), config)
    assert trace.outcome == "domain_violation"


def test_b_defect_tracks_inverse_quality():
    trace = run(
        ACADEMIC3,
        np.array([-1.0, 1.0]),
        SolverConfig(method="moser_steffensen", b0_strategy=B0Strategy.approximate_inverse(1e-1)),
    )
    defects = [rec.b_defect for rec in trace.records if rec.b_defect is not None]
    assert defects[-1] < defects[0]
    assert defects[-1] <= 1e-8


# The problem, start and B0 of the Moser-Steffensen runs of the six comparison
# tables, and two example3d starts, under one tight stopping rule.
TIGHT = dict(max_iterations=40, residual_tolerance=1e-24, step_tolerance=1e-30)
LEAN_CASES = [
    *(
        (problem, x0, config.b0_strategy)
        for table in range(1, 7)
        for _, problem, x0, config in tables.specs(table)
        if config.method == "moser_steffensen"
    ),
    (build("example3d"), (0.1, 0.2, 0.3), B0Strategy.approximate_inverse(1e-3)),
    (build("example3d"), (-0.3, 0.2, -0.1), B0Strategy.approximate_inverse(0.1)),
]


@pytest.mark.parametrize("case", range(len(LEAN_CASES)))
@pytest.mark.parametrize("method", METHODS)
def test_lean_run_matches_full_run(method, case):
    problem, x0, b0 = LEAN_CASES[case]
    config = SolverConfig(method=method, b0_strategy=b0, **TIGHT)
    full = run(problem, np.array(x0), config)
    lean = run(problem, np.array(x0), dataclasses.replace(config, diagnostics=False))
    assert lean.outcome == full.outcome
    assert len(lean.records) == len(full.records)
    for rec_l, rec_f in zip(lean.records, full.records):
        assert np.array_equal(rec_l.iterate, rec_f.iterate)
        assert (rec_l.residual, rec_l.error, rec_l.step_norm) == (rec_f.residual, rec_f.error, rec_f.step_norm)
        assert rec_l.solve_condition == rec_f.solve_condition
        assert rec_l.mult_condition_max is None and rec_l.b_defect is None
    assert lean.b0_defect is None and lean.b0_product is None
    if method in UPDATE_METHODS:
        # the carried B is the one that took the final step
        previous = lean.records[-2].iterate
        step = lean.approx_inverse @ np.asarray(problem.eval(previous), dtype=float)
        assert np.array_equal(previous - step, lean.final.iterate)


# The academic system without its Jacobian: the only way to the derivative is
# a difference of F values.
DERIVATIVE_FREE = NonlinearProblem(dimension=2, eval=ACADEMIC3.eval, name="academic-no-jacobian")


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("diagnostics", [False, True], ids=["lean", "full"])
def test_derivative_free_run_contract(monkeypatch, diagnostics):
    x0 = np.array([-1.0, 1.0])
    config = SolverConfig(
        method="moser_steffensen",
        b0_strategy=B0Strategy.explicit(invert(ACADEMIC3.analytic_jacobian(x0))),
        diagnostics=diagnostics,
    )
    if not diagnostics:
        # the full level measures the B0 defect against a numeric Jacobian
        def forbidden(*args, **kwargs):
            raise AssertionError("derivative or solve in a derivative-free run")

        monkeypatch.setattr(solvers, "problem_jacobian", forbidden)
        monkeypatch.setattr(divdiff, "numeric_jacobian", forbidden)
        monkeypatch.setattr(linalg, "lu_factor", forbidden)
    differences = _count_calls(monkeypatch, solvers, "divided_difference")
    staircase_evaluations = _count_calls(monkeypatch, divdiff, "evaluate")
    fallback_columns = _count_calls(monkeypatch, divdiff, "_central_column")
    trace = run(DERIVATIVE_FREE, x0, config)
    assert trace.outcome == "converged"
    n = len(trace.records) - 1
    updates = n if diagnostics else n - 1
    assert len(differences) == updates
    if not diagnostics:
        # m per staircase (F at its last point, x+, is already in hand), and
        # two per coincident column (F_2 = x + y vanishes along this start's
        # iterates)
        expected = updates * DERIVATIVE_FREE.dimension + 2 * len(fallback_columns)
        assert len(staircase_evaluations) == expected


def test_full_diagnostics_form_j_x0_once(monkeypatch):
    # B0 and its defect share one J(x0); without an analytic Jacobian it
    # is a central-difference one, and no step takes another
    x0 = np.array([-1.0, 1.0])
    strategy = B0Strategy.approximate_inverse(0.0)
    jacobians = _count_calls(monkeypatch, divdiff, "numeric_jacobian")
    trace = run(DERIVATIVE_FREE, x0, SolverConfig(method="moser_steffensen", b0_strategy=strategy))
    assert trace.outcome == "converged"
    assert len(jacobians) == 1
    jac0 = divdiff.numeric_jacobian(DERIVATIVE_FREE, x0)
    b0 = make_b0(DERIVATIVE_FREE, x0, strategy)
    assert np.array_equal(make_b0(DERIVATIVE_FREE, x0, strategy, jac0), b0)
    assert trace.b0_defect == max_norm_mat(np.eye(2) - b0 @ jac0)
    assert trace.b0_product == max_norm_mat(b0 @ jac0)


@pytest.mark.parametrize(
    "bad_eval",
    [
        lambda w: np.array([w[0], w[1], 0.0]),
        lambda w: float(w[0]),
        # an F that raises instead: math.log(-1) and math.exp(1000)
        lambda w: np.array([math.log(w[0] - 2.0), w[1]]),
        lambda w: np.array([math.exp(1e3 * w[0]), w[1]]),
    ],
    ids=["3-vector", "scalar", "raises-ValueError", "raises-OverflowError"],
)
@pytest.mark.parametrize("method", METHODS)
def test_wrong_shaped_evaluation_is_an_outcome(method, bad_eval):
    problem = NonlinearProblem(dimension=2, eval=bad_eval, analytic_jacobian=AFFINE.analytic_jacobian)
    trace = run(problem, np.array([1.0, 1.0]), SolverConfig(method=method))
    assert trace.outcome == "invalid_evaluation"
    assert trace.records == ()


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(method="gradient-descent")
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(residual_tolerance=-1.0)
    with pytest.raises(ValueError):
        B0Strategy.approximate_inverse(1.0)  # target must be below 1
    with pytest.raises(ValueError):
        B0Strategy.approximate_inverse(-0.1)
    with pytest.raises(ValueError):
        B0Strategy.scaled_identity(0.0)


def test_run_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="x0 has dimension 3"):
        run(AFFINE, np.zeros(3), SolverConfig())
