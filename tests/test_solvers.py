import dataclasses
import hashlib
import math

import numpy as np
import pytest

import mosteff.divdiff as divdiff
import mosteff.linalg as linalg
import mosteff.solvers as solvers
import mosteff.tables as tables
from mosteff.analysis import estimate_constants
from mosteff.chapman import ACCEPTED_STEP, SECONDS_PER_DAY, chapman_problem, inner_config
from mosteff.errors import InnerSolverFailed, InvalidEvaluation, NonFiniteEvaluation, SingularMatrix
from mosteff.linalg import invert, max_norm_mat, max_norm_vec
from mosteff.problems import NonlinearProblem, build
from mosteff.rk import collocation_tableau, gauss_nodes, integrate
from mosteff.solvers import (
    METHODS,
    UPDATE_METHODS,
    B0Strategy,
    SolverConfig,
    diagnose,
    make_b0,
    run,
)

AFFINE = build("affine")
ACADEMIC3 = build("academic", epsilon=3.0)

# "full" diagnoses the run's trace; "lean" keeps it as run returns it.
LEVELS = pytest.mark.parametrize("diagnosed", [True, False], ids=["full", "lean"])


def _run(problem, x0, config, b0=None, diagnosed=False):
    return (_assert_diagnose_observes_only if diagnosed else run)(problem, x0, config, b0)


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
    assert trace.errors() == [trace.records[0].error]
    assert all(rec.error_at_floor for rec in trace.records[1:])
    assert trace.iterations == len(trace.records) - 1


@pytest.mark.parametrize("field", ["iterate", "residual", "outcome", "records"])
def test_records_and_traces_are_immutable(field):
    trace = run(ACADEMIC3, np.array([-1.0, 1.0]), SolverConfig(method="moser_steffensen"))
    owner = trace if field in trace._fields else trace.final
    with pytest.raises(AttributeError):
        setattr(owner, field, None)


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


@pytest.mark.parametrize("strategy", [B0Strategy.approximate_inverse(0.1), B0Strategy.approximate_inverse(0.0),
                                      B0Strategy.scaled_identity(0.01)])
def test_make_b0_returns_a_fresh_array(strategy):
    x0 = np.array([-1.0, 1.0])
    first = make_b0(ACADEMIC3, x0, strategy)
    expected = first.copy()
    first[:] = 7.0
    assert np.array_equal(make_b0(ACADEMIC3, x0, strategy), expected)


def test_checkerboard_is_built_once_and_read_only():
    board = solvers._checkerboard(3)
    assert solvers._checkerboard(3) is board
    assert np.array_equal(board, [[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])
    assert not board.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        board[0, 0] = 0.0


def test_make_b0_singular_jacobian():
    problem = build("academic", epsilon=1.0)
    # the Jacobian at (1, 1) has a zero first row
    with pytest.raises(SingularMatrix):
        make_b0(problem, np.array([1.0, 1.0]), B0Strategy.approximate_inverse(1e-3))


def test_make_b0_scaled_identity_and_explicit():
    x0 = np.array([-1.0, 1.0])
    b_scaled = make_b0(ACADEMIC3, x0, B0Strategy.scaled_identity(0.01))
    assert np.allclose(b_scaled, 0.01 * np.eye(2))
    # a caller's B0 goes to run as is; a one-step run never updates it
    matrix = np.array([[0.5, 0.1], [0.0, 0.4]])
    config = SolverConfig(method="moser_steffensen", max_iterations=1)
    b_explicit = run(ACADEMIC3, x0, config, matrix).approx_inverse
    assert np.array_equal(b_explicit, matrix)


@pytest.mark.parametrize("strategy", [B0Strategy.approximate_inverse(0.0), B0Strategy.scaled_identity(0.5)],
                         ids=["approximate_inverse", "scaled_identity"])
def test_make_b0_refuses_a_start_of_another_dimension(strategy):
    with pytest.raises(ValueError, match=r"x0 has dimension 3, problem 'academic\(eps=3\)' needs 2"):
        make_b0(ACADEMIC3, np.array([1.0, 2.0, 3.0]), strategy)


def test_b0_diagnostics_recorded():
    config = SolverConfig(method="moser_steffensen", b0_strategy=B0Strategy.approximate_inverse(1e-1))
    trace = _assert_diagnose_observes_only(ACADEMIC3, (-1.0, 1.0), config)
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
    solves, inverses = (_count_calls(monkeypatch, linalg, name) for name in ("lu_factor", "invert"))
    trace = run(ACADEMIC3, np.array([-1.0, 1.0]), SolverConfig(method="moser_steffensen"), b0)
    assert trace.outcome == "converged"
    assert solves == inverses == []


def test_newton_does_solve(monkeypatch):
    # one factorization per Newton iteration gives the step and its condition
    calls = _count_calls(monkeypatch, linalg, "lu_factor")
    trace = run(ACADEMIC3, np.array([-1.0, 1.0]), SolverConfig(method="newton"))
    assert len(calls) == trace.iterations > 0


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
    errors = trace.errors()
    # once inside the quadratic regime each error is roughly the square of
    # the previous one
    assert errors[-1] <= 10.0 * errors[-2] ** 2


def test_condition_diagnostics_by_family():
    newton = run(ACADEMIC3, np.array([-1.0, 1.0]), SolverConfig(method="newton"))
    assert all(rec.solve_condition is not None for rec in newton.records[1:])
    assert all(rec.mult_condition_max is None for rec in newton.records)
    ms = _assert_diagnose_observes_only(ACADEMIC3, (-1.0, 1.0), SolverConfig(method="moser_steffensen"))
    # a multiplication condition per B update made; none after the final step
    assert all(rec.mult_condition_max is not None for rec in ms.records[1:-1])
    assert ms.records[0].mult_condition_max is None and ms.final.mult_condition_max is None
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
    trace = _assert_diagnose_observes_only(AFFINE, (0.0, 0.0), config)
    assert trace.outcome == "converged"
    # approx_inverse is B_N, the B that took the final step, and the one the
    # last record's defect was measured on
    previous = trace.records[-2].iterate
    step = trace.approx_inverse @ np.asarray(AFFINE.eval(previous), dtype=float)
    assert np.array_equal(trace.final.iterate, previous - step)
    assert trace.final.b_defect == max_norm_mat(np.eye(2) - trace.approx_inverse @ a)
    # on an affine F each update squares the defect, I - B+ A = (I - B A)^2,
    # and the iteration that makes no update leaves it as it was
    defects = [rec.b_defect for rec in trace.records]
    assert defects[0] == trace.b0_defect == 0.5
    for rec, before, after in zip(trace.records[1:], defects, defects[1:]):
        if rec.mult_condition_max is None:
            assert after == before
        else:
            assert after <= before**2 + 1e-15
    assert run(AFFINE, np.zeros(2), SolverConfig(method="newton")).approx_inverse is None


# No analytic Jacobian.  From this start both the central-difference step at
# x0 and the Steffensen point x0 + F(x0) leave the unit ball.
EDGE_OF_BALL = NonlinearProblem(
    dimension=2,
    eval=lambda w: np.array([w[0] ** 2 - 0.25, w[1]]),
    domain_check=lambda w: max_norm_vec(w) < 1.0,
    name="edge-of-ball",
)


@pytest.mark.parametrize("b0", [None, np.eye(2)], ids=["approx-inverse", "explicit-identity"])
@pytest.mark.parametrize("method", METHODS)
def test_domain_violation_at_setup_is_an_outcome(method, b0):
    config = SolverConfig(method=method, b0_strategy=B0Strategy.approximate_inverse(0.0))
    trace = _assert_diagnose_observes_only(EDGE_OF_BALL, (1.0 - 1e-7, 0.0), config, b0)
    if method == "hald" and b0 is not None:
        # hald's first Jacobian is at x1 = (0.25, 0), inside the ball; only
        # the B0 defect takes J(x0), which fails to form there
        assert (trace.outcome, trace.b0_defect) == ("converged", None)
    else:
        assert trace.outcome == "domain_violation"


def test_b_defect_tracks_inverse_quality():
    config = SolverConfig(method="moser_steffensen", b0_strategy=B0Strategy.approximate_inverse(1e-1))
    trace = _assert_diagnose_observes_only(ACADEMIC3, (-1.0, 1.0), config)
    defects = [rec.b_defect for rec in trace.records]
    assert None not in defects
    assert defects[-1] < defects[0]
    # the update follows the shape of the analysis's recurrence
    # delta_{n+1} = delta_n^2 + k M beta_n^2 (alpha_{n+1} + alpha~_{n+1}): each
    # updated B's defect is at most the previous one squared plus a multiple
    # of the error at the point of its divided difference, x_n (the multiple
    # is at most 1.34 on this run)
    for rec, before, after in zip(trace.records[1:], defects, defects[1:]):
        if rec.mult_condition_max is not None:
            assert after <= before**2 + 2.0 * rec.error
    # the final step updates nothing: its record keeps B_N's defect, the
    # defect of approx_inverse
    assert trace.final.mult_condition_max is None and defects[-1] == defects[-2]
    jac_at_root = ACADEMIC3.analytic_jacobian(ACADEMIC3.known_solution)
    assert defects[-1] == max_norm_mat(np.eye(2) - trace.approx_inverse @ jac_at_root)


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


def _assert_diagnose_observes_only(problem, x0, config, b0=None, forecast_stop=False):
    """Run, diagnose and return the diagnosed trace, checking that diagnose
    changed nothing but the diagnostics, which run leaves None, and filled
    one multiplication condition per B update made."""
    x0 = np.asarray(x0, dtype=float)
    trace = run(problem, x0, config, b0, forecast_stop=forecast_stop)
    diagnosed = diagnose(trace)
    if config.method not in UPDATE_METHODS or not trace.records:
        assert diagnosed is trace
    assert (diagnosed.outcome, diagnosed.b_updates) == (trace.outcome, trace.b_updates)
    assert diagnosed.approx_inverse is trace.approx_inverse
    assert len(diagnosed.records) == len(trace.records)
    for rec, rec_d in zip(trace.records, diagnosed.records):
        assert rec_d.iterate is rec.iterate
        assert rec_d[2:7] == rec[2:7]  # residual, error, error_at_floor, step_norm, solve_condition
        assert rec.mult_condition_max is None and rec.b_defect is None
    assert sum(rec.mult_condition_max is not None for rec in diagnosed.records) == diagnosed.b_updates
    assert trace.b0_defect is None and trace.b0_product is None
    return diagnosed


@pytest.mark.parametrize("case", range(len(LEAN_CASES)))
@pytest.mark.parametrize("method", METHODS)
def test_lean_run_matches_full_run(method, case):
    problem, x0, b0 = LEAN_CASES[case]
    _assert_diagnose_observes_only(problem, x0, SolverConfig(method=method, b0_strategy=b0, **TIGHT))


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


@LEVELS
def test_derivative_free_run_contract(monkeypatch, diagnosed):
    x0 = np.array([-1.0, 1.0])
    b0 = invert(ACADEMIC3.analytic_jacobian(x0))
    config = SolverConfig(method="moser_steffensen")
    differences = _count_calls(monkeypatch, solvers, "divided_difference")
    staircase_evaluations = _count_calls(monkeypatch, divdiff, "evaluate")
    fallback_columns = _count_calls(monkeypatch, divdiff, "_central_column")

    def forbidden(*args, **kwargs):
        raise AssertionError("derivative or solve in a derivative-free run")

    with monkeypatch.context() as patch:
        for module, name in ((solvers, "problem_jacobian"), (divdiff, "numeric_jacobian"), (linalg, "lu_factor")):
            patch.setattr(module, name, forbidden)
        trace = run(DERIVATIVE_FREE, x0, config, b0)
    assert trace.outcome == "converged"
    # one B update per iteration but the last
    updates = len(trace.records) - 2
    assert trace.b_updates == updates
    assert len(differences) == updates
    # m per staircase (F at its last point, x+, is already in hand), and
    # two per coincident column (F_2 = x + y vanishes along this start's
    # iterates)
    expected = updates * DERIVATIVE_FREE.dimension + 2 * len(fallback_columns)
    assert len(staircase_evaluations) == expected
    if diagnosed:
        # the replay forms each staircase again at the run's cost, and a
        # central-difference J(x0) (2 m evaluations) for the B0 defect
        trace = diagnose(trace)
        assert trace.b0_defect is not None and len(differences) == 2 * updates
        assert len(staircase_evaluations) == 2 * expected + 2 * DERIVATIVE_FREE.dimension


def test_full_diagnostics_form_j_x0_once(monkeypatch):
    # B0 and its defect share one J(x0) in diagnose; without an analytic
    # Jacobian it is a central-difference one, and no step takes another
    x0 = np.array([-1.0, 1.0])
    strategy = B0Strategy.approximate_inverse(0.0)
    config = SolverConfig(method="moser_steffensen", b0_strategy=strategy)
    jacobians = _count_calls(monkeypatch, divdiff, "numeric_jacobian")
    trace = run(DERIVATIVE_FREE, x0, config)
    assert trace.outcome == "converged"
    assert len(jacobians) == 1
    trace = diagnose(trace)
    assert len(jacobians) == 2
    jac0 = divdiff.numeric_jacobian(DERIVATIVE_FREE, x0)
    b0 = make_b0(DERIVATIVE_FREE, x0, strategy)
    assert np.array_equal(make_b0(DERIVATIVE_FREE, x0, strategy, jac0), b0)
    assert trace.b0_defect == max_norm_mat(np.eye(2) - b0 @ jac0)
    assert trace.b0_product == max_norm_mat(b0 @ jac0)


@pytest.mark.parametrize(
    "strategy, inside_make_b0",
    [(B0Strategy.approximate_inverse(0.0), [True]), (B0Strategy.scaled_identity(0.5), [])],
    ids=["approximate_inverse", "scaled_identity"],
)
def test_lean_runs_form_j_x0_only_inside_make_b0(monkeypatch, strategy, inside_make_b0):
    # run forms J(x0) for B0 alone, so make_b0 forms it once when the
    # strategy needs it and nothing forms it when the strategy does not
    make_b0_depth = [0]
    jacobians = []  # per J formed: was it inside make_b0?
    original_make_b0, original_jacobian = solvers.make_b0, solvers.problem_jacobian

    def traced_make_b0(*args):
        make_b0_depth[0] += 1
        try:
            return original_make_b0(*args)
        finally:
            make_b0_depth[0] -= 1

    def traced_jacobian(*args):
        jacobians.append(make_b0_depth[0] > 0)
        return original_jacobian(*args)

    monkeypatch.setattr(solvers, "make_b0", traced_make_b0)
    monkeypatch.setattr(solvers, "problem_jacobian", traced_jacobian)
    config = SolverConfig(method="moser_steffensen", b0_strategy=strategy)
    trace = run(DERIVATIVE_FREE, np.array([-1.0, 1.0]), config)
    assert len(trace.records) >= 2
    assert jacobians == inside_make_b0


@pytest.mark.parametrize(
    "epsilon, x0, strategy, diagnose_calls, run_calls, extra",
    [
        (3.0, (-1.0, 1.0), B0Strategy.approximate_inverse(1e-3), 7, 6, ["root"]),
        (1.0, (-1.0, 1.0), B0Strategy.approximate_inverse(1e-3), 9, 8, ["root"]),
        (3.0, (-2.0, 2.0), B0Strategy.scaled_identity(0.01), 2, 0, ["x0", "root"]),
        (2.0, (2.0, 2.0), B0Strategy.scaled_identity(0.01), 2, 0, ["x0", "root"]),
    ],
    ids=["eps3-approximate_inverse", "eps1-approximate_inverse", "eps3-scaled_identity", "eps2-scaled_identity"],
)
def test_diagnostics_cost_in_jacobian_calls(epsilon, x0, strategy, diagnose_calls, run_calls, extra):
    # run's calls are make_b0's J(x0) and the staircase's coincident-column
    # fallbacks; diagnose repeats the fallbacks of the staircases it forms
    # again and adds F'(x*), for b_defect, and J(x0), for the B0 defect,
    # which make_b0 then reuses
    academic = build("academic", epsilon=epsilon)
    points = {"x0": tuple(x0), "root": tuple(academic.known_solution)}
    seen = []
    problem = dataclasses.replace(academic, analytic_jacobian=lambda w: seen.append(tuple(w))
                                  or academic.analytic_jacobian(w))
    config = SolverConfig(method="moser_steffensen", b0_strategy=strategy)
    trace = run(problem, np.array(x0), config)
    in_run = seen[:]
    assert diagnose(trace).outcome == "converged"
    in_diagnose = seen[len(in_run):]
    assert (len(in_diagnose), len(in_run)) == (diagnose_calls, run_calls)
    assert sorted(in_diagnose) == sorted(in_run + [points[name] for name in extra])


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


def _log_of_x_minus_2(w):
    return math.log(w[0] - 2.0)  # raises ValueError for w[0] < 2


# F(x) = x - 0.5 from its root x0 = 0.5: the Steffensen point x0 + F(x0) is
# x0, so even steffensen asks for the derivative (a coincident column).
RAISING_CALLBACKS = {
    "analytic_jacobian": dict(analytic_jacobian=lambda w: np.array([[1.0 + 0.0 * _log_of_x_minus_2(w)]])),
    "domain_check": dict(domain_check=lambda w: _log_of_x_minus_2(w) < 0.0),
    # F' values of the wrong shape for this 1-d problem
    "analytic_jacobian-2x2": dict(analytic_jacobian=lambda w: np.eye(2)),
    "analytic_jacobian-1d": dict(analytic_jacobian=lambda w: np.ones(1)),
}


@pytest.mark.parametrize("callback", sorted(RAISING_CALLBACKS))
@pytest.mark.parametrize("method", METHODS)
def test_raising_callback_is_an_outcome(method, callback):
    # a user's Jacobian or domain test that raises ValueError, or a Jacobian
    # of the wrong shape, ends the run like a raising or wrong-shaped F
    # does, with no exception escaping
    problem = NonlinearProblem(dimension=1, eval=lambda w: w - 0.5, **RAISING_CALLBACKS[callback])
    trace = run(problem, np.array([0.5]), SolverConfig(method=method))
    assert trace.outcome == "invalid_evaluation"


# What a domain check returns, and the outcome of newton on example3d from
# inside its ball: only a bool or numpy.bool_ is an answer, whatever the
# truthiness of another value.
DOMAIN_ANSWERS = {
    "nan": (math.nan, "invalid_evaluation"),
    "None": (None, "invalid_evaluation"),
    "str": ("no", "invalid_evaluation"),
    "int-0": (0, "invalid_evaluation"),
    "float-1": (1.0, "invalid_evaluation"),
    "array-1": (np.array([True]), "invalid_evaluation"),
    "np.True_": (np.True_, "converged"),
    "np.False_": (np.False_, "domain_violation"),
}


@pytest.mark.parametrize("answer", sorted(DOMAIN_ANSWERS))
def test_domain_check_answers_with_a_bool(answer):
    value, outcome = DOMAIN_ANSWERS[answer]
    problem = dataclasses.replace(build("example3d"), domain_check=lambda w: value)
    assert run(problem, np.array([0.3, -0.2, 0.25]), SolverConfig(method="newton")).outcome == outcome


def test_domain_check_failures_name_the_check():
    point = np.array([0.5, 0.0, 0.0])
    returns_nan = dataclasses.replace(build("example3d"), domain_check=lambda w: math.nan)
    with pytest.raises(InvalidEvaluation, match=r"^domain check at \[.*\] returned nan, not a bool$"):
        divdiff.evaluate(returns_nan, point)
    raises = dataclasses.replace(build("example3d"), domain_check=lambda w: math.log(w[0] - 2.0) < 0.0)
    with pytest.raises(InvalidEvaluation, match=r"^domain check at \[.*\] raised ValueError"):
        divdiff.evaluate(raises, point)


def _quadratic_linear(w):
    return np.array([w[0] ** 2 - 0.25, w[0] + 2.0 * w[1]])


def _quadratic_linear_jacobian(w):
    return np.array([[2.0 * w[0], 0.0], [1.0, 2.0]])


# F = (x^2 - 1/4, x + 2y), with 1j added to F or to F'.  Keeping only the
# real part, every method converges from (1, 1) to the root (0.5, -0.25).
COMPLEX_CALLBACKS = {
    "F": dict(eval=lambda w: _quadratic_linear(w) + 1j, analytic_jacobian=_quadratic_linear_jacobian),
    "F'": dict(eval=_quadratic_linear, analytic_jacobian=lambda w: _quadratic_linear_jacobian(w) + 1j),
}


@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
@LEVELS
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("callback", sorted(COMPLEX_CALLBACKS))
def test_complex_value_is_an_invalid_evaluation(callback, method, diagnosed):
    # steffensen reads F' too: after its first step the linear component is
    # zero to rounding, so the second staircase column coincides
    problem = NonlinearProblem(dimension=2, name="complex", **COMPLEX_CALLBACKS[callback])
    trace = _run(problem, (1.0, 1.0), SolverConfig(method=method), diagnosed=diagnosed)
    assert trace.outcome == "invalid_evaluation"
    if callback == "F":
        assert trace.records == ()


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@LEVELS
@pytest.mark.parametrize("method", METHODS)
def test_non_finite_analytic_jacobian_ends_the_run_diverged(method, diagnosed, value):
    # an F' with a NaN or infinite entry ends the run as a non-finite F does,
    # not in a singular solve or inverse; from (-1, 1) the second staircase
    # column of steffensen coincides, so it reads F' too
    problem = dataclasses.replace(ACADEMIC3, analytic_jacobian=lambda w: np.full((2, 2), value))
    trace = _run(problem, (-1.0, 1.0), SolverConfig(method=method), diagnosed=diagnosed)
    assert trace.outcome == "diverged"


@LEVELS
@pytest.mark.parametrize("method", METHODS)
def test_record_iterates_own_their_buffers(method, diagnosed):
    # records keep the arrays the run formed, uncopied; none may be the
    # caller's x0 or share memory with another record
    cases = [
        (ACADEMIC3, np.array([-2.0, 2.0]), SolverConfig(method=method)),
        # the huge B0 makes the update methods record a diverged iterate
        (AFFINE, np.array([2.0, 2.0]), SolverConfig(
            method=method, b0_strategy=B0Strategy.scaled_identity(1e9))),
    ]
    for problem, x0, config in cases:
        start = x0.copy()
        trace = _run(problem, x0, config, diagnosed=diagnosed)
        assert len(trace.records) >= 2
        assert np.array_equal(x0, start)
        iterates = [record.iterate for record in trace.records]
        for i, iterate in enumerate(iterates):
            assert not np.shares_memory(iterate, x0)
            assert all(not np.shares_memory(iterate, other) for other in iterates[i + 1:])
    if method in UPDATE_METHODS:
        assert trace.outcome == "diverged"


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(method="gradient-descent")
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    for count in (2.5, math.nan, math.inf, True, "3"):
        with pytest.raises(ValueError, match="max_iterations must be an integer >= 1"):
            SolverConfig(max_iterations=count)
    assert SolverConfig(max_iterations=np.int64(3)).max_iterations == 3
    with pytest.raises(ValueError):
        SolverConfig(residual_tolerance=-1.0)
    with pytest.raises(ValueError):
        B0Strategy.approximate_inverse(1.0)  # target must be below 1
    with pytest.raises(ValueError):
        B0Strategy.approximate_inverse(-0.1)
    with pytest.raises(ValueError):
        B0Strategy.scaled_identity(0.0)
    with pytest.raises(ValueError, match="unknown B0 variant 'bogus'"):
        B0Strategy("bogus", 1.0)
    for strategy in (None, "approx-inverse", 0.5):
        with pytest.raises(ValueError, match="b0_strategy must be a B0Strategy"):
            SolverConfig(b0_strategy=strategy)


def test_run_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="x0 has dimension 3"):
        run(AFFINE, np.zeros(3), SolverConfig())


@LEVELS
@pytest.mark.parametrize("method", UPDATE_METHODS)
def test_run_uses_the_callers_b0_as_is(method, diagnosed):
    # the first step is x1 = x0 - b0 F(x0) with the caller's matrix, which
    # the run neither copies into its records nor writes to
    x0 = np.array([-1.0, 1.0])
    b0 = np.array([[0.3, -0.1], [0.2, 0.45]])
    before = b0.copy()
    trace = _run(ACADEMIC3, x0, SolverConfig(method=method), b0, diagnosed)
    expected = x0 - b0 @ np.asarray(ACADEMIC3.eval(x0), dtype=float)
    assert np.array_equal(trace.records[1].iterate, expected)
    assert np.array_equal(b0, before)


def test_b0_replaces_the_strategys_matrix():
    # b0 = the matrix the strategy would build gives the same trace
    x0 = np.array([-1.0, 1.0])
    config = SolverConfig(method="moser_steffensen", b0_strategy=B0Strategy.approximate_inverse(1e-3))
    built = run(ACADEMIC3, x0, config)
    given = run(ACADEMIC3, x0, config, make_b0(ACADEMIC3, x0, config.b0_strategy))
    assert built.outcome == given.outcome
    assert len(built.records) == len(given.records)
    assert all(np.array_equal(b.iterate, g.iterate) for b, g in zip(built.records, given.records))


@pytest.mark.parametrize("bad", [np.eye(3), np.ones(2), np.ones((2, 3))], ids=["3x3", "1-d", "2x3"])
@pytest.mark.parametrize("method", METHODS)
def test_wrong_shaped_b0_is_rejected_by_run(method, bad):
    with pytest.raises(ValueError, match="b0 has shape"):
        run(ACADEMIC3, np.array([-1.0, 1.0]), SolverConfig(method=method), bad)


@pytest.mark.parametrize("method", METHODS)
def test_complex_x0_or_b0_is_rejected_by_run(method):
    # keeping the real part alone, both runs would converge from (-1, 1)
    config = SolverConfig(method=method)
    with pytest.raises(ValueError, match="complex"):
        run(ACADEMIC3, [-1.0 + 1j, 1.0], config)
    with pytest.raises(ValueError, match="complex"):
        run(ACADEMIC3, np.array([-1.0, 1.0]), config, np.eye(2) + 1j)


@pytest.mark.parametrize("scale", [0.0, -1.0, math.inf, math.nan])
def test_scaled_identity_needs_a_finite_positive_scale(scale):
    with pytest.raises(ValueError, match="finite and positive"):
        B0Strategy.scaled_identity(scale)


def test_lean_run_keeps_b_when_the_forecast_fires(monkeypatch):
    # b0 contracts the affine residual by ~1e-8, so after step 1 the forecast
    # r1 * (r1 / r0) is below KAPPA * tolerance while r1 is not converged:
    # step 2 must use b0 itself, bit for bit
    x0 = np.array([0.9, 0.9])
    b0 = invert(np.array([[2.0, 1.0], [1.0, 1.0]])) + 1e-8 * np.eye(2)
    config = SolverConfig(method="moser_steffensen", residual_tolerance=1e-12)
    trace = run(AFFINE, x0, config, b0)
    r0, r1 = trace.records[0].residual, trace.records[1].residual
    assert r1 > config.residual_tolerance
    assert r1 * r1 <= solvers.KAPPA * config.residual_tolerance * r0
    x1 = trace.records[1].iterate
    assert np.array_equal(trace.records[2].iterate, x1 - b0 @ np.asarray(AFFINE.eval(x1), dtype=float))
    assert trace.outcome == "converged" and trace.b_updates == 0
    assert trace.approx_inverse is b0
    # with no forecast the run updates B after step 1
    monkeypatch.setattr(solvers, "KAPPA", 0.0)
    eager = run(AFFINE, x0, config, b0)
    assert eager.b_updates == 1
    assert not np.array_equal(eager.records[2].iterate, trace.records[2].iterate)


def test_forecast_stop_takes_the_kept_b_step_without_evaluating_f():
    # the affine case above with the stop: step 2 is the same step, and F is
    # not evaluated at x2
    x0 = np.array([0.9, 0.9])
    b0 = invert(np.array([[2.0, 1.0], [1.0, 1.0]])) + 1e-8 * np.eye(2)
    config = SolverConfig(method="moser_steffensen", residual_tolerance=1e-12)
    measured = run(AFFINE, x0, config, b0)
    evaluated = []
    problem = dataclasses.replace(AFFINE, eval=lambda w: evaluated.append(w) or AFFINE.eval(w))
    stopped = run(problem, x0, config, b0, forecast_stop=True)
    assert stopped.outcome == "converged" and stopped.iterations == 2
    assert len(evaluated) == 2
    assert [rec.residual for rec in stopped.records] == [rec.residual for rec in measured.records[:2]] + [None]
    assert np.array_equal(stopped.final.iterate, measured.records[2].iterate)
    assert stopped.final.step_norm == measured.records[2].step_norm
    assert stopped.final.error == measured.records[2].error
    assert stopped.approx_inverse is b0 and stopped.b_updates == 0


def _jump():
    # F is (1e6, 0) at the origin and (0, 10) elsewhere: from x0 = 0 and
    # b0 = diag(1, b), x1 = (-1e6, 0) and x2 = (-1e6, -10 b), and with
    # tolerance 1 the forecast 10^2 / 1e6 <= KAPPA fires at x1
    calls = []

    def f(w):
        calls.append(w)
        return np.array([1e6, 0.0]) if w[0] == 0.0 else np.array([0.0, 10.0])

    return NonlinearProblem(dimension=2, eval=f, name="jump"), calls


@pytest.mark.parametrize("b, residual", [(1e308, math.inf), (1e9, None)], ids=["overflow", "bound"])
@pytest.mark.parametrize("method", UPDATE_METHODS)
def test_a_forecast_stop_that_leaves_the_bound_ends_diverged(method, b, residual):
    # the stopped step keeps the overflow test and DIVERGENCE_BOUND
    problem, calls = _jump()
    config = SolverConfig(method=method, residual_tolerance=1.0)
    with np.errstate(over="ignore"):
        trace = run(problem, np.zeros(2), config, np.diag([1.0, b]), forecast_stop=True)
    assert trace.outcome == "diverged"
    assert [(rec.index, rec.residual) for rec in trace.records] == [(0, 1e6), (1, 10.0), (2, residual)]
    assert len(calls) == 2
    assert trace.final.step_norm == (math.inf if residual is not None else 10.0 * b)


@pytest.mark.parametrize("method", METHODS)
def test_b_updates_counts_the_updates_made(method):
    # an update on every iteration but the last, which no step uses
    trace = _assert_diagnose_observes_only(ACADEMIC3, (-1.0, 1.0), SolverConfig(method=method))
    assert trace.b_updates == (trace.iterations - 1 if method in UPDATE_METHODS else 0)


@pytest.mark.parametrize(
    "b, op",
    [
        (np.array([[0.6, -0.4], [-0.2, 1.1]]), np.array([[2.0, 1.0], [1.0, 1.0]])),
        (np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.0, 1.0]])),  # B T = 0
        (np.random.default_rng(3).normal(size=(5, 5)), np.random.default_rng(4).normal(size=(5, 5))),
    ],
)
def test_update_and_step_conditions_are_the_linalg_conditions(b, op):
    # each norm is taken once, and the quotients come out bit for bit
    _, cond = solvers._inverse_update(b, op, True)
    assert cond == max(linalg.mult_condition(b, op), linalg.mult_condition(b @ op, b))
    shifted = op + np.eye(len(op))
    _, _, solve_cond = linalg.lu_factor(shifted, np.ones(len(op)))
    assert solve_cond == linalg.solve_condition(shifted) == max_norm_mat(shifted) * max_norm_mat(invert(shifted))


# F(x) = x - 1/2, whose analytic F' raises ValueError at the root only.
JACOBIAN_RAISES_AT_ROOT = NonlinearProblem(
    dimension=1,
    eval=lambda w: w - 0.5,
    analytic_jacobian=lambda w: np.array([[1.0 + 0.0 * math.log(w[0] - 0.5)]]),
    known_solution=np.array([0.5]),
    name="jacobian-raises-at-root",
)


@pytest.mark.parametrize("method", UPDATE_METHODS)
def test_root_jacobian_failure_keeps_the_b0_set_up(method):
    # F'(x*) serves b_defect alone: when it fails to form, b_defect stays
    # None, and the run went from B0 = J(x0)^-1 to the root in one step
    trace = _assert_diagnose_observes_only(JACOBIAN_RAISES_AT_ROOT, (1.0,), SolverConfig(method=method))
    assert (trace.outcome, trace.iterations) == ("converged", 1)
    assert [rec.b_defect for rec in trace.records] == [None, None]
    assert np.array_equal(trace.approx_inverse, [[1.0]])
    assert (trace.b0_defect, trace.b0_product, trace.b_updates) == (0.0, 1.0, 0)


# F(x) = x - 1/2, whose analytic F' raises ValueError from x = 1 on.
JACOBIAN_RAISES_FROM_ONE = NonlinearProblem(
    dimension=1,
    eval=lambda w: w - 0.5,
    analytic_jacobian=lambda w: np.array([[1.0 + 0.0 * math.log(1.0 - w[0])]]),
    known_solution=np.array([0.5]),
    name="jacobian-raises-from-one",
)


@pytest.mark.parametrize("b0", [None, np.eye(1)], ids=["scaled_identity", "callers-b0"])
@pytest.mark.parametrize("method", UPDATE_METHODS)
def test_x0_jacobian_failure_leaves_the_b0_defect_unset(method, b0):
    # with a scaled-identity B0 or the caller's, J(x0) serves the B0 defect
    # and product alone: when it fails to form, both stay None and b_defect
    # is still measured
    config = SolverConfig(method=method, b0_strategy=B0Strategy.scaled_identity(1.0))
    trace = _assert_diagnose_observes_only(JACOBIAN_RAISES_FROM_ONE, (1.0,), config, b0)
    assert (trace.outcome, trace.iterations) == ("converged", 1)
    assert (trace.b0_defect, trace.b0_product) == (None, None)
    assert [rec.b_defect for rec in trace.records] == [0.0, 0.0]


@LEVELS
@pytest.mark.parametrize("method", METHODS)
def test_singular_jacobian_at_x0_ends_the_run_without_a_b(method, diagnosed):
    # J(x0) of academic eps = 1 at (1, 1) is singular: B0 cannot be built, and
    # newton's first solve fails after record 0
    trace = _run(build("academic", epsilon=1.0), (1.0, 1.0), SolverConfig(method=method), diagnosed=diagnosed)
    assert (trace.approx_inverse, trace.b0_defect, trace.b0_product, trace.b_updates) == (None, None, None, 0)
    if method == "steffensen":  # no Jacobian, no singular step: it stalls
        assert trace.outcome == "max_iterations"
        return
    assert trace.outcome == "singular_linear_system"
    if method == "newton":
        assert [(rec.index, rec.residual) for rec in trace.records] == [(0, 2.0)]
    else:
        assert trace.records == ()


@LEVELS
@pytest.mark.parametrize("method", UPDATE_METHODS)
def test_non_finite_step_records_an_infinite_residual(method, diagnosed):
    # B0 = 1e308 I overflows the first step B0 F(x0) = 1e308 (3, 2)
    config = SolverConfig(method=method, b0_strategy=B0Strategy.scaled_identity(1e308))
    with np.errstate(over="ignore"):
        trace = _run(AFFINE, (2.0, 2.0), config, diagnosed=diagnosed)
    assert trace.outcome == "diverged"
    first, last = trace.records
    assert (first.index, first.residual, first.step_norm) == (0, 3.0, None)
    assert (last.index, last.residual, last.step_norm) == (1, math.inf, math.inf)
    assert np.array_equal(last.iterate, [-math.inf, -math.inf])
    assert np.array_equal(trace.approx_inverse, 1e308 * np.eye(2))
    assert trace.b_updates == 0
    expected_defect = math.inf if diagnosed else None
    assert trace.b0_defect == first.b_defect == last.b_defect == expected_defect


# F(x) = 1e308 + 1e-15 x: from x0 = 0 each method's first step, about
# 1e308 / 1e-15, overflows to x1 = -inf.  With the domain check x > -1e308,
# x1 also lies outside the domain.
OVERFLOW = NonlinearProblem(dimension=1, eval=lambda w: 1e308 + 1e-15 * w,
                            analytic_jacobian=lambda w: np.array([[1e-15]]), name="overflow")


@pytest.mark.parametrize("domain_check", [None, lambda w: w[0] > -1e308], ids=["all-of-R", "bounded"])
@LEVELS
@pytest.mark.parametrize("method", METHODS)
def test_every_method_ends_an_overflowing_step_diverged(method, diagnosed, domain_check):
    # one check, before F is evaluated at x1, whether T^-1 F or B F took the step
    problem = dataclasses.replace(OVERFLOW, domain_check=domain_check)
    with np.errstate(over="ignore"):
        trace = _run(problem, (0.0,), SolverConfig(method=method), diagnosed=diagnosed)
    assert trace.outcome == "diverged"
    assert [(rec.index, rec.residual) for rec in trace.records] == [(0, 1e308), (1, math.inf)]
    assert trace.final.step_norm == math.inf


def _integrate_a_failing_day():
    # three steps a day are too long for the stage solve (the CLI's --h 28800)
    ode = dataclasses.replace(chapman_problem(), t_span=(0.0, SECONDS_PER_DAY))
    with pytest.raises(InnerSolverFailed, match="at step 1"):
        integrate(ode, collocation_tableau(gauss_nodes(2)), 28800.0, inner_config())


@pytest.mark.parametrize("before", [lambda: None, _integrate_a_failing_day],
                         ids=["fresh", "after-a-failed-integrate"])
def test_run_silences_its_own_overflow(before):
    # a run sets its own errstate, which a caller's all="raise" does not
    # reach into, after an integrate that raised too
    before()
    with np.errstate(all="raise"):
        trace = run(OVERFLOW, (0.0,), SolverConfig(method="moser_steffensen"))
    assert trace.outcome == "diverged"
    assert trace.final.residual == math.inf


def _run_nesting_an_overflow():
    # F runs the overflowing problem before it answers; after that inner
    # run, F still sees the outer run's errstate
    seen = []

    def f(w):
        run(OVERFLOW, (0.0,), SolverConfig(method="moser_steffensen"))
        seen.append(np.geterr())
        return w - 0.5

    problem = NonlinearProblem(dimension=1, eval=f, analytic_jacobian=lambda w: np.eye(1), name="nesting")
    assert run(problem, (0.0,), SolverConfig(method="moser_steffensen")).outcome == "converged"
    assert seen and all(state == dict(np.geterr(), over="ignore", invalid="ignore") for state in seen)


def _problem_raising_type_error():
    # (problem, switch): F raises TypeError once switch holds an entry
    switch = []

    def f(w):
        if switch:
            raise TypeError("F takes no such point")
        return np.array([w[0] * w[0] - 2.0])

    return NonlinearProblem(dimension=1, eval=f, name="type-error"), switch


def _run_raising_type_error():
    problem, switch = _problem_raising_type_error()
    switch.append(True)
    with pytest.raises(TypeError, match="no such point"):
        run(problem, (1.0,), SolverConfig(method="moser_steffensen"))


def _diagnose_raising_type_error():
    problem, switch = _problem_raising_type_error()
    trace = run(problem, (1.0,), SolverConfig(method="moser_steffensen"))
    switch.append(True)
    with pytest.raises(TypeError, match="no such point"):
        diagnose(trace)


def _integrate_a_day():
    ode = dataclasses.replace(chapman_problem(), t_span=(0.0, SECONDS_PER_DAY))
    return integrate(ode, collocation_tableau(gauss_nodes(2)), ACCEPTED_STEP, inner_config())


def _integrate_a_day_raising_type_error():
    # the rhs raises TypeError after t = 40,000 s, mid-step; it propagates
    chapman = chapman_problem()

    def rhs(t, y):
        if t > 40000.0:
            raise TypeError("rhs takes no such time")
        return chapman.rhs(t, y)

    ode = dataclasses.replace(chapman, rhs=rhs, t_span=(0.0, SECONDS_PER_DAY))
    with pytest.raises(TypeError, match="no such time"):
        integrate(ode, collocation_tableau(gauss_nodes(2)), ACCEPTED_STEP, inner_config())


def _estimate_constants_of_an_overflowing_f():
    # F overflows away from the root; the caller's over="raise" does not
    # reach it, so the value is non-finite, not a FloatingPointError
    def f(w):
        return np.array([w[0], w[1] * 1e308 * 10.0 if abs(w[1]) > 0.1 else w[1]])

    problem = NonlinearProblem(dimension=2, eval=f, analytic_jacobian=lambda w: np.eye(2),
                               known_solution=np.zeros(2), name="overflowing")
    with pytest.raises(NonFiniteEvaluation):
        estimate_constants(problem, 0.5)


@pytest.mark.parametrize("call", [
    _run_nesting_an_overflow,
    _run_raising_type_error,
    _diagnose_raising_type_error,
    _integrate_a_day,
    _integrate_a_day_raising_type_error,
    _estimate_constants_of_an_overflowing_f,
], ids=["nested-run", "run-raises", "diagnose-raises", "integrate", "integrate-raises", "estimate-constants"])
def test_entry_points_restore_the_callers_errstate(call):
    # run, diagnose and estimate_constants set numpy's errstate for their
    # own duration and integrate for its steps; each gives the caller's
    # back, on an exception too
    with np.errstate(all="raise"):
        before = np.geterr()
        call()
        assert np.geterr() == before


@pytest.mark.parametrize("start", [(math.nan, 1.0), (math.inf, 1.0)], ids=["nan", "inf"])
@pytest.mark.parametrize("method", METHODS)
def test_non_finite_start_is_rejected_before_f(method, start):
    evaluated = []
    problem = dataclasses.replace(AFFINE, eval=lambda w: evaluated.append(w) or AFFINE.eval(w))
    with pytest.raises(ValueError, match="x0 has non-finite entries"):
        run(problem, np.array(start), SolverConfig(method=method))
    assert evaluated == []


def _nan_after_x0():
    # F(w) = w - 1/2 on its first call, at x0, and NaN on every later call;
    # the analytic F' = I keeps J(x0) and F'(x*) free of F calls
    calls = []

    def f(w):
        calls.append(w)
        return w - 0.5 if len(calls) == 1 else np.full(2, math.nan)

    return NonlinearProblem(dimension=2, eval=f, analytic_jacobian=lambda w: np.eye(2),
                            known_solution=np.full(2, 0.5), name="nan-after-x0")


@LEVELS
@pytest.mark.parametrize("method", METHODS)
def test_nan_evaluation_after_x0_ends_the_run_diverged(method, diagnosed):
    # whether the NaN comes from the step's F(x1) or from the staircase of
    # steffensen's difference, the run keeps x0's record only
    trace = _run(_nan_after_x0(), (2.0, -1.0), SolverConfig(method=method), diagnosed=diagnosed)
    assert trace.outcome == "diverged"
    assert [(rec.index, rec.residual) for rec in trace.records] == [(0, 1.5)]
    assert trace.errors() == [1.5]


@pytest.mark.parametrize("method", METHODS)
def test_a_run_without_records_has_no_final_record(method):
    # F is NaN at x0, so the run ends before its first record
    problem = dataclasses.replace(AFFINE, eval=lambda w: np.full(2, math.nan))
    trace = run(problem, (2.0, 2.0), SolverConfig(method=method))
    assert (trace.outcome, trace.iterations, trace.final) == ("diverged", 0, None)


@pytest.mark.parametrize("b0", [np.full((2, 2), math.nan), np.array([[0.5, 0.0], [0.0, math.nan]])],
                         ids=["all-nan", "one-nan"])
@LEVELS
@pytest.mark.parametrize("method", UPDATE_METHODS)
def test_nan_b0_ends_the_run_diverged(method, diagnosed, b0):
    # B0 F(x0) has a NaN entry, so x1 is not finite: the step's record has
    # an infinite residual, step norm and error, and F is not evaluated at x1
    evaluated = []
    problem = dataclasses.replace(AFFINE, eval=lambda w: evaluated.append(w) or AFFINE.eval(w))
    trace = _run(problem, (2.0, 2.0), SolverConfig(method=method), b0, diagnosed)
    assert trace.outcome == "diverged"
    assert [(rec.index, rec.residual) for rec in trace.records] == [(0, 3.0), (1, math.inf)]
    assert trace.final.step_norm == math.inf
    assert trace.errors()[-1] == math.inf
    assert len(evaluated) == 1
    assert trace.b_updates == 0


def test_lean_iteration_takes_three_norms_and_no_finiteness_test(monkeypatch):
    # one norm of x_{n+1} serves the overflow test and the divergence bound;
    # with the residual and the step norm that is three per iteration, and
    # only x0 is tested with all_finite
    norms, tested = [], []
    max_norm_vec, all_finite = solvers.max_norm_vec, solvers.all_finite
    monkeypatch.setattr(solvers, "max_norm_vec", lambda v: norms.append(v) or max_norm_vec(v))
    monkeypatch.setattr(solvers, "all_finite", lambda a: tested.append(a) or all_finite(a))
    problem = dataclasses.replace(ACADEMIC3, known_solution=None)  # no error norms
    x0 = np.array([-2.0, 2.0])
    config = SolverConfig(method="moser_steffensen", b0_strategy=B0Strategy.approximate_inverse(1e-3))
    trace = run(problem, x0, config)
    assert (trace.outcome, trace.iterations, trace.b_updates) == ("converged", 8, 6)
    assert len(norms) <= 1 + 3 * trace.iterations
    assert len(tested) == 1 and np.array_equal(tested[0], x0)


def test_trace_of_a_run_without_records_has_no_iterations():
    problem = dataclasses.replace(AFFINE, eval=lambda w: 1 / 0)
    trace = run(problem, np.zeros(2), SolverConfig())
    assert trace.outcome == "invalid_evaluation"
    assert (trace.records, trace.iterations, trace.errors()) == ((), 0, [])


def _encode(value):
    # Type and exact bits: floats by their hex form, arrays by their bytes.
    if isinstance(value, np.ndarray):
        return f"ndarray {value.dtype} {value.shape} {value.tobytes().hex()}"
    if isinstance(value, float):
        return f"{type(value).__name__} {value.hex()}"
    return f"{type(value).__name__} {value!r}"


# The trace's outputs, in the order TRACE_DIGEST was recorded with; the
# run's inputs (problem, config, b0) are not digested, since a problem's
# repr holds the addresses of its functions.
_DIGESTED_FIELDS = ("method", "problem_name", "outcome", "b0_defect", "b0_product", "approx_inverse",
                    "b_updates")


def _trace_digest(traces):
    digest = hashlib.sha256()
    for trace in traces:
        for name in _DIGESTED_FIELDS:
            digest.update(f"{name}={_encode(getattr(trace, name))};".encode())
        for record in trace.records:
            for name in record._fields:
                digest.update(f"{name}={_encode(getattr(record, name))};".encode())
    return digest.hexdigest()


# Every registry problem from a start that converges and from one that fails
# (domain violation, max_iterations, singular J(x0), divergence), plus a B0
# of 1e308 I whose first step overflows; each with and without its analytic
# Jacobian, under every method and three B0 strategies: 270 runs, each
# digested diagnosed and as run returns it.
DIGEST_CASES = [
    (build("example3d"), (0.5, -0.4, 0.3), 50, None),
    (build("example3d"), (0.9, 0.0, 0.0), 50, None),
    (build("academic", epsilon=3.0), (-2.0, 2.0), 50, None),
    (build("academic", epsilon=3.0), (-1.0, 1.0), 3, None),
    (build("academic", epsilon=1.0), (1.0, 1.0), 50, None),
    (build("academic", epsilon=-0.5), (40.0, -30.0), 50, None),
    (AFFINE, (0.0, 0.0), 50, None),
    (AFFINE, (3.0, -2.0), 50, None),
    (AFFINE, (2.0, 2.0), 50, 1e308 * np.eye(2)),
]
DIGEST_STRATEGIES = (
    B0Strategy.approximate_inverse(0.0),
    B0Strategy.approximate_inverse(0.5),
    B0Strategy.scaled_identity(0.5),
)
# Recorded under the numpy version of tests/golden/digests.json; a change
# that leaves the solver's arithmetic alone leaves it unchanged.
TRACE_DIGEST = "2ac077e45e5b6efda04053eefb8617ea978a3eb63465aec5827494bee6ff7671"


def _digest_runs():
    """(problem, x0, config, b0) of every digest run."""
    for problem, x0, max_iterations, b0 in DIGEST_CASES:
        for variant in (problem, dataclasses.replace(problem, analytic_jacobian=None)):
            for method in METHODS:
                for strategy in DIGEST_STRATEGIES:
                    config = SolverConfig(method=method, max_iterations=max_iterations, b0_strategy=strategy)
                    yield variant, np.array(x0), config, b0


def test_trace_digest_is_unchanged():
    traces = []
    for problem, x0, config, b0 in _digest_runs():
        with np.errstate(over="ignore", invalid="ignore"):
            trace = run(problem, x0, config, b0)
            traces += [diagnose(trace), trace]
    assert len(traces) == 540
    assert {trace.outcome for trace in traces} == {
        "converged", "max_iterations", "diverged", "singular_linear_system", "domain_violation"}
    assert _trace_digest(traces) == TRACE_DIGEST


def _encoded(records):
    return [[_encode(value) for value in record] for record in records]


def test_plain_runs_measure_every_residual():
    for problem, x0, config, b0 in _digest_runs():
        with np.errstate(over="ignore", invalid="ignore"):
            trace = run(problem, x0, config, b0)
        assert all(type(rec.residual) is float for rec in trace.records)


def test_a_forecast_stop_ends_where_the_measured_run_steps_next():
    # until the stop the two runs are the same; the stopped record is the
    # measured run's next one but for its unmeasured residual.  The stopped
    # iteration makes no B update, so diagnose replays the same updates up
    # to it and the stopped record keeps the B that took its step
    stops_after_an_update = 0
    for problem, x0, config, b0 in _digest_runs():
        with np.errstate(over="ignore", invalid="ignore"):
            measured = diagnose(run(problem, x0, config, b0))
            stopped = _assert_diagnose_observes_only(problem, x0, config, b0, forecast_stop=True)
        if not stopped.records or stopped.final.residual is not None:
            assert _trace_digest([stopped]) == _trace_digest([measured])
            continue
        stops_after_an_update += stopped.b_updates > 0
        n = stopped.iterations
        assert stopped.outcome == "converged"
        assert n <= measured.iterations
        last = measured.records[n]._replace(residual=None, mult_condition_max=None,
                                            b_defect=measured.records[n - 1].b_defect)
        assert _encoded(stopped.records) == _encoded([*measured.records[:n], last])
    assert stops_after_an_update > 0


def test_lean_run_matches_full_run_on_the_digest_cases():
    # at the default tolerance the convergence forecast also fires before
    # the final iteration, and diagnose keeps B there as the run did
    pairs = forecast_fired = 0
    for problem, x0, config, b0 in _digest_runs():
        with np.errstate(over="ignore", invalid="ignore"):
            full = _assert_diagnose_observes_only(problem, x0, config, b0)
        pairs += 1
        if config.method in UPDATE_METHODS and full.outcome == "converged":
            forecast_fired += any(rec.mult_condition_max is None for rec in full.records[1:-1])
    assert pairs == 270
    assert forecast_fired > 0


def test_diagnose_replays_the_update_before_a_typed_failure():
    # moser's x2 leaves example3d's ball, so F(x2) raises and no record 2 is
    # written; iteration 1 did update B, which record 1's condition shows
    config = SolverConfig(method="moser", b0_strategy=B0Strategy.approximate_inverse(0.5))
    trace = _assert_diagnose_observes_only(build("example3d"), (0.85, -0.3, 0.1), config)
    assert (trace.outcome, trace.iterations, trace.b_updates) == ("domain_violation", 1, 1)
    assert trace.final.mult_condition_max is not None


def test_diagnose_replays_from_the_traces_own_start():
    # table 3's moser_steffensen run; a replay from another start, (0.5, 0.5),
    # read 0.580 for records[1].b_defect
    (_, problem, x0, config), = [spec for spec in tables.specs(3) if spec[3].method == "moser_steffensen"]
    trace = diagnose(run(problem, x0, config))
    assert trace.b0_defect == pytest.approx(1e-3, rel=1e-9)
    assert trace.records[1].b_defect == pytest.approx(0.3353436, rel=1e-6)


def test_diagnose_replays_from_the_b0_the_run_was_given():
    # table 3's run, but from B0 = 0.01 I in place of its strategy's B0
    # (defect 1e-3); a replay from the strategy's B0 read 0.001 and 0.620
    (_, problem, x0, config), = [spec for spec in tables.specs(3) if spec[3].method == "moser_steffensen"]
    trace = diagnose(run(problem, x0, config, 0.01 * np.eye(2)))
    assert trace.b0_defect == pytest.approx(1.0, rel=1e-12)
    assert trace.records[1].b_defect == pytest.approx(0.9999, rel=1e-12)


def test_a_trace_keeps_references_to_what_it_was_run_with():
    b0, config = 0.01 * np.eye(2), SolverConfig(method="moser")
    trace = run(ACADEMIC3, np.array([-1.0, 1.0]), config, b0)
    assert trace.problem is ACADEMIC3 and trace.config is config and trace.b0 is b0
    assert (trace.method, trace.problem_name) == ("moser", "academic(eps=3)")
    # a B0 that run builds from config.b0_strategy is not kept
    assert run(ACADEMIC3, np.array([-1.0, 1.0]), config).b0 is None


def test_a_stage_solve_diagnoses_from_its_carried_b(monkeypatch):
    # each stage solve of a day of Chapman steps starts from the carried (or
    # a fresh linearized) B, which inner_config's b0_strategy does not build;
    # its trace holds that B, so diagnose needs no other argument
    solves = []
    original = solvers.run

    def recorded(problem, x0, config, b0, **kwargs):
        trace = original(problem, x0, config, b0, **kwargs)
        solves.append((b0, trace))
        return trace

    monkeypatch.setattr(solvers, "run", recorded)
    ode = dataclasses.replace(chapman_problem(), t_span=(0.0, SECONDS_PER_DAY))
    integrate(ode, collocation_tableau(gauss_nodes(2)), ACCEPTED_STEP, inner_config())
    for b0, trace in solves:
        diagnosed = diagnose(trace)
        x0 = trace.records[0].iterate
        assert trace.b0 is b0
        assert diagnosed.b0_defect == max_norm_mat(np.eye(x0.size) - b0 @ divdiff.problem_jacobian(trace.problem, x0))
        assert sum(rec.mult_condition_max is not None for rec in diagnosed.records) == trace.b_updates
    # some solves update B and some end on the forecast, unmeasured
    assert any(trace.b_updates for _, trace in solves)
    assert any(trace.final.residual is None for _, trace in solves)


def test_diagnose_refuses_a_trace_whose_start_does_not_fit_the_problem():
    config = SolverConfig(method="moser_steffensen")
    trace = run(ACADEMIC3, np.array([-1.0, 1.0]), config)
    with pytest.raises(ValueError, match="has dimension 2, problem 'example3d' needs 3"):
        diagnose(trace._replace(problem=build("example3d")))


def test_diagnose_returns_a_trace_without_records_unchanged():
    # F(x0) is outside the domain, so the run ends before its first record
    config = SolverConfig(method="moser_steffensen")
    trace = run(build("example3d"), np.array([1.5, 0.0, 0.0]), config)
    assert (trace.outcome, trace.records) == ("domain_violation", ())
    assert diagnose(trace) is trace


def test_a_failure_in_the_replay_leaves_the_rest_of_the_diagnostics_unset():
    # an F' that raises from its fourth call in diagnose on: J(x0), F'(x*)
    # and the first replayed update's J(x0) form, the second update's fails
    calls, fail_from = [], [math.inf]
    problem = dataclasses.replace(ACADEMIC3, analytic_jacobian=lambda w: calls.append(w) or (
        ACADEMIC3.analytic_jacobian(w) if len(calls) < fail_from[0] else math.log(-1.0)))
    config, x0 = SolverConfig(method="moser"), np.array([-1.0, 1.0])
    trace = run(problem, x0, config)
    fail_from[0] = len(calls) + 4
    diagnosed = diagnose(trace)
    assert diagnosed.outcome == trace.outcome == "converged" and trace.b_updates >= 2
    assert diagnosed.b0_defect is not None
    later = [False] * (len(trace.records) - 2)
    assert [rec.mult_condition_max is not None for rec in diagnosed.records] == [False, True, *later]
    assert [rec.b_defect is not None for rec in diagnosed.records] == [True, True, *later]
