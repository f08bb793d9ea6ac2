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
    # a caller's B0 goes to run as is; a one-step lean run never updates it
    matrix = np.array([[0.5, 0.1], [0.0, 0.4]])
    config = SolverConfig(method="moser_steffensen", max_iterations=1, diagnostics=False)
    b_explicit = run(ACADEMIC3, x0, config, matrix).approx_inverse
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
    trace = run(ACADEMIC3, np.array([-1.0, 1.0]), SolverConfig(method="moser_steffensen"), b0)
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


@pytest.mark.parametrize("b0", [None, np.eye(2)], ids=["approx-inverse", "explicit-identity"])
@pytest.mark.parametrize("method", METHODS)
def test_domain_violation_at_setup_is_an_outcome(method, b0):
    config = SolverConfig(method=method, b0_strategy=B0Strategy.approximate_inverse(0.0))
    trace = run(EDGE_OF_BALL, np.array([1.0 - 1e-7, 0.0]), config, b0)
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
    # the levels agree bit for bit up to the first iteration whose residuals
    # forecast convergence; from there the lean level keeps its B
    problem, x0, b0 = LEAN_CASES[case]
    config = SolverConfig(method=method, b0_strategy=b0, **TIGHT)
    full = run(problem, np.array(x0), config)
    lean = run(problem, np.array(x0), dataclasses.replace(config, diagnostics=False))
    assert lean.outcome == full.outcome
    assert len(lean.records) == len(full.records)
    residuals = [rec.residual for rec in lean.records]
    kept = len(residuals) - 1
    if method in UPDATE_METHODS:
        kept = next((n for n in range(1, kept)
                     if residuals[n] ** 2 <= solvers.KAPPA * config.residual_tolerance * residuals[n - 1]),
                    kept)
    for rec_l, rec_f in zip(lean.records[:kept + 1], full.records[:kept + 1]):
        assert np.array_equal(rec_l.iterate, rec_f.iterate)
        assert (rec_l.residual, rec_l.error, rec_l.step_norm) == (rec_f.residual, rec_f.error, rec_f.step_norm)
    for rec_l, rec_f in zip(lean.records, full.records):
        assert rec_l.solve_condition == rec_f.solve_condition
        assert rec_l.mult_condition_max is None and rec_l.b_defect is None
    assert lean.b0_defect is None and lean.b0_product is None
    if method in UPDATE_METHODS:
        # B was updated before the forecast fired only, and the carried B
        # took every step from there
        assert lean.b_updates == kept - 1
        for previous, current in zip(lean.records[kept:-1], lean.records[kept + 1:]):
            step = lean.approx_inverse @ np.asarray(problem.eval(previous.iterate), dtype=float)
            assert np.array_equal(previous.iterate - step, current.iterate)


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
    b0 = invert(ACADEMIC3.analytic_jacobian(x0))
    config = SolverConfig(method="moser_steffensen", diagnostics=diagnostics)
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
    trace = run(DERIVATIVE_FREE, x0, config, b0)
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


def _log_of_x_minus_2(w):
    return math.log(w[0] - 2.0)  # raises ValueError for w[0] < 2


# F(x) = x - 0.5 from its root x0 = 0.5: the Steffensen point x0 + F(x0) is
# x0, so even steffensen asks for the derivative (a coincident column).
RAISING_CALLBACKS = {
    "analytic_jacobian": dict(analytic_jacobian=lambda w: np.array([[1.0 + 0.0 * _log_of_x_minus_2(w)]])),
    "domain_check": dict(domain_check=lambda w: _log_of_x_minus_2(w) < 0.0),
}


@pytest.mark.parametrize("callback", sorted(RAISING_CALLBACKS))
@pytest.mark.parametrize("method", METHODS)
def test_raising_callback_is_an_outcome(method, callback):
    # a user's Jacobian or domain test that raises ValueError ends the run
    # like a raising F does, with no exception escaping
    problem = NonlinearProblem(dimension=1, eval=lambda w: w - 0.5, **RAISING_CALLBACKS[callback])
    trace = run(problem, np.array([0.5]), SolverConfig(method=method))
    assert trace.outcome == "invalid_evaluation"


@pytest.mark.parametrize("diagnostics", [True, False], ids=["full", "lean"])
@pytest.mark.parametrize("method", METHODS)
def test_record_iterates_own_their_buffers(method, diagnostics):
    # records keep the arrays the run formed, uncopied; none may be the
    # caller's x0 or share memory with another record
    cases = [
        (ACADEMIC3, np.array([-2.0, 2.0]), SolverConfig(method=method, diagnostics=diagnostics)),
        # the huge B0 makes the update methods record a diverged iterate
        (AFFINE, np.array([2.0, 2.0]), SolverConfig(
            method=method, b0_strategy=B0Strategy.scaled_identity(1e9), diagnostics=diagnostics)),
    ]
    for problem, x0, config in cases:
        start = x0.copy()
        trace = run(problem, x0, config)
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


@pytest.mark.parametrize("diagnostics", [True, False], ids=["full", "lean"])
@pytest.mark.parametrize("method", UPDATE_METHODS)
def test_run_uses_the_callers_b0_as_is(method, diagnostics):
    # the first step is x1 = x0 - b0 F(x0) with the caller's matrix, which
    # the run neither copies into its records nor writes to
    x0 = np.array([-1.0, 1.0])
    b0 = np.array([[0.3, -0.1], [0.2, 0.45]])
    before = b0.copy()
    trace = run(ACADEMIC3, x0, SolverConfig(method=method, diagnostics=diagnostics), b0)
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
    assert (built.b0_defect, built.b0_product) == (given.b0_defect, given.b0_product)
    assert len(built.records) == len(given.records)
    assert all(np.array_equal(b.iterate, g.iterate) for b, g in zip(built.records, given.records))


@pytest.mark.parametrize("bad", [np.eye(3), np.ones(2), np.ones((2, 3))], ids=["3x3", "1-d", "2x3"])
@pytest.mark.parametrize("method", METHODS)
def test_wrong_shaped_b0_is_rejected_by_run(method, bad):
    with pytest.raises(ValueError, match="b0 has shape"):
        run(ACADEMIC3, np.array([-1.0, 1.0]), SolverConfig(method=method), bad)


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
    config = SolverConfig(method="moser_steffensen", residual_tolerance=1e-12, diagnostics=False)
    trace = run(AFFINE, x0, config, b0)
    r0, r1 = trace.records[0].residual, trace.records[1].residual
    assert r1 > config.residual_tolerance
    assert r1 * r1 <= solvers.KAPPA * config.residual_tolerance * r0
    x1 = trace.records[1].iterate
    assert np.array_equal(trace.records[2].iterate, x1 - b0 @ np.asarray(AFFINE.eval(x1), dtype=float))
    assert trace.outcome == "converged" and trace.b_updates == 0
    assert trace.approx_inverse is b0
    # with no forecast the lean level updates B after step 1
    monkeypatch.setattr(solvers, "KAPPA", 0.0)
    eager = run(AFFINE, x0, config, b0)
    assert eager.b_updates == 1
    assert not np.array_equal(eager.records[2].iterate, trace.records[2].iterate)


@pytest.mark.parametrize("method", METHODS)
def test_b_updates_counts_the_updates_made(method):
    # the full level updates on every iteration, the lean level skips the last
    x0 = np.array([-1.0, 1.0])
    full = run(ACADEMIC3, x0, SolverConfig(method=method))
    lean = run(ACADEMIC3, x0, SolverConfig(method=method, diagnostics=False))
    iterations = len(full.records) - 1
    if method in UPDATE_METHODS:
        assert (full.b_updates, lean.b_updates) == (iterations, iterations - 1)
    else:
        assert full.b_updates == lean.b_updates == 0


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
    left = b @ op
    _, cond = solvers._inverse_update(b, op, True)
    assert cond == max(linalg.mult_condition(b, op, left), linalg.mult_condition(left, b, left @ b))
    shifted = op + np.eye(len(op))
    _, solve_cond = solvers._solve_step(shifted, np.ones(len(op)))
    assert solve_cond == linalg.solve_condition(shifted) == max_norm_mat(shifted) * max_norm_mat(invert(shifted))
