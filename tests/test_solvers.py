import dataclasses
import hashlib
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
    assert trace.errors() == [rec.error for rec in trace.records]
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
    # a multiplication condition per B update made; none after the final step
    assert all(rec.mult_condition_max is not None for rec in ms.records[1:-1])
    assert ms.records[0].mult_condition_max is None and ms.final.mult_condition_max is None
    assert ms.b_updates == len(ms.records) - 2
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
    assert trace.b_updates == len(trace.records) - 2
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
    trace = _assert_levels_agree(EDGE_OF_BALL, (1.0 - 1e-7, 0.0), config, b0)
    if method == "hald" and b0 is not None:
        # hald's first Jacobian is at x1 = (0.25, 0), inside the ball; only
        # the B0 defect would take J(x0), and a diagnostic never ends a run
        assert (trace.outcome, trace.b0_defect) == ("converged", None)
    else:
        assert trace.outcome == "domain_violation"


def test_b_defect_tracks_inverse_quality():
    trace = run(
        ACADEMIC3,
        np.array([-1.0, 1.0]),
        SolverConfig(method="moser_steffensen", b0_strategy=B0Strategy.approximate_inverse(1e-1)),
    )
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


def _assert_levels_agree(problem, x0, config, b0=None):
    """Run both diagnostics levels and check that they took the same run.

    Returns the full trace.  Diagnostics observe and do not steer: every
    iterate, residual, error, step norm and step condition, the outcome, the
    B updates and the final B are equal bit for bit, and the lean level
    records no diagnostic.
    """
    full = run(problem, np.array(x0), config, b0)
    lean = run(problem, np.array(x0), dataclasses.replace(config, diagnostics=False), b0)
    assert (lean.outcome, lean.b_updates) == (full.outcome, full.b_updates)
    assert len(lean.records) == len(full.records)
    for rec_l, rec_f in zip(lean.records, full.records):
        assert np.array_equal(rec_l.iterate, rec_f.iterate, equal_nan=True)
        assert (rec_l.residual, rec_l.error, rec_l.step_norm, rec_l.solve_condition) == (
            rec_f.residual, rec_f.error, rec_f.step_norm, rec_f.solve_condition)
        assert rec_l.mult_condition_max is None and rec_l.b_defect is None
    # the full level's multiplication conditions are those of the updates made
    assert sum(rec.mult_condition_max is not None for rec in full.records) == full.b_updates
    assert lean.b0_defect is None and lean.b0_product is None
    if full.approx_inverse is None:
        assert lean.approx_inverse is None
    else:
        assert np.array_equal(lean.approx_inverse, full.approx_inverse)
    return full


@pytest.mark.parametrize("case", range(len(LEAN_CASES)))
@pytest.mark.parametrize("method", METHODS)
def test_lean_run_matches_full_run(method, case):
    problem, x0, b0 = LEAN_CASES[case]
    _assert_levels_agree(problem, x0, SolverConfig(method=method, b0_strategy=b0, **TIGHT))


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
    # one B update per iteration but the last, at both levels
    updates = len(trace.records) - 2
    assert trace.b_updates == updates
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
    "strategy, inside_make_b0",
    [(B0Strategy.approximate_inverse(0.0), [True]), (B0Strategy.scaled_identity(0.5), [])],
    ids=["approximate_inverse", "scaled_identity"],
)
def test_lean_runs_form_j_x0_only_inside_make_b0(monkeypatch, strategy, inside_make_b0):
    # without diagnostics J(x0) serves B0 alone, so make_b0 forms it once when
    # the strategy needs it and nothing forms it when the strategy does not
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
    config = SolverConfig(method="moser_steffensen", b0_strategy=strategy, diagnostics=False)
    trace = run(DERIVATIVE_FREE, np.array([-1.0, 1.0]), config)
    assert len(trace.records) >= 2
    assert jacobians == inside_make_b0


@pytest.mark.parametrize(
    "epsilon, x0, strategy, full_calls, lean_calls, extra",
    [
        (3.0, (-1.0, 1.0), B0Strategy.approximate_inverse(1e-3), 7, 6, ["root"]),
        (1.0, (-1.0, 1.0), B0Strategy.approximate_inverse(1e-3), 9, 8, ["root"]),
        (3.0, (-2.0, 2.0), B0Strategy.scaled_identity(0.01), 2, 0, ["x0", "root"]),
        (2.0, (2.0, 2.0), B0Strategy.scaled_identity(0.01), 2, 0, ["x0", "root"]),
    ],
    ids=["eps3-approximate_inverse", "eps1-approximate_inverse", "eps3-scaled_identity", "eps2-scaled_identity"],
)
def test_diagnostics_cost_in_jacobian_calls(epsilon, x0, strategy, full_calls, lean_calls, extra):
    # the full level's only Jacobians beyond the lean run's are F'(x*), for
    # b_defect, and J(x0), for the B0 defect, when make_b0 does not form
    # J(x0) anyway; the lean calls are make_b0's J(x0) and coincident-column
    # fallbacks of the staircase
    academic = build("academic", epsilon=epsilon)
    points = {"x0": tuple(x0), "root": tuple(academic.known_solution)}
    calls = {}
    for diagnostics in (True, False):
        seen = calls[diagnostics] = []
        problem = dataclasses.replace(
            academic, analytic_jacobian=lambda w, seen=seen: seen.append(tuple(w)) or academic.analytic_jacobian(w))
        config = SolverConfig(method="moser_steffensen", b0_strategy=strategy, diagnostics=diagnostics)
        assert run(problem, np.array(x0), config).outcome == "converged"
    assert (len(calls[True]), len(calls[False])) == (full_calls, lean_calls)
    assert sorted(calls[True]) == sorted(calls[False] + [points[name] for name in extra])


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
@pytest.mark.parametrize("diagnostics", [True, False], ids=["full", "lean"])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("callback", sorted(COMPLEX_CALLBACKS))
def test_complex_value_is_an_invalid_evaluation(callback, method, diagnostics):
    # steffensen reads F' too: after its first step the linear component is
    # zero to rounding, so the second staircase column coincides
    problem = NonlinearProblem(dimension=2, name="complex", **COMPLEX_CALLBACKS[callback])
    trace = run(problem, np.array([1.0, 1.0]), SolverConfig(method=method, diagnostics=diagnostics))
    assert trace.outcome == "invalid_evaluation"
    if callback == "F":
        assert trace.records == ()


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("diagnostics", [True, False], ids=["full", "lean"])
@pytest.mark.parametrize("method", METHODS)
def test_non_finite_analytic_jacobian_ends_the_run_diverged(method, diagnostics, value):
    # an F' with a NaN or infinite entry ends the run as a non-finite F does,
    # not in a singular solve or inverse; from (-1, 1) the second staircase
    # column of steffensen coincides, so it reads F' too
    problem = dataclasses.replace(ACADEMIC3, analytic_jacobian=lambda w: np.full((2, 2), value))
    trace = run(problem, np.array([-1.0, 1.0]), SolverConfig(method=method, diagnostics=diagnostics))
    assert trace.outcome == "diverged"


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
    for strategy in (None, "approx-inverse", 0.5):
        with pytest.raises(ValueError, match="b0_strategy must be a B0Strategy"):
            SolverConfig(b0_strategy=strategy)
    for level in ("no", 0, 1, None):
        with pytest.raises(ValueError, match="diagnostics must be True or False"):
            SolverConfig(diagnostics=level)


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
    # both levels update on every iteration but the last, which no step uses
    x0 = np.array([-1.0, 1.0])
    full = run(ACADEMIC3, x0, SolverConfig(method=method))
    lean = run(ACADEMIC3, x0, SolverConfig(method=method, diagnostics=False))
    iterations = len(full.records) - 1
    if method in UPDATE_METHODS:
        assert full.b_updates == lean.b_updates == iterations - 1
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
    # None and the run goes on as at the lean level, from B0 = J(x0)^-1 to
    # the root in one step
    trace = _assert_levels_agree(JACOBIAN_RAISES_AT_ROOT, (1.0,), SolverConfig(method=method))
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
    # and product alone: when it fails to form, both stay None and the run
    # goes on as at the lean level
    config = SolverConfig(method=method, b0_strategy=B0Strategy.scaled_identity(1.0))
    trace = _assert_levels_agree(JACOBIAN_RAISES_FROM_ONE, (1.0,), config, b0)
    assert (trace.outcome, trace.iterations) == ("converged", 1)
    assert (trace.b0_defect, trace.b0_product) == (None, None)
    assert [rec.b_defect for rec in trace.records] == [0.0, 0.0]


@pytest.mark.parametrize("diagnostics", [True, False], ids=["full", "lean"])
@pytest.mark.parametrize("method", METHODS)
def test_singular_jacobian_at_x0_ends_the_run_without_a_b(method, diagnostics):
    # J(x0) of academic eps = 1 at (1, 1) is singular: B0 cannot be built, and
    # newton's first solve fails after record 0
    trace = run(build("academic", epsilon=1.0), np.array([1.0, 1.0]),
                SolverConfig(method=method, diagnostics=diagnostics))
    assert (trace.approx_inverse, trace.b0_defect, trace.b0_product, trace.b_updates) == (None, None, None, 0)
    if method == "steffensen":  # no Jacobian, no singular step: it stalls
        assert trace.outcome == "max_iterations"
        return
    assert trace.outcome == "singular_linear_system"
    if method == "newton":
        assert [(rec.index, rec.residual) for rec in trace.records] == [(0, 2.0)]
    else:
        assert trace.records == ()


@pytest.mark.parametrize("diagnostics", [True, False], ids=["full", "lean"])
@pytest.mark.parametrize("method", UPDATE_METHODS)
def test_non_finite_step_records_an_infinite_residual(method, diagnostics):
    # B0 = 1e308 I overflows the first step B0 F(x0) = 1e308 (3, 2)
    config = SolverConfig(method=method, diagnostics=diagnostics,
                          b0_strategy=B0Strategy.scaled_identity(1e308))
    with np.errstate(over="ignore"):
        trace = run(AFFINE, np.array([2.0, 2.0]), config)
    assert trace.outcome == "diverged"
    first, last = trace.records
    assert (first.index, first.residual, first.step_norm) == (0, 3.0, None)
    assert (last.index, last.residual, last.step_norm) == (1, math.inf, math.inf)
    assert np.array_equal(last.iterate, [-math.inf, -math.inf])
    assert np.array_equal(trace.approx_inverse, 1e308 * np.eye(2))
    assert trace.b_updates == 0
    expected_defect = math.inf if diagnostics else None
    assert trace.b0_defect == first.b_defect == last.b_defect == expected_defect


# F(x) = 1e308 + 1e-15 x: from x0 = 0 each method's first step, about
# 1e308 / 1e-15, overflows to x1 = -inf.  With the domain check x > -1e308,
# x1 also lies outside the domain.
OVERFLOW = NonlinearProblem(dimension=1, eval=lambda w: 1e308 + 1e-15 * w,
                            analytic_jacobian=lambda w: np.array([[1e-15]]), name="overflow")


@pytest.mark.parametrize("domain_check", [None, lambda w: w[0] > -1e308], ids=["all-of-R", "bounded"])
@pytest.mark.parametrize("diagnostics", [True, False], ids=["full", "lean"])
@pytest.mark.parametrize("method", METHODS)
def test_every_method_ends_an_overflowing_step_diverged(method, diagnostics, domain_check):
    # one check, before F is evaluated at x1, whether T^-1 F or B F took the step
    problem = dataclasses.replace(OVERFLOW, domain_check=domain_check)
    with np.errstate(over="ignore"):
        trace = run(problem, np.array([0.0]), SolverConfig(method=method, diagnostics=diagnostics))
    assert trace.outcome == "diverged"
    assert [(rec.index, rec.residual) for rec in trace.records] == [(0, 1e308), (1, math.inf)]
    assert trace.final.step_norm == math.inf


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


@pytest.mark.parametrize("diagnostics", [True, False], ids=["full", "lean"])
@pytest.mark.parametrize("method", METHODS)
def test_nan_evaluation_after_x0_ends_the_run_diverged(method, diagnostics):
    # whether the NaN comes from the step's F(x1) or from the staircase of
    # steffensen's difference, the run keeps x0's record only
    trace = run(_nan_after_x0(), np.array([2.0, -1.0]),
                SolverConfig(method=method, diagnostics=diagnostics))
    assert trace.outcome == "diverged"
    assert [(rec.index, rec.residual) for rec in trace.records] == [(0, 1.5)]
    assert trace.errors() == [1.5]


@pytest.mark.parametrize("b0", [np.full((2, 2), math.nan), np.array([[0.5, 0.0], [0.0, math.nan]])],
                         ids=["all-nan", "one-nan"])
@pytest.mark.parametrize("diagnostics", [True, False], ids=["full", "lean"])
@pytest.mark.parametrize("method", UPDATE_METHODS)
def test_nan_b0_ends_the_run_diverged(method, diagnostics, b0):
    # B0 F(x0) has a NaN entry, so x1 is not finite: the step's record has
    # an infinite residual, step norm and error, and F is not evaluated at x1
    evaluated = []
    problem = dataclasses.replace(AFFINE, eval=lambda w: evaluated.append(w) or AFFINE.eval(w))
    trace = run(problem, np.array([2.0, 2.0]), SolverConfig(method=method, diagnostics=diagnostics), b0)
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
    config = SolverConfig(method="moser_steffensen", diagnostics=False,
                          b0_strategy=B0Strategy.approximate_inverse(1e-3))
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


def _trace_digest(traces):
    digest = hashlib.sha256()
    for trace in traces:
        for name in trace._fields:
            if name != "records":
                digest.update(f"{name}={_encode(getattr(trace, name))};".encode())
        for record in trace.records:
            for name in record._fields:
                digest.update(f"{name}={_encode(getattr(record, name))};".encode())
    return digest.hexdigest()


# Every registry problem from a start that converges and from one that fails
# (domain violation, max_iterations, singular J(x0), divergence), plus a B0
# of 1e308 I whose first step overflows; each with and without its analytic
# Jacobian, under every method, three B0 strategies and both diagnostics
# levels: 540 runs.
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


def _digest_runs(levels=(True, False)):
    """(problem, x0, config, b0) of every digest run at the given levels."""
    for problem, x0, max_iterations, b0 in DIGEST_CASES:
        for variant in (problem, dataclasses.replace(problem, analytic_jacobian=None)):
            for method in METHODS:
                for strategy in DIGEST_STRATEGIES:
                    for diagnostics in levels:
                        config = SolverConfig(method=method, max_iterations=max_iterations,
                                              b0_strategy=strategy, diagnostics=diagnostics)
                        yield variant, x0, config, b0


def test_trace_digest_is_unchanged():
    traces = []
    for problem, x0, config, b0 in _digest_runs():
        with np.errstate(over="ignore", invalid="ignore"):
            traces.append(run(problem, np.array(x0), config, b0))
    assert len(traces) == 540
    assert {trace.outcome for trace in traces} == {
        "converged", "max_iterations", "diverged", "singular_linear_system", "domain_violation"}
    assert _trace_digest(traces) == TRACE_DIGEST


def test_lean_run_matches_full_run_on_the_digest_cases():
    # at the default tolerance the convergence forecast also fires before
    # the final iteration, and the kept B takes the next step at both levels
    pairs = forecast_fired = 0
    for problem, x0, config, b0 in _digest_runs(levels=(True,)):
        with np.errstate(over="ignore", invalid="ignore"):
            full = _assert_levels_agree(problem, x0, config, b0)
        pairs += 1
        if config.method in UPDATE_METHODS and full.outcome == "converged":
            forecast_fired += any(rec.mult_condition_max is None for rec in full.records[1:-1])
    assert pairs == 270
    assert forecast_fired > 0
