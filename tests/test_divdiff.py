import dataclasses
import itertools
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mosteff.divdiff import (
    COINCIDENCE_RTOL,
    _derivative_column,
    divided_difference,
    evaluate,
    evaluate_batch,
    numeric_jacobian,
    problem_jacobian,
    secant_defect,
)
from mosteff.errors import DomainViolation, MosteffError, NonFiniteEvaluation
from mosteff.linalg import max_norm_mat, max_norm_vec
from mosteff.problems import NonlinearProblem, REGISTRY, build

PROBLEMS = [build(name, epsilon=3.0) if name == "academic" else build(name) for name in REGISTRY]


@pytest.mark.parametrize("problem", PROBLEMS, ids=[p.name for p in PROBLEMS])
def test_secant_identity_random_pairs(problem):
    rng = np.random.default_rng(3)
    for _ in range(300):
        u = rng.uniform(-0.5, 0.5, problem.dimension)
        v = rng.uniform(-0.5, 0.5, problem.dimension)
        assert secant_defect(problem, u, v) <= 1e-10


def test_secant_identity_exact_telescoping():
    # the staircase construction satisfies the identity to rounding, even for
    # wildly nonlinear components
    problem = build("example3d")
    u = np.array([0.3, -0.2, 0.4])
    v = np.array([-0.1, 0.25, -0.3])
    dd = divided_difference(problem, u, v)
    lhs = dd @ (u - v)
    rhs = evaluate(problem, u) - evaluate(problem, v)
    assert max_norm_vec(lhs - rhs) <= 1e-14 * (1.0 + max_norm_vec(rhs))


def test_coincident_arguments_give_jacobian():
    problem = build("example3d")
    x = np.array([0.2, -0.3, 0.1])
    dd = divided_difference(problem, x, x.copy())
    jac = problem.analytic_jacobian(x)
    assert max_norm_mat(dd - jac) <= 1e-13 * max_norm_mat(jac)


def test_mixed_coincidence_single_component():
    # only one coordinate coincides; that column must still be finite and the
    # secant identity must survive
    problem = build("academic", epsilon=3.0)
    u = np.array([0.4, 0.2])
    v = np.array([0.4, -0.1])  # first components equal
    dd = divided_difference(problem, u, v)
    assert np.all(np.isfinite(dd))
    assert secant_defect(problem, u, v) <= 1e-10


@pytest.mark.parametrize("problem", PROBLEMS, ids=[p.name for p in PROBLEMS])
def test_numeric_jacobian_matches_analytic(problem):
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = rng.uniform(-0.5, 0.5, problem.dimension)
        num = numeric_jacobian(problem, x)
        ana = problem.analytic_jacobian(x)
        assert max_norm_mat(num - ana) <= 1e-6 * (1.0 + max_norm_mat(ana))


def test_problem_jacobian_falls_back_to_numeric():
    base = build("academic", epsilon=3.0)
    stripped = NonlinearProblem(dimension=2, eval=base.eval, name="stripped")
    x = np.array([0.1, -0.2])
    assert max_norm_mat(problem_jacobian(stripped, x) - base.analytic_jacobian(x)) <= 1e-6


def _counting_academic():
    # the academic system with a log of the points F is called at
    calls = []
    base = build("academic", epsilon=3.0)
    return dataclasses.replace(base, eval=lambda w: calls.append(w) or base.eval(w)), calls


@pytest.mark.parametrize("operator", [divided_difference, secant_defect])
def test_points_of_different_sizes_are_refused(operator):
    problem, calls = _counting_academic()
    with pytest.raises(ValueError, match=r"u and v have 2 and 1 entries, problem 'academic\(eps=3\)' needs 2"):
        operator(problem, [1.0, 2.0], [1.0])
    assert calls == []


@pytest.mark.parametrize("operator", [divided_difference, secant_defect])
def test_points_of_another_dimension_are_refused(operator):
    problem, calls = _counting_academic()
    with pytest.raises(ValueError, match=r"u and v have 3 and 3 entries, problem 'academic\(eps=3\)' needs 2"):
        operator(problem, [1.0, 2.0, 3.0], [0.5, 1.0, 1.5])
    assert calls == []


@pytest.mark.parametrize("fu", [np.zeros(3), np.zeros(1), np.zeros((2, 1)), 0.0])
def test_f_of_u_of_another_shape_is_refused(fu):
    problem, calls = _counting_academic()
    expected = f"fu has shape {np.shape(fu)}, problem 'academic(eps=3)' needs (2,)"
    with pytest.raises(ValueError, match=re.escape(expected)):
        divided_difference(problem, [1.0, 2.0], [0.5, 1.0], fu=fu)
    assert calls == []


@pytest.mark.parametrize("jacobian", [numeric_jacobian, problem_jacobian])
@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "numeric"])
def test_jacobian_at_a_point_of_another_dimension_is_refused(jacobian, analytic):
    problem, calls = _counting_academic()
    if not analytic:
        problem = dataclasses.replace(problem, analytic_jacobian=None)
    with pytest.raises(ValueError, match=r"x has dimension 3, problem 'academic\(eps=3\)' needs 2"):
        jacobian(problem, [1.0, 2.0, 3.0])
    assert calls == []


def test_domain_violation():
    problem = build("example3d")  # domain is the open unit max-norm ball
    with pytest.raises(DomainViolation):
        evaluate(problem, np.array([1.5, 0.0, 0.0]))
    with pytest.raises(DomainViolation):
        divided_difference(problem, np.array([0.9, 0.0, 0.0]), np.array([1.2, 0.0, 0.0]))


def test_nonfinite_evaluation():
    def blow_up(x):
        with np.errstate(over="ignore"):
            return np.exp(x * x)

    problem = NonlinearProblem(dimension=1, eval=blow_up, name="blow")
    with pytest.raises(NonFiniteEvaluation):
        evaluate(problem, np.array([1e6]))


def test_evaluation_count_is_m_plus_one():
    calls = []

    def counting_eval(x):
        calls.append(np.array(x))
        return np.array([x[0] ** 2, x[0] + x[1], np.sin(x[2])])

    problem = NonlinearProblem(dimension=3, eval=counting_eval, name="count")
    divided_difference(problem, np.array([0.1, 0.2, 0.3]), np.array([0.4, 0.5, 0.6]))
    assert len(calls) == 4  # m + 1 full-vector evaluations


def test_evaluation_count_is_m_with_f_of_u():
    calls = []

    def counting_eval(x):
        calls.append(np.array(x))
        return np.array([x[0] ** 2, x[0] + x[1], np.sin(x[2])])

    problem = NonlinearProblem(dimension=3, eval=counting_eval, name="count")
    u = np.array([0.1, 0.2, 0.3])
    fu = evaluate(problem, u)
    calls.clear()
    divided_difference(problem, u, np.array([0.4, 0.5, 0.6]), fu=fu)
    assert len(calls) == 3  # the staircase's last point is u
    assert not any(np.array_equal(x, u) for x in calls)


@pytest.mark.parametrize("problem", PROBLEMS, ids=[p.name for p in PROBLEMS])
def test_passing_f_of_u_changes_nothing(problem):
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = rng.uniform(-0.5, 0.5, problem.dimension)
        v = rng.uniform(-0.5, 0.5, problem.dimension)
        reused = divided_difference(problem, u, v, fu=evaluate(problem, u))
        assert np.array_equal(reused, divided_difference(problem, u, v))


EXAMPLE3D = build("example3d")
NO_JACOBIAN = NonlinearProblem(dimension=3, eval=EXAMPLE3D.eval, domain_check=EXAMPLE3D.domain_check, name="no-jac")


@pytest.mark.parametrize("problem", [EXAMPLE3D, NO_JACOBIAN], ids=["analytic", "numeric"])
@pytest.mark.parametrize("coincident", [(0,), (2,), (0, 2), (0, 1, 2)], ids=str)
def test_passing_f_of_u_changes_nothing_on_coincident_columns(problem, coincident):
    # column m-1 is the one whose staircase point is u itself
    u = np.array([0.3, -0.2, 0.4])
    v = np.array([-0.1, 0.25, -0.3])
    v[list(coincident)] = u[list(coincident)]
    reused = divided_difference(problem, u, v, fu=evaluate(problem, u))
    assert np.array_equal(reused, divided_difference(problem, u, v))


def _counting(problem):
    calls = []

    def counted(x):
        calls.append(np.array(x))
        return problem.eval(x)

    return dataclasses.replace(problem, eval=counted), calls


def _every_point_staircase(problem, u, v):
    # [u, v; F] with F evaluated at all m+1 staircase points
    m = u.size
    point = v.copy()
    f_prev = evaluate(problem, point)
    d = np.empty((m, m))
    for j in range(m):
        point[j] = u[j]
        f_next = evaluate(problem, point)
        gap = u[j] - v[j]
        if abs(gap) <= COINCIDENCE_RTOL * (1.0 + abs(u[j])):
            d[:, j] = _derivative_column(problem, point, j)
        else:
            d[:, j] = (f_next - f_prev) / gap
        f_prev = f_next
    return d


def test_all_coincident_difference_evaluates_no_staircase_point():
    problem, calls = _counting(EXAMPLE3D)  # its analytic Jacobian serves every column
    x = np.array([0.2, -0.3, 0.1])
    divided_difference(problem, x, x.copy())
    assert calls == []


def test_adjacent_coincident_columns_skip_exactly_one_point():
    # columns 1 and 2 coincide, so point 2, between them, feeds no quotient;
    # points 0 and 1 feed column 0, points 3 and 4 column 3.  The analytic
    # Jacobian serves the coincident columns, so every call is a staircase
    # evaluation.
    eval_4d = lambda x: np.array([x[0] * x[1], x[1] + x[2] ** 2, np.sin(x[2] * x[3]), x[3] ** 3 - x[0]])
    jac_4d = lambda x: np.array([
        [x[1], x[0], 0.0, 0.0],
        [0.0, 1.0, 2.0 * x[2], 0.0],
        [0.0, 0.0, x[3] * np.cos(x[2] * x[3]), x[2] * np.cos(x[2] * x[3])],
        [-1.0, 0.0, 0.0, 3.0 * x[3] ** 2],
    ])
    problem, calls = _counting(NonlinearProblem(dimension=4, eval=eval_4d, analytic_jacobian=jac_4d, name="4d"))
    u = np.array([0.1, 0.2, 0.3, 0.4])
    v = np.array([0.5, 0.2, 0.3, -0.2])
    d = divided_difference(problem, u, v)
    assert len(calls) == 4
    calls.clear()
    assert np.array_equal(d, _every_point_staircase(problem, u, v))
    assert len(calls) == 5


@pytest.mark.parametrize("f, expected", [
    (lambda x: x, np.eye(3)),
    (lambda x: x[::-1], np.eye(3)[::-1]),
], ids=["identity", "reversal"])
@pytest.mark.parametrize("with_fu", [False, True], ids=["without-fu", "with-fu"])
def test_staircase_copies_the_values_of_f(f, expected, with_fu):
    # F returns its argument, or a view of it, which the staircase's next
    # step overwrites; each value must be copied out before the point moves
    problem = NonlinearProblem(dimension=3, eval=f, name="view")
    u = np.array([0.3, -0.2, 0.4])
    v = np.array([-0.1, 0.25, -0.3])
    fu = evaluate(problem, u) if with_fu else None
    assert np.array_equal(divided_difference(problem, u, v, fu=fu), expected)


def test_staircase_copies_the_columns_of_f_prime():
    # F' writes every value into one buffer, so a column kept as a view
    # would read F' at the last point where it was called
    eval_3d = lambda x: np.array([x[0] * x[1], x[1] * x[2], x[2] * x[0]])
    jac_3d = lambda x: np.array([[x[1], x[0], 0.0], [0.0, x[2], x[1]], [x[2], 0.0, x[0]]])
    buffer = np.empty((3, 3))

    def jac_in_buffer(x):
        buffer[...] = jac_3d(x)
        return buffer

    u = np.array([0.3, -0.2, 0.4])
    v = np.array([0.3, 0.25, 0.4])  # columns 0 and 2 coincide
    fresh = NonlinearProblem(dimension=3, eval=eval_3d, analytic_jacobian=jac_3d, name="fresh")
    reused = dataclasses.replace(fresh, analytic_jacobian=jac_in_buffer, name="buffer")
    d = divided_difference(reused, u, v)
    assert np.array_equal(d, divided_difference(fresh, u, v))
    assert np.array_equal(d[:, 0], jac_3d(np.array([0.3, 0.25, 0.4]))[:, 0])


@pytest.mark.parametrize("problem", [EXAMPLE3D, NO_JACOBIAN], ids=["analytic", "numeric"])
@pytest.mark.parametrize("with_fu", [False, True], ids=["without-fu", "with-fu"])
def test_skipping_unread_points_changes_nothing(problem, with_fu):
    # every coincidence pattern of a 3-d difference, against the staircase
    # that evaluates all m+1 points
    u = np.array([0.3, -0.2, 0.4])
    for pattern in itertools.product([False, True], repeat=3):
        v = np.where(pattern, u, [-0.1, 0.25, -0.3])
        fu = evaluate(problem, u) if with_fu else None
        assert np.array_equal(divided_difference(problem, u, v, fu=fu), _every_point_staircase(problem, u, v))


@given(
    st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=2),
    st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=2),
)
def test_secant_identity_property(u_vals, v_vals):
    problem = PROBLEMS[1]  # academic, epsilon=3
    assert secant_defect(problem, np.array(u_vals), np.array(v_vals)) <= 1e-10


def _reference_divided_difference(problem, u, v, fu=None):
    # The staircase as it was written before the quotients moved to stacked
    # rows: one quotient, written as a strided column, per non-coincident
    # column.
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    m = u.size
    gaps = u - v
    coincident = (np.abs(gaps) <= COINCIDENCE_RTOL * (1.0 + np.abs(u))).tolist()
    unread = [a and b for a, b in zip(coincident, coincident[1:] + [True])]
    point = v.copy()
    f_prev = None if coincident[0] else evaluate(problem, point)
    d = np.empty((m, m))
    for j, (u_j, gap) in enumerate(zip(u.tolist(), gaps.tolist())):
        point[j] = u_j
        if unread[j]:
            f_next = None
        elif fu is not None and j == m - 1:
            f_next = fu
        else:
            f_next = evaluate(problem, point)
        if coincident[j]:
            d[:, j] = _derivative_column(problem, point, j)
        else:
            d[:, j] = (f_next - f_prev) / gap
        f_prev = f_next
    return d


def _logged(problem, log, fail=None):
    """`problem` with F, F' and a domain check that append (kind, point) to
    `log`.  fail = (kind, k, mode) makes the k-th call of that kind raise
    ValueError (mode "raise"), or return NaN (F, F') or False (domain)."""
    counts = Counter()

    def logged(kind, fn):
        def called(x):
            log.append((kind, np.array(x)))
            counts[kind] += 1
            if fail is not None and fail[:2] == (kind, counts[kind]):
                if fail[2] == "raise":
                    raise ValueError(f"{kind} fails at call {counts[kind]}")
                return False if kind == "domain" else np.full_like(fn(x), np.nan)
            return fn(x)

        return called

    jac = problem.analytic_jacobian
    return dataclasses.replace(
        problem,
        eval=logged("F", problem.eval),
        analytic_jacobian=None if jac is None else logged("J", jac),
        domain_check=logged("domain", problem.domain_check or (lambda x: True)),
    )


def _outcome(staircase, problem, u, v, fu, fail):
    log = []
    try:
        result = staircase(_logged(problem, log, fail), u, v, fu)
    except MosteffError as exc:
        result = exc
    return result, log


@st.composite
def _staircases(draw):
    """(problem, u, v, fu): a registry problem with its analytic F' or
    none, F(u) passed or not, and no, one, two adjacent or all coordinate
    pairs made coincident."""
    base = draw(st.sampled_from(PROBLEMS))
    problem = base if draw(st.booleans()) else dataclasses.replace(base, analytic_jacobian=None)
    m = problem.dimension
    coordinates = st.lists(st.floats(-0.5, 0.5), min_size=m, max_size=m)
    u, v = np.array(draw(coordinates)), np.array(draw(coordinates))
    first = draw(st.integers(0, m - 2))
    forced = draw(st.sampled_from([[], [first], [first, first + 1], list(range(m))]))
    v[forced] = u[forced]
    fu = evaluate(problem, u) if draw(st.booleans()) else None
    return problem, u, v, fu


_FAILURES = st.none() | st.tuples(
    st.sampled_from(["F", "J", "domain"]), st.integers(1, 7), st.sampled_from(["raise", "bad value"])
)


@given(_staircases(), _FAILURES)
def test_staircase_matches_the_per_column_reference(case, fail):
    # The same bits, the same F, F' and domain-check calls in the same
    # order, and the same typed error when one of them fails at its k-th
    # call.
    _assert_matches_reference(*case, fail)


def _broyden(x):
    # Broyden's tridiagonal function, F_i = (3 - 2 x_i) x_i - x_{i-1} - 2 x_{i+1} + 1
    f = (3.0 - 2.0 * x) * x + 1.0
    f[1:] -= x[:-1]
    f[:-1] -= 2.0 * x[1:]
    return f


def _broyden_jacobian(x):
    return np.diag(3.0 - 4.0 * x) - np.eye(x.size, k=-1) - 2.0 * np.eye(x.size, k=1)


@st.composite
def _broyden_staircases(draw):
    """(problem, u, v, fu) as _staircases draws them, for Broyden's
    tridiagonal F at m = 8, 17 or 64, with every other coordinate pair
    among the coincidence patterns."""
    m = draw(st.sampled_from([8, 17, 64]))
    jac = _broyden_jacobian if draw(st.booleans()) else None
    problem = NonlinearProblem(dimension=m, eval=_broyden, analytic_jacobian=jac, name="broyden")
    coordinates = st.lists(st.floats(-0.5, 0.5), min_size=m, max_size=m)
    u, v = np.array(draw(coordinates)), np.array(draw(coordinates))
    first = draw(st.integers(0, m - 2))
    patterns = [[], [first], [first, first + 1], list(range(first % 2, m, 2)), list(range(m))]
    forced = draw(st.sampled_from(patterns))
    v[forced] = u[forced]
    fu = evaluate(problem, u) if draw(st.booleans()) else None
    return problem, u, v, fu


@settings(max_examples=60)
@given(_broyden_staircases(), _FAILURES)
def test_staircase_matches_the_per_column_reference_at_larger_m(case, fail):
    _assert_matches_reference(*case, fail)


def _assert_matches_reference(problem, u, v, fu, fail):
    result, log = _outcome(divided_difference, problem, u, v, fu, fail)
    expected, expected_log = _outcome(_reference_divided_difference, problem, u, v, fu, fail)
    if isinstance(expected, MosteffError):
        assert type(result) is type(expected) and str(result) == str(expected)
    else:
        assert np.array_equal(result, expected) and result.tobytes() == expected.tobytes()
        assert result.flags.c_contiguous
    assert [kind for kind, _ in log] == [kind for kind, _ in expected_log]
    assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(log, expected_log))


def _failing_at(calls, bad_row, raising_row, error):
    # example3d with an F that returns NaN at its bad_row-th call and raises
    # error at its raising_row-th; calls counts the calls
    def f(x):
        calls.append(x.copy())
        if len(calls) == bad_row:
            return np.full(3, np.nan)
        if len(calls) == raising_row:
            raise error("F fails")
        return EXAMPLE3D.eval(x)
    return dataclasses.replace(EXAMPLE3D, eval=f)


POINTS = np.random.default_rng(2).uniform(-0.5, 0.5, (5, 3))


@pytest.mark.parametrize("error", [ValueError, TypeError])
def test_evaluate_batch_reports_an_earlier_non_finite_row_first(error):
    # Row 1 is NaN and row 3 raises.  evaluate on the rows in turn stops at
    # row 1, so the batch reports row 1's error too, though it has called F
    # at rows 2 and 3 as well.
    looped_calls, batch_calls = [], []
    with pytest.raises(NonFiniteEvaluation) as looped:
        for x in POINTS:
            evaluate(_failing_at(looped_calls, 2, 4, error), x)
    with pytest.raises(NonFiniteEvaluation) as batch:
        evaluate_batch(_failing_at(batch_calls, 2, 4, error), POINTS)
    assert str(batch.value) == str(looped.value)
    assert np.array_equal(batch_calls, POINTS[:4])


def test_evaluate_batch_lets_a_type_error_through():
    # with no non-finite row before it, the very exception F raised
    calls = []
    with pytest.raises(TypeError) as raised:
        evaluate_batch(_failing_at(calls, None, 3, TypeError), POINTS)
    assert str(raised.value) == "F fails" and raised.value.__cause__ is None
    assert len(calls) == 3
