import dataclasses
import functools
import math
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mosteff.analysis import (
    _PRIMES,
    ConvergenceConstants,
    _halton_table,
    check_conditions,
    estimate_coc,
    estimate_constants,
    find_radius,
    generate_sequences,
)
import mosteff.analysis
import mosteff.divdiff
from mosteff.divdiff import divided_difference, problem_jacobian
from mosteff.errors import DomainViolation, MosteffError, NonFiniteEvaluation
from mosteff.linalg import invert, max_norm_mat
from mosteff.problems import NonlinearProblem, build
from mosteff.solvers import B0Strategy, SolverConfig, diagnose, make_b0, run

GOLDEN = ConvergenceConstants(M=1.0, k=1.0, beta=0.75, delta=0.25, r=0.246627, r_tilde=1.0)


def test_sequence_recurrences_by_hand():
    # independently recompute the first recurrence layer
    c = GOLDEN
    seq = generate_sequences(c, 2)
    alpha1 = (c.delta + c.k * c.beta * c.r) * c.r
    assert seq.alpha[1] == pytest.approx(alpha1, abs=1e-15)
    alpha_tilde1 = (1.0 + c.M + c.k * alpha1) * alpha1
    assert seq.alpha_tilde[1] == pytest.approx(alpha_tilde1, abs=1e-15)
    d0 = c.delta + c.k * c.beta * (alpha1 + alpha_tilde1)
    assert seq.d[0] == pytest.approx(d0, abs=1e-15)
    delta1 = c.delta**2 + c.k * c.M * c.beta**2 * (alpha1 + alpha_tilde1)
    assert seq.delta[1] == pytest.approx(delta1, abs=1e-15)
    assert seq.beta[1] == pytest.approx((1.0 + d0) * c.beta, abs=1e-15)


def test_golden_first_terms():
    seq = generate_sequences(GOLDEN, 1)
    assert seq.alpha[1] == pytest.approx(0.107275408, abs=1e-8)
    assert seq.alpha_tilde[1] == pytest.approx(0.226058829, abs=1e-8)
    assert seq.d[0] == pytest.approx(0.500000678, abs=1e-8)
    assert seq.delta[1] == pytest.approx(0.250000508126, abs=1e-9)


def test_golden_condition_report():
    report = check_conditions(GOLDEN)
    assert report.cond1_value == pytest.approx(0.554078877, abs=1e-8)
    assert report.cond3_margin == pytest.approx(0.021316053, abs=1e-8)
    assert report.cond1 and report.cond3
    # at the 6-decimal printed radius the defect-decrease margin is barely
    # on the wrong side; the true feasible radius sits ~5e-7 lower
    assert not report.cond2
    assert report.delta1 - GOLDEN.delta == pytest.approx(5.08126e-7, abs=1e-11)


def test_sequences_decrease_when_feasible():
    c = ConvergenceConstants(M=1.0, k=1.0, beta=0.75, delta=0.25, r=0.2, r_tilde=1.0)
    seq = generate_sequences(c, 8)
    assert all(b <= a for a, b in zip(seq.alpha[1:], seq.alpha[2:]))
    assert all(b <= a for a, b in zip(seq.delta, seq.delta[1:]))
    assert seq.alpha[-1] < 1e-8


def test_generate_sequences_lengths():
    seq = generate_sequences(GOLDEN, 4)
    assert len(seq.alpha) == len(seq.alpha_tilde) == len(seq.delta) == 5
    assert len(seq.beta) == len(seq.d) == 4
    with pytest.raises(ValueError, match="n_terms must be >= 1"):
        generate_sequences(GOLDEN, 0)


def test_find_radius_golden():
    r = find_radius(1.0, 1.0, 0.75, 0.25, 1.0)
    assert r == pytest.approx(0.246626546707, abs=1e-9)
    at = check_conditions(ConvergenceConstants(M=1.0, k=1.0, beta=0.75, delta=0.25, r=r, r_tilde=1.0))
    assert at.all_hold
    past = check_conditions(
        ConvergenceConstants(M=1.0, k=1.0, beta=0.75, delta=0.25, r=r + 1e-6, r_tilde=1.0)
    )
    assert not past.all_hold


def test_find_radius_k_zero():
    # with no Jacobian variation only the reach condition binds:
    # (1+M) r < r_tilde gives r = 1/2
    r = find_radius(1.0, 0.0, 0.75, 0.25, 1.0)
    assert r == pytest.approx(0.5, abs=1e-10)


def test_find_radius_infeasible_delta():
    assert find_radius(1.0, 1.0, 0.75, 0.9, 1.0) is None  # 1-(1+d)^2 d < 0
    # strict inequalities make delta = 0 infeasible as well
    assert find_radius(1.0, 1.0, 0.75, 0.0, 1.0) is None


def _reference_radius(M, k, beta, delta, r_tilde):
    # The bisection probed through validated constants and the public report.
    ConvergenceConstants(M=M, k=k, beta=beta, delta=delta, r=r_tilde, r_tilde=r_tilde)
    if 1.0 - (1.0 + delta) ** 2 * delta <= 0.0:
        return None

    def feasible(r):
        c = ConvergenceConstants(M=M, k=k, beta=beta, delta=delta, r=r, r_tilde=r_tilde)
        return check_conditions(c).all_hold

    hi = min(r_tilde, r_tilde / (1.0 + M))
    lo = hi * 1e-12
    if lo == 0.0:
        raise ValueError("r_tilde too small: the radius search's smallest probe underflows to 0")
    if not feasible(lo):
        return None
    for _ in range(200):
        if hi - lo <= 1e-13 * max(min(r_tilde, 1.0), hi) and hi - lo <= 1e-12 * hi:
            break
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _radius_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:  # also the overflow of beta ** 2 past 1.3e154
        return repr(exc)


_CONSTANT = st.floats(min_value=0.0, max_value=1e300)
_POSITIVE = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)


@given(M=_CONSTANT, k=_CONSTANT, beta=_POSITIVE,
       delta=st.floats(min_value=0.0, max_value=1.0, exclude_max=True), r_tilde=_POSITIVE)
@example(M=1.0, k=1.0, beta=0.75, delta=0.25, r_tilde=1.0)  # the golden radius
@example(M=1.0, k=0.0, beta=0.75, delta=0.25, r_tilde=1.0)  # reach condition only
@example(M=1.0, k=1.0, beta=0.75, delta=0.9, r_tilde=1.0)  # no radius can exist
@example(M=1.0, k=1.0, beta=0.75, delta=0.0, r_tilde=1.0)  # the smallest probe fails
@example(M=1e300, k=1.0, beta=0.75, delta=0.25, r_tilde=1e-13)  # the smallest probe underflows
@example(M=1.0, k=1.0, beta=0.75, delta=0.25, r_tilde=1e-12)  # widths relative below r_tilde = 1
@example(M=1.0, k=1.0, beta=0.75, delta=0.25, r_tilde=1e-14)
@example(M=1e11, k=1.0, beta=0.75, delta=0.25, r_tilde=1.0)  # widths relative to a small hi
def test_find_radius_matches_the_bisection_through_check_conditions(M, k, beta, delta, r_tilde):
    got = _radius_or_error(find_radius, M, k, beta, delta, r_tilde)
    assert got == _radius_or_error(_reference_radius, M, k, beta, delta, r_tilde)


@given(
    st.builds(
        ConvergenceConstants,
        M=st.floats(0.0, 1e3), k=st.floats(0.0, 1e3), beta=st.floats(1e-3, 1e3),
        delta=st.floats(0.0, 1.0, exclude_max=True), r=st.floats(1e-9, 1e3),
        r_tilde=st.floats(1e-9, 1e3),
    )
)
@example(GOLDEN)
def test_check_conditions_first_terms_are_the_sequences(c):
    assert check_conditions(c).delta1 == generate_sequences(c, 1).delta[1]


@pytest.mark.parametrize(
    "M, r_tilde",
    [pytest.param(1.0, r_tilde, id=str(r_tilde)) for r_tilde in (1.0, 1e-12, 1e-14, 1e-300)]
    # r_tilde / (1 + M), where the search starts, is far below the 1e-13 width
    + [pytest.param(1e11, 1.0, id="M1e11-1.0")],
)
def test_find_radius_is_the_largest_to_twelve_digits(M, r_tilde):
    # The bisection's width is relative to the search's upper end, so a
    # tiny r_tilde or a large M still gets its radius, not the search's
    # smallest probe.
    r = find_radius(M, 1.0, 0.75, 0.25, r_tilde)

    def holds(radius):
        return check_conditions(ConvergenceConstants(M=M, k=1.0, beta=0.75, delta=0.25, r=radius,
                                                     r_tilde=r_tilde)).all_hold

    assert holds(r)
    assert not holds(r * (1.0 + 1e-12))


def test_constants_validation():
    with pytest.raises(ValueError):
        ConvergenceConstants(M=1.0, k=1.0, beta=0.75, delta=1.0, r=0.1, r_tilde=1.0)
    with pytest.raises(ValueError):
        ConvergenceConstants(M=-1.0, k=1.0, beta=0.75, delta=0.25, r=0.1, r_tilde=1.0)
    for bad in ({"M": math.inf}, {"k": math.nan}, {"r_tilde": math.inf}):
        with pytest.raises(ValueError, match="constants must be finite"):
            ConvergenceConstants(**{**dict(M=1.0, k=1.0, beta=0.75, delta=0.25, r=0.1, r_tilde=1.0), **bad})
    with pytest.raises(ValueError):
        find_radius(1.0, 1.0, 0.75, -0.1, 1.0)
    with pytest.raises(ValueError):
        find_radius(-1.0, 1.0, 0.75, 0.2, 1.0)
    with pytest.raises(ValueError):
        find_radius(1.0, -1.0, 0.75, 0.2, 1.0)
    # rejected whether or not a radius could exist for this delta
    with pytest.raises(ValueError):
        find_radius(1.0, 1.0, -0.75, 0.9, 1.0)
    with pytest.raises(ValueError):
        find_radius(1.0, 1.0, 0.75, 0.9, -1.0)


# Corners of the max-norm sphere of radius f * r* on example3d, whose Jacobian
# at the root is the identity: B0 = 0.75 I has norm 0.75 and defect 0.25 there,
# the constants of the worked example.  The certificate is conservative: the
# basin reaches past 2.5 r*, and at 3 r* the negative-y corners cross the
# middle component's Jacobian zero at y = -1/2.
@pytest.mark.parametrize("factor, converged", [(0.5, 8), (1.0, 8), (1.5, 8), (2.5, 8), (3.0, 4)])
def test_certified_sphere_corners_converge(factor, converged):
    rho = factor * find_radius(1.0, 1.0, 0.75, 0.25, 1.0)
    config = SolverConfig(
        method="moser_steffensen",
        residual_tolerance=1e-13,
        b0_strategy=B0Strategy.scaled_identity(0.75),
    )
    problem = build("example3d")
    corners = [np.array([sx, sy, sz]) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    outcomes = [run(problem, rho * corner, config).outcome for corner in corners]
    assert outcomes.count("converged") == converged


# The theorem itself, iterate by iterate: from any start in the certified
# ball, record n's error is at most alpha_n and, where iteration n updated B,
# record n's b_defect (the defect of B_n, which the next step uses) is at most
# delta_n.  The constants are sampled over a ball of radius 0.2, which holds
# the certified one; k is still a sampled lower bound of the true supremum.
_THEOREM_ITERATIONS = 7


@functools.lru_cache(maxsize=None)
def _theorem_constants(name, epsilon):
    problem = build(name) if epsilon is None else build(name, epsilon=epsilon)
    return problem, estimate_constants(problem, 0.2, 600)


@settings(deadline=None)  # an example that meets a problem first pays for its constants
@given(
    key=st.sampled_from([("example3d", None), ("academic", 1.0), ("academic", 3.0)]),
    delta=st.floats(0.01, 0.4),
    unit=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
)
# corners where error_1 reaches 0.993 and 0.984 of alpha_1
@example(key=("example3d", None), delta=0.01, unit=[-1.0, 1.0, -1.0])
@example(key=("academic", 1.0), delta=0.4, unit=[-1.0, -1.0, 0.0])
def test_runs_stay_under_the_majorizing_sequences(key, delta, unit):
    problem, c = _theorem_constants(*key)
    m, root = problem.dimension, problem.known_solution
    jac_root = problem.analytic_jacobian(root)
    b0 = make_b0(problem, root, B0Strategy.approximate_inverse(delta), jac_root)
    c = dataclasses.replace(c, beta=max_norm_mat(b0), delta=max_norm_mat(np.eye(m) - b0 @ jac_root))
    radius = find_radius(c.M, c.k, c.beta, c.delta, c.r_tilde)
    assert radius <= c.r
    seq = generate_sequences(dataclasses.replace(c, r=radius), _THEOREM_ITERATIONS)
    config = SolverConfig(method="moser_steffensen", max_iterations=_THEOREM_ITERATIONS,
                          residual_tolerance=1e-300, step_tolerance=1e-300)
    x0 = root + radius * np.array(unit[:m])
    trace = diagnose(run(problem, x0, config, b0))
    assert trace.outcome in ("converged", "max_iterations")
    checked = 0
    for rec in trace.records:
        if rec.error_at_floor:
            continue
        assert rec.error <= seq.alpha[rec.index]
        # no update on the final iteration or where the forecast fired: B_n
        # is B_{n-1} there
        if rec.index == 0 or rec.mult_condition_max is not None:
            assert rec.b_defect <= seq.delta[rec.index]
            checked += 1
    # diagnose marks the updates, so a B_1 above the floor is checked too
    assert checked > 1 or trace.records[1].error_at_floor


def test_coc_synthetic_quadratic():
    errors = [0.5 ** (2**k) for k in range(7)]
    assert estimate_coc(errors) == pytest.approx(2.0, abs=1e-6)


def test_coc_golden_ratio_order():
    # e_{n+1} = e_n e_{n-1} has order (1+sqrt(5))/2; the estimate approaches
    # it at the speed of Fibonacci ratios, so run the recursion deep
    errors = [0.95, 0.9]
    for _ in range(18):
        errors.append(errors[-1] * errors[-2])
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    assert estimate_coc(errors) == pytest.approx(phi, abs=1e-5)


def test_coc_insufficient_data():
    assert estimate_coc([1.0, 0.5, 0.25]) is None
    assert estimate_coc([1.0, 1.0, 1.0, 1.0]) is None  # no strictly decreasing triple


def test_coc_uses_late_window():
    # a slow pre-asymptotic phase must not drag the estimate down
    errors = [0.9, 0.8, 0.7, 0.6]  # ratios ~ 1: linear-looking prefix
    tail = [0.1]
    for _ in range(5):
        tail.append(tail[-1] ** 2)
    assert estimate_coc(errors + tail) == pytest.approx(2.0, abs=1e-6)


def test_coc_accepts_trace():
    trace = run(
        build("academic", epsilon=3.0),
        np.array([-1.0, 1.0]),
        SolverConfig(
            method="moser_steffensen",
            b0_strategy=B0Strategy.approximate_inverse(1e-3),
            residual_tolerance=1e-24,
            step_tolerance=1e-30,
            max_iterations=30,
        ),
    )
    assert 1.8 <= estimate_coc(trace) <= 2.2


def test_coc_survives_an_underflowing_quotient():
    # 1e-200 / 1e200 rounds to 0, so its log is read as ln 1e-200 - ln 1e200;
    # the orders are 4.0 and 0.25
    assert estimate_coc([1e300, 1e200, 1e-200, 1e-300]) == 2.125


def _quotient_coc(errors):
    # estimate_coc with every log read from a quotient, which raises
    # ValueError where the quotient underflows to 0
    errors = [e for e in errors if e > 0.0 and math.isfinite(e)][-5:]
    if len(errors) < 4:
        return None
    rhos = [
        math.log(c / b) / math.log(b / a)
        for a, b, c in zip(errors, errors[1:], errors[2:])
        if a > b > c
    ]
    return statistics.median(rhos) if rhos else None


@settings(max_examples=300)
@given(st.lists(st.floats(5e-324, 1e308), max_size=8))
def test_coc_is_finite_and_keeps_the_quotient_form(errors):
    coc = estimate_coc(errors)
    assert coc is None or (type(coc) is float and math.isfinite(coc))
    try:
        expected = _quotient_coc(errors)
    except ValueError:
        return
    assert coc == expected and (coc is None or coc.hex() == expected.hex())


@given(st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), min_size=1, max_size=3))
def test_coc_median_is_numpys(rhos):
    # _quotient_coc, which the property above holds estimate_coc's inline
    # median to, takes statistics.median, which gives np.median's bits
    with np.errstate(over="ignore"):  # np.median's mean of two may overflow
        expected = float(np.median(rhos))
    assert statistics.median(rhos).hex() == expected.hex()


def test_estimate_constants_example3d():
    problem = build("example3d")
    c = estimate_constants(problem, r_sample=0.5)
    assert c.M == pytest.approx(1.0, abs=1e-12)  # identity Jacobian at the root
    assert c.beta == pytest.approx(1.0, abs=1e-12)
    assert c.delta == 0.0
    # the Jacobian variation constant for this map is 1 (dominated by e^z)
    assert c.k == pytest.approx(1.0, rel=2e-2)
    assert c.r == 0.5
    assert c.r_tilde > (1.0 + c.M + c.k * c.r) * c.r * (1.0 - 1e-12)


def test_estimate_constants_affine_has_zero_k():
    c = estimate_constants(build("affine"), r_sample=1.0)
    assert c.k <= 1e-9


def test_estimate_constants_denser_sampling_refines_k():
    problem = build("academic", epsilon=3.0)
    coarse = estimate_constants(problem, r_sample=0.5, n_samples=200)
    dense = estimate_constants(problem, r_sample=0.5, n_samples=2000)
    # the sample maximum can only grow along the same low-discrepancy stream,
    # and 200 points already get within 25%
    assert dense.k >= coarse.k - 1e-15
    assert dense.k <= 1.25 * coarse.k


def test_estimate_constants_requires_solution_and_jacobian():
    bare = NonlinearProblem(dimension=1, eval=lambda x: x, name="bare")
    with pytest.raises(ValueError, match="needs a known root"):
        estimate_constants(bare, r_sample=0.5)
    rooted = dataclasses.replace(bare, known_solution=np.zeros(1))
    with pytest.raises(ValueError, match="needs an analytic Jacobian"):
        estimate_constants(rooted, r_sample=0.5)
    # A pair of 7-vectors needs 14 Halton bases, past the 12 built in; the
    # map is refused before F or F' is called.
    calls = []
    identity7 = NonlinearProblem(
        dimension=7,
        eval=lambda x: calls.append("F") or x,
        analytic_jacobian=lambda x: calls.append("J") or np.eye(7),
        known_solution=np.zeros(7),
        name="identity7",
    )
    with pytest.raises(ValueError, match="dimension too large for the built-in Halton bases"):
        estimate_constants(identity7, r_sample=0.5)
    assert calls == []


def _halton(index, base):
    # The radical inverse of one index, digit by digit.
    result = 0.0
    f = 1.0 / base
    i = index
    while i > 0:
        result += f * (i % base)
        i //= base
        f /= base
    return result


def test_halton_table_matches_the_scalar_sequence():
    n = 5000
    table = _halton_table(n, len(_PRIMES))
    scalar = np.array([[_halton(i, base) for base in _PRIMES] for i in range(1, n + 1)])
    assert np.array_equal(table, scalar)


def test_halton_table_is_built_once_and_read_only():
    table = _halton_table(8, 6)
    assert _halton_table(8, 6) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 0.5


def _counted_example3d(calls):
    problem = build("example3d")
    return NonlinearProblem(
        dimension=3,
        eval=lambda w: calls.append(1) or problem.eval(w),
        analytic_jacobian=problem.analytic_jacobian,
        known_solution=problem.known_solution,
        name="counted-example3d",
    )


@pytest.mark.parametrize("r_sample", [0.0, -1.0, math.inf, math.nan])
def test_estimate_constants_rejects_a_bad_radius_before_sampling(r_sample):
    calls = []
    with pytest.raises(ValueError, match="r_sample must be finite and positive"):
        estimate_constants(_counted_example3d(calls), r_sample=r_sample)
    assert calls == []


@pytest.mark.parametrize("n_samples", [0, -5, 2.5, True, "200"])
def test_estimate_constants_rejects_a_bad_sample_count_before_sampling(n_samples):
    # zero samples would report k = 0, as if F were affine
    calls = []
    with pytest.raises(ValueError, match="n_samples must be an integer >= 1"):
        estimate_constants(_counted_example3d(calls), r_sample=0.5, n_samples=n_samples)
    assert calls == []


def test_estimate_constants_one_sample_costs_one_staircase():
    calls = []
    c = estimate_constants(_counted_example3d(calls), r_sample=0.5, n_samples=1)
    assert len(calls) == 4  # m + 1 staircase points for m = 3
    assert c.k > 0.0


def _reference_constants(problem, r_sample, n_samples=200):
    # estimate_constants as it was written before its samples became one
    # array program: one divided difference and one max_norm_mat per sample.
    root = np.asarray(problem.known_solution, dtype=float)
    m = problem.dimension
    jac_root = problem_jacobian(problem, root)
    big_m = max_norm_mat(jac_root)
    u = mosteff.analysis._halton_table(n_samples, 2 * m)
    xs = root + r_sample * (2.0 * u[:, :m] - 1.0)
    ys = root + r_sample * (2.0 * u[:, m:] - 1.0)
    denoms = (np.maximum.reduce(np.abs(xs - root), axis=1)
              + np.maximum.reduce(np.abs(ys - root), axis=1)).tolist()
    k_best = 0.0
    for x, y, denom in zip(xs, ys, denoms):
        if denom == 0.0:
            continue
        dd = divided_difference(problem, x, y)
        k_best = max(k_best, max_norm_mat(dd - jac_root) / denom)
    beta = max_norm_mat(invert(jac_root))
    r_tilde = (1.0 + big_m + k_best * r_sample) * r_sample * (1.0 + 1e-6)
    return ConvergenceConstants(M=big_m, k=k_best, beta=beta, delta=0.0, r=r_sample, r_tilde=r_tilde)


def _logged_problem(problem):
    # problem whose F, F' and domain check append (kind, point) to the
    # returned log
    log = []

    def logged(kind, fn):
        return lambda x: log.append((kind, np.array(x))) or fn(x)

    domain = problem.domain_check
    return dataclasses.replace(
        problem,
        eval=logged("F", problem.eval),
        analytic_jacobian=logged("J", problem.analytic_jacobian),
        domain_check=None if domain is None else logged("domain", domain),
    ), log


def _estimate_like_reference(problem, r_sample, n_samples):
    # Both estimates, bit for bit in every field, from the same F and F'
    # calls in the same order; or the same error after the same calls.
    results, logs = [], []
    for estimate in (estimate_constants, _reference_constants):
        logged, log = _logged_problem(problem)
        try:
            results.append(estimate(logged, r_sample, n_samples))
        except MosteffError as exc:
            results.append(exc)
        logs.append(log)
    new, old = results
    if isinstance(old, MosteffError):
        assert type(new) is type(old) and str(new) == str(old)
    else:
        assert [(type(a), a.hex()) for a in dataclasses.astuple(new)] == [
            (type(b), b.hex()) for b in dataclasses.astuple(old)
        ]
    assert [kind for kind, _ in logs[0]] == [kind for kind, _ in logs[1]]
    assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(*logs))
    return new, logs[0]


REFERENCE_PROBLEMS = {
    "example3d": build("example3d"),
    "academic-1": build("academic", epsilon=1.0),
    "academic-3": build("academic", epsilon=3.0),
    "affine": build("affine"),
}


@pytest.mark.parametrize("n_samples", [1, 7, 200, 600])
@pytest.mark.parametrize("r_sample", [0.05, 0.2, 0.5, 1.0])
@pytest.mark.parametrize("name", list(REFERENCE_PROBLEMS))
def test_estimate_constants_matches_the_per_sample_reference(name, r_sample, n_samples):
    c, log = _estimate_like_reference(REFERENCE_PROBLEMS[name], r_sample, n_samples)
    m = REFERENCE_PROBLEMS[name].dimension
    assert [kind for kind, _ in log].count("F") == n_samples * (m + 1)


def _coincident_table(monkeypatch):
    # Rows 2, 5 and 6 pair one, two adjacent and all coordinates; row 3
    # puts both points at the root, a sample without a ratio.
    table = _halton_table(8, 6).copy()  # the cached table is read-only
    table[2, 4] = table[2, 1]
    table[5, 3:5] = table[5, 0:2]
    table[6, 3:] = table[6, :3]
    table[3] = 0.5
    monkeypatch.setattr(mosteff.analysis, "_halton_table", lambda n, dims: table[:n, :dims].copy())


def test_estimate_constants_matches_the_reference_on_coincident_samples(monkeypatch):
    _coincident_table(monkeypatch)
    c, log = _estimate_like_reference(build("example3d"), 0.3, 8)
    assert c.k > 0.0
    assert "J" in [kind for kind, _ in log[1:]]  # coincident columns read F'


@pytest.mark.parametrize("r_sample, evaluations", [(1.5, 0), (1.1, 19), (1.01, 192)])
def test_estimate_constants_fails_like_the_reference(r_sample, evaluations):
    # Past r = 1 the staircases leave example3d's open unit ball: at 1.5 the
    # first point is outside, at 1.1 and 1.01 a later one.
    error, log = _estimate_like_reference(build("example3d"), r_sample, 200)
    assert isinstance(error, DomainViolation)
    assert [kind for kind, _ in log].count("F") == evaluations


def _raise(exc_type):
    def misbehave(value):
        raise exc_type("misbehaving F")
    return misbehave


# What F returns in place of its value from its k-th call on, or raises
MISBEHAVING_F = {
    "nan": lambda v: np.full(np.shape(v), math.nan),
    "inf": lambda v: np.full(np.shape(v), math.inf),
    "wrong-shape": lambda v: np.append(v, 1.0),
    "complex": lambda v: np.add(v, 1j),
    "ValueError": _raise(ValueError),
    "TypeError": _raise(TypeError),
}


def _misbehaving_from(problem, first, misbehave):
    calls = [0]

    def f(x):
        calls[0] += 1
        value = problem.eval(x)
        return misbehave(value) if calls[0] >= first else value
    return dataclasses.replace(problem, eval=f)


# The sample tables of the misbehaving-F test: the coincident one sends
# every sample to divided_difference, the Halton one as it is sends the
# 32 staircase points of its 8 samples to evaluate_batch as one block.
SAMPLE_TABLES = {"coincident": _coincident_table, "plain": lambda monkeypatch: None}


@pytest.mark.parametrize("table", sorted(SAMPLE_TABLES))
@pytest.mark.parametrize("first", [1, 2, 5, 8, 9, 12, 15, 18])
@pytest.mark.parametrize("kind", sorted(MISBEHAVING_F))
def test_estimate_constants_with_a_misbehaving_f_fails_like_the_reference(monkeypatch, kind, first, table):
    # The same error, after the reference's F, F' and domain-check calls in
    # the same order.  With a coincident sample the calls are the
    # reference's exactly.  Without one, the block's F is called at every
    # row before its finiteness is tested, so after a non-finite value the
    # call log may run on to the end of the block, never past.
    SAMPLE_TABLES[table](monkeypatch)
    batches = []  # (length of estimate_constants' log, rows) at each evaluate_batch call
    batch = mosteff.divdiff.evaluate_batch

    def spy(problem, points):
        batches.append((len(log), len(points)))
        return batch(problem, points)
    monkeypatch.setattr(mosteff.divdiff, "evaluate_batch", spy)
    results, logs = [], []
    for estimate in (estimate_constants, _reference_constants):
        logged, log = _logged_problem(_misbehaving_from(build("example3d"), first, MISBEHAVING_F[kind]))
        try:
            estimate(logged, 0.3, 8)
        except (MosteffError, TypeError) as exc:
            results.append(exc)
        logs.append(log)
    new, old = results
    assert type(new) is type(old) and str(new) == str(old)
    new_log, old_log = logs
    assert [k for k, _ in new_log[:len(old_log)]] == [k for k, _ in old_log]
    assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(new_log, old_log))
    if table == "coincident":
        assert batches == [] and len(new_log) == len(old_log)
    else:
        [(start, rows)] = batches
        assert rows == 32
        if len(new_log) > len(old_log):
            assert kind in ("nan", "inf")
            assert start < len(old_log) < len(new_log) <= start + 2 * rows  # a domain check and F per row
            assert {k for k, _ in new_log[len(old_log):]} == {"domain", "F"}


def _overflowing_f(w):
    # F(x) = (x_0, x_1) near the root and (x_0, 1e309 x_1) where |x_1| > 0.1,
    # formed as numpy products that overflow for |x_1| > 0.18
    return np.array([w[0], w[1] * 1e308 * 10.0 if abs(w[1]) > 0.1 else w[1]])


OVERFLOWING = NonlinearProblem(dimension=2, eval=_overflowing_f, analytic_jacobian=lambda w: np.eye(2),
                               known_solution=np.zeros(2), name="overflowing")


def test_estimate_constants_reports_an_overflowing_f_as_non_finite():
    # The suite turns the RuntimeWarning of the overflow into an error;
    # estimate_constants silences it, as run does, and names the value.
    with pytest.raises(NonFiniteEvaluation, match="has non-finite entries"):
        estimate_constants(OVERFLOWING, 0.5)
    assert run(OVERFLOWING, (0.5, 0.5), SolverConfig(method="newton")).outcome == "diverged"
