import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mosteff.rk as rk
from mosteff.chapman import inner_config
from mosteff.divdiff import evaluate
from mosteff.errors import InnerSolverFailed, InvalidEvaluation, NonFiniteState
from mosteff.rk import (
    ODEProblem,
    RKTableau,
    collocation_tableau,
    gauss_nodes,
    integrate,
    stage_problem,
)

INNER = inner_config()


def decay(lam=-1.0):
    return ODEProblem(
        rhs=lambda t, y: lam * y,
        y0=np.array([1.0]),
        t_span=(0.0, 1.0),
    )


def test_gauss_nodes():
    root3 = math.sqrt(3.0)
    assert gauss_nodes(1) == pytest.approx([0.5])
    assert gauss_nodes(2) == pytest.approx([0.5 - root3 / 6.0, 0.5 + root3 / 6.0], abs=1e-15)
    c3 = gauss_nodes(3)
    assert c3 == pytest.approx([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0], abs=1e-15)
    with pytest.raises(ValueError, match="gauss_nodes supports s in"):
        gauss_nodes(4)


def test_gauss2_tableau_closed_form():
    tab = collocation_tableau(gauss_nodes(2))
    root3 = math.sqrt(3.0)
    expected_a = np.array(
        [[0.25, 0.25 - root3 / 6.0], [0.25 + root3 / 6.0, 0.25]]
    )
    assert np.max(np.abs(tab.A - expected_a)) <= 1e-12
    assert np.max(np.abs(tab.b - np.array([0.5, 0.5]))) <= 1e-12


def test_gauss1_is_implicit_midpoint():
    tab = collocation_tableau(gauss_nodes(1))
    assert np.allclose(tab.A, [[0.5]], atol=1e-15)
    assert np.allclose(tab.b, [1.0], atol=1e-15)


def test_lobatto_nodes_tableau():
    # collocation at {0, 1} is the trapezoidal pair
    tab = collocation_tableau([0.0, 1.0])
    assert np.allclose(tab.A, [[0.0, 0.0], [0.5, 0.5]], atol=1e-13)
    assert np.allclose(tab.b, [0.5, 0.5], atol=1e-13)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_tableau_invariants(s):
    tab = collocation_tableau(gauss_nodes(s))
    assert np.sum(tab.b) == pytest.approx(1.0, abs=1e-12)
    for i in range(s):
        assert np.sum(tab.A[i]) == pytest.approx(tab.c[i], abs=1e-12)


def test_duplicate_nodes_rejected():
    with pytest.raises(ValueError, match="coincide"):
        collocation_tableau([0.3, 0.3 + 1e-14])


def test_tableau_rejects_duplicate_nodes_by_value():
    with pytest.raises(ValueError, match="nodes 0.5 and 0.5 coincide"):
        RKTableau(c=(0.5, 0.5), A=np.full((2, 2), 0.25), b=np.array([0.5, 0.5]))


def test_tableau_validation():
    with pytest.raises(ValueError):
        RKTableau(c=(0.0, 1.0), A=np.zeros((2, 2)), b=np.array([0.5, 0.5]))  # row sums != c
    # a NaN node, entry of A or weight fails the sum tests
    with pytest.raises(ValueError, match="row sums of A must equal the nodes"):
        RKTableau(c=(math.nan,), A=[[0.5]], b=[1.0])
    with pytest.raises(ValueError, match="row sums of A must equal the nodes"):
        RKTableau(c=(0.5,), A=[[math.nan]], b=[1.0])
    with pytest.raises(ValueError, match="weights must sum to 1"):
        RKTableau(c=(0.5,), A=[[0.5]], b=[math.nan])
    for a, b in (([[0.5, 0.0], [0.0, 0.5]], [1.0]), ([[0.5]], [0.5, 0.5])):
        with pytest.raises(ValueError, match="tableau shapes inconsistent with the number of nodes"):
            RKTableau(c=(0.5,), A=a, b=b)
    with pytest.raises(ValueError, match="need at least one node"):
        collocation_tableau(())


def test_linear_step_matches_stability_function():
    # one step on y' = lambda y multiplies by
    # R(z) = (1 + z/2 + z^2/12) / (1 - z/2 + z^2/12)
    tab = collocation_tableau(gauss_nodes(2))
    h, lam = 0.1, -1.0
    y1 = integrate(dataclasses.replace(decay(lam), t_span=(0.0, h)), tab, h, INNER).y[-1]
    z = h * lam
    expected = (1.0 + z / 2.0 + z * z / 12.0) / (1.0 - z / 2.0 + z * z / 12.0)
    assert y1[0] == pytest.approx(expected, abs=5e-15)
    assert expected == pytest.approx(0.9048374306106265, abs=1e-15)


def test_cosine_single_step_quadrature_error():
    # for y' = cos(t) the scheme reduces to 2-point Gauss quadrature; over one
    # step of h = 0.5 the quadrature error of sin(h) is h^5 f''''(xi) / 4320,
    # about 7e-6 here
    ode = ODEProblem(
        rhs=lambda t, y: np.array([math.cos(t)]),
        y0=np.array([0.0]),
        t_span=(0.0, 0.5),
    )
    tab = collocation_tableau(gauss_nodes(2))
    traj = integrate(ode, tab, 0.5, INNER)
    err = abs(traj.y[-1, 0] - math.sin(0.5))
    assert err <= 1e-5
    assert err >= 1e-7  # the error is real, not rounding


def test_richardson_order_four():
    tab = collocation_tableau(gauss_nodes(2))
    exact = math.exp(-1.0)
    errors = {}
    for h in (0.2, 0.1, 0.05):
        traj = integrate(decay(), tab, h, INNER)
        errors[h] = abs(traj.y[-1, 0] - exact)
    order_a = math.log(errors[0.2] / errors[0.1], 2.0)
    order_b = math.log(errors[0.1] / errors[0.05], 2.0)
    assert order_a == pytest.approx(4.0, abs=0.3)
    assert order_b == pytest.approx(4.0, abs=0.3)


def test_zero_field_constant_solution():
    ode = ODEProblem(
        rhs=lambda t, y: np.zeros(2),
        y0=np.array([3.0, -4.0]),
        t_span=(0.0, 1.0),
    )
    tab = collocation_tableau(gauss_nodes(2))
    traj = integrate(ode, tab, 0.25, INNER)
    assert traj.y.shape == (5, 2)
    assert np.array_equal(traj.y, np.tile([3.0, -4.0], (5, 1)))


def test_step_must_divide_span():
    with pytest.raises(ValueError, match="does not divide the span"):
        integrate(decay(), collocation_tableau(gauss_nodes(2)), 0.3, INNER)


@pytest.mark.parametrize("h, t_span, message", [
    (1e-300, (0.0, 1e300), "does not divide the span"),  # span / h overflows
    (0.0, (0.0, 1.0), "step h = 0.0 must be finite and nonzero"),
    (math.nan, (0.0, 1.0), "step h = nan must be finite and nonzero"),
    (math.inf, (0.0, 1.0), "step h = inf must be finite and nonzero"),
    (0.25, (0.0, math.nan), "t_span .* must have finite ends"),
    (0.25, (0.0, math.inf), "t_span .* must have finite ends"),
    (0.25, (-math.inf, 1.0), "t_span .* must have finite ends"),
])
def test_integrate_rejects_a_non_finite_or_zero_step_or_span(h, t_span, message):
    ode = dataclasses.replace(decay(), t_span=t_span)
    with pytest.raises(ValueError, match=message):
        integrate(ode, collocation_tableau(gauss_nodes(2)), h, INNER)


def test_time_grid_is_exact():
    traj = integrate(decay(), collocation_tableau(gauss_nodes(2)), 0.125, INNER)
    assert traj.t[0] == 0.0
    assert traj.t[-1] == 1.0
    assert np.array_equal(traj.t, np.arange(9) * 0.125)


def test_nonfinite_rhs_detected():
    ode = ODEProblem(
        rhs=lambda t, y: np.array([math.nan]),
        y0=np.array([1.0]),
        t_span=(0.0, 1.0),
    )
    with pytest.raises(NonFiniteState):
        integrate(ode, collocation_tableau(gauss_nodes(2)), 0.25, INNER)


@pytest.mark.parametrize("method", ["newton", "moser_steffensen"])
def test_wrong_shaped_rhs_is_named_at_its_first_call(method):
    # a rhs value not shaped like y is an invalid evaluation of the rhs at
    # t = 0, not a dimension error of the stage problem built from it
    ode = ODEProblem(
        rhs=lambda t, y: np.array([1.0, 2.0]),
        y0=np.array([1.0]),
        t_span=(0.0, 1.0),
    )
    with pytest.raises(InvalidEvaluation, match=r"rhs at t=0\.0 has shape \(2,\), expected \(1,\)"):
        integrate(ode, collocation_tableau(gauss_nodes(2)), 0.25, inner_config(method))


@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
@pytest.mark.parametrize("method", ["newton", "moser_steffensen"])
def test_complex_rhs_is_an_invalid_evaluation(method):
    # the real part alone would integrate y' = -y without complaint
    ode = ODEProblem(rhs=lambda t, y: -y + 1j, y0=np.array([1.0]), t_span=(0.0, 1.0))
    with pytest.raises(InvalidEvaluation, match=r"rhs at t=0\.0 is complex"):
        integrate(ode, collocation_tableau(gauss_nodes(2)), 0.25, inner_config(method))


@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
def test_complex_rhs_at_a_stage_is_an_invalid_evaluation():
    # complex only past t = 0, so the step's first rhs value passes and the
    # stage residual meets the complex one
    ode = ODEProblem(rhs=lambda t, y: -y + (1j if t > 0.0 else 0.0), y0=np.array([1.0]),
                     t_span=(0.0, 1.0))
    tab = collocation_tableau(gauss_nodes(2))
    problem = stage_problem(ode, tab, 0.0, np.array([1.0]), 0.25, np.ones(2))
    with pytest.raises(InvalidEvaluation, match="rhs at the stages of t=0.0 is complex"):
        evaluate(problem, np.zeros(2))


def test_complex_y0_is_rejected():
    # the real part alone would integrate to exp(-1)
    ode = ODEProblem(rhs=lambda t, y: -y, y0=np.array([1.0 + 2j]), t_span=(0.0, 1.0))
    with pytest.raises(ValueError, match="complex"):
        integrate(ode, collocation_tableau(gauss_nodes(2)), 0.25, INNER)


@pytest.mark.parametrize("y0", [[math.nan], [1.0, math.inf]])
def test_non_finite_y0_is_rejected(y0):
    # before any rhs call, which would be blamed for the non-finite value
    def rhs(t, y):
        raise AssertionError("rhs called")

    ode = ODEProblem(rhs=rhs, y0=np.array(y0), t_span=(0.0, 1.0))
    with pytest.raises(ValueError, match="y0 = .* has non-finite entries"):
        integrate(ode, collocation_tableau(gauss_nodes(2)), 0.25, INNER)


@pytest.mark.parametrize("error", [ValueError, ZeroDivisionError, OverflowError])
@pytest.mark.parametrize("method", ["newton", "moser_steffensen"])
def test_raising_rhs_is_an_invalid_evaluation(method, error):
    # the step's first rhs call maps the error as a stage evaluation does
    def rhs(t, y):
        raise error("no value here")

    ode = ODEProblem(rhs=rhs, y0=np.array([1.0]), t_span=(0.0, 1.0))
    with pytest.raises(InvalidEvaluation, match=r"rhs at t=0\.0 raised"):
        integrate(ode, collocation_tableau(gauss_nodes(2)), 0.25, inner_config(method))


# Values of y' = -y for m = 2 misshaped at the stage times alone: with
# h = 0.25 the grid and the step midpoints, which the fresh stage inverse
# reads, are multiples of 1/8, and the Gauss-2 stage times are not.
MISSHAPED_AT_STAGES = {
    "m-by-1": lambda f: f.reshape(2, 1),
    "1-by-m": lambda f: f.reshape(1, 2),
    "m+1": lambda f: np.append(f, 0.0),
}


@pytest.mark.parametrize("shape", sorted(MISSHAPED_AT_STAGES))
@pytest.mark.parametrize("method", ["newton", "moser_steffensen"])
def test_rhs_misshaped_at_the_stages_ends_typed(method, shape):
    def rhs(t, y):
        return -y if (8.0 * t).is_integer() else MISSHAPED_AT_STAGES[shape](-y)

    ode = ODEProblem(rhs=rhs, y0=np.array([1.0, 0.5]), t_span=(0.0, 1.0))
    with pytest.raises((InnerSolverFailed, InvalidEvaluation)) as raised:
        integrate(ode, collocation_tableau(gauss_nodes(2)), 0.25, inner_config(method))
    if raised.type is InnerSolverFailed:
        assert str(raised.value).endswith("invalid_evaluation")


def test_state_that_overflows_in_a_step_is_non_finite():
    # every rate is finite, but y + h * (b . K) = 10 * 1e308 is not
    ode = ODEProblem(rhs=lambda t, y: [1e308], y0=np.array([0.0]), t_span=(0.0, 10.0))
    with pytest.raises(NonFiniteState, match=r"state non-finite after step 0 \(t=10\)"):
        integrate(ode, collocation_tableau(gauss_nodes(2)), 10.0, INNER)


def test_nonfinite_rhs_mid_run_surfaces_as_typed_error():
    # the field turns infinite partway through; depending on whether the
    # warm-started inverse or a fresh linearization meets it first, either
    # typed error is the honest outcome -- silent NaN propagation is not
    ode = ODEProblem(
        rhs=lambda t, y: np.array([math.inf if t > 0.4 else -y[0]]),
        y0=np.array([1.0]),
        t_span=(0.0, 1.0),
    )
    with pytest.raises((NonFiniteState, InnerSolverFailed)):
        integrate(ode, collocation_tableau(gauss_nodes(2)), 0.25, INNER)


def test_inner_iteration_accounting():
    traj = integrate(decay(), collocation_tableau(gauss_nodes(2)), 0.1, INNER)
    assert len(traj.inner_iterations) == 10
    assert all(n >= 1 for n in traj.inner_iterations)
    # on a smooth linear problem the warm-started inverse needs no rebuilds
    # beyond the very first factorization
    assert traj.b0_rebuilds <= 1


def test_stiff_scalar_decay_is_stable():
    # hz = -50: far outside any explicit method's stability region
    ode = ODEProblem(
        rhs=lambda t, y: -500.0 * y,
        y0=np.array([1.0]),
        t_span=(0.0, 1.0),
    )
    traj = integrate(ode, collocation_tableau(gauss_nodes(2)), 0.1, INNER)
    assert np.all(np.abs(traj.y) <= 1.0)
    assert np.all(np.isfinite(traj.y))


def test_newton_and_derivative_free_inner_agree():
    ode = ODEProblem(
        rhs=lambda t, y: np.array([y[1], -y[0] - 0.1 * y[1] ** 3]),
        y0=np.array([1.0, 0.0]),
        t_span=(0.0, 2.0),
    )
    tab = collocation_tableau(gauss_nodes(2))
    a = integrate(ode, tab, 0.125, inner_config("newton"))
    b = integrate(ode, tab, 0.125, inner_config("moser_steffensen"))
    assert np.max(np.abs(a.y - b.y)) <= 1e-10


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SLOPE_AND_STATE = st.integers(1, 4).flatmap(
    lambda m: st.tuples(st.lists(_FINITE, min_size=m, max_size=m), st.lists(_FINITE, min_size=m, max_size=m)))


@settings(max_examples=500)
@given(_SLOPE_AND_STATE, _FINITE.filter(lambda h: h != 0.0), st.integers(1, 3))
@example(([-0.0, 5e-324, 1.7e308], [0.0, -2.2e-308, -1.7e308]), -1e-300, 2)
@example(([1e308, -1e308], [-0.0, 1.7976931348623157e308]), 0.5, 3)
@example(([-3.0, 0.5], [-4.0, 2.0]), -2.0, 1)
def test_stage_start_equals_the_array_formula_bit_for_bit(slope_and_state, h, s):
    f0, y = (np.array(values) for values in slope_and_state)
    scale, guess = rk._stage_start(f0, y, h, s)
    with np.errstate(over="ignore"):  # |y| / |h| may overflow to inf, in the step too
        stage_scale = np.maximum(1.0, np.maximum(np.abs(f0), np.abs(y) / abs(h)))
    expected = (np.concatenate((stage_scale,) * s), np.concatenate((f0 / stage_scale,) * s))
    for got, want in zip((scale, guess), expected):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
