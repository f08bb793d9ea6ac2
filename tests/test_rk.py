import dataclasses
import math

import numpy as np
import pytest

from mosteff.chapman import inner_config
from mosteff.divdiff import evaluate
from mosteff.errors import InvalidEvaluation, NonFiniteState
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
        dimension=1,
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
        RKTableau(s=2, c=(0.5, 0.5), A=np.full((2, 2), 0.25), b=np.array([0.5, 0.5]))


def test_tableau_validation():
    with pytest.raises(ValueError):
        RKTableau(s=2, c=(0.0, 1.0), A=np.zeros((2, 2)), b=np.array([0.5, 0.5]))  # row sums != c


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
        dimension=1,
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
        dimension=2,
        rhs=lambda t, y: np.zeros(2),
        y0=np.array([3.0, -4.0]),
        t_span=(0.0, 1.0),
    )
    tab = collocation_tableau(gauss_nodes(2))
    traj = integrate(ode, tab, 0.25, INNER)
    assert traj.y.shape == (5, 2)
    assert np.array_equal(traj.y, np.tile([3.0, -4.0], (5, 1)))


def test_step_must_divide_span():
    with pytest.raises(ValueError):
        integrate(decay(), collocation_tableau(gauss_nodes(2)), 0.3, INNER)


@pytest.mark.parametrize("dimension, y0", [(2, [1.0]), (1, [1.0, 2.0])], ids=["y0-short", "y0-long"])
def test_y0_must_fit_the_dimension(dimension, y0):
    calls = []
    ode = ODEProblem(dimension=dimension, rhs=lambda t, y: calls.append(t) or -y, y0=np.array(y0),
                     t_span=(0.0, 1.0))
    with pytest.raises(ValueError, match=f"y0 has dimension {len(y0)}, the ODE needs {dimension}"):
        integrate(ode, collocation_tableau(gauss_nodes(2)), 0.25, INNER)
    assert calls == []


def test_time_grid_is_exact():
    traj = integrate(decay(), collocation_tableau(gauss_nodes(2)), 0.125, INNER)
    assert traj.t[0] == 0.0
    assert traj.t[-1] == 1.0
    assert np.array_equal(traj.t, np.arange(9) * 0.125)


def test_nonfinite_rhs_detected():
    ode = ODEProblem(
        dimension=1,
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
        dimension=1,
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
    ode = ODEProblem(dimension=1, rhs=lambda t, y: -y + 1j, y0=np.array([1.0]), t_span=(0.0, 1.0))
    with pytest.raises(InvalidEvaluation, match=r"rhs at t=0\.0 is complex"):
        integrate(ode, collocation_tableau(gauss_nodes(2)), 0.25, inner_config(method))


@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
def test_complex_rhs_at_a_stage_is_an_invalid_evaluation():
    # complex only past t = 0, so the step's first rhs value passes and the
    # stage residual meets the complex one
    ode = ODEProblem(dimension=1, rhs=lambda t, y: -y + (1j if t > 0.0 else 0.0), y0=np.array([1.0]),
                     t_span=(0.0, 1.0))
    tab = collocation_tableau(gauss_nodes(2))
    problem = stage_problem(ode, tab, 0.0, np.array([1.0]), 0.25, np.ones(2))
    with pytest.raises(InvalidEvaluation, match="rhs at the stages of t=0.0 is complex"):
        evaluate(problem, np.zeros(2))


def test_nonfinite_rhs_mid_run_surfaces_as_typed_error():
    # the field turns infinite partway through; depending on whether the
    # warm-started inverse or a fresh linearization meets it first, either
    # typed error is the honest outcome -- silent NaN propagation is not
    from mosteff.errors import InnerSolverFailed

    ode = ODEProblem(
        dimension=1,
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
        dimension=1,
        rhs=lambda t, y: -500.0 * y,
        y0=np.array([1.0]),
        t_span=(0.0, 1.0),
    )
    traj = integrate(ode, collocation_tableau(gauss_nodes(2)), 0.1, INNER)
    assert np.all(np.abs(traj.y) <= 1.0)
    assert np.all(np.isfinite(traj.y))


def test_newton_and_derivative_free_inner_agree():
    ode = ODEProblem(
        dimension=2,
        rhs=lambda t, y: np.array([y[1], -y[0] - 0.1 * y[1] ** 3]),
        y0=np.array([1.0, 0.0]),
        t_span=(0.0, 2.0),
    )
    tab = collocation_tableau(gauss_nodes(2))
    a = integrate(ode, tab, 0.125, inner_config("newton"))
    b = integrate(ode, tab, 0.125, inner_config("moser_steffensen"))
    assert np.max(np.abs(a.y - b.y)) <= 1e-10
