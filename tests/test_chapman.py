import dataclasses
import inspect
import json
import math

import numpy as np
import pytest

from mosteff.chapman import (
    A3,
    A4,
    ACCEPTED_STEP,
    DEFAULT_SPAN,
    K1,
    K2,
    OMEGA,
    SECONDS_PER_DAY,
    Y3,
    chapman_problem,
    day_summaries,
    inner_config,
    photolysis_rate,
)
import mosteff.rk as rk
import mosteff.solvers as solvers
from mosteff.cli import build_parser
from mosteff.errors import NonFiniteState
from mosteff.rk import ODEProblem, Trajectory, collocation_tableau, gauss_nodes, integrate, stage_problem
from tree_env import script_json

TABLEAU = collocation_tableau(gauss_nodes(2))


def test_default_parameters():
    assert Y3 == 3.7e16
    assert K1 == 1.63e-16
    assert K2 == 4.66e-16
    assert OMEGA == pytest.approx(math.pi / 43200.0, rel=1e-15)
    assert inspect.signature(chapman_problem).parameters["rate_sign"].default == "benchmark"


def test_params_validation():
    with pytest.raises(ValueError, match="rate_sign must be 'benchmark' or 'literal'"):
        chapman_problem(rate_sign="sometimes")


def test_photolysis_noon_benchmark():
    # at noon sin(omega t) = 1, so k3 = exp(-a3)
    assert photolysis_rate(A3, 21600.0) == pytest.approx(math.exp(-22.62), rel=1e-12)
    assert photolysis_rate(A3, 21600.0) == pytest.approx(1.50058e-10, rel=1e-5)


def test_photolysis_noon_literal():
    value = photolysis_rate(A3, 21600.0, "literal")
    # exp(+22.62) = 6.664e9: the rate constant itself exceeds any physical
    # frequency, which is why this sign convention blows up the integration
    assert value == pytest.approx(math.exp(22.62), rel=1e-12)
    assert value == pytest.approx(6.664095017e9, rel=1e-9)


def test_photolysis_at_sunset_grid_point():
    # sin(omega * 43200) is ~1.2e-16, positive: the benchmark exponent
    # underflows to zero, the literal one overflows to inf
    assert photolysis_rate(A3, 43200.0) == 0.0
    assert photolysis_rate(A3, 43200.0, "literal") == math.inf


def test_photolysis_night_is_zero():
    for t in (0.0, 50000.0, 86400.0 - 1.0):
        assert photolysis_rate(A3, t) == 0.0
        assert photolysis_rate(A4, t) == 0.0


def test_rhs_night_hand_values():
    ode = chapman_problem()
    y = np.array([1.0e6, 1.0e12])
    dy = ode.rhs(0.0, y)
    loss = K1 * Y3 + K2 * 1.0e12
    assert dy[0] == pytest.approx(-loss * 1.0e6, rel=1e-13)
    assert dy[1] == pytest.approx(K1 * 1.0e6 * Y3 - K2 * 1.0e6 * 1.0e12, rel=1e-13)


def _uncached_rhs(rate_sign, t, y):
    # the rhs formula with both rates computed afresh
    y1, y2 = y
    k3 = photolysis_rate(A3, t, rate_sign)
    k4 = photolysis_rate(A4, t, rate_sign)
    loss1 = K1 * Y3 + K2 * y2
    return np.array(
        [
            2.0 * k3 * Y3 + k4 * y2 - loss1 * y1,
            K1 * y1 * Y3 - (K2 * y1 + k4) * y2,
        ]
    )


@pytest.mark.parametrize("rate_sign", ["benchmark", "literal"])
def test_cached_rates_equal_the_formula_bit_for_bit(rate_sign):
    # every time one day of Gauss-2 steps evaluates the rhs at, visited
    # forwards and then backwards so that the small cache both hits and evicts
    ode = chapman_problem(rate_sign)
    h = ACCEPTED_STEP
    c = TABLEAU.c
    times = [step * h + offset for step in range(512) for offset in (0.0, c[0] * h, 0.5 * h, c[1] * h)]
    y = np.array([1.0e6, 1.0e12])
    overflowed = False
    with np.errstate(over="ignore", invalid="ignore"):
        for t in times + times[::-1]:
            expected = _uncached_rhs(rate_sign, t, y)
            overflowed |= not np.isfinite(expected).all()
            assert np.array_equal(ode.rhs(t, y), expected, equal_nan=True)
    assert overflowed == (rate_sign == "literal")


def _per_stage_residual(ode, tab, t, y, h, scale, k_scaled):
    # the stage residual G(K), stage by stage, as first written
    s, m = len(tab.c), y.size
    k = (k_scaled * scale).reshape(s, m)
    states = y + h * (tab.A @ k)
    out = np.empty((s, m))
    for i in range(s):
        out[i] = k[i] - np.asarray(ode.rhs(t + tab.c[i] * h, states[i]), dtype=float)
    return out.reshape(-1) / scale


@pytest.mark.parametrize("rate_sign", ["benchmark", "literal"])
def test_stacked_stage_residual_equals_the_per_stage_formula(rate_sign):
    # every step of one day at the accepted step, at slopes around the
    # step's starting guess
    ode = chapman_problem(rate_sign)
    h = ACCEPTED_STEP
    y = np.array([1.0e6, 1.0e12])
    rng = np.random.default_rng(7)
    with np.errstate(all="ignore"):
        for step in range(512):
            t = step * h
            f0 = ode.rhs(t, y)
            scale = np.maximum(1.0, np.maximum(np.abs(np.tile(f0, 2)), np.tile(np.abs(y), 2) / h))
            problem = stage_problem(ode, TABLEAU, t, y, h, scale)
            for k_scaled in (np.tile(f0, 2) / scale, rng.uniform(-2.0, 2.0, 4)):
                expected = _per_stage_residual(ode, TABLEAU, t, y, h, scale, k_scaled)
                assert np.array_equal(problem.eval(k_scaled), expected, equal_nan=True)


def test_problems_never_share_cached_rates():
    noon = SECONDS_PER_DAY / 4.0
    y = np.array([1.0e6, 1.0e12])
    a = chapman_problem("benchmark").rhs(noon, y)
    b = chapman_problem("literal").rhs(noon, y)
    assert np.array_equal(a, _uncached_rhs("benchmark", noon, y))
    assert np.array_equal(b, _uncached_rhs("literal", noon, y))
    assert not np.array_equal(a, b)


def test_day_summaries_synthetic():
    t = np.linspace(0.0, 2.0 * SECONDS_PER_DAY, 9)
    y = np.zeros((9, 2))
    y[:, 0] = [0.0, 1.0, 5.0, 2.0, 0.5, 0.25, 9.0, 3.0, 1.0]
    y[:, 1] = [10.0, 11.0, 12.0, 13.0, 14.0, 13.5, 15.0, 16.0, 17.0]
    summaries = day_summaries(Trajectory(t=t, y=y, inner_iterations=(), b0_rebuilds=0, b_updates=0))
    assert [s.day for s in summaries] == [1, 2]
    assert summaries[0].y1_max == 5.0
    assert summaries[0].t_y1_max == t[2]
    assert summaries[0].y2_rise == pytest.approx(4.0)
    assert summaries[1].y1_max == 9.0
    assert summaries[1].y2_min == 13.5
    assert summaries[1].y2_rise == pytest.approx(3.0)


def test_one_day_integration_qualitative():
    ode = chapman_problem()
    ode = dataclasses.replace(ode, t_span=(0.0, SECONDS_PER_DAY))
    traj = integrate(ode, TABLEAU, ACCEPTED_STEP, inner_config())
    assert np.all(np.isfinite(traj.y))
    assert np.all(traj.y > 0.0)
    (summary,) = day_summaries(traj)
    assert summary.y2_rise > 0.0  # daylight builds ozone
    assert summary.y1_max > 1e7  # morning spike in atomic oxygen
    assert 0.0 < summary.t_y1_max < 43200.0  # the spike happens before dusk


def test_a_mirrored_day_backwards_retraces_the_forward_day_bit_for_bit():
    # g(t, y) = -f(-t, y) integrated from 0 to -1 day with step -h takes the
    # states f takes from 0 to 1 day with step h: every stage time, slope and
    # divided difference is the forward one negated, as long as the stage
    # scale reads |h|, so the solves, their B updates and their stops agree
    forward_ode = dataclasses.replace(chapman_problem(), t_span=(0.0, SECONDS_PER_DAY))
    f = forward_ode.rhs
    mirrored = ODEProblem(rhs=lambda t, y: -np.asarray(f(-t, y)), y0=forward_ode.y0,
                          t_span=(0.0, -SECONDS_PER_DAY))
    forward = integrate(forward_ode, TABLEAU, ACCEPTED_STEP, inner_config())
    backward = integrate(mirrored, TABLEAU, -ACCEPTED_STEP, inner_config())
    assert np.array_equal(backward.t, -forward.t)
    assert np.array_equal(backward.y, forward.y)
    assert backward.inner_iterations == forward.inner_iterations
    assert (backward.b0_rebuilds, backward.b_updates, backward.forecast_stops) == (
        forward.b0_rebuilds, forward.b_updates, forward.forecast_stops)


def test_literal_sign_blows_up_quickly():
    ode = chapman_problem("literal")
    ode = dataclasses.replace(ode, t_span=(0.0, SECONDS_PER_DAY))
    with pytest.raises(NonFiniteState):
        integrate(ode, TABLEAU, ACCEPTED_STEP, inner_config())


def test_steps_divide_windows():
    # the command's default step divides the half-day and the 10-day span
    assert build_parser().parse_args(["chapman"]).h == ACCEPTED_STEP
    assert (SECONDS_PER_DAY / 2.0) % ACCEPTED_STEP == 0.0
    assert DEFAULT_SPAN[1] % ACCEPTED_STEP == 0.0


@pytest.mark.parametrize("t", [84.375, 430.0], ids=["zero", "subnormal"])
def test_a_rate_near_dawn_ignores_the_callers_errstate(t):
    # exp of an exponent below about -708.4 underflows, at t = 84.375 to 0
    # and at t = 430 (exponent -723.5) to a subnormal; a caller's
    # all="raise" leaves the bits of numpy's default state
    expected = photolysis_rate(A3, t)
    with np.errstate(all="raise"):
        got = photolysis_rate(A3, t)
    assert got.hex() == expected.hex()
    assert 0.0 <= got < np.finfo(float).smallest_normal
    assert (got > 0.0) == (t == 430.0)


def test_a_day_enters_numpy_errstate_once(monkeypatch):
    # integrate holds one np.errstate around its steps; each of its 512
    # stage solves sets its own through run's decorator, which numpy built
    # once, at import
    made = []

    class Counted(np.errstate):
        def __init__(self, **kwargs):
            made.append(kwargs)
            super().__init__(**kwargs)

    monkeypatch.setattr(np, "errstate", Counted)
    ode = dataclasses.replace(chapman_problem(), t_span=(0.0, SECONDS_PER_DAY))
    traj = integrate(ode, TABLEAU, ACCEPTED_STEP, inner_config())
    assert len(traj.inner_iterations) == 512
    assert made == [{"over": "ignore", "invalid": "ignore"}]


def test_inner_config_defaults():
    config = inner_config()
    assert config.method == "moser_steffensen"
    assert config.residual_tolerance == 1e-11
    newton = inner_config("newton")
    assert newton.method == "newton"


def _at_the_accepted_step(monkeypatch, inner=None, days=1):
    # integrate over `days` days, counting stage-residual evaluations
    evals = []
    build = rk.stage_problem

    def counted(*args):
        problem = build(*args)

        def g(k):
            evals.append(k)
            return problem.eval(k)

        return dataclasses.replace(problem, eval=g)

    ode = dataclasses.replace(chapman_problem(), t_span=(0.0, days * SECONDS_PER_DAY))
    with monkeypatch.context() as patch:
        patch.setattr(rk, "stage_problem", counted)
        traj = integrate(ode, TABLEAU, ACCEPTED_STEP, inner or inner_config())
    return traj, len(evals)


def test_stage_solves_run_lean_whatever_the_inner_config_says(monkeypatch):
    # every stage solve starts from the carried or a fresh linearized
    # inverse, so the integrator never calls make_b0 (None here would raise)
    # and reads no b0_strategy: a scaled identity there changes no bit
    monkeypatch.setattr(solvers, "make_b0", None)
    default, default_evals = _at_the_accepted_step(monkeypatch)
    other, other_evals = _at_the_accepted_step(
        monkeypatch, dataclasses.replace(inner_config(), b0_strategy=solvers.B0Strategy.scaled_identity(0.5)))
    assert other_evals == default_evals == 2109
    assert np.array_equal(other.y, default.y) and other.b_updates == default.b_updates


def test_forecast_halves_the_stage_evaluations(monkeypatch):
    # the carried linearized inverse converges the stage solves; the run
    # stops paying for B updates that the forecast says are not needed
    lazy, lazy_evals = _at_the_accepted_step(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "KAPPA", 0.0)  # no forecast: update on every step but the last
        eager, eager_evals = _at_the_accepted_step(monkeypatch)
    assert lazy_evals <= 5.0 * len(lazy.inner_iterations) < eager_evals
    assert sum(lazy.inner_iterations) <= 1.01 * sum(eager.inner_iterations)
    assert lazy.b0_rebuilds == eager.b0_rebuilds == 1
    assert lazy.b_updates < eager.b_updates
    assert np.all(lazy.y > 0.0)


def _ten_day_costs():
    with pytest.MonkeyPatch.context() as patch:
        traj, evals = _at_the_accepted_step(patch, days=10)
    return {"steps": len(traj.inner_iterations), "forecast_stops": traj.forecast_stops,
            "b_updates": traj.b_updates, "b0_rebuilds": traj.b0_rebuilds,
            "iterations": sum(traj.inner_iterations), "stage_residuals": evals}


def test_ten_days_cost_what_the_docstrings_quote():
    # rk's module docstring, chapman.inner_config and README quote these:
    # 3,270 forecast stops in 5,120 steps, 3.91 stage residuals, 2.0002
    # iterations and 0.36 B updates per step.  The counts follow the
    # rounding of the stage solves' small products, so they are taken in a
    # fresh process, where tree_env's BLAS kernel takes.
    assert script_json(__file__) == {"steps": 5120, "forecast_stops": 3270, "b_updates": 1851,
                                      "b0_rebuilds": 1, "iterations": 10241, "stage_residuals": 19997}


def test_forecast_stops_end_near_the_tolerance(monkeypatch):
    # a stage solve that ends on the forecast takes its last step without
    # evaluating the stage residual there; evaluated afterwards, that
    # residual is close to the tolerance, and the trajectory stays within
    # the benchmark oracle's tolerances of one whose every stop is measured
    ratios = []
    run = solvers.run

    def spy(problem, x0, config, b0=None, **kwargs):
        trace = run(problem, x0, config, b0, **kwargs)
        if trace.final.residual is None:
            residual = np.max(np.abs(problem.eval(trace.final.iterate)))
            ratios.append(residual / config.residual_tolerance)
        return trace

    def measured(*args, **kwargs):
        return run(*args, **{**kwargs, "forecast_stop": False})

    ode = dataclasses.replace(chapman_problem(), t_span=(0.0, SECONDS_PER_DAY))
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "run", spy)
        stopped = integrate(ode, TABLEAU, ACCEPTED_STEP, inner_config())
        patch.setattr(solvers, "run", measured)
        reference = integrate(ode, TABLEAU, ACCEPTED_STEP, inner_config())
    assert stopped.forecast_stops == len(ratios) > len(stopped.inner_iterations) / 2
    assert reference.forecast_stops == 0
    print(f"{len(ratios)} forecast stops; stage residual / tol: "
          f"median {np.median(ratios):.3g}, max {max(ratios):.3g}")
    # measured: median 0.14, max 1.77, two of 295 above the tolerance
    assert np.median(ratios) < 1.0 and max(ratios) < 10.0
    # bench/workloads.py's oracle bounds: y1 to 1e-3 of the noon peak, y2
    # to 1e-6 relative
    assert np.all(np.abs(stopped.y[:, 0] - reference.y[:, 0]) <= 1e-3 * np.max(reference.y[:, 0]))
    assert np.all(np.abs(stopped.y[:, 1] - reference.y[:, 1]) <= 1e-6 * np.abs(reference.y[:, 1]))


if __name__ == "__main__":
    print(json.dumps(_ten_day_costs()))
