import dataclasses
import math

import numpy as np
import pytest

from mosteff.chapman import (
    ACCEPTED_STEP,
    DEFAULT_STEP,
    SECONDS_PER_DAY,
    ChapmanParams,
    chapman_problem,
    day_summaries,
    inner_config,
    photolysis_rate,
)
from mosteff.errors import NonFiniteState
from mosteff.rk import Trajectory, collocation_tableau, gauss_nodes, integrate

PARAMS = ChapmanParams()
TABLEAU = collocation_tableau(gauss_nodes(2))


def test_default_parameters():
    assert PARAMS.y3 == 3.7e16
    assert PARAMS.k1 == 1.63e-16
    assert PARAMS.k2 == 4.66e-16
    assert PARAMS.omega == pytest.approx(math.pi / 43200.0, rel=1e-15)
    assert PARAMS.rate_sign == "benchmark"


def test_params_validation():
    with pytest.raises(ValueError):
        ChapmanParams(rate_sign="sometimes")
    with pytest.raises(ValueError):
        ChapmanParams(k1=0.0)


def test_photolysis_noon_benchmark():
    # at noon sin(omega t) = 1, so k3 = exp(-a3)
    assert photolysis_rate(PARAMS, PARAMS.a3, 21600.0) == pytest.approx(math.exp(-22.62), rel=1e-12)
    assert photolysis_rate(PARAMS, PARAMS.a3, 21600.0) == pytest.approx(1.50058e-10, rel=1e-5)


def test_photolysis_noon_literal():
    literal = ChapmanParams(rate_sign="literal")
    value = photolysis_rate(literal, literal.a3, 21600.0)
    # exp(+22.62) = 6.664e9: the rate constant itself exceeds any physical
    # frequency, which is why this sign convention blows up the integration
    assert value == pytest.approx(math.exp(22.62), rel=1e-12)
    assert value == pytest.approx(6.664095017e9, rel=1e-9)


def test_photolysis_at_sunset_grid_point():
    # sin(omega * 43200) is ~1.2e-16, positive: the benchmark exponent
    # underflows to zero, the literal one overflows to inf
    assert photolysis_rate(PARAMS, PARAMS.a3, 43200.0) == 0.0
    literal = ChapmanParams(rate_sign="literal")
    assert photolysis_rate(literal, literal.a3, 43200.0) == math.inf


def test_photolysis_night_is_zero():
    for t in (0.0, 50000.0, 86400.0 - 1.0):
        assert photolysis_rate(PARAMS, PARAMS.a3, t) == 0.0
        assert photolysis_rate(PARAMS, PARAMS.a4, t) == 0.0


def test_rhs_night_hand_values():
    ode = chapman_problem()
    y = np.array([1.0e6, 1.0e12])
    dy = ode.rhs(0.0, y)
    loss = PARAMS.k1 * PARAMS.y3 + PARAMS.k2 * 1.0e12
    assert dy[0] == pytest.approx(-loss * 1.0e6, rel=1e-13)
    assert dy[1] == pytest.approx(PARAMS.k1 * 1.0e6 * PARAMS.y3 - PARAMS.k2 * 1.0e6 * 1.0e12, rel=1e-13)


def test_day_summaries_synthetic():
    t = np.linspace(0.0, 2.0 * SECONDS_PER_DAY, 9)
    y = np.zeros((9, 2))
    y[:, 0] = [0.0, 1.0, 5.0, 2.0, 0.5, 0.25, 9.0, 3.0, 1.0]
    y[:, 1] = [10.0, 11.0, 12.0, 13.0, 14.0, 13.5, 15.0, 16.0, 17.0]
    summaries = day_summaries(Trajectory(t=t, y=y, inner_iterations=(), b0_rebuilds=0))
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


def test_literal_sign_blows_up_quickly():
    ode = chapman_problem(ChapmanParams(rate_sign="literal"))
    ode = dataclasses.replace(ode, t_span=(0.0, SECONDS_PER_DAY))
    with pytest.raises(NonFiniteState):
        integrate(ode, TABLEAU, DEFAULT_STEP, inner_config())


def test_steps_divide_windows():
    assert (SECONDS_PER_DAY / 2.0) % DEFAULT_STEP == 0.0
    assert (SECONDS_PER_DAY / 2.0) % ACCEPTED_STEP == 0.0
    assert ACCEPTED_STEP < DEFAULT_STEP


def test_inner_config_defaults():
    config = inner_config()
    assert config.method == "moser_steffensen"
    assert config.residual_tolerance == 1e-11
    assert config.diagnostics is False
    newton = inner_config("newton")
    assert newton.method == "newton"
