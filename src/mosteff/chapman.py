"""Chapman ozone kinetics: the classic two-species stiff day/night benchmark.

State y = (y1, y2) = ([O], [O3]) in molecules/cm^3 with the molecular-oxygen
concentration y3 = [O2] frozen:

    y1' = 2 k3(t) y3 + k4(t) y2 - (k1 y3 + k2 y2) y1
    y2' = k1 y1 y3 - (k2 y1 + k4(t)) y2

The photolysis rates switch on only while sin(omega t) > 0 (daytime).  Two
exponent conventions are selectable: "literal" uses exp(+a_i/sin(omega t)),
which produces enormous daytime rates (k3 at noon ~ 6.7e9) and blows the
state up within the first days; "benchmark" uses the classical
exp(-a_i/sin(omega t)) and is the default for production runs.  The daytime
relaxation rate k1*y3 ~ 6 /s against step sizes of hundreds of seconds is
what makes the problem genuinely stiff.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .rk import ODEProblem, Trajectory
from .solvers import SolverConfig

SECONDS_PER_DAY = 86400.0
# The `chapman` command's default step: the largest half-day-aligned step
# at which the full 10-day benchmark with Gauss-2, the scheme the command
# runs, stays componentwise positive.  At twice this step, 337.5 s, the
# Gauss scheme's weak damping of the fast mode (|R(h*lambda)| ~ 0.994 at
# h*lambda ~ -2e3) leaves truncation ripple at y1's post-noon collapse floor
# that dips below zero from day 6.  The step is not accepted for Gauss-3:
# its first step at 168.75 s takes y1 to -9.77e5.
ACCEPTED_STEP = 168.75
DEFAULT_SPAN = (0.0, 8.64e5)  # ten days
DEFAULT_Y0 = (1.0e6, 1.0e12)
BENCHMARK_INNER_TOLERANCE = 1.0e-11
# exp(x) is a finite normal float for x from about -708.40 to 709.78;
# between these bounds it can neither overflow nor underflow.
_EXP_LOW, _EXP_HIGH = -708.0, 709.0


def inner_config(method="moser_steffensen"):
    """Stage-equation solver settings used for the benchmark integrations.

    rk.integrate does not read b0_strategy, so this config keeps
    SolverConfig's default.  A solve updates B only while its contraction
    does not forecast convergence with the B in hand; the carried
    linearized inverse already contracts the stage residual by about 1e-6
    per iteration, so most steps make no update (0.36 per step over the
    10-day run at ACCEPTED_STEP).  When that forecast fires before the
    tolerance is met, the solve takes one more step and ends there
    unmeasured: 3,270 of those 5,120 solves end so, for 3.91
    stage-residual evaluations per step in 2.0002 iterations.
    """
    return SolverConfig(
        method=method,
        max_iterations=30,
        residual_tolerance=BENCHMARK_INNER_TOLERANCE,
        step_tolerance=1e-16,
    )


# The model's rate constants: [O2] in molecules/cm^3, the two-body rates
# k1 and k2 in cm^3/s, the photolysis exponents a3 and a4, and the solar
# angular frequency (one revolution per day) in 1/s.
Y3 = 3.7e16
K1 = 1.63e-16
K2 = 4.66e-16
A3 = 22.62
A4 = 7.601
OMEGA = math.pi / 43200.0
RATE_SIGNS = ("benchmark", "literal")


def photolysis_rate(a, t, rate_sign="benchmark"):
    """k(t) = exp(sign * a / sin(omega t)) during daytime, 0 at night; the
    sign is +1 for "literal" and -1 otherwise; chapman_problem checks it."""
    s = math.sin(OMEGA * t)
    if s <= 0.0:
        return 0.0
    exponent = a / s if rate_sign == "literal" else -a / s
    if _EXP_LOW <= exponent <= _EXP_HIGH:
        return float(np.exp(exponent))
    return _extreme_exp(exponent)


@np.errstate(over="ignore", under="ignore")
def _extreme_exp(exponent):
    # Near sunrise and sunset exp overflows to inf in literal mode and
    # underflows to a subnormal or 0 in benchmark mode.  Those are the
    # honest values of the formula as written, so keep them, whatever
    # errstate the caller holds.
    return float(np.exp(exponent))


def chapman_problem(rate_sign="benchmark"):
    """The Chapman model as an ODEProblem over DEFAULT_SPAN from DEFAULT_Y0,
    with photolysis rates of the given sign convention (RATE_SIGNS)."""
    if rate_sign not in RATE_SIGNS:
        raise ValueError("rate_sign must be 'benchmark' or 'literal'")

    # An IRK step evaluates the rhs many times at only two to four distinct
    # times, so the rates are computed once per t.  The cache is this
    # problem's own: two problems never share rates.
    @functools.lru_cache(maxsize=8)
    def rates(t):
        return photolysis_rate(A3, t, rate_sign), photolysis_rate(A4, t, rate_sign)

    # The arithmetic runs on Python floats, which round as numpy's float64
    # scalars do at a fraction of their per-operation overhead, and the
    # rates go back as a list: the stage residual stacks the stages' lists
    # into one array.
    def rhs(t, y):
        y1, y2 = y.tolist()
        k3, k4 = rates(t)
        loss1 = K1 * Y3 + K2 * y2
        return [2.0 * k3 * Y3 + k4 * y2 - loss1 * y1, K1 * y1 * Y3 - (K2 * y1 + k4) * y2]

    return ODEProblem(rhs=rhs, y0=np.array(DEFAULT_Y0), t_span=DEFAULT_SPAN)


@dataclass(frozen=True)
class DaySummary:
    day: int  # 1-based
    t_start: float
    y2_start: float
    y2_end: float
    y2_rise: float
    y2_min: float  # minimum over the window
    y1_max: float  # spike amplitude
    t_y1_max: float
    y1_min: float


def day_summaries(traj: Trajectory):
    """Per-day digest of a Chapman trajectory: spike heights and y2 rises."""
    out = []
    t, y = traj.t, traj.y
    n_days = int(round((t[-1] - t[0]) / SECONDS_PER_DAY))
    for d in range(n_days):
        lo = t[0] + d * SECONDS_PER_DAY
        hi = lo + SECONDS_PER_DAY
        mask = (t >= lo - 1e-9) & (t <= hi + 1e-9)
        tw, yw = t[mask], y[mask]
        spike = int(np.argmax(yw[:, 0]))
        out.append(
            DaySummary(
                day=d + 1,
                t_start=float(tw[0]),
                y2_start=float(yw[0, 1]),
                y2_end=float(yw[-1, 1]),
                y2_rise=float(yw[-1, 1] - yw[0, 1]),
                y2_min=float(np.min(yw[:, 1])),
                y1_max=float(yw[spike, 0]),
                t_y1_max=float(tw[spike]),
                y1_min=float(np.min(yw[:, 0])),
            )
        )
    return out
