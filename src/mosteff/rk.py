"""Implicit Runge-Kutta collocation with a pluggable nonlinear stage solver.

The tableau entries are integrals of the Lagrange basis over [0, c_i] and
[0, 1]; we integrate the polynomials termwise, so the coefficients are exact
up to rounding for any distinct node set.  Each step solves the stage system

    K_i = f(t + c_i h, y + h sum_j a_ij K_j),    i = 1..s

for the stacked slopes K with one of the solver-family methods.  Slope form
plus a per-step diagonal rescaling keeps the stage residual component-wise
relative, which is what lets one tolerance serve state components that are
six orders of magnitude apart.

For stiff steps the initial approximate inverse for the inverse-update
methods is built once from the linearization (I - h A (x) J)^-1 at the step
base point and then carried forward (rescaled) from step to step, as the
b0 of each stage solve, so the expensive construction happens only at the
first step and after an inner failure.  A stage solve keeps that B while
its observed contraction forecasts convergence, so it pays for a B update
only when the forecast asks for one; Trajectory.b_updates counts the
updates.  The same forecast ends the stage solve one step later, without
the stage-residual evaluation that would only confirm it
(solvers.run's forecast_stop); Trajectory.forecast_stops counts those
solves.  On the 10-day Chapman run at h = 168.75 with Gauss-2, 3,270 of
5,120 solves end so, and a step costs 3.91 stage-residual evaluations
against 4.55 with every final residual measured.

A step pays for little beyond its arithmetic: integrate holds one
solvers.quiet() block around every step, so the stage solves run under a
single np.errstate (constructed once per integration, not once per
solve), and _advance forms the stage scale and start on Python floats.
"""

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple, Union

import numpy as np

from . import divdiff, solvers
from .errors import InnerSolverFailed, NonFiniteState
from .linalg import all_finite, as_vector, invert
from .problems import NonlinearProblem
from .solvers import UPDATE_METHODS

_FLOAT = np.dtype(float)


def _check_distinct(c):
    for i in range(len(c)):
        for j in range(i + 1, len(c)):
            if abs(c[i] - c[j]) < 1e-12:
                raise ValueError(f"nodes {c[i]} and {c[j]} coincide")


@dataclass(frozen=True)
class RKTableau:
    c: tuple
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        c = tuple(float(ci) for ci in self.c)
        if a.shape != (len(c), len(c)) or b.shape != (len(c),):
            raise ValueError("tableau shapes inconsistent with the number of nodes")
        _check_distinct(c)
        # written as "not <=" so that a NaN or inf entry fails them too
        if not abs(float(np.sum(b)) - 1.0) <= 1e-12:
            raise ValueError("weights must sum to 1")
        if not np.max(np.abs(a.sum(axis=1) - np.asarray(c))) <= 1e-12:
            raise ValueError("row sums of A must equal the nodes")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class ODEProblem:
    """y' = rhs(t, y) from y0 over t_span.

    rhs takes t and the state as a 1-d float64 ndarray of m entries and
    returns the m rates as any real array-like: an ndarray, or a list of
    Python floats, the cheapest, since each stage residual stacks the
    stages' values into one array.
    """

    rhs: Callable[[float, np.ndarray], Union[np.ndarray, Sequence[float]]]
    y0: np.ndarray
    t_span: Tuple[float, float]


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray  # (n+1,)
    y: np.ndarray  # (n+1, m)
    inner_iterations: tuple  # iterations spent in each step's stage solve
    b0_rebuilds: int  # fresh linearized-inverse constructions
    b_updates: int  # B updates made by all stage solves, failed attempts included
    forecast_stops: int = 0  # stage solves that ended on the forecast, unmeasured


def gauss_nodes(s):
    """Shifted-Legendre roots on [0,1] for 1, 2 or 3 stages."""
    if s == 1:
        return (0.5,)
    if s == 2:
        d = math.sqrt(3.0) / 6.0
        return (0.5 - d, 0.5 + d)
    if s == 3:
        d = math.sqrt(15.0) / 10.0
        return (0.5 - d, 0.5, 0.5 + d)
    raise ValueError(f"gauss_nodes supports s in {{1,2,3}}, got {s}")


def collocation_tableau(c):
    """Collocation coefficients for distinct nodes in [0,1].

    Column j of A and entry j of b integrate the j-th Lagrange basis
    polynomial over [0, c_i] and [0, 1] respectively.
    """
    c = [float(ci) for ci in c]
    s = len(c)
    if s < 1:
        raise ValueError("need at least one node")
    for ci in c:
        if not 0.0 <= ci <= 1.0:
            raise ValueError(f"node {ci} outside [0, 1]")
    _check_distinct(c)

    a = np.zeros((s, s))
    b = np.zeros(s)
    for j in range(s):
        others = [c[l] for l in range(s) if l != j]
        # Monic polynomial with the other nodes as roots, then normalize.
        num = np.poly(others) if others else np.array([1.0])
        den = float(np.prod([c[j] - cl for cl in others])) if others else 1.0
        coeffs = num / den
        # Antiderivative evaluated at the upper limits (value 0 at u=0).
        anti = np.concatenate([coeffs / np.arange(len(coeffs), 0, -1), [0.0]])
        b[j] = float(np.polyval(anti, 1.0))
        for i in range(s):
            a[i, j] = float(np.polyval(anti, c[i]))
    return RKTableau(c=tuple(c), A=a, b=b)


def _rhs_checked(ode, t, y):
    return divdiff.checked_call(ode.rhs, (t, y), y.shape, "rhs at t={0}", NonFiniteState)


def stage_problem(ode, tab, t, y, h, scale):
    """The stacked stage residual G(K) = 0 as a NonlinearProblem.

    Unknowns are the s*m slopes divided component-wise by `scale`; the
    residual is scaled the same way, making the solver's max-norm stop a
    component-wise relative test.
    """
    s, m = len(tab.c), y.size
    a, rhs = tab.A, ode.rhs
    scale = np.asarray(scale, dtype=float)
    times = [t + ci * h for ci in tab.c]

    def g(k_scaled):
        k = k_scaled * scale
        states = y + h * (a @ k.reshape(s, m))
        f = np.array([rhs(ti, yi) for ti, yi in zip(times, states)])
        if f.dtype is not _FLOAT or f.shape != (s, m):
            # a non-finite stage value makes a non-finite residual, which evaluate reports
            f = divdiff.checked_call(np.asarray, (f,), (s, m), f"rhs at the stages of t={t}")
        return (k - f.reshape(-1)) / scale

    return NonlinearProblem(dimension=s * m, eval=g, name="irk-stage")


def _fresh_stage_inverse(ode, tab, t, y, h, scale):
    # Inverse of the linearized stage matrix I - h (A kron J), expressed in
    # the scaled variables, with J the central-difference d(rhs)/dy at the
    # step midpoint.  The one place the driver ever inverts.
    t_mid = t + 0.5 * h
    rates = NonlinearProblem(dimension=y.size, eval=lambda z: _rhs_checked(ode, t_mid, z))
    jac = divdiff.numeric_jacobian(rates, y)
    big = np.eye(len(tab.c) * y.size) - h * np.kron(tab.A, jac)
    big = big / scale[:, None] * scale[None, :]
    return invert(big)


def _stage_start(f0, y, h, s):
    """(scale, guess) of a step's stage solve, each s * m entries, from the
    finite slope f0 and state y at the step's base point.

    Slope components are measured relative to max(1, slope magnitude,
    state magnitude / |h|): a slope error only matters through h * error
    in the state, and the state floor keeps the relative test meaningful
    when a net slope passes through zero while its constituent terms (and
    hence the evaluation noise) stay large.  Every stage starts from f0,
    so scale and guess are one stage's values repeated.  The arithmetic
    runs elementwise on Python floats, which gives the bits of
    np.maximum(1.0, np.maximum(np.abs(f0), np.abs(y) / abs(h))) and of
    f0 divided by it at a fraction of the cost.  The maxima are written as
    comparisons, cheaper than max() calls; f0 and y are finite, so no NaN
    reaches them, and the operands of a tie are equal and non-negative,
    so either gives the same bits.
    """
    step = abs(h)
    stage_scale, guess = [], []
    for fi, yi in zip(f0.tolist(), y.tolist()):
        si = abs(yi) / step
        si = si if si > abs(fi) else abs(fi)
        si = si if si > 1.0 else 1.0
        stage_scale.append(si)
        guess.append(fi / si)
    return np.array(stage_scale * s), np.array(guess * s)


def _advance(ode, tab, t, y, h, inner, b_carry, step_index):
    """One step; returns (y_next, carried physical-space B, the converged
    stage solve's trace, rebuilds, B updates)."""
    s, m = len(tab.c), y.size
    f0 = _rhs_checked(ode, t, y)
    scale, guess = _stage_start(f0, y, h, s)
    problem = stage_problem(ode, tab, t, y, h, scale)
    column, row = scale[:, None], scale[None, :]

    uses_b = inner.method in UPDATE_METHODS
    rebuilds = updates = 0
    attempts = [None]  # None: build a fresh inverse on demand
    if uses_b and b_carry is not None and all_finite(b_carry):
        attempts.insert(0, b_carry / column * row)

    for b_scaled in attempts:
        if uses_b and b_scaled is None:
            b_scaled = _fresh_stage_inverse(ode, tab, t, y, h, scale)
            rebuilds += 1
        trace = solvers.run(problem, guess, inner, b_scaled, forecast_stop=True)
        updates += trace.b_updates
        if trace.outcome == "converged":
            break
    if trace.outcome != "converged":
        raise InnerSolverFailed(f"stage solve failed at step {step_index} (t={t:g}): {trace.outcome}")

    k = trace.final.iterate * scale
    y_next = y + h * (tab.b @ k.reshape(s, m))
    b_next = None
    if trace.approx_inverse is not None:
        b_next = trace.approx_inverse * column / row
    return y_next, b_next, trace, rebuilds, updates


def integrate(ode, tab, h, inner):
    """Fixed-step integration over ode.t_span; h must be finite and nonzero,
    the span's ends and ode.y0 finite, and h must divide the span, else
    ValueError.  The state has as many entries as ode.y0.  integrate does
    not read inner.b0_strategy: each stage solve starts from the carried or
    a fresh linearized inverse.  numpy's overflow and invalid-value
    warnings are silenced inside integrate, the rhs calls included, by one
    solvers.quiet() block around every step: a non-finite state or stage
    solve raises its typed error instead."""
    t0, t_end = ode.t_span
    if not (math.isfinite(h) and h != 0.0):
        raise ValueError(f"step h = {h} must be finite and nonzero")
    if not (math.isfinite(t0) and math.isfinite(t_end)):
        raise ValueError(f"t_span {ode.t_span} must have finite ends")
    y = as_vector(ode.y0).copy()
    if not all_finite(y):
        raise ValueError(f"y0 = {y} has non-finite entries")
    span = t_end - t0
    steps = span / h  # a quotient that overflows does not divide either
    n_steps = int(round(steps)) if math.isfinite(steps) else 0
    if n_steps < 1 or abs(n_steps * h - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError(f"step {h} does not divide the span {span}")

    ts = np.empty(n_steps + 1)
    ys = np.empty((n_steps + 1, y.size))
    ts[0] = t0
    ys[0] = y
    b_carry = None
    iters = []
    rebuilds = updates = stops = 0
    with solvers.quiet():
        for step in range(n_steps):
            t = t0 + step * h
            y, b_carry, trace, built, updated = _advance(ode, tab, t, y, h, inner, b_carry, step)
            if not all_finite(y):
                raise NonFiniteState(f"state non-finite after step {step} (t={t + h:g})")
            ts[step + 1] = t + h
            ys[step + 1] = y
            iters.append(trace.iterations)
            rebuilds += built
            updates += updated
            stops += trace.final.residual is None
    ts[n_steps] = t_end
    return Trajectory(t=ts, y=ys, inner_iterations=tuple(iters), b0_rebuilds=rebuilds,
                      b_updates=updates, forecast_stops=stops)
