"""A misbehaving F, F', domain check or ODE rhs ends in a typed outcome.

`divdiff.checked_call` is the one policy for a callback's value: a
ValueError or ArithmeticError becomes InvalidEvaluation, so does a complex
value or one of the wrong shape, and a non-finite entry ends the run
diverged.  Any other exception, a TypeError above all, propagates unchanged.

The suite turns every RuntimeWarning into an error (pyproject.toml).  A
callback scaled by 1e300 makes these library products overflow: the update
methods' step `b @ fx`; the two products `b @ op` and `left @ b` in
`solvers._inverse_update` (in `run` and in `diagnose`'s replay); the
product `a @ b` inside `linalg.mult_condition`, which `diagnose` calls as
`mult_condition(b, op)` and `mult_condition(b @ op, b)` for each update's
condition, and the argument `b @ op` itself; and `diagnose`'s
`b @ jac_at_root` for a record's `b_defect`.  `run`,
`diagnose` and `analysis.estimate_constants` each set
`np.errstate(over="ignore", invalid="ignore")` for their own duration, as
a decorator, and `integrate` holds one around its steps, so the properties
see the outcome, not the warning.  The CLI sets no error state: every
library call it makes sets its own.

A callback that misbehaves only when `diagnose` calls it again changes no
outcome, and a TypeError propagates from `diagnose` too.

`divdiff.evaluate_batch` ends as `evaluate` called on its rows in turn
ends: with the same block, bit for bit, or the same error.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mosteff.chapman import inner_config
from mosteff.divdiff import evaluate, evaluate_batch
from mosteff.errors import MosteffError
from mosteff.problems import example_3d
from mosteff.rk import ODEProblem, collocation_tableau, gauss_nodes, integrate
from mosteff.solvers import SolverConfig, diagnose, run

METHODS = ["newton", "moser", "hald", "steffensen", "moser_steffensen"]
OUTCOMES = {"converged", "max_iterations", "diverged", "singular_linear_system", "domain_violation",
            "invalid_evaluation"}
EXAMPLE3D = example_3d()
START = np.array([0.3, -0.2, 0.25])
GAUSS2 = collocation_tableau(gauss_nodes(2))


def _raise(exc_type):
    def misbehave(value):
        raise exc_type("misbehaving callback")
    return misbehave


# What a misbehaving callback returns in place of its value, or raises.
MISBEHAVIOURS = {
    "nan": lambda v: np.full(np.shape(v), math.nan),
    "inf": lambda v: np.full(np.shape(v), math.inf),
    "times-1e300": lambda v: np.multiply(v, 1e300),
    "wrong-shape": lambda v: np.append(v, 1.0),
    "list": lambda v: np.asarray(v).tolist(),
    "int-dtype": lambda v: np.rint(v).astype(int),
    "complex": lambda v: np.add(v, 1j),
    "none": lambda v: None,
    "str": lambda v: "not a number",
    "2-d": lambda v: np.reshape(v, (1, -1)),
    "scalar": lambda v: float(np.ravel(v)[0]),
    "ZeroDivisionError": _raise(ZeroDivisionError),
    "OverflowError": _raise(OverflowError),
    "ValueError": _raise(ValueError),
    "TypeError": _raise(TypeError),
}


def _from_call(fn, first, misbehave):
    # fn, misbehaving from its `first`-th call on; calls[0] counts the calls
    calls = [0]

    def wrapped(*args):
        calls[0] += 1
        value = fn(*args)
        return misbehave(value) if calls[0] >= first else value
    return wrapped, calls


def _decay(t, y):
    return -y


def _ode(rhs):
    return ODEProblem(rhs=rhs, y0=np.array([1.0, 0.5]), t_span=(0.0, 0.5))


def _check_type_errors(kind, calls, first, raised):
    # A TypeError leaves the run exactly when the callback raised one.
    if kind == "TypeError" and calls[0] >= first:
        assert str(raised) == "misbehaving callback"
    else:
        assert raised is None, repr(raised)


# max_examples covers every combination, which hypothesis then stops at.
@settings(max_examples=len(MISBEHAVIOURS) * 3 * 3 * len(METHODS) * 2, deadline=None)
@given(
    kind=st.sampled_from(sorted(MISBEHAVIOURS)),
    first=st.sampled_from([1, 2, 4]),
    callback=st.sampled_from(["eval", "analytic_jacobian", "domain_check"]),
    method=st.sampled_from(METHODS),
    diagnosed=st.booleans(),
)
def test_a_misbehaving_callback_ends_run_with_an_outcome(kind, first, callback, method, diagnosed):
    wrapped, calls = _from_call(getattr(EXAMPLE3D, callback), first, MISBEHAVIOURS[kind])
    problem = dataclasses.replace(EXAMPLE3D, **{callback: wrapped})
    config = SolverConfig(method=method)
    raised = None
    try:
        trace = run(problem, START, config)
        assert trace.outcome in OUTCOMES
        if diagnosed:
            assert diagnose(trace).outcome == trace.outcome
    except TypeError as exc:
        raised = exc
    _check_type_errors(kind, calls, first, raised)


@settings(max_examples=len(MISBEHAVIOURS) * 3 * 2, deadline=None)
@given(
    kind=st.sampled_from(sorted(MISBEHAVIOURS)),
    first=st.sampled_from([1, 2, 4]),
    method=st.sampled_from(["newton", "moser_steffensen"]),
)
def test_a_misbehaving_rhs_ends_integrate_typed(kind, first, method):
    rhs, calls = _from_call(_decay, first, MISBEHAVIOURS[kind])
    raised = None
    try:
        integrate(_ode(rhs), GAUSS2, 0.125, inner_config(method))
    except MosteffError:
        pass
    except TypeError as exc:
        raised = exc
    _check_type_errors(kind, calls, first, raised)


def _type_error(*args):
    raise TypeError("not a value of F")


@pytest.mark.parametrize("callback", ["eval", "analytic_jacobian", "domain_check", "rhs"])
def test_a_type_error_propagates_unchanged(callback):
    # a TypeError is a fault in the callback's code, not a value of it
    with pytest.raises(TypeError, match="not a value of F"):
        if callback == "rhs":
            integrate(_ode(_type_error), GAUSS2, 0.125, inner_config())
        else:
            problem = dataclasses.replace(EXAMPLE3D, **{callback: _type_error})
            run(problem, START, SolverConfig(method="newton"))


# A domain check's verdicts past MISBEHAVIOURS, which cover its non-bool
# values and raised errors
DOMAIN_MISBEHAVIOURS = {
    "outside": lambda inside: False,
    "numpy-outside": lambda inside: np.False_,
}
BLOCK = np.random.default_rng(5).uniform(-0.5, 0.5, (6, 3))  # inside example3d's domain


def _looped(problem, points):
    return np.array([evaluate(problem, x) for x in points])


def _gate_outcome(gate, callback, kind, first):
    misbehave = {**MISBEHAVIOURS, **DOMAIN_MISBEHAVIOURS}[kind]
    wrapped, _ = _from_call(getattr(EXAMPLE3D, callback), first, misbehave)
    problem = dataclasses.replace(EXAMPLE3D, **{callback: wrapped})
    try:
        with np.errstate(over="ignore"):  # "times-1e300" may overflow to inf
            return gate(problem, BLOCK)
    except (MosteffError, TypeError) as exc:
        return exc


@settings(max_examples=(len(MISBEHAVIOURS) + len(DOMAIN_MISBEHAVIOURS)) * (len(BLOCK) + 1) * 2, deadline=None)
@given(
    kind=st.sampled_from(sorted({**MISBEHAVIOURS, **DOMAIN_MISBEHAVIOURS})),
    first=st.integers(1, len(BLOCK) + 1),
    callback=st.sampled_from(["eval", "domain_check"]),
)
def test_evaluate_batch_ends_as_a_loop_of_evaluate(kind, first, callback):
    # The callback misbehaves from its first-th call on, or never at
    # len(BLOCK) + 1.
    batch = _gate_outcome(evaluate_batch, callback, kind, first)
    looped = _gate_outcome(_looped, callback, kind, first)
    if isinstance(looped, Exception):
        assert type(batch) is type(looped) and str(batch) == str(looped)
    else:
        assert batch.shape == looped.shape and batch.tobytes() == looped.tobytes()
