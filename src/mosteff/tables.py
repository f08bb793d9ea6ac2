"""The paper's six comparison tables: their runs and the qualitative verdicts
each one is graded by.

Every table runs on the academic system.  Tables 1-4 set Steffensen against
Moser-Steffensen from one start; table 5 varies the quality of the initial
inverse; table 6 starts Moser-Steffensen from a poor scaled identity.
"""

import numpy as np

from . import problems
from .analysis import estimate_coc
from .solvers import B0Strategy, SolverConfig, diagnose, run

TIGHT = dict(max_iterations=30, residual_tolerance=1e-24, step_tolerance=1e-30)
# Table 6 runs longer, to a tighter residual.
_LONG = dict(max_iterations=40, residual_tolerance=1e-26, step_tolerance=1e-30)

_MS = "moser_steffensen"
_PAIR = (
    # Steffensen has the default B0 strategy, which it does not read.
    ("steffensen", "steffensen", B0Strategy.approximate_inverse(0.0), TIGHT),
    (_MS, _MS, B0Strategy.approximate_inverse(1e-3), TIGHT),
)

# A table's claims: each maps its label -> diagnosed trace to (name, ok, detail).


def _steffensen_diverges(by):
    stef = by["steffensen"]
    errors = [rec.error for rec in stef.records]
    return (
        "steffensen errors non-decreasing (divergence)",
        all(b >= a for a, b in zip(errors, errors[1:])),
        f"outcome={stef.outcome}, final error={errors[-1]:.3e}",
    )


def _ms_reaches_floor(by):
    ms = by[_MS]
    final = ms.records[-1]
    ok = ms.outcome == "converged" and (final.error_at_floor or final.error <= 1e-15)
    detail = f"outcome={ms.outcome}, iterations={ms.iterations}"
    return "moser-steffensen converges to the double floor", ok, detail


def _steffensen_ill_conditioned(by):
    cond = max(rec.solve_condition for rec in by["steffensen"].records if rec.solve_condition is not None)
    return "steffensen max solve-condition exceeds 1e2", cond > 1e2, f"measured {cond:.4g}"


def _ms_well_conditioned(by):
    cond = max(rec.mult_condition_max for rec in by[_MS].records if rec.mult_condition_max is not None)
    return "moser-steffensen max mult-condition below 30", cond < 30.0, f"measured {cond:.4g}"


def _both_converge(by):
    stef, ms = by["steffensen"].outcome, by[_MS].outcome
    return "both methods converge", stef == ms == "converged", f"steffensen={stef}, moser-steffensen={ms}"


def _ms_floor_within_7(by):
    below = [rec.index for rec in by[_MS].records if rec.error is not None and rec.error < 1e-15]
    return (
        "moser-steffensen error below 1e-15 within 7 iterations",
        bool(below) and below[0] <= 7,
        f"first index {below[0] if below else 'never'}",
    )


def _ms_coc_near_2(by):
    coc = estimate_coc(by[_MS])
    ok = coc is not None and 1.8 <= coc <= 2.2
    return "moser-steffensen COC within [1.8, 2.2]", ok, f"coc={coc if coc is None else f'{coc:.4f}'}"


def _all_converge(by):
    ok = all(t.outcome == "converged" for t in by.values())
    detail = ", ".join(f"{label}={t.outcome}" for label, t in by.items())
    return "all three initial-inverse qualities converge", ok, detail


def _ms_converges(by):
    outcome = by[_MS].outcome
    return "run converges", outcome == "converged", f"outcome={outcome}"


def _early_plateau(by):
    records = by[_MS].records
    plateau = records[5].error if len(records) > 5 else None
    detail = "run too short" if plateau is None else f"error[5]={plateau:.3e}"
    return "early plateau (error still above 1e-2 at n=5)", plateau is not None and plateau > 1e-2, detail


def _quadratic_recovery(by):
    tail = by[_MS].errors()[-5:]
    ratios = [b / a**2 for a, b in zip(tail, tail[1:]) if a > 0]
    spread = max(ratios) / min(ratios) if ratios else None
    ok = spread is not None and spread <= 100.0
    detail = "too few points" if spread is None else f"spread={spread:.3g}"
    return "recovery is quadratic (ratio spread of final errors <= 100)", ok, detail


_PAIR_CLAIMS = (_steffensen_diverges, _ms_reaches_floor)

# table -> (epsilon of the academic system, x0, runs, claims).  A run is
# (label, method, B0Strategy, stopping rule).
_TABLES = {
    1: (1.0, (-1.0, 1.0), _PAIR, _PAIR_CLAIMS),
    2: (0.1, (-0.25, 0.25), _PAIR, _PAIR_CLAIMS + (_steffensen_ill_conditioned, _ms_well_conditioned)),
    3: (3.0, (-1.0, 1.0), _PAIR, (_both_converge, _ms_floor_within_7, _ms_coc_near_2)),
    4: (1.0, (-0.5, 0.5), _PAIR, _PAIR_CLAIMS),
    5: (
        3.0,
        (-2.0, 2.0),
        (
            ("ms_b0_0.999", _MS, B0Strategy.approximate_inverse(0.999), TIGHT),
            ("ms_b0_0.1", _MS, B0Strategy.approximate_inverse(0.1), TIGHT),
            ("ms_b0_0.001", _MS, B0Strategy.approximate_inverse(1e-3), TIGHT),
        ),
        (_all_converge,),
    ),
    6: (
        2.0,
        (2.0, 2.0),
        ((_MS, _MS, B0Strategy.scaled_identity(1e-2), _LONG),),
        (_ms_converges, _early_plateau, _quadratic_recovery),
    ),
}

NUMBERS = tuple(_TABLES)  # the table numbers, in order


def _entry(table):
    if table not in _TABLES:
        raise ValueError(f"no table {table!r}; the tables are {', '.join(map(str, NUMBERS))}")
    return _TABLES[table]


def specs(table):
    """(label, problem, x0, config) per run of a numbered table."""
    epsilon, x0, runs, _ = _entry(table)
    problem = problems.build("academic", epsilon=epsilon)
    point = np.array(x0)
    return [(label, problem, point, SolverConfig(method=m, b0_strategy=b0, **stop))
            for label, m, b0, stop in runs]


def traces(table):
    """label -> diagnosed trace, per run of a numbered table, in order."""
    return {label: diagnose(run(problem, x0, config))
            for label, problem, x0, config in specs(table)}


def checks(table, by):
    """(name, ok, detail) per qualitative claim of a numbered table, from
    its label -> diagnosed trace."""
    return [claim(by) for claim in _entry(table)[3]]
