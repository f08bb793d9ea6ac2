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

# table -> (epsilon of the academic system, x0, runs).  A run is (label,
# method, B0Strategy, stopping rule).
_TABLES = {
    1: (1.0, (-1.0, 1.0), _PAIR),
    2: (0.1, (-0.25, 0.25), _PAIR),
    3: (3.0, (-1.0, 1.0), _PAIR),
    4: (1.0, (-0.5, 0.5), _PAIR),
    5: (
        3.0,
        (-2.0, 2.0),
        (
            ("ms_b0_0.999", _MS, B0Strategy.approximate_inverse(0.999), TIGHT),
            ("ms_b0_0.1", _MS, B0Strategy.approximate_inverse(0.1), TIGHT),
            ("ms_b0_0.001", _MS, B0Strategy.approximate_inverse(1e-3), TIGHT),
        ),
    ),
    6: (2.0, (2.0, 2.0), ((_MS, _MS, B0Strategy.scaled_identity(1e-2), _LONG),)),
}


def specs(table):
    """(label, problem, x0, config) per run of a numbered table."""
    epsilon, x0, runs = _TABLES[table]
    problem = problems.build("academic", epsilon=epsilon)
    point = np.array(x0)
    return [(label, problem, point, SolverConfig(method=m, b0_strategy=b0, **stop))
            for label, m, b0, stop in runs]


def traces(table):
    """label -> diagnosed trace, per run of a numbered table, in order."""
    return {label: diagnose(run(problem, x0, config))
            for label, problem, x0, config in specs(table)}


def _non_decreasing(seq):
    return all(b >= a for a, b in zip(seq, seq[1:]))


def checks(table, by):
    """(name, ok, detail) per qualitative claim of a numbered table, from
    its label -> diagnosed trace."""
    verdicts = []
    if table in (1, 2, 4):
        stef, ms = by["steffensen"], by["moser_steffensen"]
        stef_errors = [rec.error for rec in stef.records]
        verdicts.append(
            (
                "steffensen errors non-decreasing (divergence)",
                _non_decreasing(stef_errors),
                f"outcome={stef.outcome}, final error={stef_errors[-1]:.3e}",
            )
        )
        ms_final = ms.records[-1]
        ms_floor = ms.outcome == "converged" and (ms_final.error_at_floor or ms_final.error <= 1e-15)
        verdicts.append(
            (
                "moser-steffensen converges to the double floor",
                ms_floor,
                f"outcome={ms.outcome}, iterations={ms.iterations}",
            )
        )
        if table == 2:
            stef_cond = max(rec.solve_condition for rec in stef.records if rec.solve_condition is not None)
            ms_cond = max(rec.mult_condition_max for rec in ms.records if rec.mult_condition_max is not None)
            verdicts.append(
                (
                    "steffensen max solve-condition exceeds 1e2",
                    stef_cond > 1e2,
                    f"measured {stef_cond:.4g}",
                )
            )
            verdicts.append(
                (
                    "moser-steffensen max mult-condition below 30",
                    ms_cond < 30.0,
                    f"measured {ms_cond:.4g}",
                )
            )
    elif table == 3:
        stef, ms = by["steffensen"], by["moser_steffensen"]
        verdicts.append(
            (
                "both methods converge",
                stef.outcome == "converged" and ms.outcome == "converged",
                f"steffensen={stef.outcome}, moser-steffensen={ms.outcome}",
            )
        )
        below = [rec.index for rec in ms.records if rec.error is not None and rec.error < 1e-15]
        verdicts.append(
            (
                "moser-steffensen error below 1e-15 within 7 iterations",
                bool(below) and below[0] <= 7,
                f"first index {below[0] if below else 'never'}",
            )
        )
        coc = estimate_coc(ms)
        verdicts.append(
            (
                "moser-steffensen COC within [1.8, 2.2]",
                coc is not None and 1.8 <= coc <= 2.2,
                f"coc={coc if coc is None else f'{coc:.4f}'}",
            )
        )
    elif table == 5:
        ok = all(t.outcome == "converged" for t in by.values())
        verdicts.append(
            (
                "all three initial-inverse qualities converge",
                ok,
                ", ".join(f"{l}={t.outcome}" for l, t in by.items()),
            )
        )
    elif table == 6:
        (ms,) = by.values()
        verdicts.append(("run converges", ms.outcome == "converged", f"outcome={ms.outcome}"))
        plateau = ms.records[5].error if len(ms.records) > 5 else None
        verdicts.append(
            (
                "early plateau (error still above 1e-2 at n=5)",
                plateau is not None and plateau > 1e-2,
                f"error[5]={plateau:.3e}" if plateau is not None else "run too short",
            )
        )
        tail = ms.errors()[-5:]
        ratios = [b / a**2 for a, b in zip(tail, tail[1:]) if a > 0]
        quad = bool(ratios) and max(ratios) / min(ratios) <= 100.0
        verdicts.append(
            (
                "recovery is quadratic (ratio spread of final errors <= 100)",
                quad,
                f"spread={max(ratios) / min(ratios):.3g}" if ratios else "too few points",
            )
        )
    return verdicts
