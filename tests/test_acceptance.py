"""End-to-end acceptance checks, one per recorded benchmark claim about the library.

Every check prints a PASS/FAIL line so a plain `pytest -s tests/test_acceptance.py`
reads as a checklist.  Checks that a faithful implementation provably cannot
satisfy are kept as honest failures rather than weakened; see the module
docstrings and the repository notes for the measured evidence.
"""

import math
import time

import numpy as np
import pytest

from mosteff.analysis import (
    ConvergenceConstants,
    check_conditions,
    estimate_coc,
    find_radius,
    generate_sequences,
)
from mosteff.chapman import (
    ACCEPTED_STEP,
    BENCHMARK_INNER_TOLERANCE,
    SECONDS_PER_DAY,
    chapman_problem,
    day_summaries,
    inner_config,
)
from mosteff.divdiff import divided_difference, evaluate, secant_defect
from mosteff.linalg import invert, max_norm_mat, max_norm_vec, solve_condition
from mosteff.problems import REGISTRY, build
from mosteff.rk import collocation_tableau, gauss_nodes, integrate
from mosteff.tables import traces


def check(name, ok, detail=""):
    suffix = f"  [{detail}]" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}  {name}{suffix}")
    return bool(ok)


GOLDEN_KWARGS = dict(M=1.0, k=1.0, beta=0.75, delta=0.25, r_tilde=1.0)
PRINTED_RADIUS = 0.246627


def test_criterion_01_golden_scalar_constants():
    c = ConvergenceConstants(r=PRINTED_RADIUS, **GOLDEN_KWARGS)
    seq = generate_sequences(c, 1)
    report = check_conditions(c)
    ok = True
    ok &= check("alpha_1 = 0.107275 (+-1e-5)", abs(seq.alpha[1] - 0.107275) <= 1e-5, f"{seq.alpha[1]:.9f}")
    ok &= check(
        "alpha~_1 = 0.226058 (+-1e-5)", abs(seq.alpha_tilde[1] - 0.226058) <= 1e-5, f"{seq.alpha_tilde[1]:.9f}"
    )
    ok &= check("d_0 = 0.5 (+-1e-5)", abs(seq.d[0] - 0.5) <= 1e-5, f"{seq.d[0]:.9f}")
    ok &= check(
        "(1+M+kr)r = 0.554078 (+-1e-5)", abs(report.cond1_value - 0.554078) <= 1e-5, f"{report.cond1_value:.9f}"
    )
    # at the 6-decimal printed radius the defect decrease only holds to the
    # same 1e-5 print tolerance; the exact <=1e-10 version holds at the true
    # feasible radius a few 1e-7 below it
    gap_printed = abs(seq.delta[0] - seq.delta[1])
    ok &= check("|delta_0 - delta_1| at printed radius (+-1e-5)", gap_printed <= 1e-5, f"{gap_printed:.3e}")
    r_star = find_radius(**GOLDEN_KWARGS)
    seq_star = generate_sequences(ConvergenceConstants(r=r_star, **GOLDEN_KWARGS), 1)
    gap_star = abs(seq_star.delta[0] - seq_star.delta[1])
    ok &= check("|delta_0 - delta_1| <= 1e-10 at feasible radius", gap_star <= 1e-10, f"{gap_star:.3e}")
    ok &= check(
        "1-(1+d_0)^2(delta_0+k beta alpha_0) = 0.0213177 (+-1e-5)",
        abs(report.cond3_margin - 0.0213177) <= 1e-5,
        f"{report.cond3_margin:.9f}",
    )
    assert ok


def _table3_runs():
    runs = traces(3)
    return runs["steffensen"], runs["moser_steffensen"]


def test_criterion_02_quadratic_benchmark_pattern():
    steff, ms = _table3_runs()
    ok = True
    ok &= check(
        "both methods converge",
        steff.outcome == "converged" and ms.outcome == "converged",
        f"steffensen={steff.outcome}, moser-steffensen={ms.outcome}",
    )
    below = [rec.index for rec in ms.records if rec.error is not None and rec.error < 1e-15]
    ok &= check(
        "moser-steffensen error < 1e-15 within 7 iterations",
        bool(below) and below[0] <= 7,
        f"first index {below[0] if below else 'never'}",
    )
    coc = estimate_coc(ms)
    ok &= check("moser-steffensen COC in [1.8, 2.2]", 1.8 <= coc <= 2.2, f"coc={coc:.4f}")
    assert ok


def test_criterion_02_error_column_factor_50():
    # the recorded per-iteration error column for this run; any initial
    # inverse honoring the stated 1e-3 quality bound pins e_1 near 0.25 and
    # quadratic error propagation then walks away from the cited tail, so the
    # factor-50 match is unattainable from iteration 4 on -- recorded here as
    # an honest failure, not loosened
    cited = [3.55e-1, 5.09e-2, 1.86e-3, 3.74e-6, 2.01e-11, 7.10e-22]
    _, ms = _table3_runs()
    ok = True
    for n, reference in enumerate(cited, start=1):
        rec = ms.records[n] if n < len(ms.records) else None
        if rec is None or rec.error is None:
            ok &= check(f"error[{n}] within factor 50 of {reference:.3g}", False, "no iterate")
            continue
        ratio = rec.error / reference
        ok &= check(
            f"error[{n}] within factor 50 of {reference:.3g}",
            1.0 / 50.0 <= ratio <= 50.0,
            f"measured {rec.error:.3e}, ratio {ratio:.3g}",
        )
    assert ok


# The stability settings are the epsilon and x0 of tables 1, 2 and 4.
STABILITY_SETTINGS = {"setting A": 1, "setting B": 2, "setting C": 4}


def _stability_runs():
    out = {}
    for label, table in STABILITY_SETTINGS.items():
        runs = traces(table)
        out[label] = (runs["steffensen"], runs["moser_steffensen"])
    return out


def test_criterion_03_inversion_free_stability():
    runs = _stability_runs()
    ok = True
    for label, (steff, ms) in runs.items():
        final = ms.final
        floored = ms.outcome == "converged" and (final.error_at_floor or final.error <= 1e-15)
        ok &= check(
            f"{label}: moser-steffensen reaches the double floor",
            floored,
            f"outcome={ms.outcome}, final error={final.error:.3e}",
        )
    _, ms_b = runs["setting B"]
    mult = max(rec.mult_condition_max for rec in ms_b.records if rec.mult_condition_max is not None)
    ok &= check("setting B: moser-steffensen max mult-condition < 30", mult < 30.0, f"measured {mult:.4g}")
    assert ok


def test_criterion_03_classical_method_divergence():
    # the recorded expectation is that the classical one-point method diverges in
    # these settings; the faithful staircase operator makes it converge in
    # all three, so these checks fail honestly
    runs = _stability_runs()
    ok = True
    for label, (steff, _) in runs.items():
        errors = [rec.error for rec in steff.records]
        ok &= check(
            f"{label}: classical errors non-decreasing (divergence)",
            all(b >= a for a, b in zip(errors, errors[1:])),
            f"outcome={steff.outcome}, final error={errors[-1]:.3e}",
        )
    steff_b, _ = runs["setting B"]
    cond = max(rec.solve_condition for rec in steff_b.records if rec.solve_condition is not None)
    ok &= check("setting B: classical max solve-condition > 1e2", cond > 1e2, f"measured {cond:.4g}")
    assert ok


def test_criterion_04_recovery_after_plateau():
    # table 6: epsilon = 2 from (2, 2), B0 = 1e-2 I, to a residual of 1e-26
    trace = traces(6)["moser_steffensen"]
    ok = check("run converges", trace.outcome == "converged", f"outcome={trace.outcome}")
    tail = trace.errors()[-5:]
    ratios = [b / a**2 for a, b in zip(tail, tail[1:])]
    spread = max(ratios) / min(ratios)
    ok &= check(
        "final 5 errors decrease quadratically (ratio spread <= 100)",
        len(tail) == 5 and spread <= 100.0,
        f"spread={spread:.3g}",
    )
    assert ok


def test_criterion_05_divided_difference_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    ok = True
    for name in REGISTRY:
        problem = build(name, epsilon=3.0) if name == "academic" else build(name)
        worst = 0.0
        for _ in range(1000):
            u = rng.uniform(-0.5, 0.5, problem.dimension)
            v = rng.uniform(-0.5, 0.5, problem.dimension)
            gap = evaluate(problem, u) - evaluate(problem, v)
            rel = secant_defect(problem, u, v) / (1.0 + max_norm_vec(gap))
            worst = max(worst, rel)
        ok &= check(f"{name}: secant identity <= 1e-10 on 1000 pairs", worst <= 1e-10, f"worst {worst:.3e}")
        worst_jac = 0.0
        for _ in range(100):
            x = rng.uniform(-0.5, 0.5, problem.dimension)
            dd = divided_difference(problem, x, x.copy())
            jac = problem.analytic_jacobian(x)
            worst_jac = max(worst_jac, max_norm_mat(dd - jac) / (1.0 + max_norm_mat(jac)))
        ok &= check(
            f"{name}: coincident operator matches Jacobian <= 1e-6", worst_jac <= 1e-6, f"worst {worst_jac:.3e}"
        )
    elapsed = time.perf_counter() - start
    ok &= check("property suite runs in under 1 s", elapsed < 1.0, f"{elapsed:.2f} s")
    assert ok


def test_criterion_06_inverse_update_contraction_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    worst_slack = -np.inf
    for m in range(2, 9):
        while True:
            a = rng.uniform(-1.0, 1.0, (m, m)) + np.diag(rng.uniform(1.0, 2.0, m) * m)
            if solve_condition(a) <= 1e3:
                break
        b = 0.5 * invert(a)  # ||I - B0 A|| = 0.5 exactly
        defect = max_norm_mat(np.eye(m) - b @ a)
        for _ in range(10):
            b = 2.0 * b - b @ a @ b
            new_defect = max_norm_mat(np.eye(m) - b @ a)
            worst_slack = max(worst_slack, new_defect - defect**2)
            defect = new_defect
    ok = check(
        "||I - B_{n+1} A|| <= ||I - B_n A||^2 + 1e-10 over all sizes",
        worst_slack <= 1e-10,
        f"worst slack {worst_slack:.3e}",
    )
    elapsed = time.perf_counter() - start
    ok &= check("contraction oracle runs in under 1 s", elapsed < 1.0, f"{elapsed:.2f} s")
    assert ok


def test_criterion_07_collocation_tableau():
    tab = collocation_tableau(gauss_nodes(2))
    root3 = math.sqrt(3.0)
    expected = np.array([[0.25, 0.25 - root3 / 6.0], [0.25 + root3 / 6.0, 0.25]])
    a_err = np.max(np.abs(tab.A - expected))
    b_err = np.max(np.abs(tab.b - 0.5))
    ok = check("2-stage A matrix matches closed form <= 1e-12", a_err <= 1e-12, f"max dev {a_err:.3e}")
    ok &= check("2-stage weights are (1/2, 1/2) <= 1e-12", b_err <= 1e-12, f"max dev {b_err:.3e}")
    for s in (1, 2, 3):
        t = collocation_tableau(gauss_nodes(s))
        row_err = max(abs(float(np.sum(t.A[i])) - t.c[i]) for i in range(s))
        sum_err = abs(float(np.sum(t.b)) - 1.0)
        ok &= check(
            f"s={s}: row sums equal nodes and weights sum to 1",
            row_err <= 1e-12 and sum_err <= 1e-12,
            f"row {row_err:.2e}, sum {sum_err:.2e}",
        )
    assert ok


def test_criterion_08_fourth_order_convergence():
    start = time.perf_counter()
    from mosteff.rk import ODEProblem

    ode = ODEProblem(rhs=lambda t, y: -y, y0=np.array([1.0]), t_span=(0.0, 1.0))
    tab = collocation_tableau(gauss_nodes(2))
    inner = inner_config("moser_steffensen")
    errors = {}
    for h in (0.2, 0.1, 0.05):
        traj = integrate(ode, tab, h, inner)
        errors[h] = abs(traj.y[-1, 0] - math.exp(-1.0))
    order_a = math.log(errors[0.2] / errors[0.1], 2.0)
    order_b = math.log(errors[0.1] / errors[0.05], 2.0)
    ok = check("order across h=0.2 -> 0.1 is 4 +- 0.3", abs(order_a - 4.0) <= 0.3, f"{order_a:.4f}")
    ok &= check("order across h=0.1 -> 0.05 is 4 +- 0.3", abs(order_b - 4.0) <= 0.3, f"{order_b:.4f}")
    elapsed = time.perf_counter() - start
    ok &= check("order study runs in under 1 s", elapsed < 1.0, f"{elapsed:.2f} s")
    assert ok


def test_criterion_09_chapman_qualitative_reproduction():
    ode = chapman_problem()
    tab = collocation_tableau(gauss_nodes(2))
    ms = integrate(ode, tab, ACCEPTED_STEP, inner_config("moser_steffensen"))
    newton = integrate(ode, tab, ACCEPTED_STEP, inner_config("newton"))

    ok = check(
        "all components positive and finite",
        bool(np.all(np.isfinite(ms.y)) and np.all(ms.y > 0.0)),
        f"min {ms.y.min():.3e}",
    )

    summaries = day_summaries(ms)
    ok &= check("trajectory covers exactly 10 days", len(summaries) == 10, f"{len(summaries)} windows")
    rises = [s.y2_rise for s in summaries]
    ok &= check(
        "10 daytime rises in the slow component",
        all(r > 0.0 for r in rises),
        f"min rise {min(rises):.3e}",
    )
    dips = [s.y2_min / s.y2_start - 1.0 for s in summaries]
    ok &= check(
        "staircase non-decreasing between midnights (dawn dip < 1e-4 relative)",
        all(d > -1e-4 for d in dips),
        f"deepest dip {min(dips):.2e}",
    )
    spikes = [s.y1_max for s in summaries]
    ok &= check(
        "10 spikes with day-over-day increasing amplitude",
        all(b > a for a, b in zip(spikes, spikes[1:])),
        f"{spikes[0]:.4e} -> {spikes[-1]:.4e}",
    )
    prominence = min(s.y1_max / s.y1_min for s in summaries)
    ok &= check("each spike prominent over its own day (>= 1e3)", prominence >= 1e3, f"min {prominence:.3e}")

    scale = np.maximum(1.0, np.abs(newton.y).max(axis=0))
    agreement = float(np.max(np.abs(ms.y - newton.y) / scale))
    bound = 10.0 * BENCHMARK_INNER_TOLERANCE
    ok &= check(
        f"inner-method agreement <= {bound:.0e} of trajectory scale",
        agreement <= bound,
        f"max rel diff {agreement:.3e}",
    )
    assert ok


def test_criterion_10_radius_maximality():
    r_star = find_radius(**GOLDEN_KWARGS)
    at = check_conditions(ConvergenceConstants(r=r_star, **GOLDEN_KWARGS))
    past = check_conditions(ConvergenceConstants(r=r_star + 1e-6, **GOLDEN_KWARGS))
    ok = check("conditions hold at the computed radius", at.all_hold, f"r*={r_star:.12f}")
    ok &= check("conditions fail 1e-6 past it", not past.all_hold, f"r*+1e-6={r_star + 1e-6:.12f}")
    # the reference radius is a 6-decimal rendering; the exact feasible
    # radius sits ~4.5e-7 below it, so compare at that print precision
    ok &= check(
        "radius reaches the cited 6-decimal value",
        round(r_star, 6) >= PRINTED_RADIUS,
        f"round(r*, 6) = {round(r_star, 6):.6f}",
    )
    assert ok
