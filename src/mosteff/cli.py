"""Command-line harness: run solvers on registered problems, regenerate the
benchmark tables as machine-readable artifacts, compute local convergence
radii, and drive the stiff Chapman integration.

Exit codes: 0 success/converged, 1 a qualitative expectation check failed,
2 the iteration diverged or stalled, 3 solver-level error, 64 usage error,
74 output I/O error (also when the reader of standard output closes it early).
"""

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import chapman as chapman_mod
from . import problems
from .analysis import (
    ConvergenceConstants,
    check_conditions,
    estimate_coc,
    estimate_constants,
    find_radius,
)
from .errors import (
    InnerSolverFailed,
    InsufficientData,
    MosteffError,
    NoKnownSolution,
)
from .rk import collocation_tableau, gauss_nodes, integrate
from .solvers import METHODS, B0Strategy, SolverConfig, run

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DIVERGED = 2
EXIT_SOLVER_ERROR = 3
EXIT_USAGE = 64
EXIT_IO = 74

FLOOR_STRING = "<=1e-16"

# CLI spellings -> internal method names.
_METHOD_NAMES = {name.replace("_", "-"): name for name in METHODS}

_OUTCOME_EXIT = {
    "converged": EXIT_OK,
    "max_iterations": EXIT_DIVERGED,
    "diverged": EXIT_DIVERGED,
    "singular_linear_system": EXIT_SOLVER_ERROR,
    "domain_violation": EXIT_SOLVER_ERROR,
    "invalid_evaluation": EXIT_SOLVER_ERROR,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; the harness contract is 64.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def fmt(value):
    """Round-trip-exact float serialization (17 significant digits)."""
    return f"{float(value):.17g}"


def _merge_negative_values(argv):
    # argparse rejects "--x0 -1,1" because "-1,1" looks like a flag; fold the
    # value into "--x0=-1,1" so the documented spelling works.
    merged = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok == "--x0" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            merged.append(tok + "=" + argv[i + 1])
            skip = True
        else:
            merged.append(tok)
    return merged


def _parse_vector(text):
    try:
        return np.array([float(part) for part in text.split(",")])
    except ValueError:
        raise UsageError(f"cannot parse vector {text!r}; expected e.g. -1,1")


def _parse_b0(text):
    name, _, value = text.partition(":")
    try:
        if name == "approx-inverse":
            return B0Strategy.approximate_inverse(float(value) if value else 0.0)
        if name == "scaled-identity":
            return B0Strategy.scaled_identity(float(value) if value else 1.0)
    except ValueError as exc:
        raise UsageError(f"bad b0 strategy {text!r}: {exc}")
    raise UsageError(f"unknown b0 strategy {name!r}; use approx-inverse[:t] or scaled-identity[:s]")


def _parse_method(text):
    try:
        return _METHOD_NAMES[text]
    except KeyError:
        raise UsageError(f"unknown method {text!r}; choose from {', '.join(sorted(_METHOD_NAMES))}")


def _build_problem(args):
    name = args.problem
    if name not in problems.REGISTRY:
        raise UsageError(f"unknown problem {name!r}; registered: {', '.join(problems.REGISTRY)}")
    params = {}
    if name == "academic":
        params["epsilon"] = args.epsilon
    return problems.build(name, **params)


@contextlib.contextmanager
def _output(path):
    """Stdout when path is None, else the file at path, closed on exit."""
    if path is None:
        yield sys.stdout
        return
    try:
        stream = open(path, "w")
    except OSError as exc:
        print(f"error: cannot open {path!r} for writing: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    with stream:
        yield stream


def _error_cell(record):
    if record.error is None:
        return ""
    if record.error_at_floor:
        return FLOOR_STRING
    return fmt(record.error)


def _optional_cell(value):
    return "" if value is None else fmt(value)


def _coc_or_none(trace):
    try:
        return estimate_coc(trace)
    except InsufficientData:
        return None


def _trace_rows(trace):
    rows = []
    for rec in trace.records:
        rows.append(
            [
                trace.method,
                str(rec.index),
                _error_cell(rec),
                fmt(rec.residual),
                _optional_cell(rec.step_norm),
                _optional_cell(rec.solve_condition),
                _optional_cell(rec.mult_condition_max),
                _optional_cell(rec.b_defect),
            ]
        )
    return rows


def _trace_json(trace):
    coc = _coc_or_none(trace)
    return {
        "problem": trace.problem_name,
        "method": trace.method,
        "outcome": trace.outcome,
        "b0_defect": trace.b0_defect,
        "b0_product": trace.b0_product,
        "coc": coc,
        "iterations": [
            {
                "n": rec.index,
                "error": None if rec.error is None else (FLOOR_STRING if rec.error_at_floor else rec.error),
                "residual": rec.residual,
                "step_norm": rec.step_norm,
                "solve_condition": rec.solve_condition,
                "mult_condition": rec.mult_condition_max,
                "b_defect": rec.b_defect,
            }
            for rec in trace.records
        ],
    }


def _write_csv(stream, header, rows):
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(row) + "\n")


SOLVE_HEADER = ["method", "n", "error", "residual", "step_norm", "solve_condition", "mult_condition", "b_defect"]


def cmd_solve(args):
    problem = _build_problem(args)
    x0 = _parse_vector(args.x0) if args.x0 is not None else np.zeros(problem.dimension)
    if x0.shape != (problem.dimension,):
        raise UsageError(f"x0 has dimension {x0.size}, problem {problem.name!r} needs {problem.dimension}")
    methods = [_parse_method(part) for part in args.method.split(",")]
    config = SolverConfig(
        max_iterations=args.max_iter,
        residual_tolerance=args.rtol,
        step_tolerance=args.steptol,
        b0_strategy=_parse_b0(args.b0),
    )
    traces = [run(problem, x0, dataclasses.replace(config, method=m)) for m in methods]

    with _output(args.output) as stream:
        if args.format == "json":
            json.dump({"runs": [_trace_json(t) for t in traces]}, stream, indent=2)
            stream.write("\n")
        else:
            rows = []
            for trace in traces:
                rows.extend(_trace_rows(trace))
            _write_csv(stream, SOLVE_HEADER, rows)

    code = EXIT_OK
    for trace in traces:
        coc = _coc_or_none(trace)
        coc_text = "n/a" if coc is None else f"{coc:.4f}"
        iterations = max(len(trace.records) - 1, 0)  # a run can fail before its first record
        print(
            f"{trace.method}: outcome={trace.outcome} iterations={iterations} coc={coc_text}",
            file=sys.stderr,
        )
        code = max(code, _OUTCOME_EXIT[trace.outcome])
    return code


# ---------------------------------------------------------------------------
# reproduce: pre-encoded benchmark runs with qualitative verdicts.

_TIGHT = dict(max_iterations=30, residual_tolerance=1e-24, step_tolerance=1e-30)


def _table_specs(table):
    """(label, problem, x0, config) per run of a numbered benchmark table."""
    approx = B0Strategy.approximate_inverse(1e-3)
    if table in (1, 2, 3, 4):
        epsilon, x0 = {
            1: (1.0, (-1.0, 1.0)),
            2: (0.1, (-0.25, 0.25)),
            3: (3.0, (-1.0, 1.0)),
            4: (1.0, (-0.5, 0.5)),
        }[table]
        problem = problems.build("academic", epsilon=epsilon)
        point = np.array(x0)
        return [
            ("steffensen", problem, point, SolverConfig(method="steffensen", **_TIGHT)),
            (
                "moser_steffensen",
                problem,
                point,
                SolverConfig(method="moser_steffensen", b0_strategy=approx, **_TIGHT),
            ),
        ]
    if table == 5:
        problem = problems.build("academic", epsilon=3.0)
        point = np.array((-2.0, 2.0))
        specs = []
        for target in (0.999, 0.1, 1e-3):
            specs.append(
                (
                    f"ms_b0_{target:g}",
                    problem,
                    point,
                    SolverConfig(
                        method="moser_steffensen",
                        b0_strategy=B0Strategy.approximate_inverse(target),
                        **_TIGHT,
                    ),
                )
            )
        return specs
    if table == 6:
        problem = problems.build("academic", epsilon=2.0)
        return [
            (
                "moser_steffensen",
                problem,
                np.array((2.0, 2.0)),
                SolverConfig(
                    method="moser_steffensen",
                    b0_strategy=B0Strategy.scaled_identity(1e-2),
                    max_iterations=40,
                    residual_tolerance=1e-26,
                    step_tolerance=1e-30,
                ),
            )
        ]
    raise UsageError(f"no table {table}; choose 1-6")


def _verdict(checks):
    """Print PASS/FAIL per named check; True iff all pass."""
    all_ok = True
    for label, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {label}  [{detail}]", file=sys.stderr)
        all_ok &= ok
    return all_ok


def _non_decreasing(seq):
    return all(b >= a for a, b in zip(seq, seq[1:]))


def _table_checks(table, labels, traces):
    by = dict(zip(labels, traces))
    checks = []
    if table in (1, 2, 4):
        stef, ms = by["steffensen"], by["moser_steffensen"]
        stef_errors = [rec.error for rec in stef.records]
        checks.append(
            (
                "steffensen errors non-decreasing (divergence)",
                _non_decreasing(stef_errors),
                f"outcome={stef.outcome}, final error={stef_errors[-1]:.3e}",
            )
        )
        ms_final = ms.records[-1]
        ms_floor = ms.outcome == "converged" and (ms_final.error_at_floor or ms_final.error <= 1e-15)
        checks.append(
            (
                "moser-steffensen converges to the double floor",
                ms_floor,
                f"outcome={ms.outcome}, iterations={len(ms.records) - 1}",
            )
        )
        if table == 2:
            stef_cond = max(rec.solve_condition for rec in stef.records if rec.solve_condition is not None)
            ms_cond = max(rec.mult_condition_max for rec in ms.records if rec.mult_condition_max is not None)
            checks.append(
                (
                    "steffensen max solve-condition exceeds 1e2",
                    stef_cond > 1e2,
                    f"measured {stef_cond:.4g}",
                )
            )
            checks.append(
                (
                    "moser-steffensen max mult-condition below 30",
                    ms_cond < 30.0,
                    f"measured {ms_cond:.4g}",
                )
            )
    elif table == 3:
        stef, ms = by["steffensen"], by["moser_steffensen"]
        checks.append(
            (
                "both methods converge",
                stef.outcome == "converged" and ms.outcome == "converged",
                f"steffensen={stef.outcome}, moser-steffensen={ms.outcome}",
            )
        )
        below = [rec.index for rec in ms.records if rec.error is not None and rec.error < 1e-15]
        checks.append(
            (
                "moser-steffensen error below 1e-15 within 7 iterations",
                bool(below) and below[0] <= 7,
                f"first index {below[0] if below else 'never'}",
            )
        )
        coc = _coc_or_none(ms)
        checks.append(
            (
                "moser-steffensen COC within [1.8, 2.2]",
                coc is not None and 1.8 <= coc <= 2.2,
                f"coc={coc if coc is None else f'{coc:.4f}'}",
            )
        )
    elif table == 5:
        ok = all(t.outcome == "converged" for t in traces)
        checks.append(
            (
                "all three initial-inverse qualities converge",
                ok,
                ", ".join(f"{l}={t.outcome}" for l, t in zip(labels, traces)),
            )
        )
    elif table == 6:
        (ms,) = traces
        checks.append(("run converges", ms.outcome == "converged", f"outcome={ms.outcome}"))
        plateau = ms.records[5].error if len(ms.records) > 5 else None
        checks.append(
            (
                "early plateau (error still above 1e-2 at n=5)",
                plateau is not None and plateau > 1e-2,
                f"error[5]={plateau:.3e}" if plateau is not None else "run too short",
            )
        )
        above = ms.errors(above_floor=True)
        tail = above[-5:]
        ratios = [b / a**2 for a, b in zip(tail, tail[1:]) if a > 0]
        quad = bool(ratios) and max(ratios) / min(ratios) <= 100.0
        checks.append(
            (
                "recovery is quadratic (ratio spread of final errors <= 100)",
                quad,
                f"spread={max(ratios) / min(ratios):.3g}" if ratios else "too few points",
            )
        )
    return checks


def cmd_reproduce(args):
    specs = _table_specs(args.table)
    labels = [label for label, *_ in specs]
    traces = [run(problem, x0, config) for _, problem, x0, config in specs]

    # Side-by-side error columns, one per run.
    n_rows = max(len(t.records) for t in traces)
    rows = []
    for n in range(n_rows):
        row = [str(n)]
        for trace in traces:
            row.append(_error_cell(trace.records[n]) if n < len(trace.records) else "")
        rows.append(row)

    with _output(args.output) as stream:
        if args.format == "json":
            payload = {
                "table": args.table,
                "runs": {label: _trace_json(trace) for label, trace in zip(labels, traces)},
            }
            json.dump(payload, stream, indent=2)
            stream.write("\n")
        else:
            _write_csv(stream, ["n"] + [f"{label}_error" for label in labels], rows)

    ok = _verdict(_table_checks(args.table, labels, traces))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# radius


def cmd_radius(args):
    overrides = {
        "M": args.big_m,
        "k": args.k,
        "beta": args.beta,
        "delta": args.delta,
        "r_tilde": args.rtilde,
    }
    if any(value is None for value in overrides.values()):
        if args.problem is None:
            raise UsageError("supply all of --M --k --beta --delta --rtilde, or --problem to estimate them")
        estimated = estimate_constants(_build_problem(args), r_sample=args.r)
        for key, value in list(overrides.items()):
            if value is None:
                overrides[key] = getattr(estimated, key)

    radius = find_radius(
        overrides["M"], overrides["k"], overrides["beta"], overrides["delta"], overrides["r_tilde"]
    )

    if radius is None:
        existence = 1.0 - (1.0 + overrides["delta"]) ** 2 * overrides["delta"]
        if existence <= 0.0:
            reason = f"existence margin {fmt(existence)} <= 0"
        else:
            # e.g. delta = 0: the defect-decrease condition is strict, so no
            # positive radius satisfies it.
            reason = "condition set infeasible for arbitrarily small r"
        if args.format == "json":
            payload = {"constants": overrides, "radius": None, "reason": reason, "existence_margin": existence}
            print(json.dumps(payload, indent=2))
        else:
            print(f"no radius exists ({reason})")
            if overrides["delta"] == 0.0:
                print("hint: supply --delta > 0 (the initial-inverse defect is a solver choice)")
        return EXIT_OK

    constants = ConvergenceConstants(r=radius, **overrides)
    report = check_conditions(constants)
    if args.format == "json":
        payload = {
            "constants": overrides,
            "radius": radius,
            "conditions": {
                "reach_bound": report.cond1_value,
                "defect_decreases": report.delta1,
                "product_margin": report.cond3_margin,
                "all_hold": report.all_hold,
            },
        }
        print(json.dumps(payload, indent=2))
    else:
        for key in ("M", "k", "beta", "delta", "r_tilde"):
            print(f"{key:8s} = {fmt(overrides[key])}")
        print(f"radius   = {fmt(radius)}  (~{radius:.6f})")
        print(f"reach (1+M+kr)r = {fmt(report.cond1_value)}  < r_tilde: {report.cond1}")
        print(f"defect delta1   = {fmt(report.delta1)}  < delta0 {fmt(report.delta0)}: {report.cond2}")
        print(f"product margin  = {fmt(report.cond3_margin)}  > 0: {report.cond3}")
        print(f"all conditions hold: {report.all_hold}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# chapman


def cmd_chapman(args):
    if args.h <= 0:
        raise UsageError("--h must be positive")
    day = chapman_mod.SECONDS_PER_DAY
    n_per_day = max(1, round(day / args.h))
    h = day / n_per_day
    if not math.isclose(h, args.h, rel_tol=1e-9):
        print(f"warning: step {args.h:g} does not divide the day; using {h:g}", file=sys.stderr)

    params = chapman_mod.ChapmanParams(rate_sign=args.rate_sign)
    ode = chapman_mod.chapman_problem(params)
    ode = dataclasses.replace(ode, t_span=(0.0, args.days * day))
    inner = chapman_mod.inner_config(_parse_method(args.inner))
    tableau = collocation_tableau(gauss_nodes(2))

    try:
        trajectory = integrate(ode, tableau, h, inner)
    except InnerSolverFailed as exc:
        print(f"error: inner solve failed at step {exc.step_index} (t={exc.t:g}): {exc}", file=sys.stderr)
        return EXIT_SOLVER_ERROR

    with _output(args.output) as stream:
        rows = [[fmt(t), fmt(y1), fmt(y2)] for t, (y1, y2) in zip(trajectory.t, trajectory.y)]
        _write_csv(stream, ["t", "y1", "y2"], rows)

    summaries = chapman_mod.day_summaries(trajectory)
    summary_header = ["day", "t_start", "y2_start", "y2_end", "y2_rise", "y1_max", "t_y1_max", "y1_min"]
    if args.summary is not None:
        with _output(args.summary) as sstream:
            srows = [
                [
                    str(s.day),
                    fmt(s.t_start),
                    fmt(s.y2_start),
                    fmt(s.y2_end),
                    fmt(s.y2_rise),
                    fmt(s.y1_max),
                    fmt(s.t_y1_max),
                    fmt(s.y1_min),
                ]
                for s in summaries
            ]
            _write_csv(sstream, summary_header, srows)
    else:
        for s in summaries:
            print(
                f"day {s.day:2d}: y2 {s.y2_start:.6e} -> {s.y2_end:.6e} (rise {s.y2_rise:+.3e}); "
                f"y1 spike {s.y1_max:.6e} at t={s.t_y1_max:g}",
                file=sys.stderr,
            )
    iters = trajectory.inner_iterations
    print(
        f"steps={len(iters)} inner iterations mean={sum(iters) / len(iters):.2f} "
        f"max={max(iters)} rebuilds={trajectory.b0_rebuilds}",
        file=sys.stderr,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# tableau


def cmd_tableau(args):
    if args.nodes is not None:
        nodes = _parse_vector(args.nodes)
    else:
        nodes = gauss_nodes(args.stages)
    tableau = collocation_tableau(nodes)
    with _output(args.output) as stream:
        if args.format == "json":
            payload = {
                "c": [float(c) for c in tableau.c],
                "A": [[float(a) for a in row] for row in tableau.A],
                "b": [float(b) for b in tableau.b],
            }
            json.dump(payload, stream, indent=2)
            stream.write("\n")
        else:
            s = tableau.s
            header = ["c", "b"] + [f"a{j + 1}" for j in range(s)]
            rows = [
                [fmt(tableau.c[i]), fmt(tableau.b[i])] + [fmt(tableau.A[i, j]) for j in range(s)]
                for i in range(s)
            ]
            _write_csv(stream, header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------


def _add_common_output(parser):
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", default=None, help="write the table here instead of stdout")


def build_parser():
    parser = _Parser(prog="mosteff", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_solve = sub.add_parser("solve", help="run one or more methods on a registered problem")
    p_solve.add_argument("--problem", default="academic")
    p_solve.add_argument("--epsilon", type=float, default=1.0, help="parameter of the academic system")
    p_solve.add_argument("--method", default="moser-steffensen", help="comma-separated list")
    p_solve.add_argument("--x0", default=None, help="comma-separated start point (default: origin)")
    p_solve.add_argument("--b0", default="approx-inverse:0", help="approx-inverse[:t] or scaled-identity[:s]")
    p_solve.add_argument("--max-iter", type=int, default=50)
    p_solve.add_argument("--rtol", type=float, default=1e-12, help="residual tolerance")
    p_solve.add_argument("--steptol", type=float, default=1e-15)
    _add_common_output(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_rep = sub.add_parser("reproduce", help="re-run a numbered benchmark table and grade it")
    p_rep.add_argument("table", type=int, choices=range(1, 7))
    _add_common_output(p_rep)
    p_rep.set_defaults(func=cmd_reproduce)

    p_rad = sub.add_parser("radius", help="compute the guaranteed local convergence radius")
    p_rad.add_argument("--problem", default=None)
    p_rad.add_argument("--epsilon", type=float, default=1.0)
    p_rad.add_argument("--M", dest="big_m", type=float, default=None, help="bound on the root Jacobian norm")
    p_rad.add_argument("--k", type=float, default=None, help="Jacobian Lipschitz constant")
    p_rad.add_argument("--beta", type=float, default=None, help="bound on the initial inverse norm")
    p_rad.add_argument("--delta", type=float, default=None, help="initial inverse defect")
    p_rad.add_argument("--rtilde", type=float, default=None, help="radius of the validity ball")
    p_rad.add_argument("--r", type=float, default=1.0, help="sampling radius for constant estimation")
    p_rad.add_argument("--format", choices=("csv", "json"), default="csv")
    p_rad.set_defaults(func=cmd_radius)

    p_chap = sub.add_parser("chapman", help="integrate the day/night kinetics benchmark")
    p_chap.add_argument("--h", type=float, default=chapman_mod.DEFAULT_STEP)
    p_chap.add_argument("--days", type=int, default=10)
    p_chap.add_argument("--inner", default="moser-steffensen", help="stage-equation method")
    p_chap.add_argument("--rate-sign", choices=("benchmark", "literal"), default="benchmark")
    p_chap.add_argument("--summary", default=None, help="write the per-day digest CSV here")
    _add_common_output(p_chap)
    p_chap.set_defaults(func=cmd_chapman)

    p_tab = sub.add_parser("tableau", help="dump collocation Runge-Kutta coefficients")
    p_tab.add_argument("--stages", type=int, choices=(1, 2, 3), default=2)
    p_tab.add_argument("--nodes", default=None, help="comma-separated custom nodes in [0,1]")
    _add_common_output(p_tab)
    p_tab.set_defaults(func=cmd_tableau)

    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(_merge_negative_values(argv))
    try:
        code = _dispatch(args)
        sys.stdout.flush()  # a reader that left early shows up here, not at exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull so that the flush at interpreter exit is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO


def _dispatch(args):
    try:
        return args.func(args)
    except (UsageError, NoKnownSolution) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MosteffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
