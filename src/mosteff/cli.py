"""Command-line harness: run solvers on registered problems, regenerate the
benchmark tables as machine-readable artifacts, compute local convergence
radii, and drive the stiff Chapman integration.

Exit codes: 0 success/converged, 1 a qualitative expectation check failed,
2 the iteration diverged or stalled, 3 any MosteffError (a solver-level
error), 64 a usage error: a rejected option, any ValueError (for example a
duplicate --nodes) or a MemoryError (an output too large to allocate), 74
output I/O error (also when the reader of standard output closes it early).
"""

import argparse
import contextlib
import dataclasses
import itertools
import json
import math
import os
import sys

import numpy as np

from . import chapman as chapman_mod
from . import problems, tables
from .analysis import (
    ConvergenceConstants,
    check_conditions,
    estimate_coc,
    estimate_constants,
    existence_margin,
    find_radius,
)
from .errors import MosteffError
from .rk import collocation_tableau, gauss_nodes, integrate
from .solvers import ERROR_FLOOR_RTOL, METHODS, B0Strategy, SolverConfig, diagnose, run

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DIVERGED = 2
EXIT_SOLVER_ERROR = 3
EXIT_USAGE = 64
EXIT_IO = 74

FLOOR_STRING = f"<={ERROR_FLOOR_RTOL:g}"

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


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; the harness contract is 64.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def fmt(value):
    """Round-trip-exact float serialization (17 significant digits)."""
    return f"{float(value):.17g}"


def _is_number_or_vector(text):
    try:
        _parse_vector(text)
    except ValueError:
        return False
    return True


def _merge_negative_values(argv):
    # argparse rejects "--x0 -1,1" and "--h -inf" because the value looks
    # like a flag; fold such a value into "--x0=-1,1" so that the spaced
    # spelling reaches the value check as the "=" spelling does.  A merged
    # token holds "=", so it never starts another merge.
    merged = []
    for tok in argv:
        last = merged[-1] if merged else ""
        if (last.startswith("--") and len(last) > 2 and "=" not in last
                and tok.startswith("-") and _is_number_or_vector(tok)):
            merged[-1] = last + "=" + tok
        else:
            merged.append(tok)
    return merged


def _parse_vector(text):
    try:
        return np.array([float(part) for part in text.split(",")])
    except ValueError:
        raise ValueError(f"cannot parse vector {text!r}; expected e.g. -1,1")


def _parse_b0(text):
    name, _, value = text.partition(":")
    try:
        if name == "approx-inverse":
            return B0Strategy.approximate_inverse(float(value) if value else 0.0)
        if name == "scaled-identity":
            return B0Strategy.scaled_identity(float(value) if value else 1.0)
    except ValueError as exc:
        raise ValueError(f"bad b0 strategy {text!r}: {exc}")
    raise ValueError(f"unknown b0 strategy {name!r}; use approx-inverse[:t] or scaled-identity[:s]")


def _parse_method(text):
    try:
        return _METHOD_NAMES[text]
    except KeyError:
        raise ValueError(f"unknown method {text!r}; choose from {', '.join(sorted(_METHOD_NAMES))}")


def _build_problem(args):
    params = {"epsilon": args.epsilon} if args.problem == "academic" else {}
    return problems.build(args.problem, **params)


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


def _cell(value):
    """A JSON value as a CSV cell: null is empty, a float round-trips."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return fmt(value)


def _json_value(value):
    """value with each non-finite float as the string its CSV cell holds
    ("inf", "-inf", "nan"): RFC 8259 JSON has no Infinity or NaN."""
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_json_value(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return fmt(value)
    return value


def _dump_json(stream, payload):
    json.dump(_json_value(payload), stream, indent=2, allow_nan=False)
    stream.write("\n")


def _emit(stream, format, payload, header, rows):
    """Write payload as JSON, or header and rows (lists of JSON values) as CSV."""
    if format == "json":
        _dump_json(stream, payload)
        return
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(map(_cell, row)) + "\n")


def _error(rec):
    if rec.error is None:
        return None
    return FLOOR_STRING if rec.error_at_floor else rec.error


# An iteration record as a JSON entry; its keys, in order, are the CSV columns.
_RECORD_FIELDS = (
    ("n", lambda rec: rec.index),
    ("error", _error),
    ("residual", lambda rec: rec.residual),
    ("step_norm", lambda rec: rec.step_norm),
    ("solve_condition", lambda rec: rec.solve_condition),
    ("mult_condition", lambda rec: rec.mult_condition_max),
    ("b_defect", lambda rec: rec.b_defect),
)


def _trace_json(trace):
    return {
        "problem": trace.problem_name,
        "method": trace.method,
        "outcome": trace.outcome,
        "b0_defect": trace.b0_defect,
        "b0_product": trace.b0_product,
        "coc": estimate_coc(trace),
        "iterations": [{key: get(rec) for key, get in _RECORD_FIELDS} for rec in trace.records],
    }


def cmd_solve(args):
    problem = _build_problem(args)
    x0 = _parse_vector(args.x0) if args.x0 is not None else np.zeros(problem.dimension)
    methods = [_parse_method(part) for part in args.method.split(",")]
    config = SolverConfig(
        max_iterations=args.max_iter,
        residual_tolerance=args.rtol,
        step_tolerance=args.steptol,
        b0_strategy=_parse_b0(args.b0),
    )
    configs = [dataclasses.replace(config, method=m) for m in methods]
    traces = [diagnose(run(problem, x0, c)) for c in configs]
    runs = [_trace_json(trace) for trace in traces]

    with _output(args.output) as stream:
        header = ["method"] + [key for key, _ in _RECORD_FIELDS]
        rows = ([r["method"], *entry.values()] for r in runs for entry in r["iterations"])
        _emit(stream, args.format, {"runs": runs}, header, rows)

    code = EXIT_OK
    for trace, r in zip(traces, runs):
        coc_text = "n/a" if r["coc"] is None else f"{r['coc']:.4f}"
        print(
            f"{trace.method}: outcome={trace.outcome} iterations={trace.iterations} coc={coc_text}",
            file=sys.stderr,
        )
        code = max(code, _OUTCOME_EXIT[trace.outcome])
    return code


# ---------------------------------------------------------------------------
# reproduce: the paper's tables (mosteff.tables) with qualitative verdicts.


def _verdict(checks):
    """Print PASS/FAIL per named check; True iff all pass."""
    all_ok = True
    for label, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {label}  [{detail}]", file=sys.stderr)
        all_ok &= ok
    return all_ok


def cmd_reproduce(args):
    traces = tables.traces(args.table)
    runs = {label: _trace_json(trace) for label, trace in traces.items()}

    with _output(args.output) as stream:
        # Side-by-side error columns, one per run.
        header = ["n"] + [f"{label}_error" for label in runs]
        columns = [[entry["error"] for entry in r["iterations"]] for r in runs.values()]
        rows = ([n, *errors] for n, errors in enumerate(itertools.zip_longest(*columns)))
        _emit(stream, args.format, {"table": args.table, "runs": runs}, header, rows)

    ok = _verdict(tables.checks(args.table, traces))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# radius


def cmd_radius(args):
    constants = {"M": args.big_m, "k": args.k, "beta": args.beta, "delta": args.delta, "r_tilde": args.rtilde}
    if None in constants.values():
        if args.problem is None:
            raise ValueError("supply all of --M --k --beta --delta --rtilde, or --problem to estimate them")
        estimated = estimate_constants(_build_problem(args), r_sample=args.r)
        constants = {key: getattr(estimated, key) if value is None else value
                     for key, value in constants.items()}

    radius = find_radius(**constants)
    if radius is None:
        existence = existence_margin(constants["delta"])
        # Infeasible for arbitrarily small r at delta = 0, say: the
        # defect-decrease condition is strict, so no positive r satisfies it.
        reason = (f"existence margin {fmt(existence)} <= 0" if existence <= 0.0
                  else "condition set infeasible for arbitrarily small r")
        payload = {"constants": constants, "radius": None, "reason": reason, "existence_margin": existence}
        lines = [f"no radius exists ({reason})"]
        if constants["delta"] == 0.0:
            lines.append("hint: supply --delta > 0 (the initial-inverse defect is a solver choice)")
    else:
        report = check_conditions(ConvergenceConstants(r=radius, **constants))
        conditions = {
            "reach_bound": report.cond1_value,
            "defect_decreases": report.delta1,
            "product_margin": report.cond3_margin,
            "all_hold": report.all_hold,
        }
        payload = {"constants": constants, "radius": radius, "conditions": conditions}
        lines = [f"{key:8s} = {fmt(value)}" for key, value in constants.items()]
        lines += [
            f"radius   = {fmt(radius)}  (~{radius:.6f})",
            f"reach (1+M+kr)r = {fmt(report.cond1_value)}  < r_tilde: {report.cond1}",
            f"defect delta1   = {fmt(report.delta1)}  < delta0 {fmt(constants['delta'])}: {report.cond2}",
            f"product margin  = {fmt(report.cond3_margin)}  > 0: {report.cond3}",
            f"all conditions hold: {report.all_hold}",
        ]

    if args.format == "json":
        _dump_json(sys.stdout, payload)
    else:
        print("\n".join(lines))
    if radius is not None and args.k is None:
        print("note: k is sampled, a lower bound on the true constant, so the radius is advisory",
              file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# chapman


def cmd_chapman(args):
    if not (math.isfinite(args.h) and args.h > 0):
        raise ValueError("--h must be finite and positive")
    if args.days < 1:
        raise ValueError("--days must be at least 1")
    day = chapman_mod.SECONDS_PER_DAY
    n_per_day = max(1, round(day / args.h))
    h = day / n_per_day
    if not math.isclose(h, args.h, rel_tol=1e-9):
        print(f"warning: step {args.h:g} does not divide the day; using {h:g}", file=sys.stderr)

    ode = chapman_mod.chapman_problem(args.rate_sign)
    ode = dataclasses.replace(ode, t_span=(0.0, args.days * day))
    inner = chapman_mod.inner_config(_parse_method(args.inner))
    tableau = collocation_tableau(gauss_nodes(2))

    trajectory = integrate(ode, tableau, h, inner)

    with _output(args.output) as stream:
        rows = ([t, y1, y2] for t, (y1, y2) in zip(trajectory.t, trajectory.y))
        _emit(stream, "csv", None, ["t", "y1", "y2"], rows)

    summaries = chapman_mod.day_summaries(trajectory)
    if args.summary is not None:
        columns = ["day", "t_start", "y2_start", "y2_end", "y2_rise", "y1_max", "t_y1_max", "y1_min"]
        with _output(args.summary) as sstream:
            srows = ([getattr(s, column) for column in columns] for s in summaries)
            _emit(sstream, "csv", None, columns, srows)
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
        f"max={max(iters)} rebuilds={trajectory.b0_rebuilds} updates={trajectory.b_updates} "
        f"forecast_stops={trajectory.forecast_stops}",
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
    payload = {"c": list(tableau.c), "A": tableau.A.tolist(), "b": tableau.b.tolist()}
    with _output(args.output) as stream:
        header = ["c", "b"] + [f"a{j + 1}" for j in range(len(tableau.c))]
        rows = ([c, b, *row] for c, row, b in zip(payload["c"], payload["A"], payload["b"]))
        _emit(stream, args.format, payload, header, rows)
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
    p_rep.add_argument("table", type=int, choices=tables.NUMBERS)
    _add_common_output(p_rep)
    p_rep.set_defaults(func=cmd_reproduce)

    p_rad = sub.add_parser("radius", help="compute the local convergence radius (advisory when k is sampled)")
    p_rad.add_argument("--problem", default=None)
    p_rad.add_argument("--epsilon", type=float, default=1.0)
    p_rad.add_argument("--M", dest="big_m", type=float, default=None, help="bound on the root Jacobian norm")
    p_rad.add_argument("--k", type=float, default=None, help="Jacobian Lipschitz constant")
    p_rad.add_argument("--beta", type=float, default=None, help="bound on the initial inverse norm")
    p_rad.add_argument("--delta", type=float, default=None, help="initial inverse defect")
    p_rad.add_argument("--rtilde", type=float, default=None, help="radius of the validity ball")
    p_rad.add_argument("--r", type=float, default=1.0, help="sampling radius for constant estimation")
    p_rad.add_argument("--format", choices=("text", "json"), default="text")
    p_rad.set_defaults(func=cmd_radius)

    p_chap = sub.add_parser("chapman", help="integrate the day/night kinetics benchmark")
    p_chap.add_argument("--h", type=float, default=chapman_mod.ACCEPTED_STEP)
    p_chap.add_argument("--days", type=int, default=10)
    p_chap.add_argument("--inner", default="moser-steffensen", help="stage-equation method")
    p_chap.add_argument("--rate-sign", choices=chapman_mod.RATE_SIGNS, default="benchmark")
    p_chap.add_argument("--summary", default=None, help="write the per-day digest CSV here")
    p_chap.add_argument("--output", default=None, help="write the trajectory here instead of stdout")
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
    except OSError as exc:
        if not isinstance(exc, BrokenPipeError):  # a reader that left wants no message
            print(f"error: {exc}", file=sys.stderr)
        # Point stdout at devnull so that the flush at interpreter exit is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO


def _dispatch(args):
    try:
        return args.func(args)
    except (ValueError, MemoryError) as exc:
        # the CLI and the library raise ValueError only for invalid arguments;
        # a MemoryError comes of arguments that ask for too large an array
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MosteffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
