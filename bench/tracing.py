"""In-memory span recorder and the per-layer metrics derived from its spans.

A span is one call of a wrapped function: its name, start, end, parent span
and an integer size (the matrix dimension where that matters).  Spans are
appended to flat arrays while the traced pass runs and analysed only after it
ends.  Self time is a span's duration minus the durations of its children;
the program is single-threaded, so children never overlap.

The wrappers replace module attributes of the library from outside; nothing
under src/ changes.  `rk` reaches `solvers.run` through the module attribute,
while `rk`, `analysis` and `solvers` bind `invert`, `divided_difference`,
`evaluate` and `problem_jacobian` by name, so each binding is wrapped where it
is looked up.
"""

import dataclasses
import time
from array import array

import numpy as np

import mosteff.analysis
import mosteff.divdiff
import mosteff.linalg
import mosteff.rk
import mosteff.solvers

B_METHODS = ("moser", "hald", "moser_steffensen")


def _dim(args):
    return len(args[1])


def _mat_dim(args):
    return len(args[0])


# (module, attribute, size of the call).  Span names are "<module>.<attr>".
WRAPPED = (
    (mosteff.solvers, "run", _dim),
    (mosteff.solvers, "make_b0", _dim),
    (mosteff.solvers, "evaluate", None),
    (mosteff.solvers, "divided_difference", _dim),
    (mosteff.solvers, "problem_jacobian", None),
    (mosteff.divdiff, "evaluate", None),
    (mosteff.divdiff, "numeric_jacobian", None),
    (mosteff.linalg, "lu_factor", _mat_dim),
    (mosteff.linalg, "lu_solve", None),
    (mosteff.linalg, "solve_condition", None),
    (mosteff.linalg, "invert", None),
    (mosteff.linalg, "mult_condition", None),
    (mosteff.rk, "invert", None),
    (mosteff.rk, "stage_problem", None),
    (mosteff.analysis, "divided_difference", _dim),
    (mosteff.analysis, "problem_jacobian", None),
    (mosteff.analysis, "invert", None),
    (mosteff.analysis, "check_conditions", None),
)

EVALUATE = ("solvers.evaluate", "divdiff.evaluate")
DIVDIFF = ("solvers.divided_difference", "analysis.divided_difference")
JACOBIAN = ("solvers.problem_jacobian", "analysis.problem_jacobian")


def _short(module):
    return module.__name__.rsplit(".", 1)[1]


class Tracer:
    """Records spans of wrapped calls; `install` patches the library."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.size = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.runs = {}  # span index of solvers.run -> (method, outcome, iterations)
        self._saved = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, size=None, on_return=None):
        """A function that calls `fn` inside a span called `name`."""
        nid = self._id(name)
        name_id, parent, sizes = self.name_id, self.parent, self.size
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            sizes.append(size(args) if size is not None else 0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if on_return is not None:
                on_return(i, result)
            return result

        return traced

    def _record_run(self, i, trace):
        self.runs[i] = (trace.method, trace.outcome, len(trace.records) - 1)

    def _wrap_stage_problem(self, fn):
        # The stage residual is a closure built per step; wrap what it returns.
        def build(*args, **kwargs):
            problem = fn(*args, **kwargs)
            return dataclasses.replace(problem, eval=self.wrap("rk.stage_residual", problem.eval))

        return self.wrap("rk.stage_problem", build)

    def install(self):
        for module, attr, size in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            name = f"{_short(module)}.{attr}"
            if (module, attr) == (mosteff.rk, "stage_problem"):
                wrapped = self._wrap_stage_problem(original)
            elif attr == "invert" and module is not mosteff.linalg:
                # Callers' own span, around the (wrapped) linalg.invert.
                wrapped = self.wrap(name, lambda a: mosteff.linalg.invert(a))
            elif attr == "run":
                wrapped = self.wrap(name, original, size, on_return=self._record_run)
            else:
                wrapped = self.wrap(name, original, size)
            setattr(module, attr, wrapped)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def arrays(self):
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "size": np.frombuffer(self.size, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path):
        np.savez(path, **self.arrays())

    def layer_metrics(self, rounds):
        """Per-layer metrics, counts and times per round of the work list."""
        return layer_metrics(self.arrays(), self.runs, rounds)


def unit_of(name):
    """Unit of a per-layer metric: counts and times are per round."""
    if name.endswith(("_ratio", "_frac")):
        return "frac"
    if "_ms_" in name:
        return "ms"
    if name.startswith("rk.inner_iters_"):
        return "count"
    if name.endswith("_s"):
        return "s/round"
    if name.endswith("flops_computed"):
        return "flop/round"
    return "count/round"


def _ancestor(is_target, parent):
    """Index of the nearest span (the span itself included) with is_target."""
    n = len(parent)
    anc = np.where(is_target, np.arange(n), -1)
    hop = parent.copy()
    open_ = (anc < 0) & (hop >= 0)
    while open_.any():
        up = hop[open_]
        anc[open_] = np.where(is_target[up], up, -1)
        hop[open_] = parent[up]
        open_ = (anc < 0) & (hop >= 0)
    return anc


def _previous_sibling(parent):
    order = np.argsort(parent, kind="stable")
    prev = np.full(len(parent), -1)
    same = parent[order][1:] == parent[order][:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(spans, runs, rounds):
    names = list(spans["names"])
    nid, parent, size = spans["name_id"], spans["parent"], spans["size"]
    dur = spans["end"] - spans["start"]
    n = len(nid)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child_time

    def mask(*wanted):
        ids = [names.index(w) for w in wanted if w in names]
        return np.isin(nid, ids)

    def parent_in(m):
        out = np.zeros(n, dtype=bool)
        out[has_parent] = m[parent[has_parent]]
        return out

    evaluate = mask(*EVALUATE)
    dd = mask(*DIVDIFF)
    jac = mask(*JACOBIAN)
    run = mask("solvers.run")
    make_b0 = mask("solvers.make_b0")
    integrate = mask("unit.integrate")

    # The B0-defect diagnostic: the Jacobian `run` takes right after make_b0.
    prev = _previous_sibling(parent)
    diag = mask("solvers.problem_jacobian") & parent_in(run) & (prev >= 0)
    diag[diag] = make_b0[prev[diag]]

    dd_children = evaluate & parent_in(dd)
    staircase = float(np.sum(size[dd] + 1))
    fallback = float(np.sum(dd_children)) - staircase
    rk_runs = np.flatnonzero(run & parent_in(integrate))
    rk_iters = [runs[i][2] for i in rk_runs]
    b_flops = sum(
        4.0 * float(size[i]) ** 3 * runs[i][2] for i in np.flatnonzero(run) if runs[i][0] in B_METHODS
    )
    all_runs = [runs[i] for i in np.flatnonzero(run)]

    per = 1.0 / rounds

    def count(m):
        return float(np.sum(m)) * per

    def total(m, t=dur):
        return float(np.sum(t[m])) * per

    return {
        "linalg.factorizations": count(mask("linalg.lu_factor")),
        "linalg.lu_factor_s": total(mask("linalg.lu_factor")),
        "linalg.lu_solve_s": total(mask("linalg.lu_solve")),
        "linalg.solve_condition_calls": count(mask("linalg.solve_condition")),
        "linalg.solve_condition_s": total(mask("linalg.solve_condition")),
        "linalg.invert_s": total(mask("linalg.invert")),
        "linalg.mult_condition_calls": count(mask("linalg.mult_condition")),
        "linalg.mult_condition_s": total(mask("linalg.mult_condition")),
        "linalg.factor_flops_computed": float(
            np.sum(2.0 * size[mask("linalg.lu_factor")].astype(float) ** 3 / 3.0)
        ) * per,
        "divdiff.dd_calls": count(dd),
        "divdiff.dd_s": total(dd),
        "divdiff.dd_self_s": total(dd, self_time),
        "divdiff.staircase_evals": staircase * per,
        "divdiff.fallback_evals": fallback * per,
        "divdiff.fallback_jac_calls": count(mask("problems.jacobian") & parent_in(dd)),
        "divdiff.staircase_ratio": staircase / (staircase + fallback) if staircase else 0.0,
        "divdiff.evaluate_calls": count(evaluate),
        "divdiff.evaluate_self_s": total(evaluate, self_time),
        "divdiff.jacobian_calls": count(jac),
        "divdiff.jacobian_s": total(jac),
        "divdiff.numeric_jacobian_evals": count(evaluate & parent_in(mask("divdiff.numeric_jacobian"))),
        "solvers.run_calls": count(run),
        "solvers.converged_ratio": (
            sum(r[1] == "converged" for r in all_runs) / len(all_runs) if all_runs else 0.0
        ),
        "solvers.iterations": sum(r[2] for r in all_runs) * per,
        "solvers.run_s": total(run),
        "solvers.run_self_s": total(run, self_time),
        "solvers.make_b0_s": total(make_b0),
        "solvers.b0_evals": count(evaluate & (_ancestor(make_b0, parent) >= 0)),
        "solvers.diag_jacobian_evals": count(evaluate & (_ancestor(diag, parent) >= 0)),
        "solvers.diag_jacobian_s": total(diag),
        "solvers.bupdate_flops_computed": b_flops * per,
        "rk.inner_runs": len(rk_runs) * per,
        "rk.inner_iters_mean": float(np.mean(rk_iters)) if rk_iters else 0.0,
        "rk.inner_iters_max": float(max(rk_iters)) if rk_iters else 0.0,
        "rk.b0_rebuilds": count(mask("rk.invert")),
        "rk.invert_s": total(mask("rk.invert")),
        "rk.inner_run_ms_p50": _pct(dur[rk_runs] * 1e3, 50),
        "rk.inner_run_ms_p90": _pct(dur[rk_runs] * 1e3, 90),
        "rk.stage_residual_calls": count(mask("rk.stage_residual")),
        "rk.stage_residual_self_s": total(mask("rk.stage_residual"), self_time),
        "rk.self_s": total(mask("unit.integrate", "rk.stage_problem", "rk.invert"), self_time),
        "chapman.rhs_calls": count(mask("chapman.rhs")),
        "chapman.rhs_s": total(mask("chapman.rhs")),
        "problems.eval_calls": count(mask("problems.eval")),
        "problems.eval_s": total(mask("problems.eval")),
        "analysis.find_radius_calls": count(mask("unit.find_radius")),
        "analysis.find_radius_s": total(mask("unit.find_radius")),
        "analysis.check_conditions_calls": count(mask("analysis.check_conditions")),
        "analysis.estimate_constants_s": total(mask("unit.estimate_constants")),
        "analysis.estimate_dd_calls": count(dd & parent_in(mask("unit.estimate_constants"))),
        "analysis.estimate_coc_s": total(mask("unit.estimate_coc")),
    }
