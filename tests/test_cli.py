import json
import os
import subprocess
import sys

import numpy as np
import pytest

from tree_env import ENV

BASE = [sys.executable, "-m", "mosteff"]


def invoke(*args):
    return subprocess.run(BASE + list(args), capture_output=True, text=True, env=ENV)


def test_solve_affine_newton_one_iteration():
    result = invoke("solve", "--problem", "affine", "--method", "newton")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "method,n,error,residual,step_norm,solve_condition,mult_condition,b_defect"
    assert len(lines) == 3  # header + n=0 + n=1
    assert "outcome=converged iterations=1" in result.stderr


def test_every_outcome_has_an_exit_code():
    from mosteff import cli, solvers

    outcomes = {"converged", "max_iterations", "diverged", *solvers._OUTCOMES.values()}
    assert outcomes == set(cli._OUTCOME_EXIT)
    assert cli._OUTCOME_EXIT["invalid_evaluation"] == cli.EXIT_SOLVER_ERROR


def _exit_rule():
    # Exit codes go by type alone: every package error is 3, a ValueError 64,
    # and so is a MemoryError, such as numpy's for a `chapman` trajectory too
    # large to allocate (not run here: an overcommitting kernel may grant it).
    from mosteff import errors

    package_errors = [obj for obj in vars(errors).values()
                      if isinstance(obj, type) and issubclass(obj, errors.MosteffError)]
    return [(cls, 3) for cls in package_errors] + [(ValueError, 64), (MemoryError, 64)]


@pytest.mark.parametrize("error_class, code", _exit_rule(), ids=lambda value: getattr(value, "__name__", str(value)))
def test_dispatch_exit_code_by_error_type(error_class, code, capsys):
    import argparse

    from mosteff import cli

    def func(args):
        raise error_class("bad input")

    assert cli._dispatch(argparse.Namespace(func=func)) == code
    assert capsys.readouterr().err == "error: bad input\n"


def test_solve_failure_before_first_record_reports_zero_iterations():
    # the Jacobian at (1, 1) is singular, so B0 cannot be built
    result = invoke("solve", "--epsilon", "1", "--x0=1,1", "--method", "moser")
    assert result.returncode == 3
    assert "moser: outcome=singular_linear_system iterations=0 " in result.stderr


@pytest.mark.parametrize(
    "argv, iterations",
    [
        # B0 = 1e308 I overflows the first step, B F(x0) and ||I - B0 F'(x*)||
        pytest.param(("solve", "--b0", "scaled-identity:1e308", "--x0=1,1"), 1, id="huge-b0"),
        # x * x / epsilon overflows in F(x0)
        pytest.param(("solve", "--problem", "academic", "--epsilon", "1e-320", "--x0=1,1"), 0,
                     id="tiny-epsilon"),
    ],
)
def test_overflowing_run_prints_only_its_outcome(argv, iterations):
    # the outcome line reports the overflow; numpy prints no RuntimeWarning
    result = invoke(*argv)
    assert result.returncode == 2
    assert result.stderr == f"moser_steffensen: outcome=diverged iterations={iterations} coc=n/a\n"


def test_solve_floor_errors_printed_as_string():
    result = invoke("solve", "--problem", "affine", "--method", "newton")
    final = result.stdout.strip().splitlines()[-1].split(",")
    assert final[2] == "<=1e-16"


def test_solve_negative_x0_spelling():
    # the documented flag form: a space before a leading minus
    result = invoke(
        "solve", "--problem", "academic", "--epsilon", "3", "--method", "moser-steffensen",
        "--x0", "-1,1", "--b0", "approx-inverse:1e-3",
    )
    assert result.returncode == 0
    assert "outcome=converged" in result.stderr


def test_solve_floats_round_trip():
    result = invoke(
        "solve", "--problem", "academic", "--epsilon", "3", "--method", "moser-steffensen",
        "--x0", "-1,1",
    )
    rows = [line.split(",") for line in result.stdout.strip().splitlines()[1:]]
    errors = [float(r[2]) for r in rows if r[2] and not r[2].startswith("<=")]
    # 17 significant digits survive a parse round trip
    reparsed = [float(f"{e:.17g}") for e in errors]
    assert errors == reparsed


def test_solve_json_mirrors_csv_fields():
    result = invoke("solve", "--problem", "affine", "--method", "newton", "--format", "json")
    payload = json.loads(result.stdout)
    (run,) = payload["runs"]
    assert run["method"] == "newton"
    assert run["outcome"] == "converged"
    assert run["iterations"][1]["error"] == "<=1e-16"
    assert set(run["iterations"][0]) == {
        "n", "error", "residual", "step_norm", "solve_condition", "mult_condition", "b_defect",
    }

    # Cell by cell, on a run of every method and on one whose step
    # overflows: the CSV header is "method" and the JSON keys in order, and
    # each cell holds the same value.  The JSON is RFC 8259 JSON, which has
    # no Infinity or NaN: a non-finite float is the string its cell holds.
    def no_constant(name):
        raise AssertionError(f"{name} is not JSON")

    every_method = (
        "solve", "--problem", "academic", "--epsilon", "3", "--x0=-2,2",
        "--method", "newton,steffensen,moser,hald,moser-steffensen",
    )
    overflowing = (
        "solve", "--problem", "academic", "--epsilon", "1", "--x0=1e5,1e5",
        "--method", "moser-steffensen", "--b0", "scaled-identity:1e300",
    )
    for argv in (every_method, overflowing):
        csv_lines = invoke(*argv).stdout.splitlines()
        runs = json.loads(invoke(*argv, "--format", "json").stdout, parse_constant=no_constant)["runs"]
        entries = [(run["method"], entry) for run in runs for entry in run["iterations"]]
        assert len(csv_lines) == 1 + len(entries)
        assert csv_lines[0].split(",") == ["method", *entries[0][1]]
        for line, (method, entry) in zip(csv_lines[1:], entries):
            cells = line.split(",")
            assert cells[0] == method
            for cell, value in zip(cells[1:], entry.values(), strict=True):
                if value is None:
                    assert cell == ""
                elif isinstance(value, (str, int)):
                    assert cell == str(value)
                else:
                    assert float(cell) == value
    assert entries[-1][1]["residual"] == "inf"


def test_solve_multiple_methods():
    result = invoke("solve", "--problem", "affine", "--method", "newton,steffensen")
    methods = {line.split(",")[0] for line in result.stdout.strip().splitlines()[1:]}
    assert methods == {"newton", "steffensen"}


def test_byte_identical_reruns(tmp_path):
    args = (
        "solve", "--problem", "academic", "--epsilon", "3", "--method",
        "steffensen,moser-steffensen", "--x0", "-1,1", "--b0", "approx-inverse:1e-3",
    )
    a = invoke(*args)
    b = invoke(*args)
    assert a.stdout == b.stdout


def test_output_file(tmp_path):
    target = tmp_path / "table.csv"
    result = invoke("solve", "--problem", "affine", "--method", "newton", "--output", str(target))
    assert result.returncode == 0
    assert target.read_text().startswith("method,n,error")
    assert result.stdout == ""


def test_usage_errors_exit_64():
    assert invoke("solve", "--problem", "nosuch").returncode == 64
    assert invoke("solve", "--problem", "academic", "--x0", "1,2,3").returncode == 64
    assert invoke("solve", "--method", "bisection").returncode == 64
    assert invoke("solve", "--b0", "magic:1").returncode == 64
    assert invoke("nosuchcommand").returncode == 64
    assert invoke("reproduce", "9").returncode == 64
    assert invoke().returncode == 64
    # an option where a negative value was expected is not folded into --x0
    missing = invoke("solve", "--x0", "--method", "newton")
    assert missing.returncode == 64
    assert "argument --x0: expected one argument" in missing.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--max-iter", "0"),
        ("solve", "--rtol", "-1"),
        ("solve", "--epsilon", "0"),
        ("chapman", "--days", "0"),
        ("chapman", "--days", "-1"),
        ("radius", "--M", "1", "--k", "1", "--beta", "0.75", "--delta", "1.5", "--rtilde", "1"),
        ("radius", "--problem", "example3d", "--r", "-1"),
        ("radius", "--M", "-1", "--k", "1", "--beta", "0.75", "--delta", "0.2", "--rtilde", "1"),
        ("radius", "--M", "1", "--k", "1", "--beta", "-0.75", "--delta", "0.9", "--rtilde", "1"),
        ("radius", "--M", "1", "--k", "1", "--beta", "0.75", "--delta", "0.9", "--rtilde", "-1"),
        ("tableau", "--nodes", "0.5,1.5"),
        # NaN passes `x <= 0` tests; inf is positive but not a step
        ("solve", "--rtol", "nan"),
        ("solve", "--steptol", "nan"),
        ("solve", "--b0", "scaled-identity:nan"),
        ("chapman", "--h", "nan"),
        ("chapman", "--h", "inf", "--days", "1"),
        # a NaN epsilon makes F(x0) NaN; an infinite one makes F linear
        ("solve", "--epsilon", "nan"),
        ("solve", "--epsilon", "inf", "--x0=-1,1"),
        ("radius", "--problem", "academic", "--epsilon=-inf"),
        ("radius", "--problem", "example3d", "--r", "nan"),
        ("radius", "--problem", "example3d", "--r", "inf"),
        ("solve", "--problem", "affine", "--method", "moser", "--b0", "scaled-identity:inf"),
        # a spaced negative non-numeric value reaches the value check too
        ("solve", "--epsilon", "-inf"),
        ("chapman", "--days", "1", "--h", "-inf"),
        # a start that is not finite is refused before F is evaluated
        ("solve", "--x0=nan,1"),
        ("solve", "--x0=1e400,1"),
        # a vector with a part that is not a number
        ("solve", "--x0", "a,b"),
        ("tableau", "--nodes", "0.5,x"),
    ],
    ids=" ".join,
)
def test_invalid_values_exit_64_without_traceback(argv):
    result = invoke(*argv)
    assert result.returncode == 64
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ")


def test_radius_search_underflow_is_named():
    # every constant is positive; only the search's smallest probe underflows
    result = invoke("radius", "--M", "1", "--k", "1", "--beta", "0.75", "--delta", "0.25", "--rtilde", "1e-320")
    assert result.returncode == 64
    assert result.stderr == "error: r_tilde too small: the radius search's smallest probe underflows to 0\n"


@pytest.mark.parametrize("h", ["nan", "inf", "-inf"])
def test_non_finite_step_is_rejected_by_name(h):
    result = invoke("chapman", "--days", "1", f"--h={h}")
    assert result.returncode == 64
    assert result.stderr == "error: --h must be finite and positive\n"


def test_chapman_has_no_format_option():
    result = invoke("chapman", "--days", "1", "--format", "json")
    assert result.returncode == 64
    assert "unrecognized arguments: --format" in result.stderr


def test_io_errors_exit_74():
    result = invoke("solve", "--problem", "affine", "--output", "/nonexistent/dir/x.csv")
    assert result.returncode == 74


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "args, redirect",
    [
        (["tableau", "--output", "/dev/full"], False),
        (["tableau"], True),
        (["solve", "--problem", "affine", "--method", "newton", "--output", "/dev/full"], False),
        (["radius", "--M", "1", "--k", "1", "--beta", "0.75", "--delta", "0.25", "--rtilde", "1",
          "--format", "json"], True),
    ],
    ids=["tableau-output", "tableau-stdout", "solve-output", "radius-stdout"],
)
def test_failed_output_write_exits_74_with_one_error_line(args, redirect):
    # /dev/full fails every write with ENOSPC, whether named by --output or
    # given as standard output
    with open("/dev/full", "w") as full:
        result = subprocess.run(BASE + args, stdout=full if redirect else subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=ENV)
    assert result.returncode == 74
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


def test_closed_stdout_exits_74_without_traceback():
    # the read end is closed before the CLI writes: `... | head -1` at its worst
    proc = subprocess.Popen(
        BASE + [
            "solve", "--problem", "academic", "--epsilon", "3", "--x0=-2,2",
            "--method", "newton,steffensen,moser,hald,moser-steffensen", "--format", "json",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=ENV,
    )
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait() == 74
    assert "Traceback" not in stderr
    assert "BrokenPipeError" not in stderr


def test_radius_golden_text():
    result = invoke(
        "radius", "--problem", "example3d", "--beta", "0.75", "--delta", "0.25",
        "--M", "1", "--k", "1", "--rtilde", "1",
    )
    assert result.returncode == 0
    assert "0.246627" in result.stdout
    assert "all conditions hold: True" in result.stdout


def test_radius_from_a_problem_merges_estimated_and_given_constants():
    # M, k, beta and r_tilde are estimated from example3d (M = beta = 1,
    # since F'(x*) = I); delta is the one given
    worked = ("radius", "--problem", "example3d", "--delta", "0.1")
    text, as_json = invoke(*worked), invoke(*worked, "--format", "json")
    assert text.returncode == as_json.returncode == 0
    lines = text.stdout.splitlines()
    assert lines[0] == "M        = 1"
    assert lines[2] == "beta     = 1"
    assert float(lines[3].split("=")[1]) == 0.1
    radius = float(next(l for l in lines if l.startswith("radius")).split("=")[1].split("(")[0])
    assert radius > 0.0
    assert lines[-1] == "all conditions hold: True"
    payload = json.loads(as_json.stdout)
    constants = payload["constants"]
    assert (constants["M"], constants["beta"], constants["delta"]) == (1.0, 1.0, 0.1)
    assert payload["radius"] == radius
    assert payload["conditions"]["all_hold"] is True


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_radius_from_a_sampled_k_is_advisory(fmt):
    # academic(1)'s sampled k, 1.4606, is below its supremum 1.5; the radius
    # printed from it is larger than the one k = 1.5 certifies
    sampled = ("radius", "--problem", "academic", "--epsilon", "1", "--r", "0.2", "--delta", "0.1", "--format", fmt)
    result = invoke(*sampled)
    assert result.returncode == 0
    assert result.stderr == "note: k is sampled, a lower bound on the true constant, so the radius is advisory\n"
    given = invoke(*sampled, "--k", "1.5")
    assert given.returncode == 0
    assert given.stderr == ""


def test_radius_no_radius_exists():
    result = invoke("radius", "--delta", "0.95", "--M", "1", "--k", "1", "--beta", "0.75", "--rtilde", "1")
    assert result.returncode == 0
    assert "no radius exists" in result.stdout


def test_radius_k_zero_is_half():
    result = invoke("radius", "--k", "0", "--M", "1", "--delta", "0.25", "--beta", "0.75", "--rtilde", "1")
    line = next(l for l in result.stdout.splitlines() if l.startswith("radius"))
    value = float(line.split("=")[1].split("(")[0])
    assert abs(value - 0.5) <= 1e-10


def test_radius_json():
    result = invoke(
        "radius", "--M", "1", "--k", "1", "--beta", "0.75", "--delta", "0.25", "--rtilde", "1",
        "--format", "json",
    )
    payload = json.loads(result.stdout)
    assert payload["radius"] == pytest.approx(0.246626546707, abs=1e-9)
    assert payload["conditions"]["all_hold"] is True


def test_radius_formats_are_text_and_json():
    worked = ("radius", "--M", "1", "--k", "1", "--beta", "0.75", "--delta", "0.25", "--rtilde", "1")
    default, text = invoke(*worked), invoke(*worked, "--format", "text")
    assert default.returncode == text.returncode == 0
    assert default.stdout == text.stdout
    assert default.stdout.startswith("M        = 1\n")
    # the report is free text, so it is not offered as CSV
    rejected = invoke(*worked, "--format", "csv")
    assert rejected.returncode == 64
    assert "invalid choice: 'csv'" in rejected.stderr
    assert rejected.stdout == ""


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_radius_overflowing_constant_is_a_usage_error(fmt):
    # beta ** 2 overflows a float past ~1.3e154
    result = invoke("radius", "--M", "1", "--k", "1", "--beta", "1e200", "--delta", "0.25",
                    "--rtilde", "1", "--format", fmt)
    assert result.returncode == 64
    assert result.stderr == "error: constants out of range: a float power overflows\n"
    assert result.stdout == ""


def test_radius_requires_constants_or_problem():
    assert invoke("radius", "--M", "1").returncode == 64


def test_tableau_gauss2():
    result = invoke("tableau", "--stages", "2")
    rows = [line.split(",") for line in result.stdout.strip().splitlines()[1:]]
    a = np.array([[float(v) for v in row[2:]] for row in rows])
    root3 = np.sqrt(3.0)
    assert np.allclose(a, [[0.25, 0.25 - root3 / 6], [0.25 + root3 / 6, 0.25]], atol=1e-12)
    assert [float(r[1]) for r in rows] == pytest.approx([0.5, 0.5], abs=1e-12)


def test_tableau_duplicate_nodes():
    result = invoke("tableau", "--nodes", "0.5,0.5")
    assert result.returncode == 64
    assert result.stderr == "error: nodes 0.5 and 0.5 coincide\n"


def test_tableau_custom_nodes_json():
    result = invoke("tableau", "--nodes", "0,1", "--format", "json")
    payload = json.loads(result.stdout)
    assert np.allclose(payload["A"], [[0.0, 0.0], [0.5, 0.5]], atol=1e-13)


def test_chapman_one_day(tmp_path):
    out = tmp_path / "traj.csv"
    summary = tmp_path / "days.csv"
    result = invoke(
        "chapman", "--days", "1", "--h", "675", "--output", str(out), "--summary", str(summary)
    )
    assert result.returncode == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "t,y1,y2"
    assert len(rows) == 1 + 128 + 1  # header + steps + initial point
    srows = summary.read_text().strip().splitlines()
    assert srows[0].startswith("day,")
    assert len(srows) == 2


def test_chapman_step_adjust_warning(tmp_path):
    out = tmp_path / "traj.csv"
    result = invoke("chapman", "--days", "1", "--h", "700", "--output", str(out))
    assert result.returncode == 0
    assert "warning" in result.stderr
    assert "700" in result.stderr


def test_chapman_inner_failure_is_reported_once(tmp_path):
    # three steps a day are too long for the stage solve
    result = invoke("chapman", "--days", "1", "--h", "28800", "--output", str(tmp_path / "t.csv"))
    assert result.returncode == 3
    assert result.stderr == "error: stage solve failed at step 1 (t=28800): diverged\n"


def test_chapman_literal_sign_fails_cleanly(tmp_path):
    result = invoke("chapman", "--days", "1", "--rate-sign", "literal", "--output", str(tmp_path / "t.csv"))
    assert result.returncode == 3
    assert "error" in result.stderr


def test_reproduce_passing_table():
    result = invoke("reproduce", "3")
    assert result.returncode == 0
    assert "FAIL" not in result.stderr
    header = result.stdout.splitlines()[0]
    assert header == "n,steffensen_error,moser_steffensen_error"


def test_reproduce_grades_divergence_claim_honestly():
    # the encoded expectation for this benchmark is classical-method
    # divergence; the faithful iteration converges, so the verdict must be a
    # FAIL with a nonzero exit, never a doctored PASS
    result = invoke("reproduce", "1")
    assert result.returncode == 1
    assert "FAIL  steffensen errors non-decreasing" in result.stderr
    assert "PASS  moser-steffensen converges" in result.stderr
