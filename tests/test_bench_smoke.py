"""Smoke test of the benchmark harness under bench/.

The harness traces the library by replacing module attributes, so every
(module, attribute) it wraps must keep existing.  The run itself works on a
copy of bench/ and src/ in a temporary directory, which keeps the results it
writes out of the repository.
"""

import importlib.util
import json
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_wrapped_attribute_exists():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module.__name__}.{attr}" for module, attr, _ in tracing.WRAPPED if not hasattr(module, attr)
    ]
    assert missing == []


def _run_workload(tmp_path, workload, trace):
    """The last JSON line of one second of `workload` on a copy of the tree."""
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1]), result.stdout


def test_tables_workload_runs_and_checks_correct(tmp_path):
    last, stdout = _run_workload(tmp_path, "tables", "1")
    assert last["correct"] is True, stdout


def test_chapman_workload_runs_and_checks_correct(tmp_path):
    # ten days of Gauss-2 steps against scipy's Radau at every half day
    last, stdout = _run_workload(tmp_path, "chapman", "0")
    assert last["correct"] is True, stdout


def test_dense_workload_runs_and_checks_correct(tmp_path):
    # the one workload that builds B0 from a numeric Jacobian (m = 256)
    last, stdout = _run_workload(tmp_path, "dense", "0")
    assert last["correct"] is True, stdout
