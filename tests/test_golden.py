"""Golden regression: SHA-256 digests of the CLI's standard output.

A pure refactor leaves every digest and exit code unchanged.  A change that
deliberately moves the arithmetic regenerates them with

    PYTHONPATH=src python tests/test_golden.py --update

and says why in CHANGES.md.  The digests hold for the Python, numpy and C
library versions recorded beside them, on x86-64-v3 CPUs (AVX2 and FMA).
Every command runs under tree_env.ENV, which declares OpenBLAS's Haswell
kernel, recorded beside them as well, so the rounding of small products
and solves does not follow the runner's CPU, and the models take their
exponentials from libm, not from numpy's exp, whose SIMD kernels numpy
picks by CPU.  glibc's exp picks an FMA variant where the CPU has FMA, and
the Haswell kernel needs AVX2, which is why the scope is x86-64-v3.
tests/test_solvers.py's TRACE_DIGEST and tests/test_chapman.py's 10-day
count pin hold under the same conditions.
"""

import hashlib
import json
import pathlib
import platform
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from tree_env import BLAS_CORE, ENV, ROOT

GOLDEN = ROOT / "tests" / "golden" / "digests.json"

COMMANDS = (
    *(("reproduce", str(table)) for table in range(1, 7)),
    *(("reproduce", str(table), "--format", "json") for table in range(1, 7)),
    (
        "solve", "--problem", "academic", "--epsilon", "3", "--x0=-2,2",
        "--method", "newton,steffensen,moser,hald,moser-steffensen", "--format", "json",
    ),
    # Failure paths: singular at B0 setup and in the first Newton step, a
    # max_iterations run, and a domain violation in the first step.
    (
        "solve", "--problem", "academic", "--epsilon", "1", "--x0=1,1",
        "--method", "newton,steffensen,moser,hald,moser-steffensen", "--format", "json",
    ),
    (
        "solve", "--problem", "example3d", "--x0=0.9,0,0",
        "--method", "newton,steffensen,moser,hald,moser-steffensen", "--format", "json",
    ),
    ("solve", "--problem", "academic", "--epsilon", "3", "--x0=-2,2", "--method", "steffensen,moser-steffensen"),
    ("chapman", "--days", "1", "--h", "168.75"),
    ("tableau", "--stages", "3"),
    # The worked example of the radius analysis.
    ("radius", "--M", "1", "--k", "1", "--beta", "0.75", "--delta", "0.25", "--rtilde", "1"),
    ("radius", "--M", "1", "--k", "1", "--beta", "0.75", "--delta", "0.25", "--rtilde", "1", "--format", "json"),
    # The CSV floor string and empty cells, the JSON tableau, both no-radius
    # branches (the second prints a hint) and the per-day summary file.
    ("solve", "--problem", "affine", "--method", "newton"),
    ("tableau", "--stages", "2", "--format", "json"),
    ("radius", "--M", "1", "--k", "1", "--beta", "0.75", "--delta", "0.95", "--rtilde", "1"),
    ("radius", "--M", "1", "--k", "1", "--beta", "0.75", "--delta", "0.95", "--rtilde", "1", "--format", "json"),
    ("radius", "--M", "1", "--k", "1", "--beta", "0.75", "--delta", "0", "--rtilde", "1"),
    ("chapman", "--days", "1", "--h", "675", "--summary", "FILE"),
    # The benchmark's whole 10-day trajectory.
    ("chapman", "--days", "10", "--h", "168.75"),
)


def capture(argv):
    """Exit code and stdout digest of `python -m mosteff ARGV` on this tree.

    An argument FILE stands for a fresh path; the digest of what the command
    writes there is recorded as well.
    """
    with tempfile.TemporaryDirectory() as scratch:
        path = pathlib.Path(scratch) / "out"
        command = [str(path) if arg == "FILE" else arg for arg in argv]
        result = subprocess.run([sys.executable, "-m", "mosteff", *command], capture_output=True, env=ENV)
        digest = {"exit": result.returncode, "sha256": hashlib.sha256(result.stdout).hexdigest()}
        if "FILE" in argv:
            digest["file_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digest


def _versions():
    return {"python": platform.python_version(), "numpy": np.__version__, "blas_core": BLAS_CORE,
            "libc": " ".join(platform.libc_ver())}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_matches_golden(golden, argv):
    recorded = {key: golden[key] for key in _versions()}
    assert capture(argv) == golden["outputs"][" ".join(argv)], (
        f"recorded under {recorded}, running under {_versions()}"
    )


def test_golden_covers_every_command(golden):
    assert sorted(golden["outputs"]) == sorted(" ".join(argv) for argv in COMMANDS)


def test_the_declared_blas_kernel_takes(golden):
    # OpenBLAS names the kernel it loaded when OPENBLAS_VERBOSE=2
    result = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True, text=True,
                            env=dict(ENV, OPENBLAS_VERBOSE="2"))
    assert golden["blas_core"] == BLAS_CORE
    assert f"Core: {BLAS_CORE}" in result.stderr.splitlines()


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_golden.py --update")
    payload = dict(_versions(), outputs={" ".join(argv): capture(argv) for argv in COMMANDS})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(COMMANDS)} digests to {GOLDEN.relative_to(ROOT)}")
