"""Golden regression: SHA-256 digests of the CLI's standard output.

A pure refactor leaves every digest and exit code unchanged.  A change that
deliberately moves the arithmetic regenerates them with

    PYTHONPATH=src python tests/test_golden.py --update

and says why in CHANGES.md.  The digests hold for the Python and numpy
versions recorded beside them; other versions may round differently.  They
also hold only on x86-64 where numpy dispatches its AVX-512 kernels and
OpenBLAS picks its SkylakeX kernels, as where they were recorded: numpy's
AVX-512 exp rounds differently from libm's, and OpenBLAS's Haswell or older
kernels round small products and solves differently, so elsewhere the
chapman, several reproduce and solve digests and tests/test_solvers.py's
TRACE_DIGEST fail.
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

from tree_env import ENV, ROOT

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
    return {"python": platform.python_version(), "numpy": np.__version__}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_matches_golden(golden, argv):
    recorded = {key: golden[key] for key in ("python", "numpy")}
    assert capture(argv) == golden["outputs"][" ".join(argv)], (
        f"recorded under {recorded}, running under {_versions()}"
    )


def test_golden_covers_every_command(golden):
    assert sorted(golden["outputs"]) == sorted(" ".join(argv) for argv in COMMANDS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_golden.py --update")
    payload = dict(_versions(), outputs={" ".join(argv): capture(argv) for argv in COMMANDS})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(COMMANDS)} digests to {GOLDEN.relative_to(ROOT)}")
