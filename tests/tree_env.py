"""The environment of a subprocess that runs this tree's package.

The CLI tests, the golden digests (`python tests/test_golden.py --update`
too), the trace digest, the 10-day count pin and the dependency probe run
`python` in a subprocess.  ENV puts this tree's `src` first on PYTHONPATH,
whatever PYTHONPATH held, and makes a RuntimeWarning, numpy's overflow
warning above all, an error, as pyproject.toml's filterwarnings makes one
in-process; other categories keep Python's defaults.

ENV also declares the BLAS kernel every byte digest is taken under:
OpenBLAS's kernels round small products and solves differently (FMA,
blocking), so it picks Haswell's, which any x86-64-v3 CPU runs, whatever
the runner's CPU would pick.  OpenBLAS reads OPENBLAS_CORETYPE when numpy
loads it, and numpy is loaded before any test module is, so the pin takes
only in a fresh process.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BLAS_CORE = "Haswell"

ENV = dict(os.environ)
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), ENV.get("PYTHONPATH")]))
ENV["PYTHONWARNINGS"] = "error::RuntimeWarning"
ENV["OPENBLAS_CORETYPE"] = BLAS_CORE


def script_json(script):
    """The JSON that `python SCRIPT` prints when run under ENV."""
    result = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=ENV)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)
