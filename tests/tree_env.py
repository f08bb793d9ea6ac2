"""The environment of a subprocess that runs this tree's package.

The CLI tests, the golden digests (`python tests/test_golden.py --update`
too) and the dependency probe run `python` in a subprocess.  ENV puts this
tree's `src` first on PYTHONPATH, whatever PYTHONPATH held, and makes a
RuntimeWarning, numpy's overflow warning above all, an error, as
pyproject.toml's filterwarnings makes one in-process; other categories keep
Python's defaults.
"""

import os
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

ENV = dict(os.environ)
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), ENV.get("PYTHONPATH")]))
ENV["PYTHONWARNINGS"] = "error::RuntimeWarning"
