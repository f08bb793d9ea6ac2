"""The package stays light and its modules keep to each other's public
names.

numpy is its one runtime dependency: importing scipy would add about a
quarter of a second and tens of MB to every start-up, so a fresh interpreter
that imports the package and its CLI must not pull it in, not even
indirectly.  A module may take from a sibling only names without a
leading underscore, whether it imports the name or reads it off the
imported module, so a private helper can change without a caller elsewhere
in the package.  numpy's error state is set only by the entry points that
document it, never by the CLI.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_import_does_not_load_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = "import sys, mosteff, mosteff.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]] == ["numpy"]


PACKAGE = ROOT / "src" / "mosteff"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _private_uses(path):
    """Each private name that `path` takes from a sibling module, either
    imported (`from .divdiff import _x`) or read off a module it imported
    (`from . import divdiff` and then `divdiff._x`)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {}  # local name -> sibling module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "mosteff"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"from {node.module or '.'} import {alias.name}"
                if node.module in (None, "mosteff") and alias.name in MODULES:
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            yield f"{modules[node.value.id]}.{node.attr}"


def test_no_module_imports_a_private_name_from_a_sibling():
    private = [f"{path.name}: {use}" for path in sorted(PACKAGE.glob("*.py")) for use in _private_uses(path)]
    assert private == []


def _errstate_uses(path):
    """(function, "decorator" or "body") for each np.errstate in `path`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            decorators = {id(node) for dec in fn.decorator_list for node in ast.walk(dec)}
            for node in ast.walk(fn):
                if isinstance(node, ast.Attribute) and node.attr == "errstate":
                    yield fn.name, "decorator" if id(node) in decorators else "body"


def test_numpy_errstate_is_set_only_by_the_entry_points():
    uses = sorted(f"{path.stem}.{fn} ({where})" for path in PACKAGE.glob("*.py") for fn, where in _errstate_uses(path))
    assert uses == [
        "analysis.estimate_constants (decorator)",
        "chapman._extreme_exp (decorator)",
        "rk.integrate (body)",
        "solvers.diagnose (decorator)",
        "solvers.run (decorator)",
    ]
