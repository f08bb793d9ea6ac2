"""The package stays light and its modules keep to each other's public
names.

numpy is its one runtime dependency: importing scipy would add about a
quarter of a second and tens of MB to every start-up, so a fresh interpreter
that imports the package and its CLI must not pull it in, not even
indirectly.  A module may import from a sibling only names without a
leading underscore, so a private helper can change without a caller
elsewhere in the package.
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


def _sibling_imports(path):
    """(module, name) per name that `path` imports from the mosteff package."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "mosteff"):
            for alias in node.names:
                yield node.module or ".", alias.name


def test_no_module_imports_a_private_name_from_a_sibling():
    private = [
        f"{path.name}: from {module} import {name}"
        for path in sorted((ROOT / "src" / "mosteff").glob("*.py"))
        for module, name in _sibling_imports(path)
        if name.startswith("_")
    ]
    assert private == []
