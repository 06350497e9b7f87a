"""Every name a goodint module imports is used in that module."""

import ast
import glob
import os

import pytest

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = sorted(glob.glob(os.path.join(PKG_ROOT, "src", "goodint", "*.py")))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import but never read, nor listed in __all__.

    __future__ imports bind no name.  A name counts as read wherever it
    appears as an ast.Name, annotations and attribute roots included.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport math\nimport os.path\n"
              "from typing import NamedTuple as NT, Iterator\n"
              "from .x import y\n__all__ = ['y']\n"
              "def f(n: Iterator) -> str:\n    return os.path.sep\n")
    assert unused_imports(source) == ["NT", "math"]
    assert any(path.endswith("cli.py") for path in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_unused_import(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == [], path
