"""Every name a goodint module imports is used in that module, and every
cache a goodint module holds is bounded."""

import ast
import glob
import importlib
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


def lru_caches() -> dict[str, object]:
    """Every functools.lru_cache bound at the top level of a goodint module."""
    found = {}
    for path in MODULES:
        name = os.path.basename(path)[:-3]
        if name == "__main__":  # importing it runs the CLI
            continue
        mod = importlib.import_module(f"goodint.{name}" if name != "__init__" else "goodint")
        for attr, obj in vars(mod).items():
            if hasattr(obj, "cache_parameters"):
                found[f"{mod.__name__}.{attr}"] = obj
    return found


def test_every_cache_is_bounded():
    caches = lru_caches()
    assert "goodint.arith._prime_power_order" in caches
    unbounded = [name for name, obj in caches.items() if obj.cache_parameters()["maxsize"] is None]
    assert unbounded == []
