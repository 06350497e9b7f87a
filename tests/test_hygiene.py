"""Every name a goodint module or a test module imports is used in that
module, every name a goodint module defines is read somewhere in goodint,
and every cache a goodint module holds is bounded."""

import ast
import glob
import importlib
import os
from collections import Counter

import pytest

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = sorted(glob.glob(os.path.join(PKG_ROOT, "src", "goodint", "*.py")))
TEST_MODULES = sorted(glob.glob(os.path.join(PKG_ROOT, "tests", "*.py")))


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
    assert any(path.endswith("conftest.py") for path in TEST_MODULES)


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=os.path.basename)
def test_no_unused_import(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == [], path


def _reads(node) -> Counter:
    """How often each name is loaded under node, as a Name or an Attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def _definitions(tree):
    """(class or None, name, node) for each module-level function, class and
    constant of tree, and each method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield None, node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef):
                    yield node.name, item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield None, target.id, node


def dead_definitions(modules: dict[str, tuple[str, dict]], exported: set[str]) -> list[str]:
    """Definitions that no module reads: the checker twin of unused_imports.

    modules maps a module name to its source and its namespace.  A name is
    read where it is loaded, as a Name or an Attribute, in any module and
    outside its own definition; names match by spelling alone.  Exempt are
    names in exported, dunder names (the interpreter or a library calls
    them) and methods that override a base-class method, whose callers live
    in the base class.
    """
    trees = {mod: ast.parse(source) for mod, (source, _) in modules.items()}
    reads = sum(map(_reads, trees.values()), Counter())
    dead = []
    for mod, tree in trees.items():
        for cls, name, node in _definitions(tree):
            if (name in exported or (name.startswith("__") and name.endswith("__"))
                    or reads[name] > _reads(node)[name]):
                continue
            namespace = modules[mod][1]
            if cls and any(hasattr(base, name) for base in namespace[cls].__mro__[1:]):
                continue
            dead.append(".".join(filter(None, (mod, cls, name))))
    return sorted(dead)


def test_checker_finds_a_dead_definition():
    source = ("import argparse\nLIMIT = 3\n_SPARE: int = 4\n"
              "class P(argparse.ArgumentParser):\n"
              "    def error(self, message):\n        pass\n"
              "    def __repr__(self):\n        return 'P'\n"
              "    def _again(self):\n        return self._again()\n"
              "def _loop(n):\n    return _loop(n - 1)\n"
              "def _limit():\n    return LIMIT\n"
              "def public():\n    return P(), _limit()\n")
    namespace = {}
    exec(source, namespace)
    assert dead_definitions({"m": (source, namespace)}, {"public"}) == [
        "m.P._again", "m._SPARE", "m._loop"]


def test_no_dead_definition():
    import goodint

    modules = {}
    for path in MODULES:
        name = os.path.basename(path)[:-3]
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        # __main__ defines nothing, and importing it runs the CLI.
        namespace = {} if name == "__main__" else vars(
            importlib.import_module(f"goodint.{name}" if name != "__init__" else "goodint"))
        modules[name] = (source, namespace)
    assert dead_definitions(modules, set(goodint.__all__)) == []


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
    assert "goodint.arith.factorize" in caches
    unbounded = [name for name, obj in caches.items() if obj.cache_parameters()["maxsize"] is None]
    assert unbounded == []
