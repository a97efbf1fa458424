"""Every name a module of the package imports is used in that module, and
every top-level function or class of the package is named outside its own
body or exported.

Names listed in the module's ``__all__``, ``from __future__`` imports and
import statements whose first line carries ``# noqa: F401`` are exempt
from the first check; names in ``landuse.__all__`` from the second."""

import ast
from pathlib import Path

import pytest

import landuse

PACKAGE = Path(landuse.__file__).parent


def unused_imports(source: str) -> list[str]:
    """``line: name`` for each imported name ``source`` does not use."""
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = {name for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets
                if isinstance(target, ast.Name) and target.id == "__all__"
                for name in ast.literal_eval(node.value)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if (isinstance(node, ast.ImportFrom) and node.module == "__future__"
                or "# noqa: F401" in lines[node.lineno - 1]):
            continue
        for alias in node.names:
            # ``import a.b`` binds ``a``
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and name not in exported:
                unused.append(f"{node.lineno}: {name}")
    return unused


def test_checker_finds_only_unused_names():
    source = '''\
from __future__ import annotations

import os.path
import json as j
from math import (pi, tau,  # noqa: F401
                  e)
from re import sub, split

__all__ = ["split"]

def f():
    import sys
    return os.path.sep, sub
'''
    assert unused_imports(source) == ["4: j", "12: sys"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unnamed_definitions(sources: dict[str, str], exported) -> list[str]:
    """``module: name`` for each top-level ``def`` or ``class`` in
    ``sources`` (module name to text) that is not in ``exported`` and that
    no code outside its own body names, as a name or an attribute."""
    defined, named = [], {}
    for module, source in sources.items():
        for i, node in enumerate(ast.parse(source).body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.append((module, i, node.name))
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name) else
                        sub.attr if isinstance(sub, ast.Attribute) else None)
                named.setdefault(name, set()).add((module, i))
    return [f"{module}: {name}" for module, i, name in defined
            if name not in exported
            and not named.get(name, set()) - {(module, i)}]


def test_dead_code_checker_finds_only_unnamed_definitions():
    a = """\
import b

def used_in_b(): pass
def recursive(): return recursive()
def exported(): pass
class Unused:
    def method(self): return Unused
def called_at_top(): pass
called_at_top()
"""
    b = """\
from a import recursive
def caller(x): return x.used_in_b()
"""
    assert unnamed_definitions({"a": a, "b": b}, {"exported"}) == [
        "a: recursive", "a: Unused", "b: caller"]


def test_every_definition_is_named_or_exported():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unnamed_definitions(sources, landuse.__all__) == []
