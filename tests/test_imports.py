"""Every name a module of the package imports is used in that module.

Names listed in the module's ``__all__``, ``from __future__`` imports and
import statements whose first line carries ``# noqa: F401`` are exempt."""

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
