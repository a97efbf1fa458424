"""Every name a module of the package imports is used in that module, and
every top-level function or class of the package is named outside its own
body or exported.

Names listed in the module's ``__all__``, ``from __future__`` imports and
import statements whose first line carries ``# noqa: F401`` are exempt
from the first check; names in ``landuse.__all__`` from the second."""

import ast
import math
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


def imported_packages(source: str) -> set[str]:
    """The top-level packages ``source`` imports absolutely."""
    packages = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            packages.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            packages.add(node.module.split(".")[0])
    return packages


def test_import_checker_names_each_top_level_package():
    source = """\
import json.decoder
from os import path
from . import json as j
def f():
    import orjson
"""
    assert imported_packages(source) == {"json", "os", "orjson"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_imports_the_stdlib_json(path):
    """orjson is the one JSON codec, for reading, writing and hashing."""
    assert "json" not in imported_packages(path.read_text(encoding="utf-8"))


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


def _scope_nodes(scope):
    """The nodes of a module or function body, without nested functions'
    bodies."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(ast.iter_child_nodes(node))


def _dict_keys(value):
    """The keys a dict literal or ``dict(...)`` call binds, or None for
    any other value or a key that is not a plain string."""
    if isinstance(value, ast.Dict):
        keys = [k.value if isinstance(k, ast.Constant) else None
                for k in value.keys]
    elif (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
          and value.func.id == "dict" and not value.args):
        keys = [k.arg for k in value.keywords]
    else:
        return None
    return None if None in keys else set(keys)


def unset_defaults(sources: dict[str, str], checked) -> list[str]:
    """``module: function(parameter)`` for each defaulted parameter of a
    function or method in the modules ``checked`` that no call in
    ``sources`` (module name to text) sets. A call sets a parameter that it
    names as a keyword or passes by position; a ``*`` argument sets every
    positional parameter. A ``**name`` argument sets the keys of the dict
    literals or ``dict(...)`` calls bound to ``name`` in the call's scope,
    any other ``**`` argument every parameter. Calls match by the called
    name, an ``__init__`` by its class's."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    sets: dict[str, list] = {}  # called name -> [(n positional, names)]
    for tree in trees.values():
        for scope in [tree, *(node for node in ast.walk(tree) if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)))]:
            nodes = list(_scope_nodes(scope))
            bound = {}
            for node in nodes:
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            bound.setdefault(target.id, []).append(node.value)
            for call in nodes:
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else None)
                starred = any(isinstance(a, ast.Starred) for a in call.args)
                names = set()
                for k in call.keywords:
                    if k.arg is not None:
                        names.add(k.arg)
                        continue
                    values = (bound.get(k.value.id)
                              if isinstance(k.value, ast.Name) else None)
                    keys = [_dict_keys(v) for v in values or [None]]
                    if None in keys:
                        names = None
                        break
                    names.update(*keys)
                sets.setdefault(name, []).append(
                    (math.inf if starred else len(call.args), names))
    unset = []
    for module in checked:
        for owner in ast.walk(trees[module]):
            for fn in ast.iter_child_nodes(owner):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                method = isinstance(owner, ast.ClassDef) and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in fn.decorator_list)
                name = (owner.name if method and fn.name == "__init__"
                        else fn.name)
                args = fn.args
                positional = [a.arg for a in [*args.posonlyargs, *args.args]]
                # a method's callers do not pass ``self`` by position
                defaulted = [
                    *((i - method, p) for i, p in enumerate(positional)
                      if i >= len(positional) - len(args.defaults)),
                    *((math.inf, a.arg) for a, d in zip(args.kwonlyargs,
                                                         args.kw_defaults)
                      if d is not None)]
                for i, param in defaulted:
                    if not any(names is None or param in names or i < n
                               for n, names in sets.get(name, [])):
                        unset.append(f"{module}: {fn.name}({param})")
    return unset


def test_default_checker_finds_only_unset_parameters():
    a = """\
def by_keyword(x, y=1, *, z=2): pass
def by_position(x, y=1, z=2): pass
def by_star(x=1, *, k=2): pass
class C:
    def __init__(self, x=1, y=2): pass
    def method(self, x=1): pass
    @staticmethod
    def static(x=1): pass
def by_spread(a=1, b=2, c=3): pass
def by_other_spread(a=1): pass
"""
    b = """\
from a import *
by_keyword(0, z=3)
by_position(0, 1)
by_star(*[1])
C(5).method(1)
C.static()
def f(kw):
    d = {"a": 1}
    by_spread(**d, **e)
    e = dict(b=2)
    by_other_spread(**kw)
"""
    assert unset_defaults({"a": a, "b": b}, ["a"]) == [
        "a: by_keyword(y)", "a: by_position(z)", "a: by_star(k)",
        "a: by_spread(c)", "a: __init__(y)", "a: static(x)"]


def test_every_parameter_default_has_a_caller():
    root = Path(__file__).parents[1]
    sources = {str(path.relative_to(path.parents[1])): path.read_text(
                   encoding="utf-8")
               for path in [*sorted(PACKAGE.glob("*.py")),
                            *sorted((root / "tests").glob("*.py")),
                            *sorted((root / "perfbench").glob("*.py"))]}
    checked = [f"landuse/{path.name}" for path in sorted(PACKAGE.glob("*.py"))]
    assert unset_defaults(sources, checked) == []
