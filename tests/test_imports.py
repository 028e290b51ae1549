"""Every module of the package uses every name it imports, and every private
name the package defines is read somewhere in it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nashadmm"


def unused_imports(source: str) -> list[str]:
    """Names the module imports and never reads, in import order. A name listed
    in the module's `__all__` is used (a re-export); star imports and
    `from __future__` bind nothing to check."""
    tree = ast.parse(source)
    imported, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(e.value for e in getattr(node.value, "elts", ())
                        if isinstance(e, ast.Constant) and isinstance(e.value, str))
    return [name for name in imported if name not in read]


def test_package_modules_use_every_import():
    unused = {path.name: unused_imports(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}


def test_unused_imports_sees_reads_reexports_and_star_imports():
    source = '''
from __future__ import annotations
import os.path
import numpy as np
from dataclasses import dataclass, field
from .loop import State as S, helper
from .games import *
__all__ = ["S"]
x = np.zeros(os.sep)
'''
    assert unused_imports(source) == ["dataclass", "field", "helper"]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private names (a leading underscore, dunders aside) that a module
    defines at module level or in a class body, as a function, method, cached
    property, class or assigned name, and that no module reads, as "module.name"
    in definition order. A read is a loaded name or attribute, or a name a
    module imports (the unused-import rule checks that the importer reads it)."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for scope in [tree, *(n for n in tree.body if isinstance(n, ast.ClassDef))]:
            for node in scope.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                else:
                    names = []
                defined += [(module, name) for name in names if _private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return [f"{module}.{name}" for module, name in defined if name not in read]


def test_package_reads_every_private_name_it_defines():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_unread_private_names_sees_functions_constants_methods_and_imports():
    sources = {"a": '''
from functools import cached_property
_USED, _UNUSED = 1, 2
_LIMIT: int = 3
__all__ = ["Box"]
def _helper():
    return _USED
def _dead():
    pass
class Box:
    _shared = 0
    def __init__(self):
        self._cache = 0
    def _method(self):
        return self._prop
    @cached_property
    def _prop(self):
        return 1
    def _orphan(self):
        pass
''', "b": '''
from .a import Box, _helper as helper
x = helper() + Box()._method()
'''}
    assert unread_private_names(sources) == ["a._UNUSED", "a._LIMIT", "a._dead", "a._shared",
                                             "a._orphan"]
