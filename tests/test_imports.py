"""Every module of the package uses every name it imports."""

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
