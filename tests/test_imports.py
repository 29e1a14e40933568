"""Every name a module of qshape imports is read in that module.

A deleted route tends to leave its imports behind.  Each module under
src/qshape is read with ``ast``: a name bound by an import must appear
as a name somewhere in the module (the root of an attribute chain
counts), inside a string annotation, or in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qshape"
MODULES = sorted(SRC.rglob("*.py"))


def imported_names(tree):
    """(bound name, line) for every name an import binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _names_in(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def read_names(tree) -> set:
    """Names the module reads: Name nodes outside the imports, names in
    string annotations, and the entries of __all__."""
    used = _names_in(tree)
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names_in(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return used


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = read_names(tree)
    return [(name, line) for name, line in imported_names(tree)
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from .a import B, C as D, E, F\n"
              "__all__ = ['F']\n"
              "def f(x: 'B') -> None:\n"
              "    return os.sep\n")
    assert unused_imports(source) == [("D", 3), ("E", 3)]
