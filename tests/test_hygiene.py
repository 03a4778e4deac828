"""Dead-code checks over the library's modules, with the standard library's
`ast` only: no module imports a name it never uses, and no module defines
a module-level private function or class that nothing in it references."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "xlembed"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def used_names(tree) -> set[str]:
    """Every name the module reads: bare names and the bases of attributes."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def imported_names(tree):
    """(bound name, line) of every import, at any depth; __future__ is a directive."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [f"{path.name}:{line}: {name}" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"unused imports: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_definition_is_referenced(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unreferenced = [
        f"{path.name}:{node.lineno}: {node.name}"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in used
    ]
    assert not unreferenced, f"private definitions nothing references: {unreferenced}"
