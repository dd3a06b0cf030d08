"""Every exported name resolves: a name deleted from a module but left in
an `__all__` list fails here, not at a user's `from a4toric import *`.
And every top-level function and class of the package is used by the
package or the benchmark, not only by the tests."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import a4toric

# `__main__` runs the command line on import.
SUBMODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(a4toric.__path__) if name != "__main__"
)


def test_package_exports_resolve():
    assert a4toric.__all__
    missing = [name for name in a4toric.__all__ if not hasattr(a4toric, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"a4toric.{name}")
    assert module.__all__
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


ROOT = Path(__file__).resolve().parents[1]

# Top-level names that nothing in src/ or bench/ names as an identifier,
# kept for the reason given.
UNREFERENCED = {
    # bench/tracer.py wraps exact.kernel_line by its name, given as a
    # string in its TRACED table, and needs the attribute to exist.
    "kernel_line",
}


def _identifiers(node: ast.AST) -> set[str]:
    """The names, attributes and imported names that a statement uses."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rpartition(".")[2])
    return found


def test_nothing_in_src_exists_only_for_the_tests():
    # A definition's own body (a recursive call) and the strings of
    # `__all__` do not count as uses.
    paths = sorted((ROOT / "src" / "a4toric").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    statements = [
        (path, stmt, _identifiers(stmt))
        for path in paths
        for stmt in ast.parse(path.read_text()).body
    ]
    unused = [
        f"{path.name}: {stmt.name}"
        for path, stmt, _ in statements
        if path.parent.name == "a4toric"
        and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name not in UNREFERENCED
        and not any(stmt.name in names for _, other, names in statements if other is not stmt)
    ]
    assert unused == []
