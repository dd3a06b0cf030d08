"""Every exported name resolves: a name deleted from a module but left in
an `__all__` list fails here, not at a user's `from a4toric import *`."""

from __future__ import annotations

import importlib
import pkgutil

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
