"""The benchmark under bench/ reaches into a4toric by name: the tracer
rebinds the names in its TRACED table and the stream set-up calls four
package-level functions. A deleted or renamed name would only fail
there, so this test resolves them all (reading bench/tracer.py, never
changing it)."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import a4toric

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# What bench/run.py's stream set-up and passes call on the package.
STREAM_NAMES = ("build_star_fan", "assemble_system", "solve_system", "IntersectionEngine")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("a4toric_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    traced = _load_tracer().TRACED
    assert traced
    for module_name, attr, _ in traced:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            # Tracer.install reads the method from the class __dict__.
            assert method in vars(getattr(owner, cls_name)), attr
        else:
            assert callable(getattr(owner, attr)), attr


def test_package_exports_the_stream_names():
    for name in STREAM_NAMES:
        assert name in a4toric.__all__
        assert callable(getattr(a4toric, name))
