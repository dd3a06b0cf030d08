"""The benchmark under bench/ reaches into a4toric by name: the tracer
rebinds the names in its TRACED table and the stream set-up calls four
package-level functions and reads fields of their results. A deleted or
renamed name would only fail there, so these tests resolve them all
(reading bench/tracer.py and bench/run.py, never changing them)."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import a4toric

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"

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


# What bench/run.py's stream set-up reads from one assemble and solve.
SYSTEM_FIELDS = ("n_rows", "n_unknowns", "multipliers")
SOLUTION_FIELDS = ("values.get", "e_top", "consistent")


def test_stream_setup_reads_the_solution_by_exponent_tuple(star):
    source = (BENCH / "run.py").read_text()
    for field in SYSTEM_FIELDS:
        assert f"system.{field}" in source, field
    for field in SOLUTION_FIELDS:
        assert f"solution.{field}" in source, field
    system = a4toric.assemble_system(star.fan, e_index=star.e_index)
    solution = a4toric.solve_system(system)
    assert (system.n_rows, system.n_unknowns, len(system.multipliers)) == (33110, 21635, 3311)
    assert all(type(m) is tuple and len(m) == 13 for m in system.multipliers)
    # A dict keyed by exponent tuples, read through .get: a solved column
    # gives its value and any other tuple gives None.
    values = solution.values
    assert type(values) is dict and len(values) == 21635
    assert all(type(m) is tuple and len(m) == 13 for m in values)
    assert values.get((10,) + (0,) * 12) == solution.e_top == -1680
    assert values.get((6, 2, 2) + (0,) * 10) is None
    assert solution.consistent is True
