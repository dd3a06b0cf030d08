from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import settings

from a4toric import IntersectionEngine, build_star_fan, compute_stabilizer, run_all

# Exact arithmetic makes individual examples slow but never flaky, so
# trade example count for a stable wall-clock budget.
settings.register_profile("exact", deadline=None, max_examples=30)
settings.load_profile("exact")


@pytest.fixture(scope="session")
def star():
    return build_star_fan()


@pytest.fixture(scope="session")
def stabilizer(star):
    return compute_stabilizer(star)


@pytest.fixture(scope="session")
def engine(star):
    return IntersectionEngine(star.fan, star.e_index)


@pytest.fixture(scope="session")
def passing_report(star, stabilizer, engine):
    """`run_all` on the session's fan, group and engine, which must pass:
    the one run shared by every test that only reads a passing report.
    Fault-injection, determinism and worker-lifecycle tests make their
    own runs."""
    report = run_all(star, stabilizer, engine)
    assert report.all_passed, [c for c in report.checks if not c.passed]
    return report


@dataclass(frozen=True)
class SystemRow:
    """One relation multiplied by one monomial: the signed sum of
    `products` values is zero."""

    multiplier: tuple[int, ...]
    relation_index: int
    products: tuple[tuple[tuple[int, ...], int], ...]


def iter_rows(system):
    """Every row of a LinearSystem, built from its raw relations. Neither
    the solver nor verify builds rows, so this is the tests' reference."""
    for mult in system.multipliers:
        for rel in system.relations:
            products = tuple(
                (mult[:r] + (mult[r] + 1,) + mult[r + 1 :], coeff)
                for r, coeff in enumerate(rel.coefficients)
                if coeff != 0
            )
            yield SystemRow(mult, rel.index, products)


@pytest.fixture(scope="session")
def system_rows():
    """`iter_rows` as a tuple, built once per distinct multipliers and
    relations: equal systems of different engines share their rows."""
    built = {}

    def rows(system):
        key = (system.multipliers, system.relations)
        if key not in built:
            built[key] = tuple(iter_rows(system))
        return built[key]

    return rows


@pytest.fixture(scope="session")
def cli_env():
    """Environment for `python -m a4toric` subprocesses: the checkout's
    sources come first, so no install is needed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


_acceptance_lines: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    """Collector for one PASS/FAIL line per acceptance criterion."""
    return _acceptance_lines


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
