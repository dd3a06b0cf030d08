"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every equality below is exact; nothing is rounded and no tolerance is
applied anywhere.
"""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction

import pytest

from a4toric.exact import int_det
from a4toric.cones import enumerate_facets
from a4toric.intersection import IntersectionEngine
from a4toric.proportionality import bernoulli, l_top
from a4toric.tables import (
    TOP_DEGREE,
    FaberData,
    igusa_table,
    verify_recurrence,
    voronoi_table,
)
from a4toric.verify import (
    _cofactor_det,
    _facets_by_subset_scan,
    _oracle_cones,
    plane_blowup_fan,
    projective_plane_fan,
)

EXPECTED_TABLE_DESCENDING = (
    Fraction(1, 907200),
    Fraction(0),
    Fraction(0),
    Fraction(0),
    Fraction(-1, 3780),
    Fraction(0),
    Fraction(0),
    Fraction(-1759, 1680),
    Fraction(0),
    Fraction(1636249, 1080),
    Fraction(101449217, 1440),
)


def _announce(log: list[str], criterion: int, label: str, passed: bool) -> None:
    line = f"[criterion {criterion:2d}] {'PASS' if passed else 'FAIL'} {label}"
    log.append(line)
    print(line)


@pytest.fixture(scope="module")
def igusa():
    return igusa_table(l_top(4).value, FaberData.default())


def test_criterion_1_proportionality(acceptance_log):
    res = l_top(4)
    ok = res.value == Fraction(1, 907200) and res.stack_value == Fraction(1, 1814400)
    _announce(acceptance_log, 1, f"top Hodge power {res.value}, stack {res.stack_value}", ok)
    assert res.value == Fraction(1, 907200)
    assert res.stack_value == Fraction(1, 1814400)


def test_criterion_2_first_table(igusa, acceptance_log):
    actual = tuple(igusa.a(k) for k in range(TOP_DEGREE, -1, -1))
    ok = actual == EXPECTED_TABLE_DESCENDING
    _announce(acceptance_log, 2, "first-compactification table a_10 .. a_0", ok)
    assert actual == EXPECTED_TABLE_DESCENDING


def test_criterion_3_recurrence_closure(igusa, acceptance_log):
    faber = FaberData.default()
    closed, failing = verify_recurrence(igusa, faber)
    vanishing = igusa.a(9) == igusa.a(8) == igusa.a(7) == 0
    ok = closed and failing is None and vanishing
    _announce(acceptance_log, 3, "recurrence closes for k = 1..10 and a_9 = a_8 = a_7 = 0", ok)
    assert closed and failing is None
    assert vanishing


def test_criterion_4_fan_combinatorics(star, acceptance_log):
    dets = [
        int_det([star.fan.rays[i] for i in sorted(c)]) for c in star.fan.top_cones
    ]
    ok = (
        len(star.ray_vectors) == 12
        and len(star.facets) == 64
        and all(len(f.incident) == 9 for f in star.facets)
        and len(star.fan.top_cones) == 64
        and all(abs(d) == 1 for d in dets)
    )
    _announce(acceptance_log, 4,
        f"{len(star.ray_vectors)} rays, {len(star.facets)} facets of 9 rays, "
        f"{len(star.fan.top_cones)} basic cones",
        ok,
    )
    assert len(star.ray_vectors) == 12
    assert len(star.facets) == 64
    assert all(len(f.incident) == 9 for f in star.facets)
    assert len(star.fan.top_cones) == 64
    assert all(abs(d) == 1 for d in dets)


def test_criterion_5_stabilizer(star, stabilizer, acceptance_log):
    facet_sets = frozenset(f.incident for f in star.facets)
    permutes = all(
        frozenset(el.ray_permutation[i] for i in inc) in facet_sets
        for el in stabilizer.elements
        for inc in facet_sets
    )
    ok = stabilizer.order == 1152 and permutes
    _announce(acceptance_log, 5, f"stabilizer order {stabilizer.order}, permutes all cones", ok)
    assert stabilizer.order == 1152
    assert permutes


def test_criterion_6_toric_top_power(engine, acceptance_log):
    value = engine.e_top
    sol = engine.solution
    unique = sol.rank == sol.n_unknowns
    ok = value == Fraction(-1680) and sol.consistent and unique
    _announce(acceptance_log, 6,
        f"exceptional top power {value}, consistent and uniquely determined",
        ok,
    )
    assert value == Fraction(-1680)
    assert sol.consistent and sol.problems == ()
    assert unique


def test_criterion_7_engine_cross_agreement(engine, acceptance_log, system_rows):
    sol = engine.solution
    mismatches = sum(
        1 for mono, value in sol.values.items() if engine.evaluate(mono) != value
    )
    bad_rows = sum(
        1
        for row in system_rows(engine.system)
        if sum(coeff * engine.evaluate(mono) for mono, coeff in row.products) != 0
    )
    ok = mismatches == 0 and bad_rows == 0
    _announce(acceptance_log, 7,
        f"both engines agree on all {sol.n_unknowns} unknowns; "
        f"all {sol.n_rows} row identities vanish",
        ok,
    )
    assert mismatches == 0
    assert bad_rows == 0


def test_criterion_8_second_table(igusa, engine, stabilizer, acceptance_log):
    e_top = engine.e_top
    vor = voronoi_table(igusa, e_top, stabilizer.order)
    corner = vor.a(0, TOP_DEGREE)
    corner_ok = corner == Fraction(e_top, stabilizer.order) == Fraction(-35, 24)
    column_ok = all(vor.a(k, 0) == igusa.a(k) for k in range(TOP_DEGREE + 1))
    band_ok = all(
        vor.a(k, l) == 0
        for k in range(TOP_DEGREE + 1)
        for l in range(1, TOP_DEGREE + 1 - k)
        if (k, l) != (0, TOP_DEGREE)
    )
    ok = corner_ok and column_ok and band_ok
    _announce(acceptance_log, 8,
        f"corner {e_top}/{stabilizer.order} = {corner}; column and zero band match",
        ok,
    )
    assert corner == Fraction(-35, 24)
    assert corner == Fraction(e_top, stabilizer.order)
    assert column_ok
    assert band_ok


def test_criterion_9_oracle_suites(acceptance_log):
    problems = []
    for cone in _oracle_cones():
        direct = frozenset((f.normal, f.incident) for f in enumerate_facets(cone))
        if direct != _facets_by_subset_scan(cone):
            problems.append("facet enumeration disagrees with the subset scan")
    fixed = [
        [[3]],
        [[2, 1], [7, 4]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 10]],
        [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    ]
    for mat in fixed:
        if int_det(mat) != _cofactor_det(mat):
            problems.append("determinant disagrees with cofactor expansion")
    from math import comb

    for n in range(1, 21):
        if sum(comb(n + 1, k) * bernoulli(k) for k in range(n + 1)) != 0:
            problems.append(f"Bernoulli recurrence fails at {n}")
    for n in range(2, 21, 2):
        denom = 1
        for p in range(2, n + 2):
            if all(p % q for q in range(2, p)) and n % (p - 1) == 0:
                denom *= p
        if bernoulli(n).denominator != denom:
            problems.append(f"Bernoulli denominator fails at {n}")
    for fan, e_index, expected in (
        (projective_plane_fan(), 0, 1),
        (plane_blowup_fan(), 2, -1),
    ):
        toy = IntersectionEngine(fan, e_index)
        top = tuple(fan.ambient if i == e_index else 0 for i in range(len(fan.rays)))
        if toy.evaluate(top) != expected or toy.e_top != expected:
            problems.append("toy fan self-intersection is wrong")
    ok = not problems
    _announce(acceptance_log, 9, "facet, determinant, Bernoulli, and toy-fan oracles", ok)
    assert not problems, problems


def test_criterion_10_byte_determinism(acceptance_log, cli_env):
    cmd = [sys.executable, "-m", "a4toric", "verify", "--json", "--reproducible"]
    # The two processes run side by side; neither reads the other's output.
    procs = [
        subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env)
        for _ in range(2)
    ]
    (first, first_err), (second, second_err) = (p.communicate(timeout=300) for p in procs)
    codes = [p.returncode for p in procs]
    ok = codes == [0, 0] and first == second
    _announce(acceptance_log, 10,
        "two full verification runs in fresh processes are byte-identical",
        ok,
    )
    assert codes[0] == 0, first_err.decode()
    assert codes[1] == 0, second_err.decode()
    assert first == second
    assert len(first) > 0
