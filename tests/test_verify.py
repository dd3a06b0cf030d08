from __future__ import annotations

import dataclasses
import re

import pytest

from a4toric.d4fan import Stabilizer
from a4toric.intersection import IntersectionEngine
from a4toric.verify import _permutes_facets, run_all


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


def test_permutes_facets_accepts_the_stabilizer(star, stabilizer):
    assert _permutes_facets(12, [f.incident for f in star.facets], stabilizer)


def test_stabilizer_check_fails_on_a_non_bijection(star, stabilizer, engine):
    first = stabilizer.elements[0]
    # Ray 0 and ray 1 both go to ray 0: every facet still lands on a set
    # of rays, but the map is not a permutation.
    collapsed = (0, 0) + first.ray_permutation[2:]
    elements = (dataclasses.replace(first, ray_permutation=collapsed),) + stabilizer.elements[1:]
    broken = Stabilizer(elements)
    report = run_all(star=star, stabilizer=broken, engine=engine)
    check = _check(report, "stabilizer")
    assert not check.passed
    assert check.actual == "1152 (does not permute cones)"


@pytest.mark.parametrize(
    ("elements", "actual"),
    [
        (lambda els: (), "0 (permutes cones)"),
        (lambda els: (els[0],) * len(els), "1 (permutes cones)"),
    ],
    ids=["empty", "one_element_repeated"],
)
def test_stabilizer_check_counts_distinct_matrices(star, stabilizer, engine, elements, actual):
    broken = Stabilizer(elements(stabilizer.elements))
    report = run_all(star, broken, engine)
    check = _check(report, "stabilizer")
    assert not check.passed
    assert check.actual == actual
    assert not _check(report, "second_table").passed
    assert _check(report, "exceptional_top_power").passed


def test_stabilizer_check_fails_on_ragged_or_stray_facets(star, stabilizer):
    facets = [f.incident for f in star.facets]
    ragged = [facets[0] - {min(facets[0])}] + facets[1:]
    assert not _permutes_facets(12, ragged, stabilizer)
    stray = [facets[0] | {12}] + facets[1:]
    assert not _permutes_facets(12, stray, stabilizer)


def test_row_sweep_counts_the_rows_iter_rows_gives(star, stabilizer, system_rows):
    eng = IntersectionEngine(star.fan, star.e_index)
    # E^2 times the eight divisors of the last multiplier: a deep unknown,
    # so the corrupted value spreads to every entry computed from it.
    last = eng.system.multipliers[-1]
    mono = (last[0] + 1,) + last[1:]
    eng._eval(mono)
    eng._memo[mono] += 1
    report = run_all(star=star, stabilizer=stabilizer, engine=eng)
    check = _check(report, "engine_agreement")
    assert not check.passed
    reported = int(re.search(r"(\d+) nonzero rows of 33110", check.actual).group(1))
    counted = sum(
        1
        for r in system_rows(eng.system)
        if sum(coeff * eng._eval(m) for m, coeff in r.products) != 0
    )
    assert counted > 10
    assert reported == counted
