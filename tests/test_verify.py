from __future__ import annotations

import errno
import os
import re

import pytest

from a4toric import verify
from a4toric.cones import Fan
from a4toric.d4fan import FanConstructionError, Stabilizer, facet_permutation_test
from a4toric.intersection import (
    IntersectionEngine,
    LinearRelation,
    assemble_system,
    build_relations,
    format_monomial,
    solve_system,
)
from a4toric.verify import _permutes_facets, run_all


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


def test_permutes_facets_accepts_the_stabilizer(star, stabilizer):
    facets = [f.incident for f in star.facets]
    permutes = facet_permutation_test(12, facets)
    assert all(permutes(el.ray_permutation) for el in stabilizer.elements)
    assert _permutes_facets(12, facets, stabilizer)


def test_stabilizer_check_fails_on_a_non_bijection(star, stabilizer, engine):
    first = stabilizer.elements[0]
    # Ray 0 and ray 1 both go to ray 0: every facet still lands on a set
    # of rays, but the map is not a permutation.
    collapsed = (0, 0) + first.ray_permutation[2:]
    elements = (first._replace(ray_permutation=collapsed),) + stabilizer.elements[1:]
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
    permutes = facet_permutation_test(12, ragged)
    assert not all(permutes(el.ray_permutation) for el in stabilizer.elements)
    assert not _permutes_facets(12, ragged, stabilizer)
    # A ray outside the fan is outside every complement, so check 5's
    # ray-range test is what rejects it.
    stray = [facets[0] | {12}] + facets[1:]
    assert not _permutes_facets(12, stray, stabilizer)


def test_stabilizer_check_fails_on_one_bad_member_of_a_pair(star, stabilizer):
    # g and -g induce one ray permutation, which check 5's verdict,
    # `_permutes_facets`, tests once. A bijection that moves no facet onto
    # a facet, given to either member of the pair alone, is a second
    # permutation, and is still tested.
    facets = [f.incident for f in star.facets]
    permutes = facet_permutation_test(12, facets)
    els = stabilizer.elements
    neg = tuple(tuple(-x for x in row) for row in els[0].matrix)
    pair = (0, next(i for i, el in enumerate(els) if el.matrix == neg))
    perm = els[0].ray_permutation
    assert els[pair[1]].ray_permutation == perm
    swapped = next(
        bad
        for i in range(12)
        for k in range(i)
        if not permutes(bad := perm[:k] + (perm[i],) + perm[k + 1 : i] + (perm[k],) + perm[i + 1 :])
    )
    for member in pair:
        elements = els[:member] + (els[member]._replace(ray_permutation=swapped),) + els[member + 1 :]
        assert not _permutes_facets(12, facets, Stabilizer(elements))


def _ragged(star):
    first = star.facets[0]
    ragged = first._replace(incident=first.incident - {min(first.incident)})
    return star._replace(facets=(ragged,) + star.facets[1:])


def _non_basic(star):
    rays, tops = star.fan
    doubled = (tuple(2 * x for x in rays[0]),) + rays[1:]
    # Fan's own constructor refuses a non-basic cone.
    return star._replace(fan=tuple.__new__(Fan, (doubled, tops)))


@pytest.mark.parametrize(
    ("broken", "actual"),
    [
        (
            lambda star: star._replace(ray_vectors=star.ray_vectors[:11]),
            "rays 11, facets 64 (9 rays each), cones 64 (all |det| 1)",
        ),
        (_ragged, "rays 12, facets 64 (ragged), cones 64 (all |det| 1)"),
        (_non_basic, "rays 12, facets 64 (9 rays each), cones 64 (non-basic cone present)"),
    ],
    ids=["ray_missing", "ragged_facet", "non_basic_cone"],
)
def test_fan_check_names_what_is_wrong(star, stabilizer, broken, actual):
    ctx = verify._Context(broken(star), stabilizer, None)
    check = verify._run_side(ctx, verify._WORKER)["fan_combinatorics"]
    assert check.name == "fan_combinatorics"
    assert not check.passed
    assert check.actual == actual


class _UnsolvedEngine(IntersectionEngine):
    """An engine whose block system and solution must not be read."""

    @property
    def system(self):
        raise AssertionError("the block system was read")

    @property
    def solution(self):
        raise AssertionError("the solution was read")


def test_worker_side_reads_nothing_of_the_engines_solve(star, stabilizer):
    ctx = verify._Context(star, stabilizer, _UnsolvedEngine(star.fan, star.e_index))
    results, rebuilt = verify._worker_side(ctx)
    assert list(results) == ["fan_combinatorics", "stabilizer", "oracle_suites"]
    assert all(check.passed for check in results.values())
    assert rebuilt == (True, -1680, True)


def test_row_sweep_counts_the_rows_iter_rows_gives(star, stabilizer, system_rows):
    eng = IntersectionEngine(star.fan, star.e_index)
    # E^2 times the eight divisors of the last multiplier: a deep unknown,
    # so the corrupted value spreads to every entry computed from it.
    last = eng.system.multipliers[-1]
    mono = (last[0] + 1,) + last[1:]
    eng._eval(bytes(mono))
    eng._memo[bytes(mono)] += 1
    report = run_all(star=star, stabilizer=stabilizer, engine=eng)
    check = _check(report, "engine_agreement")
    assert not check.passed
    reported = int(re.search(r"(\d+) nonzero rows of 33110", check.actual).group(1))
    rows = [
        r
        for r in system_rows(eng.system)
        if sum(coeff * eng.evaluate(m) for m, coeff in r.products) != 0
    ]
    assert len(rows) > 10
    assert reported == len(rows)
    # The sweep names the first unknown, in multiplier order and then ray
    # order, whose recursive value differs from the block solve, and the
    # first nonzero row.
    values = eng.solution.values
    first = next(
        m
        for mult in eng.system.multipliers
        for r in range(13)
        if mult[r] or r == 0
        for m in (mult[:r] + (mult[r] + 1,) + mult[r + 1 :],)
        if eng.evaluate(m) != values[m]
    )
    assert f"; first mismatch: {format_monomial(first)};" in check.actual
    assert check.actual.endswith(
        f"; first nonzero row: {format_monomial(rows[0].multiplier)} "
        f"times relation {rows[0].relation_index}"
    )


def test_inconsistent_system_names_its_first_problem(star, stabilizer):
    # Raising D1's coefficient in relation 0 by 2 keeps every cone the
    # solver inverts unimodular and E^10 at -1680, but breaks wall
    # relations: the system becomes inconsistent.
    relations = list(build_relations(star.fan))
    coefficients = list(relations[0].coefficients)
    coefficients[1] += 2
    relations[0] = LinearRelation(0, tuple(coefficients))
    eng = IntersectionEngine(star.fan, star.e_index)
    eng.solution = solve_system(assemble_system(star.fan, tuple(relations), star.e_index))
    problems = eng.solution.problems
    assert problems[0] == (
        "block E*D2*D5*D6*D8*D9*D10*D11*D12: coefficient of ray 7 must vanish but equals -2"
    )
    check = _check(run_all(star, stabilizer, eng), "exceptional_top_power")
    assert not check.passed
    assert check.actual == f"-1680 (inconsistent, unique); first problem: {problems[0]}"


def _assert_no_child():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_all_leaves_no_process(star, stabilizer, engine):
    assert run_all(star, stabilizer, engine).all_passed
    _assert_no_child()


def test_run_all_without_fork_runs_in_process(star, stabilizer, engine, monkeypatch):
    forked = run_all(star, stabilizer, engine)
    monkeypatch.delattr(os, "fork")
    assert run_all(star, stabilizer, engine) == forked
    _assert_no_child()


def test_forked_and_in_process_reports_agree_on_failures(star, stabilizer, monkeypatch):
    # Check 5 runs in the worker and fails on a non-bijective element;
    # check 7 runs in the caller and fails on a corrupted memo entry.
    first = stabilizer.elements[0]
    collapsed = first._replace(ray_permutation=(0, 0) + first.ray_permutation[2:])
    broken = Stabilizer((collapsed,) + stabilizer.elements[1:])
    eng = IntersectionEngine(star.fan, star.e_index)
    last = eng.system.multipliers[-1]
    mono = bytes((last[0] + 1,) + last[1:])
    eng._eval(mono)
    eng._memo[mono] += 1
    forked = run_all(star, broken, eng)
    monkeypatch.delattr(os, "fork")
    in_process = run_all(star, broken, eng)
    assert [c.name for c in forked.checks if not c.passed] == ["stabilizer", "engine_agreement"]
    assert len(in_process.checks) == len(forked.checks) == 10
    for ours, theirs in zip(in_process.checks, forked.checks):
        assert ours == theirs
    _assert_no_child()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_refused_fork_runs_the_worker_in_process(star, stabilizer, engine, monkeypatch):
    forked = run_all(star, stabilizer, engine)
    fds = set(os.listdir("/proc/self/fd"))

    def refuse():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refuse)
    assert run_all(star, stabilizer, engine) == forked
    _assert_no_child()
    assert set(os.listdir("/proc/self/fd")) == fds


def test_run_all_reaps_the_worker_when_a_calling_check_raises(
    star, stabilizer, engine, monkeypatch
):
    # Check 1 runs in the calling process while the worker still runs.
    def broken(genus):
        raise RuntimeError("l_top broken")

    monkeypatch.setattr(verify, "l_top", broken)
    with pytest.raises(RuntimeError, match="l_top broken"):
        run_all(star, stabilizer, engine)
    _assert_no_child()


def test_worker_exception_keeps_its_type(star, stabilizer, engine, monkeypatch):
    # Check 10's rebuild runs in the worker.
    def broken(*args, **kwargs):
        raise FanConstructionError("rebuild broken")

    monkeypatch.setattr(verify, "build_star_fan", broken)
    with pytest.raises(FanConstructionError, match="rebuild broken"):
        run_all(star, stabilizer, engine)
    _assert_no_child()


def test_worker_dying_without_a_result_names_its_status(star, stabilizer, engine, monkeypatch):
    monkeypatch.setattr(verify, "_worker_side", lambda *args: os._exit(3))
    with pytest.raises(RuntimeError, match="without a result, exit status 3"):
        run_all(star, stabilizer, engine)
    _assert_no_child()
