"""Structured verification checks over the whole computation.

Each check compares freshly computed values against frozen expected
values and returns exact expected/actual strings; the command-line
front end renders one PASS/FAIL line per check and the acceptance
tests assert each check individually. Nothing here rounds or
approximates: a check passes only on exact equality.
"""

from __future__ import annotations

import os
import random
import sys
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb, lcm
from typing import Callable, NamedTuple, NoReturn, Sequence

from .cones import Cone, Fan, enumerate_facets
from .d4fan import StarFan, Stabilizer, build_star_fan, facet_permutation_test
from .exact import int_det, primitive_vector, rref
from .intersection import IntersectionEngine, format_monomial
from .proportionality import ProportionalityResult, bernoulli, l_top
from .tables import (
    FaberData,
    IgusaTable,
    TOP_DEGREE,
    igusa_table,
    verify_recurrence,
    voronoi_table,
)

__all__ = [
    "CheckResult",
    "VerifyReport",
    "run_all",
    "projective_plane_fan",
    "plane_blowup_fan",
    "EXPECTED_FIRST_TABLE",
    "EXPECTED_E_TOP",
    "EXPECTED_STABILIZER_ORDER",
]

# Frozen expected values; every check recomputes its actual value from
# scratch and compares exactly.
EXPECTED_L_TOP = Fraction(1, 907200)
EXPECTED_L_TOP_STACK = Fraction(1, 1814400)
EXPECTED_RAY_COUNT = 12
EXPECTED_FACET_COUNT = 64
EXPECTED_STABILIZER_ORDER = 1152
EXPECTED_E_TOP = -1680
EXPECTED_CORNER = Fraction(-35, 24)
# a_0 .. a_10 in ascending index order.
EXPECTED_FIRST_TABLE = (
    Fraction(101449217, 1440),
    Fraction(1636249, 1080),
    Fraction(0),
    Fraction(-1759, 1680),
    Fraction(0),
    Fraction(0),
    Fraction(-1, 3780),
    Fraction(0),
    Fraction(0),
    Fraction(0),
    Fraction(1, 907200),
)


class CheckResult(NamedTuple):
    name: str
    description: str
    expected: str
    actual: str
    passed: bool


class VerifyReport(NamedTuple):
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def projective_plane_fan() -> Fan:
    """Complete fan of the projective plane; any ray's divisor has top
    self-intersection 1."""
    return Fan(
        rays=((1, 0), (0, 1), (-1, -1)),
        top_cones=(frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})),
    )


def plane_blowup_fan() -> Fan:
    """Star of the exceptional ray of the plane blown up at the origin;
    the exceptional curve has self-intersection -1."""
    return Fan(
        rays=((1, 0), (0, 1), (1, 1)),
        top_cones=(frozenset({0, 2}), frozenset({1, 2})),
    )


class _Context:
    """What the checks read: the fan under test, its stabilizer and its
    engine, the tables that the caller-side checks share, each computed
    on first use, and, once the worker has joined, check 10's rebuild."""

    def __init__(self, star: StarFan, stabilizer: Stabilizer, engine: IntersectionEngine):
        self.star, self.stabilizer, self.engine = star, stabilizer, engine
        self.rebuilt: tuple[bool, int, bool] | None = None

    @cached_property
    def lt(self) -> ProportionalityResult:
        return l_top(4)

    @cached_property
    def faber(self) -> FaberData:
        return FaberData.default()

    @cached_property
    def igusa(self) -> IgusaTable:
        return igusa_table(self.lt.value, self.faber)


def _cofactor_det(rows: Sequence[Sequence[int]]) -> int:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = rows[0][j] * _cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def _facets_by_subset_scan(cone: Cone):
    """Independent facet oracle: a facet of a d-dimensional cone holds d-1
    independent generators, so every (d-1)-subset of the generators is
    tested for spanning a supporting hyperplane, and the hyperplane's zero
    set on the generators is that facet's.

    The candidate normal is read off the subset's pairings with an integer
    basis of the span, the rational reduced row echelon rows each scaled
    by the lcm of its denominators: its coefficients in that basis are the
    signed (d-1)-minors of those pairings, by cofactor expansion rather
    than the fraction-free elimination that enumerate_facets uses."""
    gens = cone.generators
    red, pivots = rref(gens)
    d = len(pivots)
    if d <= 1:
        return frozenset()
    basis = [[int(x * lcm(*(y.denominator for y in row))) for x in row] for row in red[:d]]
    # Each generator's pairings with the basis, computed once for all
    # the subsets it belongs to.
    projected = [[sum(a * b for a, b in zip(g, row)) for row in basis] for g in gens]
    results = set()
    for subset in combinations(projected, d - 1):
        coeffs = [
            (-1) ** j * _cofactor_det([p[:j] + p[j + 1 :] for p in subset]) for j in range(d)
        ]
        if not any(coeffs):
            continue
        normal = primitive_vector(
            [sum(c * row[k] for c, row in zip(coeffs, basis)) for k in range(cone.ambient)]
        )
        values = [sum(a * b for a, b in zip(normal, g)) for g in gens]
        if any(v > 0 for v in values) and any(v < 0 for v in values):
            continue
        if any(v < 0 for v in values):
            normal = tuple(-x for x in normal)
            values = [-v for v in values]
        results.add((normal, frozenset(i for i, v in enumerate(values) if v == 0)))
    return frozenset(results)


def _permutes_facets(
    n_rays: int, facets: Sequence[frozenset[int]], stabilizer: Stabilizer
) -> bool:
    """Whether every facet names rays of the fan only and every element's
    ray permutation is a bijection of the rays that maps the facets onto
    themselves (`facet_permutation_test`). Each distinct permutation is
    tested once: g and -g induce the same one."""
    every = list(range(n_rays))
    if not set().union(*facets) <= set(every):
        return False
    permutes = facet_permutation_test(n_rays, facets)
    return all(
        sorted(perm) == every and permutes(perm)
        for perm in dict.fromkeys(el.ray_permutation for el in stabilizer.elements)
    )


def _oracle_cones() -> list[Cone]:
    return [
        Cone(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
        Cone(3, ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1))),
        Cone(4, tuple((a, b, c, 1) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1))),
        Cone(3, ((1, 0, 0), (1, 2, 0))),
    ]


class _Worker:
    """`fn(*args)` run in a forked process while the calling process goes on.

    The fork inherits everything fn reads, so nothing is sent to the
    worker; only fn's outcome comes back, pickled over a pipe. `join`
    waits for it and returns fn's result, or raises fn's exception with
    its type. The worker never prints and ends with `os._exit`, so it
    runs no exit handler and flushes no buffer it inherited. Leaving the
    with block reaps the worker, killing it first if it was not joined.
    Where `os.fork` does not exist or the system refuses it, `join`
    calls fn in this process. A fork copies only the calling thread, so
    the caller must start no thread of its own; the command line and the
    tests start none.

    The fork stays because it measures better. In one process verify's
    worker half takes 79-91 ms and its calling half 176-258 ms, and the
    fork runs the first beside the second. Cold `verify --json
    --reproducible` (`bench/run.py --workload verify_cold`, 2 shared
    cores, CPython 3.11), forked against in-process, in alternating
    pairs: 10 pairs of 40 s read 3.52 against 2.92 runs/s (forked faster
    in 10 of 10), p50 0.266 against 0.326 s and peak RSS 24.5 against
    29.4 MB, 20 % more; 4 pairs of 15 s read p50 0.24-0.37 against
    0.33-0.58 s.
    """

    def __init__(self, fn, *args):
        self.fn, self.args, self.pid = fn, args, None
        if hasattr(os, "fork"):
            sys.stdout.flush()
            sys.stderr.flush()
            self.fd, write = os.pipe()
            try:
                self.pid = os.fork()
            except OSError:
                # A refused fork (EAGAIN, ENOMEM) leaves pid None, so join
                # runs fn here.
                os.close(self.fd)
                os.close(write)
                return
            if self.pid == 0:
                os.close(self.fd)
                _serve(write, fn, args)
            os.close(write)

    def __enter__(self) -> _Worker:
        return self

    def __exit__(self, *exc_info) -> None:
        if self.pid is not None:
            import signal

            os.close(self.fd)
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None

    def join(self):
        if self.pid is None:
            return self.fn(*self.args)
        import pickle

        pid, self.pid = self.pid, None
        try:
            with open(self.fd, "rb") as pipe:
                data = pipe.read()
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if not data:
            raise RuntimeError(f"the verify worker ended without a result, exit status {status}")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value


def _serve(fd: int, fn, args) -> NoReturn:
    """The worker's whole life: run fn, write its pickled outcome to fd
    and end without running any exit handler."""
    try:
        import pickle

        try:
            outcome = (True, fn(*args))
        except BaseException as exc:
            outcome = (False, exc)
        try:
            data = pickle.dumps(outcome)
            pickle.loads(data)
        except Exception:
            # An outcome that does not survive pickling is sent as text.
            data = pickle.dumps((False, RuntimeError(f"{type(outcome[1]).__name__}: {outcome[1]}")))
        with open(fd, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


# Each check is a function of the context that returns its expected and
# actual strings. A check that tests several conditions expects "ok" and
# otherwise names what failed.


def _hodge_top_power(ctx: _Context) -> tuple[str, str]:
    expected = f"{EXPECTED_L_TOP} (stack {EXPECTED_L_TOP_STACK})"
    return expected, f"{ctx.lt.value} (stack {ctx.lt.stack_value})"


def _first_table(ctx: _Context) -> tuple[str, str]:
    return (
        " ".join(str(v) for v in EXPECTED_FIRST_TABLE),
        " ".join(str(ctx.igusa.a(k)) for k in range(TOP_DEGREE + 1)),
    )


def _recurrence_closure(ctx: _Context) -> tuple[str, str]:
    """The input constants against the frozen table, and the derived table."""
    faber, igusa, frozen = ctx.faber, ctx.igusa, IgusaTable(EXPECTED_FIRST_TABLE)
    problems = []
    if any(faber.b(k - 1) != 8 * frozen.a(k) - frozen.a(k - 1) for k in range(TOP_DEGREE, 0, -1)):
        problems.append("input constants contradict the frozen table")
    ok_derived, failing = verify_recurrence(igusa, faber)
    if not ok_derived:
        problems.append(f"derived table breaks the recurrence at k={failing}")
    if not igusa.a(9) == igusa.a(8) == igusa.a(7) == 0:
        problems.append("a_9, a_8, a_7 are not all zero")
    return "ok", "; ".join(problems) or "ok"


def _fan_combinatorics(ctx: _Context) -> tuple[str, str]:
    star = ctx.star
    nine_each = all(len(f.incident) == 9 for f in star.facets)
    basic = all(
        abs(int_det([star.fan.rays[i] for i in sorted(c)])) == 1 for c in star.fan.top_cones
    )
    return (
        f"rays {EXPECTED_RAY_COUNT}, facets {EXPECTED_FACET_COUNT} (9 rays each), "
        f"cones {EXPECTED_FACET_COUNT} (all |det| 1)",
        f"rays {len(star.ray_vectors)}, facets {len(star.facets)} "
        f"({'9 rays each' if nine_each else 'ragged'}), "
        f"cones {len(star.fan.top_cones)} "
        f"({'all |det| 1' if basic else 'non-basic cone present'})",
    )


def _stabilizer(ctx: _Context) -> tuple[str, str]:
    """The order counts distinct matrices."""
    star, stabilizer = ctx.star, ctx.stabilizer
    permutes = _permutes_facets(
        len(star.ray_vectors), [f.incident for f in star.facets], stabilizer
    )
    return (
        f"{EXPECTED_STABILIZER_ORDER} (permutes cones)",
        f"{stabilizer.order} ({'permutes cones' if permutes else 'does not permute cones'})",
    )


def _exceptional_top_power(ctx: _Context) -> tuple[str, str]:
    sol = ctx.engine.solution
    # The assembled blocks write n_unknowns values, so the rank reaches
    # n_unknowns exactly when no key was solved twice; a key solved twice
    # is also a problem of the solve, which fails the check.
    unique = sol.rank == sol.n_unknowns
    return (
        f"{EXPECTED_E_TOP} (consistent, unique)",
        f"{sol.e_top} ({'consistent' if sol.consistent else 'inconsistent'}, "
        f"{'unique' if unique else 'underdetermined'})"
        + (f"; first problem: {sol.problems[0]}" if sol.problems else ""),
    )


def _engine_agreement(ctx: _Context) -> tuple[str, str]:
    """The rows are rebuilt from the raw relations rather than the shared
    cone atlas. All rows of one multiplier share its monomials, one per
    ray some relation uses: each is evaluated once per multiplier, and
    its nonzero value times the ray's column of the relations is added to
    the row sums. The bumps by rays of the support are the block's
    unknowns, looked up in the solution by packed key. Every monomial
    comes from the system itself, so the sweep skips the argument checks
    of the public evaluate and hands it the packed key's bytes, which are
    the evaluator's memo key."""
    system, sol = ctx.engine.system, ctx.engine.solution
    evaluate = ctx.engine._eval
    unpack = system.keys.unpack
    n_rays = system.keys.n_rays
    ray_terms = [
        (1 << r, system.keys.ones[r], terms)
        for r, column in enumerate(zip(*(rel.coefficients for rel in system.relations)))
        if (terms := [(j, coeff) for j, coeff in enumerate(column) if coeff])
    ]
    mismatched: dict[int, None] = {}
    bad_rows: list[tuple[int, int]] = []
    for mkey, s in system.blocks:
        supp = s | 1 << system.e_index
        sums = [0] * len(system.relations)
        for bit, one, terms in ray_terms:
            key = mkey + one
            value = evaluate(key.to_bytes(n_rays, "big"))
            if supp & bit and sol.by_key.get(key) != value:
                mismatched[key] = None
            if value:
                for j, coeff in terms:
                    sums[j] += coeff * value
        bad_rows += [(mkey, j) for j, total in enumerate(sums) if total]
    located = [f"; first mismatch: {format_monomial(unpack(k))}" for k in list(mismatched)[:1]]
    located += [
        f"; first nonzero row: {format_monomial(unpack(mkey))} times relation "
        f"{system.relations[j].index}"
        for mkey, j in bad_rows[:1]
    ]
    return (
        f"0 mismatches on {sol.n_unknowns} unknowns, 0 nonzero rows of {sol.n_rows}",
        f"{len(mismatched)} mismatches on {sol.n_unknowns} unknowns, "
        f"{len(bad_rows)} nonzero rows of {sol.n_rows}" + "".join(located),
    )


def _second_table(ctx: _Context) -> tuple[str, str]:
    """Both factors of the corner are computed. A group with no elements
    leaves the corner undefined, which fails the check."""
    e_top, order, igusa = ctx.engine.solution.e_top, ctx.stabilizer.order, ctx.igusa
    actual = f"no corner: group order {order}"
    if order:
        corner = Fraction(e_top, order)
        vor = voronoi_table(igusa, Fraction(e_top), order)
        column_ok = all(vor.a(k, 0) == igusa.a(k) for k in range(TOP_DEGREE + 1))
        band_ok = all(
            vor.a(k, l) == 0
            for k in range(TOP_DEGREE + 1)
            for l in range(1, min(TOP_DEGREE, TOP_DEGREE - k) + 1)
            if (k, l) != (0, TOP_DEGREE)
        )
        actual = (
            f"corner {vor.a(0, TOP_DEGREE)} = {e_top}/{order}, "
            f"{'column match' if column_ok else 'column mismatch'}, "
            f"{'zero band' if band_ok and corner == vor.a(0, TOP_DEGREE) else 'nonzero band'}"
        )
    expected = f"corner {EXPECTED_CORNER} = {EXPECTED_E_TOP}/{EXPECTED_STABILIZER_ORDER}"
    return f"{expected}, column match, zero band", actual


def _oracle_suites(ctx: _Context) -> tuple[str, str]:
    problems: list[str] = []
    for cone in _oracle_cones():
        direct = frozenset((f.normal, f.incident) for f in enumerate_facets(cone))
        if direct != _facets_by_subset_scan(cone):
            problems.append(f"facet oracle disagrees on {cone.generators}")
    rng = random.Random(271828)
    for n in (1, 2, 3, 4):
        for _ in range(8):
            mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if int_det(mat) != _cofactor_det(mat):
                problems.append(f"determinant oracle disagrees on {mat}")
    for n in range(1, 21):
        if sum(comb(n + 1, k) * bernoulli(k) for k in range(n + 1)) != 0:
            problems.append(f"Bernoulli recurrence fails at n={n}")
    for n in range(2, 21, 2):
        denom = 1
        for p in range(2, n + 2):
            if all(p % q for q in range(2, p)) and n % (p - 1) == 0:
                denom *= p
        if bernoulli(n).denominator != denom:
            problems.append(f"von Staudt-Clausen denominator fails at n={n}")
    for name, fan, e_index, expected in (
        ("projective plane", projective_plane_fan(), 0, 1),
        ("plane blow-up", plane_blowup_fan(), 2, -1),
    ):
        toy = IntersectionEngine(fan, e_index)
        top = tuple(fan.ambient if i == e_index else 0 for i in range(len(fan.rays)))
        if toy.evaluate(top) != expected or toy.e_top != expected:
            problems.append(f"toy fan {name} disagrees with {expected}")
    return "ok", "; ".join(problems[:3]) or "ok"


def _determinism(ctx: _Context) -> tuple[str, str]:
    """The worker's rebuild against the engine's solution. Byte-identity
    of the full command output is asserted end to end by the acceptance
    tests."""
    sol = ctx.engine.solution
    ok = ctx.rebuilt == (True, sol.e_top, sol.consistent)
    return "ok", "ok" if ok else "rebuild or rendering drifted"


# Where a check runs: in the calling process while the worker runs, in
# the forked worker (reading only the fan, the stabilizer, frozen
# constants and fresh builds), or in the calling process once the worker
# has joined.
_CALLER, _WORKER, _JOINED = "caller", "worker", "joined"


class _Check(NamedTuple):
    name: str
    side: str
    fn: Callable[[_Context], tuple[str, str]]
    description: str

    def run(self, ctx: _Context) -> CheckResult:
        expected, actual = self.fn(ctx)
        return CheckResult(self.name, self.description, expected, actual, expected == actual)


# The checks in report order.
_CHECKS = (
    _Check("hodge_top_power", _CALLER, _hodge_top_power,
           "closed-form top self-intersection of the weight-one class at genus 4, "
           "with the stack variant equal to half of it"),
    _Check("first_table", _CALLER, _first_table,
           "boundary intersection table on the first compactification, filled "
           "downward from the top power by the recurrence"),
    _Check("recurrence_closure", _CALLER, _recurrence_closure,
           "input constants satisfy b_(k-1) = 8 a_k - a_(k-1) against the frozen "
           "table; the three entries below the top vanish (codimension of the "
           "deeper boundary)"),
    _Check("fan_combinatorics", _WORKER, _fan_combinatorics,
           "ray, facet, and cone counts of the subdivided cone, every facet with "
           "nine rays and every cone basic"),
    _Check("stabilizer", _WORKER, _stabilizer,
           "order of the automorphism group of the quartic form, every element "
           "permuting the top cones"),
    _Check("exceptional_top_power", _CALLER, _exceptional_top_power,
           "top self-intersection of the exceptional divisor from the block "
           "linear system, reported consistent and uniquely determined"),
    _Check("engine_agreement", _CALLER, _engine_agreement,
           "recursive evaluator agrees with the linear-system solution on every "
           "unknown, and every relation-times-multiplier row sums to zero"),
    _Check("second_table", _CALLER, _second_table,
           "corner entry equals the toric count divided by the computed group "
           "order; first column matches the first table; interior band vanishes"),
    _Check("oracle_suites", _WORKER, _oracle_suites,
           "facet enumeration vs subset scan, determinant vs cofactor expansion, "
           "Bernoulli recurrence and von Staudt-Clausen denominators, toy-fan "
           "self-intersections via both engines"),
    _Check("determinism", _JOINED, _determinism,
           "an independent rebuild reproduces the fan and the solved system "
           "exactly, and rendering the report twice is byte-identical"),
)


def _run_side(ctx: _Context, side: str) -> dict[str, CheckResult]:
    return {check.name: check.run(ctx) for check in _CHECKS if check.side == side}


def _worker_side(ctx: _Context) -> tuple[dict[str, CheckResult], tuple[bool, int, bool]]:
    """The worker's checks, then check 10's independent rebuild and
    re-solve: whether its `StarFan` record equals `ctx.star` in every
    field, and so renders the same, with its own E^n and consistency."""
    results = _run_side(ctx, _WORKER)
    fresh_star = build_star_fan()
    fresh = IntersectionEngine(fresh_star.fan, fresh_star.e_index).solution
    return results, (fresh_star == ctx.star, fresh.e_top, fresh.consistent)


def run_all(star: StarFan, stabilizer: Stabilizer, engine: IntersectionEngine) -> VerifyReport:
    """Run every check over a built fan, its stabilizer and an engine on
    that fan, and return their results in the order of `_CHECKS`. A forked
    worker runs the worker side while this process solves and sweeps the
    engine for the caller side."""
    ctx = _Context(star, stabilizer, engine)
    with _Worker(_worker_side, ctx) as worker:
        results = _run_side(ctx, _CALLER)
        worker_results, ctx.rebuilt = worker.join()
    results.update(worker_results, **_run_side(ctx, _JOINED))
    return VerifyReport(tuple(results[check.name] for check in _CHECKS))
