"""Structured verification checks over the whole computation.

Each check compares freshly computed values against frozen expected
values and returns exact expected/actual strings; the command-line
front end renders one PASS/FAIL line per check and the acceptance
tests assert each check individually. Nothing here rounds or
approximates: a check passes only on exact equality.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from typing import Sequence

from .cones import Cone, Fan, enumerate_facets
from .d4fan import StarFan, Stabilizer, build_star_fan
from .exact import int_det, primitive_vector, rref
from .intersection import IntersectionEngine
from .proportionality import bernoulli, l_top
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    description: str
    expected: str
    actual: str
    passed: bool


@dataclass(frozen=True)
class VerifyReport:
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


def _fmt(x) -> str:
    return str(Fraction(x)) if not isinstance(x, str) else x


def _check(name: str, description: str, expected, actual) -> CheckResult:
    e, a = _fmt(expected), _fmt(actual)
    return CheckResult(name, description, e, a, e == a)


def _check_flag(name: str, description: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, description, "ok", "ok" if ok else (detail or "failed"), ok)


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


def _rref_kernel_line(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[Fraction] | None:
    """Spanning vector of a one-dimensional kernel, read off the rational
    reduced row echelon form rather than the fraction-free elimination
    that enumerate_facets uses."""
    red, pivots = rref(rows)
    if ncols - len(pivots) != 1:
        return None
    free = next(c for c in range(ncols) if c not in pivots)
    vec = [Fraction(0)] * ncols
    vec[free] = Fraction(1)
    for r, c in enumerate(pivots):
        vec[c] = -red[r][free]
    return vec


def _facets_by_subset_scan(cone: Cone):
    """Independent facet oracle: test every generator subset for spanning
    a supporting hyperplane whose zero set is exactly that subset."""
    gens = cone.generators
    red, pivots = rref(gens)
    d = len(pivots)
    if d <= 1:
        return frozenset()
    basis = [red[i] for i in range(d)]
    # Each generator's pairings with the basis, computed once for all
    # the subsets it belongs to.
    projected = [
        [sum(Fraction(g[k]) * b[k] for k in range(cone.ambient)) for b in basis]
        for g in gens
    ]
    results = set()
    for size in range(1, len(gens)):
        for subset in combinations(range(len(gens)), size):
            constraint = [projected[i] for i in subset]
            coeffs = _rref_kernel_line(constraint, d)
            if coeffs is None:
                continue
            vec = [
                sum(coeffs[j] * basis[j][k] for j in range(d))
                for k in range(cone.ambient)
            ]
            mult = lcm(*(x.denominator for x in vec))
            normal = primitive_vector([int(x * mult) for x in vec])
            values = [sum(a * b for a, b in zip(normal, g)) for g in gens]
            if any(v > 0 for v in values) and any(v < 0 for v in values):
                continue
            if all(v == 0 for v in values):
                continue
            if any(v < 0 for v in values):
                normal = tuple(-x for x in normal)
                values = [-v for v in values]
            incident = frozenset(i for i, v in enumerate(values) if v == 0)
            if incident == frozenset(subset):
                results.add((normal, incident))
    return frozenset(results)


def _permutes_facets(
    n_rays: int, facets: Sequence[frozenset[int]], stabilizer: Stabilizer
) -> bool:
    """Whether every element's ray permutation is a bijection of the rays
    that maps the facets onto themselves.

    A bijection maps a facet onto a facet exactly when it maps the rays
    that facet leaves out onto the rays another facet leaves out, so the
    test runs on bitmasks of those complements, whatever their sizes.
    A facet naming a ray outside the fan fails the test.
    """
    every = frozenset(range(n_rays))
    if any(not inc <= every for inc in facets):
        return False
    complements = [tuple(every - inc) for inc in facets]
    masks = frozenset(sum(1 << i for i in comp) for comp in complements)
    for el in stabilizer.elements:
        perm = el.ray_permutation
        if sorted(perm) != list(range(n_rays)):
            return False
        bits = [1 << p for p in perm]
        for comp in complements:
            image = 0
            for i in comp:
                image |= bits[i]
            if image not in masks:
                return False
    return True


def _oracle_cones() -> list[Cone]:
    return [
        Cone(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
        Cone(3, ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1))),
        Cone(4, tuple((a, b, c, 1) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1))),
        Cone(3, ((1, 0, 0), (1, 2, 0))),
    ]


def run_all(star: StarFan, stabilizer: Stabilizer, engine: IntersectionEngine) -> VerifyReport:
    """Run the full check suite over a built fan, its stabilizer and an
    engine on that fan, and return one result per criterion."""
    faber = FaberData.default()
    checks: list[CheckResult] = []

    # 1. Closed-form top power of the weight-one class.
    lt = l_top(4)
    checks.append(
        _check(
            "hodge_top_power",
            "closed-form top self-intersection of the weight-one class at genus 4, "
            "with the stack variant equal to half of it",
            f"{EXPECTED_L_TOP} (stack {EXPECTED_L_TOP_STACK})",
            f"{lt.value} (stack {lt.stack_value})",
        )
    )

    # 2. First compactification table.
    igusa = igusa_table(lt.value, faber)
    checks.append(
        _check(
            "first_table",
            "boundary intersection table on the first compactification, filled "
            "downward from the top power by the recurrence",
            " ".join(str(v) for v in EXPECTED_FIRST_TABLE),
            " ".join(str(igusa.a(k)) for k in range(TOP_DEGREE + 1)),
        )
    )

    # 3. Recurrence closure against the frozen table and the input constants.
    expected_table = IgusaTable(EXPECTED_FIRST_TABLE)
    closure_frozen = all(
        faber.b(k - 1) == 8 * expected_table.a(k) - expected_table.a(k - 1)
        for k in range(TOP_DEGREE, 0, -1)
    )
    ok_derived, failing = verify_recurrence(igusa, faber)
    vanishing = igusa.a(9) == igusa.a(8) == igusa.a(7) == 0
    detail = []
    if not closure_frozen:
        detail.append("input constants contradict the frozen table")
    if not ok_derived:
        detail.append(f"derived table breaks the recurrence at k={failing}")
    if not vanishing:
        detail.append("a_9, a_8, a_7 are not all zero")
    checks.append(
        _check_flag(
            "recurrence_closure",
            "input constants satisfy b_(k-1) = 8 a_k - a_(k-1) against the frozen "
            "table; the three entries below the top vanish (codimension of the "
            "deeper boundary)",
            closure_frozen and ok_derived and vanishing,
            "; ".join(detail),
        )
    )

    # 4. Fan combinatorics.
    fan_ok = (
        len(star.gammas) == EXPECTED_RAY_COUNT
        and len(star.facets) == EXPECTED_FACET_COUNT
        and all(len(f.incident) == 9 for f in star.facets)
        and len(star.fan.top_cones) == EXPECTED_FACET_COUNT
        and all(
            abs(int_det([star.fan.rays[i] for i in sorted(c)])) == 1
            for c in star.fan.top_cones
        )
    )
    checks.append(
        _check(
            "fan_combinatorics",
            "ray, facet, and cone counts of the subdivided cone, every facet with "
            "nine rays and every cone basic",
            f"rays {EXPECTED_RAY_COUNT}, facets {EXPECTED_FACET_COUNT} (9 rays each), "
            f"cones {EXPECTED_FACET_COUNT} (all |det| 1)",
            (
                f"rays {len(star.gammas)}, facets {len(star.facets)} "
                f"({'9 rays each' if all(len(f.incident) == 9 for f in star.facets) else 'ragged'}), "
                f"cones {len(star.fan.top_cones)} "
                f"({'all |det| 1' if fan_ok else 'non-basic cone present'})"
            ),
        )
    )

    # 5. Stabilizer order, counted as distinct matrices, and cone permutation.
    order = stabilizer.order
    permutes = _permutes_facets(
        len(star.gammas), [f.incident for f in star.facets], stabilizer
    )
    checks.append(
        _check(
            "stabilizer",
            "order of the automorphism group of the quartic form, every element "
            "permuting the top cones",
            f"{EXPECTED_STABILIZER_ORDER} (permutes cones)",
            f"{order} ({'permutes cones' if permutes else 'does not permute cones'})",
        )
    )

    # 6. Toric top self-intersection of the exceptional divisor.
    sol = engine.solution
    unique = sol.rank == sol.n_unknowns and not sol.free_columns
    checks.append(
        _check(
            "exceptional_top_power",
            "top self-intersection of the exceptional divisor from the block "
            "linear system, reported consistent and uniquely determined",
            f"{EXPECTED_E_TOP} (consistent, unique)",
            f"{sol.e_top} ({'consistent' if sol.consistent else 'inconsistent'}, "
            f"{'unique' if unique else 'underdetermined'})",
        )
    )

    # 7. Cross-agreement of the two engines, and every row identity. The
    # rows are rebuilt from the raw relations rather than the shared cone
    # atlas. All rows of one multiplier share its monomials, one per ray
    # some relation uses, so each of those is evaluated once per
    # multiplier and every relation sums its own nonzero terms over them.
    # Every monomial comes from the system itself, so the sweep skips the
    # argument checks of the public evaluate.
    evaluate = engine._eval
    mismatches = 0
    for mono, value in sol.values.items():
        if evaluate(mono) != value:
            mismatches += 1
    system = engine.system
    relation_terms = [
        [(r, coeff) for r, coeff in enumerate(rel.coefficients) if coeff]
        for rel in system.relations
    ]
    used_rays = sorted({r for terms in relation_terms for r, _ in terms})
    bad_rows = 0
    for mult in system.multipliers:
        bumped = {
            r: evaluate(mult[:r] + (mult[r] + 1,) + mult[r + 1 :]) for r in used_rays
        }
        for terms in relation_terms:
            if sum(coeff * bumped[r] for r, coeff in terms) != 0:
                bad_rows += 1
    checks.append(
        _check(
            "engine_agreement",
            "recursive evaluator agrees with the linear-system solution on every "
            "unknown, and every relation-times-multiplier row sums to zero",
            f"0 mismatches on {sol.n_unknowns} unknowns, 0 nonzero rows of {sol.n_rows}",
            f"{mismatches} mismatches on {sol.n_unknowns} unknowns, "
            f"{bad_rows} nonzero rows of {sol.n_rows}",
        )
    )

    # 8. Second compactification table, both factors computed. A group
    # with no elements leaves the corner undefined, which fails the check.
    actual = f"no corner: group order {order}"
    if order:
        corner = Fraction(sol.e_top, order)
        vor = voronoi_table(igusa, Fraction(sol.e_top), order)
        column_ok = all(vor.a(k, 0) == igusa.a(k) for k in range(TOP_DEGREE + 1))
        band_ok = all(
            vor.a(k, l) == 0
            for k in range(TOP_DEGREE + 1)
            for l in range(1, min(TOP_DEGREE, TOP_DEGREE - k) + 1)
            if (k, l) != (0, TOP_DEGREE)
        )
        actual = (
            f"corner {vor.a(0, TOP_DEGREE)} = {sol.e_top}/{order}, "
            f"{'column match' if column_ok else 'column mismatch'}, "
            f"{'zero band' if band_ok and corner == vor.a(0, TOP_DEGREE) else 'nonzero band'}"
        )
    checks.append(
        _check(
            "second_table",
            "corner entry equals the toric count divided by the computed group "
            "order; first column matches the first table; interior band vanishes",
            f"corner {EXPECTED_CORNER} = {EXPECTED_E_TOP}/{EXPECTED_STABILIZER_ORDER}, "
            "column match, zero band",
            actual,
        )
    )

    # 9. Embedded oracle suites.
    oracle_problems: list[str] = []
    for cone in _oracle_cones():
        direct = frozenset((f.normal, f.incident) for f in enumerate_facets(cone))
        scanned = _facets_by_subset_scan(cone)
        if direct != scanned:
            oracle_problems.append(f"facet oracle disagrees on {cone.generators}")
    rng = random.Random(271828)
    for n in (1, 2, 3, 4):
        for _ in range(8):
            mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if int_det(mat) != _cofactor_det(mat):
                oracle_problems.append(f"determinant oracle disagrees on {mat}")
    for n in range(1, 21):
        residual = sum(comb(n + 1, k) * bernoulli(k) for k in range(n + 1))
        if residual != 0:
            oracle_problems.append(f"Bernoulli recurrence fails at n={n}")
    for n in range(2, 21, 2):
        denom = 1
        for p in range(2, n + 2):
            if all(p % q for q in range(2, p)) and n % (p - 1) == 0:
                denom *= p
        if bernoulli(n).denominator != denom:
            oracle_problems.append(f"von Staudt-Clausen denominator fails at n={n}")
    for name, fan, e_index, expected in (
        ("projective plane", projective_plane_fan(), 0, 1),
        ("plane blow-up", plane_blowup_fan(), 2, -1),
    ):
        toy = IntersectionEngine(fan, e_index)
        top = tuple(
            fan.ambient if i == e_index else 0 for i in range(len(fan.rays))
        )
        if toy.evaluate(top) != expected or toy.e_top != expected:
            oracle_problems.append(f"toy fan {name} disagrees with {expected}")
    checks.append(
        _check_flag(
            "oracle_suites",
            "facet enumeration vs subset scan, determinant vs cofactor expansion, "
            "Bernoulli recurrence and von Staudt-Clausen denominators, toy-fan "
            "self-intersections via both engines",
            not oracle_problems,
            "; ".join(oracle_problems[:3]),
        )
    )

    # 10. Determinism: a fresh rebuild reproduces the headline numbers and
    # serialization is stable. Byte-identity of the full command output is
    # asserted again end to end by the acceptance tests.
    fresh_star = build_star_fan()
    fresh_engine = IntersectionEngine(fresh_star.fan, fresh_star.e_index)
    fresh_same = (
        fresh_star.fan == star.fan
        and fresh_engine.solution.e_top == sol.e_top
        and fresh_engine.solution.consistent == sol.consistent
    )

    def _fan_payload(s: StarFan) -> str:
        return json.dumps(
            {
                "rays": [list(r) for r in s.fan.rays],
                "cones": sorted(sorted(c) for c in s.fan.top_cones),
                "facets": [[list(f.normal), sorted(f.incident)] for f in s.facets],
            }
        )

    render_same = _fan_payload(star) == _fan_payload(fresh_star)
    checks.append(
        _check_flag(
            "determinism",
            "an independent rebuild reproduces the fan and the solved system "
            "exactly, and rendering the report twice is byte-identical",
            fresh_same and render_same,
            "rebuild or rendering drifted",
        )
    )

    return VerifyReport(tuple(checks))
