from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from a4toric import build_star_fan, intersection
from a4toric.exact import rref, unimodular_inverse
from a4toric.intersection import (
    ConeAtlas,
    InconsistentSystemError,
    IntersectionEngine,
    LinearRelation,
    MonomialSyntaxError,
    UnsupportedMonomialError,
    assemble_system,
    build_relations,
    format_monomial,
    parse_monomial,
    solve_system,
)
from a4toric.verify import plane_blowup_fan, projective_plane_fan, run_all

E_TOP = -1680
N_MULTIPLIERS = 3311
N_UNKNOWNS = 21635
N_ROWS = 33110


def _bump(mono, i):
    return mono[:i] + (mono[i] + 1,) + mono[i + 1 :]


def _squarefree(mono, fan):
    """A square-free degree-n monomial: 1 if its support is the ray set
    of a top cone, else 0."""
    return int(frozenset(k for k, e in enumerate(mono) if e) in fan.top_cones)


def test_parse_monomial_examples():
    assert parse_monomial("E^10") == (10,) + (0,) * 12
    assert parse_monomial("E^2*D3*D5") == (2, 0, 0, 1, 0, 1) + (0,) * 7
    assert parse_monomial("E*E") == (2,) + (0,) * 12
    assert parse_monomial("D2*E") == parse_monomial("E*D2")
    assert parse_monomial("D12") == (0,) * 12 + (1,)
    assert parse_monomial("D1^0")[1] == 0
    assert parse_monomial("D2", ray_count=3) == (0, 0, 1)
    assert parse_monomial(" E * D1 ") == (1, 1) + (0,) * 11


@pytest.mark.parametrize(
    "bad",
    ["", "  ", "X", "D0", "D01", "E^-1", "E^^2", "D13", "E+D1", "D", "1"],
)
def test_parse_monomial_rejects(bad):
    with pytest.raises(MonomialSyntaxError):
        parse_monomial(bad)


def test_format_monomial():
    assert format_monomial((10,) + (0,) * 12) == "E^10"
    assert format_monomial((1, 0, 1)) == "E*D2"
    assert format_monomial((0, 0, 0)) == "1"
    assert format_monomial((2, 1, 0, 3)) == "E^2*D1*D3^3"


@given(st.lists(st.integers(0, 3), min_size=13, max_size=13))
def test_parse_format_round_trip(exps):
    mono = tuple(exps)
    assume(any(e > 0 for e in mono))
    assert parse_monomial(format_monomial(mono)) == mono


def test_build_relations():
    p2 = projective_plane_fan()
    rels = build_relations(p2)
    assert [r.index for r in rels] == [0, 1]
    assert rels[0].coefficients == (1, 0, -1)
    assert rels[1].coefficients == (0, 1, -1)


def test_squarefree_value(star, engine):
    facet = star.facets[0]
    cone_mono = tuple(
        1 if i == 0 or (i - 1) in facet.incident else 0 for i in range(13)
    )
    assert engine.system_value(cone_mono) == engine.evaluate(cone_mono) == 1
    # Ten boundary rays without the barycenter never fit in a top cone.
    no_eta = (0,) + tuple(1 if i < 10 else 0 for i in range(12))
    assert engine.system_value(no_eta) == 0
    with pytest.raises(ValueError):
        engine.system_value((1,) * 9 + (0,) * 4)


def test_assemble_system_shape(engine):
    system = engine.system
    assert len(system.multipliers) == N_MULTIPLIERS
    assert system.n_unknowns == N_UNKNOWNS
    assert system.n_rows == N_ROWS
    assert len(system.relations) == 10
    rng = random.Random(11)
    for mult in rng.sample(system.multipliers, 25):
        assert sum(mult) == 9
        assert mult[0] >= 1
        assert all(e <= 1 for e in mult[1:])
    for mono in rng.sample(sorted(map(system.keys.unpack, system.columns)), 25):
        assert sum(mono) == 10
        assert mono[0] >= 1
        repeated = [e for e in mono[1:] if e >= 2]
        # Either the exceptional exponent was bumped (divisor part still
        # square-free) or exactly one divisor factor was squared.
        assert (repeated == [] and mono[0] >= 2) or (repeated == [2])


def test_iter_rows_counts(engine, system_rows):
    system = engine.system
    rows = list(system_rows(system))
    assert len(rows) == N_ROWS
    first = rows[0]
    assert sum(first.multiplier) == 9
    assert all(sum(m) == 10 for m, _ in first.products)
    assert all(c != 0 for _, c in first.products)


def test_solve_system(engine):
    sol = engine.solution
    assert sol.consistent
    assert sol.problems == ()
    assert sol.e_top == E_TOP
    assert sol.n_unknowns == N_UNKNOWNS
    assert sol.n_rows == N_ROWS
    assert sol.rank == N_UNKNOWNS
    assert sol.free_columns == ()
    assert len(sol.values) == N_UNKNOWNS
    assert set(sol.values) == set(map(engine.system.keys.unpack, engine.system.columns))
    assert all(isinstance(v, int) for v in sol.values.values())
    assert engine.e_top == Fraction(E_TOP)


def _dense_block(fan, mult, known):
    """Solve the block of `mult` (any degree n-1 monomial) by plain
    Gauss-Jordan elimination of its rows over the raw relations, with
    `known` giving each monomial bumped by a ray outside the support.
    Returns the value of the monomial bumped by each ray of the support."""
    coeff = [rel.coefficients for rel in build_relations(fan)]
    cols = [k for k, e in enumerate(mult) if e > 0]
    outside = {
        rho: known(_bump(mult, rho)) for rho in range(len(fan.rays)) if rho not in cols
    }
    matrix = [
        [row[k] for k in cols] + [-sum(row[r] * v for r, v in outside.items())] for row in coeff
    ]
    # The augmented system is consistent with a unique solution exactly
    # when the pivots are the unknown columns, all of them.
    red, pivots = rref(matrix)
    assert pivots == list(range(len(cols)))
    return {ray: red[pos][-1] for pos, ray in enumerate(cols)}


def _known(fan, values):
    """Value of a bumped monomial from `values` or, when it is not there,
    as a square-free constant or a 0 outside every cone."""

    def known(mono):
        if all(e <= 1 for e in mono):
            return _squarefree(mono, fan)
        got = values.get(mono)
        if got is not None:
            return got
        supp = frozenset(k for k, e in enumerate(mono) if e > 0)
        assert not any(supp <= c for c in fan.top_cones)
        return 0

    return known


def test_block_solve_matches_dense_elimination(engine):
    """Re-solve sampled blocks with plain Gauss-Jordan elimination."""
    sol = engine.solution
    rng = random.Random(20260819)
    for mult in rng.sample(engine.system.multipliers, 12):
        for ray, value in _dense_block(engine.fan, mult, _known(engine.fan, sol.values)).items():
            assert value == sol.values[_bump(mult, ray)]


def _cartan_a(n):
    return tuple(
        tuple(2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n))
        for i in range(n)
    )


@pytest.fixture(scope="module")
def engines(engine):
    a_n = {f"A{n}": build_star_fan(_cartan_a(n)) for n in (2, 3)}
    return {"D4": engine} | {k: IntersectionEngine(s.fan, s.e_index) for k, s in a_n.items()}


@pytest.mark.parametrize("name", ["A2", "A3"])
def test_every_block_matches_dense_elimination(engines, name):
    # Every block solved densely, largest supports first, without either
    # engine; both must give every column the same value.
    engine = engines[name]
    solved = {}
    for mult in reversed(engine.system.multipliers):
        for ray, value in _dense_block(engine.fan, mult, _known(engine.fan, solved)).items():
            solved[_bump(mult, ray)] = value
    assert len(solved) == engine.system.n_unknowns
    for mono, value in solved.items():
        assert engine.evaluate(mono) == engine.system_value(mono) == value


def _assert_matches_its_block(engine, mono):
    """evaluate(mono) equals the dense solution of the block of mono over
    its last repeated ray, given evaluate's values outside that block."""
    value = engine.evaluate(mono)
    if max(mono) <= 1:
        assert value == _squarefree(mono, engine.fan)
        return
    r = max(k for k, e in enumerate(mono) if e >= 2)
    mult = mono[:r] + (mono[r] - 1,) + mono[r + 1 :]
    assert _dense_block(engine.fan, mult, engine.evaluate)[r] == value


@pytest.mark.parametrize("name", ["D4", "A2", "A3"])
def test_field_edges_match_dense_elimination(engines, name):
    # E^n and E*D_k^(n-1) fill a key field up to the ambient dimension n.
    engine = engines[name]
    n, n_rays = engine.fan.ambient, len(engine.fan.rays)
    edges = [(n,) + (0,) * (n_rays - 1)] + [
        tuple(1 if i == 0 else n - 1 if i == k else 0 for i in range(n_rays))
        for k in range(1, n_rays)
    ]
    for mono in edges:
        assert engine.system.keys.unpack(engine.system.keys.pack(mono)) == mono
        _assert_matches_its_block(engine, mono)
    assert engine.evaluate(edges[0]) == engine.e_top


@pytest.mark.parametrize("name", ["D4", "A2", "A3"])
@given(data=st.data())
def test_random_monomials_match_dense_elimination(engines, name, data):
    # A degree-n monomial in the rays of a random top cone, E at least once.
    engine = engines[name]
    n = engine.fan.ambient
    cone = data.draw(st.sampled_from(engine.fan.top_cones))
    rays = data.draw(st.lists(st.sampled_from(sorted(cone)), min_size=n - 1, max_size=n - 1))
    mono = tuple(int(i == 0) + rays.count(i) for i in range(len(engine.fan.rays)))
    _assert_matches_its_block(engine, mono)


def test_engines_agree_on_sample(engine):
    sol = engine.solution
    rng = random.Random(31)
    for mono in rng.sample(sorted(sol.values), 60):
        assert engine.evaluate(mono) == sol.values[mono]


def test_stabilizer_symmetry_of_values(engine, stabilizer):
    rng = random.Random(47)
    monos = rng.sample(sorted(engine.solution.values), 8)
    for el in rng.sample(stabilizer.elements, 6):
        perm = el.ray_permutation
        for mono in monos:
            moved = [mono[0]] + [0] * 12
            for i in range(12):
                moved[1 + perm[i]] = mono[1 + i]
            assert engine.evaluate(tuple(moved)) == engine.evaluate(mono)


def test_system_value(engine):
    assert engine.system_value((10,) + (0,) * 12) == E_TOP
    facet_mono = tuple(
        1 if i in sorted(engine.fan.top_cones[0]) else 0 for i in range(13)
    )
    assert engine.system_value(facet_mono) == 1
    missing = (6, 2, 2) + (0,) * 10
    assert engine.system_value(missing) is None
    # The arguments are checked as evaluate checks them.
    with pytest.raises(ValueError, match="length"):
        engine.system_value((10,))
    with pytest.raises(ValueError, match="length"):
        engine.system_value((1,) * 10)
    with pytest.raises(ValueError, match="negative"):
        engine.system_value((11, -1) + (0,) * 11)
    with pytest.raises(ValueError, match="degree"):
        engine.system_value((9,) + (0,) * 12)
    with pytest.raises(TypeError):
        engine.system_value((9.5, 0.5) + (0,) * 11)


@pytest.mark.parametrize("name", ["D4", "A2", "A3"])
def test_blocks_partition_the_rows(engines, name):
    # The multipliers, built here from the top cones alone: E at least
    # once and a square-free divisor part whose support, with E, lies in
    # a top cone. Each multiplier is one block of one row per relation:
    # no repeats, equality with this set and n_rows = multipliers x
    # relations together put each (multiplier, relation) row in exactly
    # one block.
    engine = engines[name]
    fan, e, system = engine.fan, engine.e_index, engine.system
    n, n_rays = fan.ambient, len(fan.rays)
    divisors = [r for r in range(n_rays) if r != e]
    want = set()
    for t in range(n - 1):
        for rays in itertools.combinations(divisors, t):
            if any({e, *rays} <= cone for cone in fan.top_cones):
                want.add(tuple(n - 1 - t if r == e else int(r in rays) for r in range(n_rays)))
    multipliers = system.multipliers
    assert len(set(multipliers)) == len(multipliers)
    assert set(multipliers) == want
    assert system.n_rows == len(multipliers) * len(system.relations)
    if name == "D4":
        assert len(want) == N_MULTIPLIERS


def test_projective_plane_both_engines():
    fan = projective_plane_fan()
    for e_index in (0, 1, 2):
        eng = IntersectionEngine(fan, e_index)
        top = tuple(2 if i == e_index else 0 for i in range(3))
        assert eng.evaluate(top) == 1
        assert eng.e_top == 1
        assert eng.system.n_unknowns == 1
        assert eng.solution.values[top] == 1
        assert eng.system_value((1, 1, 0)) == eng.system_value((0, 1, 1)) == 1


def test_plane_blowup_both_engines():
    fan = plane_blowup_fan()
    eng = IntersectionEngine(fan, 2)
    assert eng.evaluate((0, 0, 2)) == -1
    assert eng.e_top == -1
    assert eng.evaluate((1, 0, 1)) == 1
    assert eng.evaluate((0, 1, 1)) == 1
    assert eng.system_value((1, 1, 0)) == 0
    assert IntersectionEngine(fan, 2).evaluate((0, 0, 2)) == -1


def test_doctored_relations_are_caught():
    fan = plane_blowup_fan()
    doctored = (
        LinearRelation(0, (1, 0, 2)),
        LinearRelation(1, (0, 1, 1)),
    )
    system = assemble_system(fan, relations=doctored, e_index=2)
    sol = solve_system(system)
    assert not sol.consistent
    assert any("must vanish" in p for p in sol.problems)
    eng = IntersectionEngine(fan, 2)
    eng._solution = sol
    with pytest.raises(InconsistentSystemError):
        eng.e_top
    # An atlas of the undoctored rays does not describe these relations.
    with pytest.raises(ValueError):
        solve_system(system, ConeAtlas(fan.rays, fan.top_cones))


def test_engines_share_one_atlas(star, monkeypatch):
    made = []

    def counting_inverse(mat):
        made.append(mat)
        return unimodular_inverse(mat)

    monkeypatch.setattr(intersection, "unimodular_inverse", counting_inverse)
    eng = IntersectionEngine(star.fan, star.e_index)
    mono = (2, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0)
    assert eng.evaluate(mono) == eng.system_value(mono)
    for mono in random.Random(5).sample(sorted(eng.solution.values), 200):
        assert eng.evaluate(mono) == eng.solution.values[mono]
    # One inverse per cone, whichever engine asked first.
    assert 0 < len(made) <= len(star.fan.top_cones)
    assert len({tuple(map(tuple, mat)) for mat in made}) == len(made)
    inv, cols = eng.atlas.inverse(0)
    for k, rho in enumerate(cols):
        for rp, coeff in eng.atlas.terms(0, rho):
            assert rp not in cols
            assert coeff == sum(a * b for a, b in zip(inv[k], star.fan.rays[rp]))


def test_cone_for_finds_first_containing_cone(star):
    atlas = ConeAtlas(star.fan.rays, star.fan.top_cones)
    for supp in ({0}, set(sorted(star.fan.top_cones[5])[:4]), set(star.fan.top_cones[17])):
        mask = sum(1 << r for r in supp)
        want = next(ci for ci, c in enumerate(star.fan.top_cones) if supp <= c)
        assert atlas.cone_for(mask) == want
    # Ten boundary rays without the barycenter lie in no top cone.
    assert atlas.cone_for(sum(1 << r for r in range(1, 11))) is None


def test_cone_bitsets_match_a_scan_of_every_ray_set(star):
    atlas = ConeAtlas(star.fan.rays, star.fan.top_cones)
    n_rays = len(star.fan.rays)
    for mask in range(1 << n_rays):
        rays = {r for r in range(n_rays) if mask >> r & 1}
        holding = [ci for ci, c in enumerate(star.fan.top_cones) if rays <= c]
        assert atlas.holding(mask) == sum(1 << ci for ci in holding)
        assert atlas.cone_for(mask) == (holding[0] if holding else None)
    # A ray index past the fan's rays lies in no cone.
    assert atlas.holding(1 << n_rays | 1) == 0
    assert atlas.cone_for(1 << n_rays) is None


def test_unsolved_column_is_free():
    system = assemble_system(plane_blowup_fan(), e_index=2)
    system.columns[system.keys.pack((1, 1, 0))] = 1
    sol = solve_system(system)
    assert sol.consistent
    assert sol.free_columns == (1,)
    assert sol.rank == 1
    assert sol.n_unknowns == 2


def test_column_solved_twice_is_a_problem():
    system = assemble_system(plane_blowup_fan(), e_index=2)
    system.blocks = system.blocks * 2
    sol = solve_system(system)
    assert not sol.consistent
    assert sol.problems == ("column D2^2 is solved by 2 blocks",)
    assert sol.free_columns == ()


def test_extra_column_fails_uniqueness_check(star, stabilizer):
    eng = IntersectionEngine(star.fan, star.e_index)
    columns = eng.system.columns
    columns[eng.system.keys.pack((6, 2, 2) + (0,) * 10)] = len(columns)
    assert eng.solution.free_columns == (N_UNKNOWNS,)
    assert eng.solution.rank == N_UNKNOWNS
    report = run_all(star=star, stabilizer=stabilizer, engine=eng)
    check = next(c for c in report.checks if c.name == "exceptional_top_power")
    assert not check.passed
    assert check.actual == f"{E_TOP} (consistent, underdetermined)"


def test_assemble_system_validates_relations():
    fan = plane_blowup_fan()
    with pytest.raises(ValueError):
        assemble_system(fan, relations=(LinearRelation(0, (1, 0, 1)),), e_index=2)
    bad_width = (
        LinearRelation(0, (1, 0)),
        LinearRelation(1, (0, 1)),
    )
    with pytest.raises(ValueError):
        assemble_system(fan, relations=bad_width, e_index=2)


def test_evaluate_validation():
    fan = projective_plane_fan()
    eng = IntersectionEngine(fan)
    with pytest.raises(ValueError):
        eng.evaluate((2, 0))
    with pytest.raises(ValueError):
        eng.evaluate((3, 0, 0))
    with pytest.raises(ValueError):
        eng.evaluate((2, -1, 1))
    with pytest.raises(UnsupportedMonomialError):
        eng.evaluate((0, 1, 1))
    with pytest.raises(IndexError):
        IntersectionEngine(fan, 5)


def test_evaluate_rejects_non_integer_exponents(engine):
    assert engine.evaluate((9, 1) + (0,) * 11) == 560
    # Truncating these would silently give the value of E^9*D1.
    with pytest.raises(TypeError):
        engine.evaluate((9.5, 1.7) + (0,) * 11)
    with pytest.raises(TypeError):
        engine.evaluate(("9", 1) + (0,) * 11)
    with pytest.raises(TypeError):
        engine.evaluate((Fraction(9), 1) + (0,) * 11)
