from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from a4toric import build_star_fan, intersection
from a4toric.exact import int_det, rref, unimodular_inverse
from a4toric.intersection import (
    ConeAtlas,
    InconsistentSystemError,
    IntersectionEngine,
    LinearRelation,
    LinearSystem,
    MonomialKeys,
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
    assert parse_monomial("E^10", 13) == (10,) + (0,) * 12
    assert parse_monomial("E^2*D3*D5", 13) == (2, 0, 0, 1, 0, 1) + (0,) * 7
    assert parse_monomial("E*E", 13) == (2,) + (0,) * 12
    assert parse_monomial("D2*E", 13) == parse_monomial("E*D2", 13)
    assert parse_monomial("D12", 13) == (0,) * 12 + (1,)
    assert parse_monomial("D1^0", 13)[1] == 0
    assert parse_monomial("D2", ray_count=3) == (0, 0, 1)
    assert parse_monomial(" E * D1 ", 13) == (1, 1) + (0,) * 11


@pytest.mark.parametrize(
    "bad",
    ["", "  ", "X", "D0", "D01", "E^-1", "E^^2", "D13", "E+D1", "D", "1"],
)
def test_parse_monomial_rejects(bad):
    with pytest.raises(MonomialSyntaxError):
        parse_monomial(bad, 13)


def test_format_monomial():
    assert format_monomial((10,) + (0,) * 12) == "E^10"
    assert format_monomial((1, 0, 1)) == "E*D2"
    assert format_monomial((0, 0, 0)) == "1"
    assert format_monomial((2, 1, 0, 3)) == "E^2*D1*D3^3"


@given(st.lists(st.integers(0, 3), min_size=13, max_size=13))
def test_parse_format_round_trip(exps):
    mono = tuple(exps)
    assume(any(e > 0 for e in mono))
    assert parse_monomial(format_monomial(mono), 13) == mono


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
    for mono in rng.sample(sorted(engine.solution.values), 25):
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
    assert sol.rank == len(sol.values) == N_UNKNOWNS
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


@given(st.lists(st.tuples(*[st.integers(0, 255)] * 13), min_size=1, max_size=20))
def test_monomial_keys_are_one_byte_per_ray_in_tuple_order(monos):
    keys = MonomialKeys(13, 10)
    assert [keys.unpack(k) for k in sorted(map(keys.pack, monos))] == sorted(monos)
    for mono in monos:
        assert keys.pack(mono) == sum(x * one for x, one in zip(mono, keys.ones))


def test_monomial_keys_reject_what_a_byte_cannot_hold():
    keys = MonomialKeys(3, 2)
    assert keys.ones == (1 << 16, 1 << 8, 1)
    for bad in ((-1, 2, 1), (256, 0, 0)):
        with pytest.raises(ValueError):
            keys.pack(bad)
    with pytest.raises(ValueError, match="ambient dimension 256"):
        MonomialKeys(3, 256)


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
    eng.solution = sol
    with pytest.raises(InconsistentSystemError):
        eng.e_top
    # An atlas of the undoctored rays does not describe these relations.
    with pytest.raises(ValueError):
        solve_system(system, ConeAtlas(fan.rays, fan.top_cones))


def _counting_inverse(monkeypatch):
    """Patch the atlas's inverse to record every matrix it is called on."""
    made = []

    def counting_inverse(mat):
        made.append(mat)
        return unimodular_inverse(mat)

    monkeypatch.setattr(intersection, "unimodular_inverse", counting_inverse)
    return made


def test_engines_share_one_atlas(star, monkeypatch):
    made = _counting_inverse(monkeypatch)
    eng = IntersectionEngine(star.fan, star.e_index)
    for mono, value in eng.solution.values.items():
        assert eng.evaluate(mono) == value
    # The solve inverts its first cone and pivots every later one across
    # a wall of a filled cone; the sweep reads the same cones.
    assert len(made) == 1
    cols = tuple(sorted(star.fan.top_cones[0]))
    # The first call for a cone fills a row for every ray of the cone.
    first = ConeAtlas(star.fan.rays, star.fan.top_cones).rows(0)
    assert tuple(first) == cols
    assert first == eng.atlas.rows(0)


def test_cones_sharing_no_wall_take_one_inverse_each(monkeypatch):
    # Two basic cones of R^3 that share only the ray e1: neither can be
    # pivoted from the other.
    made = _counting_inverse(monkeypatch)
    rays = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, 0), (0, 0, -1))
    atlas = ConeAtlas(rays, (frozenset({0, 1, 2}), frozenset({0, 3, 4})))
    assert atlas.rows(0) == {0: (), 1: ((3, -1),), 2: ((4, -1),)}
    assert atlas.rows(1) == {0: (), 3: ((1, -1),), 4: ((2, -1),)}
    assert len(made) == 2


def _moved_gram(u, q):
    """The Gram matrix U^T Q U of the basis given by the columns of U."""
    n = len(q)
    return tuple(
        tuple(sum(u[k][i] * q[k][l] * u[l][j] for k in range(n) for l in range(n)) for j in range(n))
        for i in range(n)
    )


@pytest.fixture(scope="module")
def oracle_atlases(star):
    """Per fan name, the fan and every cone's rows, in ray order, read
    off `unimodular_inverse` of the cone's matrix without the atlas."""
    moved = _moved_gram(((0, 1, 0, 0), (1, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1)), star.gram)
    fans = {
        "D4": star.fan,
        "D4 moved": build_star_fan(moved).fan,
        "A2": build_star_fan(_cartan_a(2)).fan,
        "A3": build_star_fan(_cartan_a(3)).fan,
        "P2": projective_plane_fan(),
        "blow-up": plane_blowup_fan(),
    }
    built = {}
    for name, fan in fans.items():
        want = []
        for cone in fan.top_cones:
            cols = sorted(cone)
            inv = unimodular_inverse([[fan.rays[r][j] for r in cols] for j in range(fan.ambient)])
            outside = [(rp, v) for rp, v in enumerate(fan.rays) if rp not in cone]
            want.append(
                [
                    (rho, tuple((rp, c) for rp, v in outside if (c := sum(a * b for a, b in zip(mu, v)))))
                    for rho, mu in zip(cols, inv)
                ]
            )
        built[name] = (fan, want)
    return built


def _wall_classes(fan):
    """Number of classes of top cones joined by chains of shared walls."""
    unseen = set(range(len(fan.top_cones)))
    classes = 0
    while unseen:
        classes += 1
        todo = [unseen.pop()]
        while todo:
            cone = fan.top_cones[todo.pop()]
            near = {cj for cj in unseen if len(cone & fan.top_cones[cj]) == fan.ambient - 1}
            unseen -= near
            todo += near
    return classes


@pytest.mark.parametrize("name", ["D4", "D4 moved", "A2", "A3", "P2", "blow-up"])
@given(data=st.data())
def test_atlas_rows_match_every_cone_inverse_in_any_order(oracle_atlases, name, data):
    fan, want = oracle_atlases[name]
    atlas = ConeAtlas(fan.rays, fan.top_cones)
    with pytest.MonkeyPatch.context() as patch:
        made = _counting_inverse(patch)
        for ci in data.draw(st.permutations(range(len(fan.top_cones)))):
            assert list(atlas.rows(ci).items()) == want[ci]
    # Every cone after the first is pivoted along walls from a filled
    # one: one inverse per class of wall-connected cones, and each of
    # these fans is one class.
    assert len(made) == _wall_classes(fan) == 1


def test_a_stream_pass_at_any_offset_takes_one_inverse(star, seed_one_stream, monkeypatch):
    # The benchmark's seed-1 stream, rotated as a pass started at offset
    # 4000 rotates it: that pass asks for a cone before any of its wall
    # neighbours is filled, so pivoting only from a direct neighbour
    # would take a second inverse.
    stream = seed_one_stream
    body = stream[:-1]
    made = _counting_inverse(monkeypatch)
    for offset in (0, 4000):
        eng = IntersectionEngine(star.fan, star.e_index)
        for mono in body[offset:] + body[:offset] + stream[-1:]:
            eng.evaluate(mono)
        assert len(made) == 1, offset
        made.clear()


def test_a_non_unimodular_cone_is_named_by_its_pivot(star, monkeypatch):
    # Ray 1 doubled in every relation puts determinant +-2 on each cone
    # through it. The solve's first cone lies off ray 1 and is inverted;
    # the first cone through ray 1 it asks for is pivoted and raises.
    made = _counting_inverse(monkeypatch)
    fan = star.fan
    doubled = tuple(
        rel._replace(coefficients=rel.coefficients[:1] + (2 * rel.coefficients[1],) + rel.coefficients[2:])
        for rel in build_relations(fan)
    )
    system = assemble_system(fan, relations=doubled, e_index=star.e_index)
    with pytest.raises(ValueError, match=r"^top cone \d+ .* is not unimodular: across its wall") as info:
        solve_system(system)
    assert len(made) == 1
    ci = int(str(info.value).split()[2])
    assert 1 in fan.top_cones[ci]
    cols = sorted(fan.top_cones[ci])
    assert abs(int_det([[rel.coefficients[r] for r in cols] for rel in doubled])) == 2


def test_a_non_unimodular_first_cone_is_named_by_its_inverse(star, monkeypatch):
    # Ray 12 doubled in every relation puts determinant +-2 on each cone
    # through it, the solve's first cone among them: that cone is
    # inverted, and the error names it and its rays.
    made = _counting_inverse(monkeypatch)
    fan = star.fan
    doubled = tuple(
        rel._replace(coefficients=rel.coefficients[:12] + (2 * rel.coefficients[12],))
        for rel in build_relations(fan)
    )
    system = assemble_system(fan, relations=doubled, e_index=star.e_index)
    _, s = system.blocks[-1]
    first = ConeAtlas(fan.rays, fan.top_cones).cone_for(s | 1 << star.e_index)
    assert 12 in fan.top_cones[first]
    with pytest.raises(ValueError) as info:
        solve_system(system)
    assert str(info.value) == (
        f"top cone {first} {sorted(fan.top_cones[first])} cannot be inverted: "
        "matrix is not unimodular (determinant 2)"
    )
    assert len(made) == 1


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


def test_column_solved_twice_is_a_problem():
    system = assemble_system(plane_blowup_fan(), e_index=2)
    system.blocks = system.blocks * 2
    sol = solve_system(system)
    assert not sol.consistent
    assert sol.problems == ("column D2^2 is solved by 2 blocks",)
    assert sol.rank == sol.n_unknowns == 1


def test_a_duplicated_block_fails_check_6_as_inconsistent(star, stabilizer):
    # The first block, E^9, solves E^10; a second copy solves it again.
    eng = IntersectionEngine(star.fan, star.e_index)
    eng.system.blocks = eng.system.blocks[:1] + eng.system.blocks
    assert eng.solution.problems == ("column E^10 is solved by 2 blocks",)
    report = run_all(star=star, stabilizer=stabilizer, engine=eng)
    check = next(c for c in report.checks if c.name == "exceptional_top_power")
    assert not check.passed
    # Every key is still solved, so the rank stays n_unknowns.
    assert check.actual == (
        f"{E_TOP} (inconsistent, unique); first problem: column E^10 is solved by 2 blocks"
    )


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


def _reference_assemble(fan, relations=None, e_index=0):
    """`assemble_system` as it was before its straight-line rewrite, kept
    as the reference the rewrite must reproduce: a submask walk per cone,
    a 13-step key per support, one sort of every block and unknown.
    Returns the system and its own listing of the unknowns, each key's
    column in key order, which the system itself does not keep."""
    if relations is None:
        relations = build_relations(fan)
    n = fan.ambient
    n_rays = len(fan.rays)
    if len(relations) != n or any(len(r.coefficients) != n_rays for r in relations):
        raise ValueError(
            "expected one relation per ambient coordinate with one coefficient per ray"
        )
    if not any(e_index in cone for cone in fan.top_cones):
        raise ValueError("no top cone contains the exceptional ray")
    keys = MonomialKeys(n_rays, n)
    ones = keys.ones
    ebit = 1 << e_index
    admissible = {0}
    for full in (sum(1 << r for r in c) ^ ebit for c in fan.top_cones if e_index in c):
        sub = full
        while sub:
            admissible.add(sub)
            sub = (sub - 1) & full
    blocks = []
    for s in admissible:
        t = s.bit_count()
        if t <= n - 2:
            divisors = sum(o for r, o in enumerate(ones) if s >> r & 1)
            blocks.append(((n - 1 - t) * ones[e_index] + divisors, s))
    blocks.sort(key=lambda b: (b[1].bit_count(), -b[0]))
    unknowns = sorted(
        key + o for key, s in blocks for r, o in enumerate(ones) if (s | ebit) >> r & 1
    )
    system = LinearSystem(
        fan=fan,
        e_index=e_index,
        relations=relations,
        keys=keys,
        blocks=tuple(blocks),
        n_unknowns=len(unknowns),
    )
    return system, {key: col for col, key in enumerate(unknowns)}


def _reference_solve(system, atlas, columns):
    """`solve_system` as it was before its straight-line rewrite: a
    containment scan per block and a bump dict over every ray, with each
    solve counted against `columns`, the unknowns listed by
    `_reference_assemble`."""
    e, n, n_rays = system.e_index, system.fan.ambient, len(system.fan.rays)
    keys = system.keys
    ones = keys.ones
    solved = dict.fromkeys(columns.values(), 0)
    values, problems = {}, []
    for mkey, s in reversed(system.blocks):
        supp = s | 1 << e
        top = s.bit_count() == n - 2
        held = atlas.holding(supp)
        if not held:
            raise ValueError(f"block {format_monomial(keys.unpack(mkey))} lies in no top cone")
        bumped = {
            rho: 1 if top else values[mkey + ones[rho]]
            for rho in range(n_rays)
            if not supp >> rho & 1 and held & atlas.holders[rho]
        }
        for ray_k, row in atlas.rows((held & -held).bit_length() - 1).items():
            y = 0
            for rp, coeff in row:
                y -= coeff * bumped.get(rp, 0)
            if supp >> ray_k & 1:
                ukey = mkey + ones[ray_k]
                values[ukey] = y
                col = columns.get(ukey)
                if col is None:
                    problems.append(
                        f"block {format_monomial(keys.unpack(mkey))} solves "
                        f"{format_monomial(keys.unpack(ukey))}, which is not a column"
                    )
                else:
                    solved[col] += 1
            else:
                y -= bumped[ray_k]
                if y != 0:
                    problems.append(
                        f"block {format_monomial(keys.unpack(mkey))}: coefficient of ray "
                        f"{ray_k} must vanish but equals {y}"
                    )
    for ukey, col in columns.items():
        if solved[col] > 1:
            problems.append(
                f"column {format_monomial(keys.unpack(ukey))} is solved by {solved[col]} blocks"
            )
    free_columns = tuple(sorted(col for col, times in solved.items() if times == 0))
    return values, tuple(problems), len(solved) - len(free_columns), free_columns, values[n * ones[e]]


def _assert_solves_as_the_reference(system, atlas=None):
    """solve_system and the reference, each on its own fresh atlas or
    both on `atlas`, give the same values in the same order, the same
    problems in the same order, rank and E^n, or raise the same error;
    the solve writes exactly the keys of the reference's listing, and the
    reference finds none of them free. Returns the solution, or the
    error's text."""
    vectors = tuple(zip(*(rel.coefficients for rel in system.relations)))
    _, columns = _reference_assemble(system.fan, system.relations, system.e_index)
    try:
        want = _reference_solve(system, atlas or ConeAtlas(vectors, system.fan.top_cones), columns)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            solve_system(system, atlas)
        assert str(info.value) == str(exc)
        return str(exc)
    sol = solve_system(system, atlas)
    values, problems, rank, free_columns, e_top = want
    assert list(sol.by_key.items()) == list(values.items())
    assert sol.problems == problems
    assert sol.consistent == (not problems)
    assert (sol.rank, sol.e_top, free_columns) == (rank, e_top, ())
    assert sol.by_key.keys() == columns.keys()
    return sol


@pytest.fixture(scope="module")
def reference_fans(oracle_atlases):
    """Per fan name, the fan and its exceptional ray. A4 has 11 rays, so
    its ray masks span two bytes, as D4's 13 do."""
    fans = {name: (fan, 0) for name, (fan, _) in oracle_atlases.items()}
    fans["A4"] = (build_star_fan(_cartan_a(4)).fan, 0)
    fans["blow-up"] = (plane_blowup_fan(), 2)
    return fans


@pytest.mark.parametrize("name", ["D4", "D4 moved", "A2", "A3", "A4", "P2", "blow-up"])
def test_assembly_and_solve_match_the_reference(reference_fans, name):
    fan, e = reference_fans[name]
    system = assemble_system(fan, e_index=e)
    want, columns = _reference_assemble(fan, e_index=e)
    assert tuple(system.blocks) == want.blocks
    assert system.n_unknowns == want.n_unknowns == len(columns)
    sol = _assert_solves_as_the_reference(system)
    assert sol.problems == ()
    assert system.n_unknowns == len(sol.by_key) == sol.rank


@pytest.mark.parametrize(("j", "r"), [(0, 1), (2, 0), (3, 5), (9, 12)])
def test_a_corrupted_relation_solves_as_the_reference(star, j, r):
    # One coefficient off by one: some make a cone non-unimodular and
    # raise, some change the values.
    relations = tuple(
        rel._replace(
            coefficients=tuple(c + (rel.index == j and k == r) for k, c in enumerate(rel.coefficients))
        )
        for rel in build_relations(star.fan)
    )
    system = assemble_system(star.fan, relations=relations, e_index=star.e_index)
    want, _ = _reference_assemble(star.fan, relations=relations, e_index=star.e_index)
    assert (tuple(system.blocks), system.n_unknowns) == (want.blocks, want.n_unknowns)
    _assert_solves_as_the_reference(system)


def test_doctored_blowup_relations_solve_as_the_reference():
    doctored = (LinearRelation(0, (1, 0, 2)), LinearRelation(1, (0, 1, 1)))
    sol = _assert_solves_as_the_reference(
        assemble_system(plane_blowup_fan(), relations=doctored, e_index=2)
    )
    assert any("must vanish" in p for p in sol.problems)


@pytest.mark.parametrize("pivoted", [False, True], ids=["inverted", "pivoted"])
def test_a_corrupted_atlas_row_solves_as_the_reference(engine, pivoted):
    # The E-coordinate of the first ray outside cone 0, or outside its
    # first wall neighbour, off by one in the atlas both solves read.
    fan = engine.fan
    system = assemble_system(fan, e_index=engine.e_index)
    atlas = ConeAtlas(fan.rays, fan.top_cones)
    atlas.rows(0)
    cones = atlas.top_cones
    ci = next(c for c in range(1, len(cones)) if len(cones[0] - cones[c]) == 1) if pivoted else 0
    rows = atlas.rows(ci)
    (rp, coeff), *rest = rows[0]
    rows[0] = ((rp, coeff + 1), *rest)
    sol = _assert_solves_as_the_reference(system, atlas)
    assert sol.by_key != engine.solution.by_key


def test_a_duplicated_block_solves_as_the_reference(star):
    system = assemble_system(star.fan, e_index=star.e_index)
    system.blocks = system.blocks[:3] + system.blocks
    sol = _assert_solves_as_the_reference(system)
    assert [p.split()[-4:] for p in sol.problems] == [["solved", "by", "2", "blocks"]] * 5
    assert sol.rank == N_UNKNOWNS


def test_keys_solved_twice_are_listed_in_key_order_whatever_the_block_order(star):
    # The first three blocks duplicated in front of the system, in either
    # order, give the same problems: the keys the reference lists for
    # them, in the reference's key order.
    system = assemble_system(star.fan, e_index=star.e_index)
    blocks = system.blocks
    _, columns = _reference_assemble(star.fan, e_index=star.e_index)
    ones, ebit = system.keys.ones, 1 << star.e_index
    twice = {
        mkey + one for mkey, s in blocks[:3] for r, one in enumerate(ones) if (s | ebit) >> r & 1
    }
    want = tuple(
        f"column {format_monomial(system.keys.unpack(ukey))} is solved by 2 blocks"
        for ukey in columns
        if ukey in twice
    )
    assert len(want) == 5
    for doubled in (blocks[:3] + blocks, blocks[2::-1] + blocks):
        system.blocks = doubled
        sol = solve_system(system)
        assert sol.problems == want
        assert len(sol.by_key) == sol.rank == system.n_unknowns == N_UNKNOWNS
