from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from a4toric.cones import (
    Cone,
    DegenerateConeError,
    Fan,
    enumerate_facets,
)
from a4toric.exact import DimensionError, primitive_vector, rank
from a4toric.intersection import ConeAtlas
from a4toric.verify import _facets_by_subset_scan

SQUARE_CONE = Cone(3, ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)))


def test_cone_validation():
    with pytest.raises(ValueError):
        Cone(2, ((0, 0),))
    with pytest.raises(ValueError):
        Cone(2, ((2, 4),))
    with pytest.raises(ValueError):
        Cone(2, ((1, 0), (1, 0)))
    with pytest.raises(DimensionError):
        Cone(2, ((1, 0, 0),))
    with pytest.raises(ValueError):
        Cone(0, ())


def test_cone_dim():
    # A cone's dimension is the rank of its generators.
    assert rank(Cone(3, ((1, 1, 0),)).generators) == 1
    assert rank(SQUARE_CONE.generators) == 3
    assert rank(Cone(3, ((1, 0, 0), (1, 2, 0))).generators) == 2


def test_square_cone_facets():
    facets = enumerate_facets(SQUARE_CONE)
    assert len(facets) == 4
    assert all(len(f.incident) == 2 for f in facets)
    assert {f.incident for f in facets} == {
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({1, 3}),
        frozenset({2, 3}),
    }
    for f in facets:
        values = [
            sum(a * b for a, b in zip(f.normal, g)) for g in SQUARE_CONE.generators
        ]
        assert all(v >= 0 for v in values)
        assert {i for i, v in enumerate(values) if v == 0} == f.incident


def test_simplicial_cone_facets():
    cone = Cone(4, tuple(tuple(int(i == j) for j in range(4)) for i in range(4)))
    facets = enumerate_facets(cone)
    assert len(facets) == 4
    omitted = {frozenset(range(4)) - f.incident for f in facets}
    assert omitted == {frozenset({i}) for i in range(4)}


def test_single_ray_has_no_facets():
    assert enumerate_facets(Cone(3, ((1, 2, 3),))) == []


def test_lower_dimensional_cone_facets():
    cone = Cone(3, ((1, 0, 0), (1, 2, 0)))
    facets = enumerate_facets(cone)
    assert {f.normal for f in facets} == {(0, 1, 0), (2, -1, 0)}
    assert all(len(f.incident) == 1 for f in facets)


def test_degenerate_cones_rejected():
    with pytest.raises(DegenerateConeError):
        enumerate_facets(Cone(2, ((1, 0), (-1, 0), (0, 1))))
    with pytest.raises(DegenerateConeError):
        enumerate_facets(Cone(2, ((1, 0), (-1, 0), (0, 1), (0, -1))))
    with pytest.raises(DegenerateConeError):
        enumerate_facets(Cone(2, ((1, 0), (-1, 0))))
    with pytest.raises(DegenerateConeError):
        enumerate_facets(Cone(3, ((1, 2, 0), (-1, -2, 0))))


def test_facets_invariant_under_generator_permutation():
    perm = (2, 0, 3, 1)
    shuffled = Cone(3, tuple(SQUARE_CONE.generators[i] for i in perm))
    base = enumerate_facets(SQUARE_CONE)
    other = enumerate_facets(shuffled)
    assert {f.normal for f in base} == {f.normal for f in other}
    remap = {f.normal: f.incident for f in other}
    for f in base:
        assert remap[f.normal] == frozenset(perm.index(i) for i in f.incident)


def test_facets_match_subset_scan_on_fixed_cones():
    cones = [
        SQUARE_CONE,
        Cone(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
        Cone(4, tuple((a, b, c, 1) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1))),
        Cone(3, ((1, 0, 0), (1, 2, 0))),
    ]
    for cone in cones:
        direct = frozenset((f.normal, f.incident) for f in enumerate_facets(cone))
        assert direct == _facets_by_subset_scan(cone)


@st.composite
def pointed_cones(draw):
    """Cones in Z^3, or in a rank-2 or rank-3 sublattice of Z^4: integer
    combinations of the rows of [I | M], columns shuffled. A positive
    first coefficient keeps the cone pointed."""
    ambient, r = draw(st.sampled_from(((3, 3), (4, 2), (4, 3))))
    entry = st.integers(-3, 3)
    rows = [[int(i == j) for j in range(r)] + [draw(entry) for _ in range(ambient - r)] for i in range(r)]
    cols = draw(st.permutations(range(ambient)))
    basis = [[row[c] for c in cols] for row in rows]
    coeffs = draw(st.lists(st.tuples(st.integers(1, 3), *[entry] * (r - 1)), min_size=2, max_size=6))
    gens = []
    for cs in coeffs:
        p = primitive_vector([sum(c * b[k] for c, b in zip(cs, basis)) for k in range(ambient)])
        if p not in gens:
            gens.append(p)
    return ambient, gens


@given(pointed_cones())
def test_facets_match_subset_scan_on_random_pointed_cones(case):
    ambient, gens = case
    assume(len(gens) >= 2)
    cone = Cone(ambient, tuple(gens))
    assume(rank(cone.generators) >= 2)
    direct = frozenset((f.normal, f.incident) for f in enumerate_facets(cone))
    assert direct == _facets_by_subset_scan(cone)


@st.composite
def cones_with_positive_last_coordinate(draw):
    """Distinct primitive generators in Z^3 or Z^4 with a positive last
    coordinate, so the cone is pointed; when `flat` is drawn, coordinate 0
    is 0 on every generator, so the cone is not full-dimensional."""
    ambient = draw(st.sampled_from((3, 4)))
    flat = draw(st.booleans())
    coords = [st.just(0) if flat and k == 0 else st.integers(-3, 3) for k in range(ambient - 1)]
    raw = draw(st.lists(st.tuples(*coords, st.integers(1, 3)), min_size=1, max_size=6))
    gens: list[tuple[int, ...]] = []
    for v in raw:
        p = primitive_vector(v)
        if p not in gens:
            gens.append(p)
    return ambient, tuple(gens)


@settings(max_examples=50)
@given(cones_with_positive_last_coordinate())
def test_facet_search_matches_subset_scan_in_order(case):
    ambient, gens = case
    cone = Cone(ambient, gens)
    direct = [(f.normal, f.incident) for f in enumerate_facets(cone)]
    assert direct == sorted(_facets_by_subset_scan(cone))
    # The opposite of a generator puts a line in the cone.
    with pytest.raises(DegenerateConeError):
        enumerate_facets(Cone(ambient, gens + (tuple(-x for x in gens[0]),)))


def test_fan_validation():
    Fan(((1, 0), (0, 1), (-1, -1)), (frozenset({0, 1}),))
    with pytest.raises(ValueError):
        Fan(((2, 0), (0, 1)), (frozenset({0, 1}),))
    with pytest.raises(ValueError):
        Fan(((1, 0), (1, 2)), (frozenset({0, 1}),))
    with pytest.raises(ValueError):
        Fan(((1, 0), (0, 1)), (frozenset({0}),))
    with pytest.raises(IndexError):
        Fan(((1, 0), (0, 1)), (frozenset({0, 5}),))


def test_fan_spans():
    fan = Fan(((1, 0), (0, 1), (1, 1)), (frozenset({0, 2}), frozenset({1, 2})))
    assert fan.ambient == 2
    # The fan's one cone lookup: a bitmask of ray indices maps to a top
    # cone containing all of them, or to None.
    atlas = ConeAtlas(fan.rays, fan.top_cones)
    assert atlas.cone_for(0b100) is not None
    assert atlas.cone_for(0b101) is not None
    assert atlas.cone_for(0b011) is None
