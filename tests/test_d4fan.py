from __future__ import annotations

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from a4toric.cones import Cone, Fan, cone_dim
from a4toric.d4fan import (
    COORD_PAIRS,
    D4_BASIS,
    FanConstructionError,
    StabilizerError,
    SymMatrix,
    _canon,
    build_d4_form,
    build_star_fan,
    compute_stabilizer,
    minimal_vectors,
)
from a4toric.exact import gcd_content, int_det
from a4toric.intersection import IntersectionEngine

EXPECTED_GRAM = (
    (2, -1, 0, 0),
    (-1, 2, -1, -1),
    (0, -1, 2, 0),
    (0, -1, 0, 2),
)
EXPECTED_ETA = (2, 4, 2, 2, 2, 1, 1, 2, 2, 1)


def _norm(q, c):
    return sum(c[i] * q[i][j] * c[j] for i in range(4) for j in range(4))


def test_d4_form():
    q = build_d4_form()
    assert q == EXPECTED_GRAM
    assert int_det(q) == 4
    assert all(q[i][j] == q[j][i] for i in range(4) for j in range(4))
    # Each basis column has squared length 2 in the standard metric,
    # which is the diagonal of the Gram matrix.
    assert all(sum(x * x for x in col) == 2 for col in zip(*D4_BASIS))
    assert all(q[j][j] == 2 for j in range(4))
    assert all(_norm(q, tuple(int(i == j) for i in range(4))) == 2 for j in range(4))


def test_minimal_vectors():
    q = build_d4_form()
    vecs = minimal_vectors()
    assert len(vecs) == 24
    assert len(set(vecs)) == 24
    assert all(_norm(q, c) == 2 for c in vecs)
    assert all(tuple(-x for x in c) in set(vecs) for c in vecs)
    assert all(gcd_content(c) == 1 for c in vecs)
    assert list(vecs) == sorted(vecs)


def test_minimal_vectors_rejects_scaled_gram():
    doubled = tuple(tuple(2 * x for x in row) for row in EXPECTED_GRAM)
    with pytest.raises(FanConstructionError):
        minimal_vectors(doubled)


def test_sym_matrix_examples():
    basis_vec = SymMatrix.from_vector((1, 0, 0, 0))
    assert basis_vec.coords == (1, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    longest = SymMatrix.from_vector((1, 2, 1, 1))
    assert longest.coords == (1, 4, 1, 1, 2, 1, 1, 2, 2, 1)
    assert SymMatrix.from_coords(longest.coords) == longest
    assert len(COORD_PAIRS) == 10
    with pytest.raises(ValueError):
        SymMatrix(((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)))
    with pytest.raises(ValueError):
        SymMatrix.from_coords((1, 2, 3))


def test_rays(star):
    rays = star.gammas
    assert len(rays) == 12
    coords = [g.coords for g in rays]
    assert len(set(coords)) == 12
    assert all(gcd_content(c) == 1 for c in coords)
    assert cone_dim(Cone(10, tuple(coords))) == 10


def test_eta(star):
    rays = star.gammas
    eta = star.eta
    assert eta.coords == EXPECTED_ETA
    total = [sum(g.coords[k] for g in rays) for k in range(10)]
    assert gcd_content(total) == 3
    assert tuple(x // 3 for x in total) == EXPECTED_ETA


def test_star_fan_structure(star):
    assert star.gram == EXPECTED_GRAM
    assert star.eta.coords == EXPECTED_ETA
    assert star.eta_content == 3
    assert star.e_index == 0
    assert len(star.gammas) == 12
    assert len(star.facets) == 64
    assert all(len(f.incident) == 9 for f in star.facets)
    assert len(star.fan.rays) == 13
    assert star.fan.rays[0] == EXPECTED_ETA
    assert star.fan.rays[1:] == tuple(g.coords for g in star.gammas)
    assert len(star.fan.top_cones) == 64
    # Bijection between facets and cones: each cone is the barycenter
    # plus the facet's rays shifted by one.
    cone_sets = {frozenset({0} | {1 + i for i in f.incident}) for f in star.facets}
    assert cone_sets == set(star.fan.top_cones)
    assert all(0 in c for c in star.fan.top_cones)
    for c in star.fan.top_cones:
        assert abs(int_det([star.fan.rays[i] for i in sorted(c)])) == 1
    # The barycenter is strictly interior and each boundary ray lies on
    # exactly 16 of the 64 facets, hence in 48 of the 64 cones.
    for f in star.facets:
        assert sum(a * b for a, b in zip(f.normal, EXPECTED_ETA)) > 0
    for i in range(12):
        assert sum(i in f.incident for f in star.facets) == 48
    for idx in range(1, 13):
        assert sum(idx in c for c in star.fan.top_cones) == 48


def test_star_fan_determinism(star):
    again = build_star_fan()
    assert again.fan == star.fan
    assert again.facets == star.facets
    assert again.ray_vectors == star.ray_vectors


def test_stabilizer_order(stabilizer):
    assert stabilizer.order == 1152
    assert len(stabilizer.elements) == 1152
    assert len({e.matrix for e in stabilizer.elements}) == 1152


def test_stabilizer_elements(star, stabilizer):
    q = star.gram
    identity = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    neg = tuple(tuple(-x for x in row) for row in identity)
    mats = {e.matrix for e in stabilizer.elements}
    assert identity in mats
    assert neg in mats
    by_matrix = {e.matrix: e for e in stabilizer.elements}
    assert by_matrix[identity].ray_permutation == tuple(range(12))
    assert by_matrix[neg].ray_permutation == tuple(range(12))
    rng = random.Random(97)
    sample = rng.sample(stabilizer.elements, 12)
    for el in sample:
        g = el.matrix
        gram_image = tuple(
            tuple(
                sum(g[k][i] * q[k][l] * g[l][j] for k in range(4) for l in range(4))
                for j in range(4)
            )
            for i in range(4)
        )
        assert gram_image == q
        assert sorted(el.ray_permutation) == list(range(12))
    for a in sample[:6]:
        for b in sample[:6]:
            product = tuple(
                tuple(sum(a.matrix[i][k] * b.matrix[k][j] for k in range(4)) for j in range(4))
                for i in range(4)
            )
            assert product in mats


def test_stabilizer_is_transitive_on_rays(stabilizer):
    orbit = {el.ray_permutation[0] for el in stabilizer.elements}
    assert orbit == set(range(12))


@pytest.mark.parametrize(
    "u",
    [
        ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 1), (0, 0, 0, -1)),
    ],
)
def test_change_of_basis_invariance(u):
    moved = build_star_fan(change_of_basis=u)
    assert len(moved.gammas) == 12
    assert len(moved.facets) == 64
    assert len(moved.fan.top_cones) == 64
    assert moved.eta_content == 3
    assert moved.gram == build_d4_form(change_of_basis=u)
    top = tuple(10 if i == 0 else 0 for i in range(13))
    assert IntersectionEngine(moved.fan, moved.e_index).evaluate(top) == -1680


def test_change_of_basis_stabilizer_order():
    u = ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    moved = build_star_fan(change_of_basis=u)
    assert compute_stabilizer(moved).order == 1152


def test_change_of_basis_rejects_non_unimodular():
    bad = ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    with pytest.raises(ValueError):
        build_star_fan(change_of_basis=bad)
    with pytest.raises(ValueError):
        build_d4_form(change_of_basis=bad)


def test_stabilizer_rejects_basis_with_a_non_minimal_vector():
    # A valid unimodular change of basis whose first vector has norm 4:
    # the fan builds, but the search maps basis vectors to norm-2 vectors
    # only, so it must refuse rather than report an empty group.
    u = ((1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (0, 0, 0, 1))
    moved = build_star_fan(change_of_basis=u)
    assert len(moved.fan.top_cones) == 64
    assert moved.gram[0][0] == 4
    with pytest.raises(StabilizerError, match="basis vector 1 has norm 4"):
        compute_stabilizer(moved)


IDENTITY = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


def _with_entry(matrix, i, j, x):
    return tuple(
        tuple(x if (r, c) == (i, j) else v for c, v in enumerate(row))
        for r, row in enumerate(matrix)
    )


# Each boundary fed a non-integer that int() would truncate to valid
# input: 3/2 -> 1 and -3/2 -> -1.
BOUNDARIES = {
    "build_star_fan": lambda x: build_star_fan(change_of_basis=_with_entry(IDENTITY, 0, 0, x)),
    "build_d4_form": lambda x: build_d4_form(change_of_basis=_with_entry(IDENTITY, 0, 0, x)),
    "minimal_vectors": lambda x: minimal_vectors(
        _with_entry(_with_entry(EXPECTED_GRAM, 0, 1, -x), 1, 0, -x)
    ),
    "SymMatrix": lambda x: SymMatrix(_with_entry(IDENTITY, 0, 0, x)),
    "Cone": lambda x: Cone(2, ((x, 0), (0, 1))),
    "Fan": lambda x: Fan(((x, 0), (0, 1)), (frozenset({0, 1}),)),
}


@pytest.mark.parametrize("x", [1.5, Fraction(3, 2)], ids=["float", "fraction"])
@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_non_integer_input_is_rejected(boundary, x):
    with pytest.raises(TypeError):
        BOUNDARIES[boundary](x)


def test_canon():
    assert _canon((0, -1, 2, 0)) == (0, 1, -2, 0)
    assert _canon((1, -1, 0, 0)) == (1, -1, 0, 0)
    with pytest.raises(ValueError):
        _canon((0, 0, 0, 0))


def _scan_form_automorphisms(star):
    """The stabilizer search as a plain four-deep scan: every column runs
    over all minimal vectors, filtered by the Gram conditions."""
    q = star.gram
    vecs = sorted(set(star.ray_vectors) | {tuple(-x for x in v) for v in star.ray_vectors})

    def ip(v, w):
        return sum(v[i] * q[i][j] * w[j] for i in range(4) for j in range(4))

    rep_index = {v: i for i, v in enumerate(star.ray_vectors)}
    found = []
    for v1 in vecs:
        for v2 in vecs:
            if ip(v1, v2) != q[0][1]:
                continue
            for v3 in vecs:
                if ip(v1, v3) != q[0][2] or ip(v2, v3) != q[1][2]:
                    continue
                for v4 in vecs:
                    if ip(v1, v4) != q[0][3] or ip(v2, v4) != q[1][3] or ip(v3, v4) != q[2][3]:
                        continue
                    cols = (v1, v2, v3, v4)
                    mat = tuple(tuple(cols[j][i] for j in range(4)) for i in range(4))
                    perm = tuple(
                        rep_index[_canon(tuple(sum(mat[i][j] * v[j] for j in range(4)) for i in range(4)))]
                        for v in star.ray_vectors
                    )
                    found.append((mat, perm))
    return found


def test_stabilizer_matches_four_deep_scan(star, stabilizer):
    expected = _scan_form_automorphisms(star)
    assert [(e.matrix, e.ray_permutation) for e in stabilizer.elements] == expected


def test_stabilizer_matches_four_deep_scan_in_another_basis():
    # Every basis vector is minimal (columns e2, e1 + e2, e3, -e4), as the
    # search requires; the Gram matrix differs from the shipped one.
    u = ((0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))
    moved = build_star_fan(change_of_basis=u)
    assert moved.gram != EXPECTED_GRAM
    got = compute_stabilizer(moved)
    assert got.order == 1152
    assert [(e.matrix, e.ray_permutation) for e in got.elements] == _scan_form_automorphisms(moved)


def test_stabilizer_rejects_moved_barycenter(star):
    bad = dataclasses.replace(star, eta=SymMatrix.from_vector((1, 0, 0, 0)))
    with pytest.raises(StabilizerError, match="moves the barycenter"):
        compute_stabilizer(bad)


def test_stabilizer_rejects_facet_set_it_does_not_permute(star):
    facet_sets = {f.incident for f in star.facets}
    stray = next(
        frozenset(c)
        for c in itertools.combinations(range(12), 9)
        if frozenset(c) not in facet_sets
    )
    facets = (dataclasses.replace(star.facets[0], incident=stray),) + star.facets[1:]
    bad = dataclasses.replace(star, facets=facets)
    with pytest.raises(StabilizerError, match="does not permute the top cones"):
        compute_stabilizer(bad)


def test_stabilizer_rejects_ray_map_that_is_not_a_bijection(star):
    # Listing ray 0 twice (in place of ray 5) lets a form automorphism
    # send two listed rays to the same ray.
    rv = star.ray_vectors
    bad = dataclasses.replace(star, ray_vectors=rv[:5] + (rv[0],) + rv[6:])
    with pytest.raises(StabilizerError, match="not a bijection"):
        compute_stabilizer(bad)
