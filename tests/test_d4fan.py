from __future__ import annotations

import collections
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import a4toric.d4fan as d4fan
from a4toric.cones import Cone, Fan
from a4toric.d4fan import (
    D4_GRAM,
    FanConstructionError,
    StabilizerError,
    _canon,
    build_star_fan,
    compute_stabilizer,
    short_vectors,
)
from a4toric.exact import gcd_content, int_det, rank
from a4toric.intersection import IntersectionEngine

EXPECTED_GRAM = (
    (2, -1, 0, 0),
    (-1, 2, -1, -1),
    (0, -1, 2, 0),
    (0, -1, 0, 2),
)
EXPECTED_ETA = (2, 4, 2, 2, 2, 1, 1, 2, 2, 1)
# Columns f1 = e1-e2, f2 = e2-e3, f3 = e3-e4, f4 = e3+e4 of the D4 root
# lattice in the standard basis.
D4_BASIS = (
    (1, 0, 0, 0),
    (-1, 1, 0, 0),
    (0, -1, 1, 1),
    (0, 0, -1, 1),
)


def _norm(q, c):
    n = len(q)
    return sum(c[i] * q[i][j] * c[j] for i in range(n) for j in range(n))


def _moved(u, q=EXPECTED_GRAM):
    """The Gram matrix U^T Q U of the basis given by the columns of U."""
    n = len(q)
    return tuple(
        tuple(
            sum(u[k][i] * q[k][l] * u[l][j] for k in range(n) for l in range(n))
            for j in range(n)
        )
        for i in range(n)
    )


def _cartan_a(n):
    return tuple(
        tuple(2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n))
        for i in range(n)
    )


def test_d4_form(star):
    assert D4_GRAM == EXPECTED_GRAM
    identity = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    assert _moved(D4_BASIS, identity) == D4_GRAM
    assert int_det(D4_GRAM) == 4
    assert star.gram == D4_GRAM


def _box_scan(q, norm, radius):
    return tuple(
        c for c in itertools.product(range(-radius, radius + 1), repeat=len(q)) if _norm(q, c) == norm
    )


def test_minimal_vectors():
    vecs = short_vectors(D4_GRAM, 2)
    assert len(vecs) == 24
    assert len(set(vecs)) == 24
    assert all(_norm(D4_GRAM, c) == 2 for c in vecs)
    assert all(tuple(-x for x in c) in set(vecs) for c in vecs)
    assert all(gcd_content(c) == 1 for c in vecs)
    assert list(vecs) == sorted(vecs)


@pytest.mark.parametrize(
    ("q", "norm", "count"),
    [
        (EXPECTED_GRAM, 2, 24),
        (EXPECTED_GRAM, 4, 24),
        (EXPECTED_GRAM, 6, 96),
        (_moved(((1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (0, 0, 0, 1))), 2, 24),
        (_moved(((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1))), 2, 24),
        (_cartan_a(2), 2, 6),
        (_cartan_a(3), 2, 12),
        (_cartan_a(3), 3, 0),
        (((1, 0), (0, 1)), 1, 4),
        (((1, 0), (0, 1)), 25, 12),
    ],
)
def test_short_vectors_match_a_box_scan(q, norm, count):
    # The counts are known (D4: 24, 24, 96 up to norm 6), and every vector
    # found lies in the scanned box.
    vecs = short_vectors(q, norm)
    assert len(vecs) == count
    assert vecs == _box_scan(q, norm, 5)


def test_minimal_vectors_rejects_scaled_gram():
    # An even form with no vector of norm 2 gives no rays.
    doubled = tuple(tuple(2 * x for x in row) for row in EXPECTED_GRAM)
    assert short_vectors(doubled, 2) == ()
    with pytest.raises(FanConstructionError, match="do not span"):
        build_star_fan(doubled)


def test_one_ray_form_is_rejected():
    # The rank-1 form 2x^2 has one norm-2 ray, (1,): its cone is that ray,
    # and the barycenter would be the ray itself.
    with pytest.raises(FanConstructionError, match="no interior to subdivide"):
        build_star_fan(((2,),))


@pytest.mark.parametrize(
    "gram",
    [
        pytest.param(((2, -1), (-1, 2), (0, 0)), id="non-square"),
        pytest.param((), id="empty"),
        pytest.param(((2, -1), (0, 2)), id="non-symmetric"),
        pytest.param(((2, 3), (3, 2)), id="indefinite"),
        pytest.param(((-2, 0), (0, -2)), id="negative-definite"),
        pytest.param(((2, 2), (2, 2)), id="semidefinite"),
        pytest.param(((1, 0), (0, 1)), id="odd"),
    ],
)
def test_gram_boundary_rejects_invalid_forms(gram):
    with pytest.raises(ValueError):
        build_star_fan(gram)


def test_rays(star):
    coords = star.fan.rays[1:]
    assert len(coords) == 12
    assert len(set(coords)) == 12
    assert all(gcd_content(c) == 1 for c in coords)
    assert rank(Cone(10, tuple(coords)).generators) == 10
    # Ray 1+i is c c^T for c = ray_vectors[i], flattened diagonal first.
    for c, g in zip(star.ray_vectors, coords):
        assert g[:4] == tuple(x * x for x in c)
        assert g[4:] == tuple(c[i] * c[j] for i in range(4) for j in range(i + 1, 4))


def test_eta(star):
    assert star.eta == EXPECTED_ETA
    total = [sum(g[k] for g in star.fan.rays[1:]) for k in range(10)]
    assert gcd_content(total) == 3
    assert tuple(x // 3 for x in total) == EXPECTED_ETA


def test_star_fan_structure(star):
    assert star.gram == EXPECTED_GRAM
    assert star.eta == EXPECTED_ETA
    assert star.eta_content == 3
    assert star.e_index == 0
    assert len(star.ray_vectors) == 12
    assert len(star.facets) == 64
    assert all(len(f.incident) == 9 for f in star.facets)
    assert len(star.fan.rays) == 13
    assert star.fan.rays[0] == EXPECTED_ETA
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


def _cross_rank(rows):
    """Rank by Gaussian elimination with cross-multiplied integer rows,
    each divided by its content; apart from the package's fraction-free
    elimination and both facet routines."""
    mat = [list(row) for row in rows]
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        p = mat[r][c]
        for i in range(r + 1, len(mat)):
            f = mat[i][c]
            if f:
                row = [x * p - f * y for x, y in zip(mat[i], mat[r])]
                g = math.gcd(*row)
                mat[i] = [x // g for x in row] if g else row
        r += 1
    return r


def test_facets_satisfy_cone_duality(star):
    # Each normal is an extreme ray of the dual cone (its zero set on the
    # cone has rank 9), and each ray is an extreme ray of the cone (the
    # normals vanishing on it have rank 9).
    rays = star.fan.rays[1:]
    values = [[sum(a * b for a, b in zip(f.normal, r)) for r in rays] for f in star.facets]
    for f, vals in zip(star.facets, values):
        assert all(v >= 0 for v in vals)
        assert {i for i, v in enumerate(vals) if v == 0} == f.incident
        assert _cross_rank([rays[i] for i in f.incident]) == 9
    for i in range(len(rays)):
        tight = [f.normal for f, vals in zip(star.facets, values) if vals[i] == 0]
        assert _cross_rank(tight) == 9


def test_non_simplicial_facet_is_rejected_by_name(monkeypatch):
    real = d4fan.enumerate_facets

    def widened(cone):
        # Facet 3 gains a tenth ray.
        facets = real(cone)
        f = facets[3]
        extra = min(set(range(len(cone.generators))) - f.incident)
        facets[3] = f._replace(incident=f.incident | {extra})
        return facets

    monkeypatch.setattr(d4fan, "enumerate_facets", widened)
    with pytest.raises(FanConstructionError, match="facet 3 of the cone has 10 rays, not 9"):
        build_star_fan()


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
    moved = build_star_fan(_moved(u))
    assert len(moved.ray_vectors) == 12
    assert len(moved.facets) == 64
    assert len(moved.fan.top_cones) == 64
    assert moved.eta_content == 3
    assert moved.gram == _moved(u)
    top = tuple(10 if i == 0 else 0 for i in range(13))
    assert IntersectionEngine(moved.fan, moved.e_index).evaluate(top) == -1680


def test_change_of_basis_stabilizer_order():
    u = ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    moved = build_star_fan(_moved(u))
    assert compute_stabilizer(moved).order == 1152


def test_stabilizer_of_basis_with_a_non_minimal_vector():
    # A unimodular change of basis whose first vector has norm 4: the
    # search sends it to the 24 vectors of norm 4.
    u = ((1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (0, 0, 0, 1))
    moved = build_star_fan(_moved(u))
    assert len(moved.fan.top_cones) == 64
    assert moved.gram[0][0] == 4
    assert compute_stabilizer(moved).order == 1152


@st.composite
def unimodular_matrices(draw):
    """Products of at most three elementary 4x4 matrices: adding +-1
    times one column to another, swapping two columns, or negating one."""
    u = [[int(i == j) for j in range(4)] for i in range(4)]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("add", "swap", "negate")))
        i, j = draw(st.permutations(range(4)))[:2]
        sign = draw(st.sampled_from((-1, 1)))
        for row in u:
            if kind == "add":
                row[i] += sign * row[j]
            elif kind == "swap":
                row[i], row[j] = row[j], row[i]
            else:
                row[i] = -row[i]
    return tuple(map(tuple, u))


@settings(max_examples=10)
@given(unimodular_matrices())
def test_any_unimodular_basis_builds_the_d4_fan_and_group(u):
    assert abs(int_det(u)) == 1
    moved = build_star_fan(_moved(u))
    assert len(moved.ray_vectors) == 12
    assert len(moved.facets) == 64
    assert compute_stabilizer(moved).order == 1152


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_n_star_fan_is_the_blow_up_of_a_point(n):
    # The norm-2 vectors of A_n are the roots e_i - e_j of A_n, N = n(n+1)/2 pairs
    # whose rank-one matrices are a basis: the cone is simplicial, its
    # star fan is affine N-space blown up at the origin, and E^N = (-1)^(N-1).
    dim = n * (n + 1) // 2
    star = build_star_fan(_cartan_a(n))
    assert len(star.ray_vectors) == dim
    assert len(star.facets) == dim
    assert all(len(f.incident) == dim - 1 for f in star.facets)
    assert compute_stabilizer(star).order == 2 * math.factorial(n + 1)
    engine = IntersectionEngine(star.fan, star.e_index)
    top = (dim,) + (0,) * dim
    assert engine.evaluate(top) == engine.e_top == (-1) ** (dim - 1)


def _with_entry(matrix, i, j, x):
    return tuple(
        tuple(x if (r, c) == (i, j) else v for c, v in enumerate(row))
        for r, row in enumerate(matrix)
    )


# Each boundary fed a non-integer that int() would truncate to valid
# input: 3/2 -> 1 and -3/2 -> -1.
BOUNDARIES = {
    "build_star_fan": lambda x: build_star_fan(
        _with_entry(_with_entry(EXPECTED_GRAM, 0, 1, -x), 1, 0, -x)
    ),
    "short_vectors": lambda x: short_vectors(
        _with_entry(_with_entry(EXPECTED_GRAM, 0, 1, -x), 1, 0, -x), 2
    ),
    "short_vectors_norm": lambda x: short_vectors(EXPECTED_GRAM, x + 1),
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
    """The stabilizer search as a plain column-by-column scan: column i
    runs over every vector of norm Q_ii in a fixed box, filtered by its
    inner products with the columns already chosen."""
    q = star.gram
    n = len(q)
    by_norm = {x: _box_scan(q, x, 3) for x in {q[i][i] for i in range(n)}}
    candidates = [by_norm[q[i][i]] for i in range(n)]

    def ip(v, w):
        return sum(v[i] * q[i][j] * w[j] for i in range(n) for j in range(n))

    rep_index = {v: i for i, v in enumerate(star.ray_vectors)}
    found = []

    def extend(cols):
        i = len(cols)
        if i == n:
            mat = tuple(tuple(cols[j][k] for j in range(n)) for k in range(n))
            perm = tuple(
                rep_index[_canon(tuple(sum(mat[k][j] * v[j] for j in range(n)) for k in range(n)))]
                for v in star.ray_vectors
            )
            found.append((mat, perm))
            return
        for v in candidates[i]:
            if all(ip(cols[k], v) == q[k][i] for k in range(i)):
                extend(cols + [v])

    extend([])
    return found


def test_stabilizer_matches_four_deep_scan(star, stabilizer):
    expected = _scan_form_automorphisms(star)
    assert [(e.matrix, e.ray_permutation) for e in stabilizer.elements] == expected


def test_stabilizer_matches_four_deep_scan_in_another_basis():
    # Columns e2, e1 + e2, e1 + e3, -e4: the third has norm 4, and the
    # Gram matrix differs from the shipped one.
    u = ((0, 1, 1, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))
    moved = build_star_fan(_moved(u))
    assert moved.gram != EXPECTED_GRAM
    got = compute_stabilizer(moved)
    assert got.order == 1152
    assert [(e.matrix, e.ray_permutation) for e in got.elements] == _scan_form_automorphisms(moved)


# Ray coordinates reach 5 in this basis, so a packing base too small
# for them would alias two ray images.
SKEWED_BASIS = ((1, 3, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


@functools.lru_cache(maxsize=None)
def _star_and_group(gram):
    """The star fan of a Gram matrix and its group, built once per module."""
    star = build_star_fan(gram)
    return star, compute_stabilizer(star)


def test_stabilizer_ray_permutations_in_a_skewed_basis():
    moved, got = _star_and_group(_moved(SKEWED_BASIS))
    assert max(abs(x) for v in moved.ray_vectors for x in v) == 5
    assert got.order == 1152
    rep = {v: i for i, v in enumerate(moved.ray_vectors)}
    for el in got.elements:
        g = el.matrix
        assert el.ray_permutation == tuple(
            rep[_canon(tuple(sum(g[i][k] * c[k] for k in range(4)) for i in range(4)))]
            for c in moved.ray_vectors
        )


@pytest.mark.parametrize(
    "gram", [D4_GRAM, _moved(SKEWED_BASIS), _cartan_a(3)], ids=["d4", "d4_skewed", "a3"]
)
def test_every_element_permutes_the_rays_by_its_matrix(gram):
    # Half the elements reuse the permutation of their negation, so each
    # is recomputed here from its own matrix: g c_i = +-c_perm[i].
    star, group = _star_and_group(gram)
    n = len(gram)
    rays = star.ray_vectors
    elements = group.elements
    for el in elements:
        g = el.matrix
        assert sorted(el.ray_permutation) == list(range(len(rays)))
        for c, p in zip(rays, el.ray_permutation):
            image = tuple(sum(g[i][k] * c[k] for k in range(n)) for i in range(n))
            assert image in (rays[p], tuple(-x for x in rays[p]))
    # -g is an element with the same permutation; for odd n (A3) its
    # determinant has the opposite sign.
    by_matrix = {el.matrix: el.ray_permutation for el in elements}
    assert len(by_matrix) == len(elements)
    for g, perm in by_matrix.items():
        neg = tuple(tuple(-x for x in row) for row in g)
        assert by_matrix[neg] == perm
        assert int_det(neg) == (-1) ** n * int_det(g)


def test_stabilizer_rejects_moved_barycenter(star):
    bad = star._replace(eta=(1, 0, 0, 0, 0, 0, 0, 0, 0, 0))
    with pytest.raises(StabilizerError, match="moves the barycenter"):
        compute_stabilizer(bad)


def test_stabilizer_rejects_facet_set_it_does_not_permute(star):
    facet_sets = {f.incident for f in star.facets}
    stray = next(
        frozenset(c)
        for c in itertools.combinations(range(12), 9)
        if frozenset(c) not in facet_sets
    )
    facets = (star.facets[0]._replace(incident=stray),) + star.facets[1:]
    bad = star._replace(facets=facets)
    with pytest.raises(StabilizerError, match="does not permute the top cones"):
        compute_stabilizer(bad)


def test_stabilizer_rejects_ray_map_that_is_not_a_bijection(star):
    # Listing ray 0 twice (in place of ray 5) leaves no listed ray for a
    # form automorphism to send onto ray 5.
    rv = star.ray_vectors
    bad = star._replace(ray_vectors=rv[:5] + (rv[0],) + rv[6:])
    with pytest.raises(StabilizerError, match="does not map the rays bijectively"):
        compute_stabilizer(bad)


def test_stabilizer_rejects_matrix_that_is_not_unimodular(star, monkeypatch):
    # Every determinant reads 2. The candidate box in short_vectors
    # shrinks to |c_i| <= 1, which still holds the identity's columns.
    monkeypatch.setattr(d4fan, "int_det", lambda rows: 2)
    with pytest.raises(StabilizerError, match="is not unimodular"):
        compute_stabilizer(star)


GROUP_FORMS = pytest.mark.parametrize(
    "gram", [D4_GRAM, _moved(SKEWED_BASIS), _cartan_a(3)], ids=["d4", "d4_skewed", "a3"]
)


def _checked_permutations(star, monkeypatch):
    """The group of `star` and the permutations of the elements it was
    checked on, read off the calls of the facet predicate."""
    checked = []
    real = d4fan.facet_permutation_test

    def recording(n_rays, facets):
        permutes = real(n_rays, facets)

        def record(perm):
            checked.append(tuple(perm))
            return permutes(perm)

        return record

    monkeypatch.setattr(d4fan, "facet_permutation_test", recording)
    return compute_stabilizer(star), checked


@GROUP_FORMS
def test_checked_elements_generate_every_permutation(gram, monkeypatch):
    # Products of the checked permutations, found by a walk that
    # composes on the other side from the search's closure, reach
    # exactly the permutations of all elements.
    star, group = _star_and_group(gram)
    again, checked = _checked_permutations(star, monkeypatch)
    assert again == group
    identity = tuple(range(len(star.ray_vectors)))
    assert checked.count(identity) == 2
    reached = {identity}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for s in checked:
            r = tuple(s[i] for i in p)
            if r not in reached:
                reached.add(r)
                frontier.append(r)
    assert reached == {el.ray_permutation for el in group.elements}


@GROUP_FORMS
def test_each_permutation_is_induced_by_two_elements(gram):
    _, group = _star_and_group(gram)
    counts = collections.Counter(el.ray_permutation for el in group.elements)
    assert set(counts.values()) == {2}


def _without(monkeypatch, dropped):
    """Make the search's candidate vectors miss the vectors `dropped`."""
    real = d4fan.short_vectors

    def dropping(q, norm):
        return tuple(v for v in real(q, norm) if v not in dropped)

    monkeypatch.setattr(d4fan, "short_vectors", dropping)


@pytest.mark.parametrize("drop", [0, 5, 23])
def test_stabilizer_rejects_a_search_missing_a_candidate_vector(star, monkeypatch, drop):
    # Without one norm-2 vector v the search misses every matrix with v
    # as a column, so the negation of each matrix with -v as a column is
    # missing: the lookup of v's index finds none, and the permutation
    # of such a matrix is induced once, the identity's twice or once.
    _without(monkeypatch, {short_vectors(D4_GRAM, 2)[drop]})
    with pytest.raises(StabilizerError, match="is induced by 1 elements|the identity by 1$"):
        compute_stabilizer(star)


@pytest.mark.parametrize("v", [(0, 1, 0, 1), (1, 1, 1, 1), (1, 0, 0, 0)])
def test_stabilizer_rejects_a_search_missing_an_antipodal_pair(star, monkeypatch, v):
    # Without v and -v every element found still has its negation, but
    # the permutations found are 384 of the 576 the generators generate.
    _without(monkeypatch, {v, tuple(-x for x in v)})
    with pytest.raises(StabilizerError, match="generate 576 ray permutations.* induce 384$"):
        compute_stabilizer(star)


def test_stabilizer_checks_only_generators_and_the_kernel(star, monkeypatch):
    # Checking each of the 576 ± pairs calls int_det 585 times (9 in
    # short_vectors) and the facet predicate 576 times; ±I and 5
    # generators need 7 of each.
    dets = []
    real_det = d4fan.int_det

    def counting_det(rows):
        dets.append(1)
        return real_det(rows)

    monkeypatch.setattr(d4fan, "int_det", counting_det)
    group, checked = _checked_permutations(star, monkeypatch)
    assert group.order == 1152
    assert len(dets) <= 20
    assert len(checked) <= 8
