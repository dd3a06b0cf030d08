"""The star fan of the exceptional ray inside the rank-4 second perfect cone.

The positive-definite quartic form used throughout is the D4 root form,
realized on Z^4 by the basis f1 = e1-e2, f2 = e2-e3, f3 = e3-e4,
f4 = e3+e4, so its Gram matrix is the D4 Cartan matrix. Its 24 minimal
vectors come in 12 antipodal pairs; each pair c gives a rank-one
symmetric matrix c c^T, and those twelve matrices are the rays of a
ten-dimensional cone in the lattice of integer symmetric 4x4 matrices.

Subdividing at the primitive interior ray eta (the barycenter) yields a
fan of 64 basic cones, one per facet. The automorphism group of the
form permutes everything and fixes eta.

Symmetric matrices are flattened to ten coordinates in the fixed order
(S11, S22, S33, S44, S12, S13, S14, S23, S24, S34).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import index, mul
from typing import Sequence

from .cones import Cone, Facet, Fan, cone_dim, enumerate_facets
from .exact import gcd_content, int_det, primitive_vector, unimodular_inverse

__all__ = [
    "COORD_PAIRS",
    "D4_BASIS",
    "FanConstructionError",
    "StabilizerError",
    "SymMatrix",
    "StarFan",
    "LatticeAutomorphism",
    "Stabilizer",
    "build_d4_form",
    "minimal_vectors",
    "build_star_fan",
    "compute_stabilizer",
]

# Columns are the basis vectors f1..f4 expressed in the standard basis.
D4_BASIS: tuple[tuple[int, ...], ...] = (
    (1, 0, 0, 0),
    (-1, 1, 0, 0),
    (0, -1, 1, 1),
    (0, 0, -1, 1),
)

# Flattening order for symmetric 4x4 matrices: diagonal first, then the
# upper triangle row by row.
COORD_PAIRS: tuple[tuple[int, int], ...] = (
    (0, 0), (1, 1), (2, 2), (3, 3),
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
)

_MIN_NORM = 2
# Coordinate bound of the minimal-vector search; the shipped basis needs 2.
_BOX = 3
_EXPECTED_MIN_VECTORS = 24
_EXPECTED_RAYS = 12
_EXPECTED_FACETS = 64
_AMBIENT = 10


class FanConstructionError(RuntimeError):
    """The fan under construction violates a structural requirement."""


class StabilizerError(RuntimeError):
    """An automorphism candidate fails a consistency requirement."""


def _matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def _transpose(a: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(a[i][j] for i in range(len(a))) for j in range(len(a[0])))


def _canon(vec: Sequence[int]) -> tuple[int, ...]:
    """Antipodal representative whose first nonzero coordinate is positive."""
    for x in vec:
        if x != 0:
            return tuple(vec) if x > 0 else tuple(-y for y in vec)
    raise ValueError("zero vector has no antipodal representative")


@dataclass(frozen=True)
class SymMatrix:
    """An integer symmetric 4x4 matrix with its canonical flat coordinates."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(map(index, row)) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("expected a 4x4 matrix")
        for i in range(4):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("matrix is not symmetric")

    @classmethod
    def from_vector(cls, c: Sequence[int]) -> "SymMatrix":
        """Rank-one symmetric matrix c c^T."""
        return cls(tuple(tuple(c[i] * c[j] for j in range(4)) for i in range(4)))

    @classmethod
    def from_coords(cls, coords: Sequence[int]) -> "SymMatrix":
        if len(coords) != len(COORD_PAIRS):
            raise ValueError("expected ten coordinates")
        m = [[0] * 4 for _ in range(4)]
        for (i, j), x in zip(COORD_PAIRS, coords):
            m[i][j] = x
            m[j][i] = x
        return cls(tuple(tuple(r) for r in m))

    @property
    def coords(self) -> tuple[int, ...]:
        return tuple(self.rows[i][j] for i, j in COORD_PAIRS)


def _form_in_basis(
    change_of_basis: Sequence[Sequence[int]] | None,
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...] | None]:
    """The Gram matrix Q = B^T B of the D4 basis, or U^T Q U for a change
    of basis U, together with U checked to be a unimodular 4x4 integer
    matrix (None when no change is asked for)."""
    q = _matmul(_transpose(D4_BASIS), D4_BASIS)
    if change_of_basis is None:
        return q, None
    u = tuple(tuple(map(index, row)) for row in change_of_basis)
    if len(u) != 4 or any(len(row) != 4 for row in u):
        raise ValueError("change of basis must be a 4x4 matrix")
    if abs(int_det(u)) != 1:
        raise ValueError("change of basis must be unimodular")
    return _matmul(_transpose(u), _matmul(q, u)), u


def build_d4_form(change_of_basis: Sequence[Sequence[int]] | None = None) -> tuple[tuple[int, ...], ...]:
    """Gram matrix B^T B of the D4 basis, optionally conjugated by a
    unimodular change of basis U (giving U^T Q U)."""
    return _form_in_basis(change_of_basis)[0]


def minimal_vectors(gram: Sequence[Sequence[int]] | None = None) -> tuple[tuple[int, ...], ...]:
    """The 24 integer vectors of norm 2 for the given Gram matrix.

    Enumerates the coordinate box |c_i| <= 3, which suffices for the
    shipped realization; the count is validated so a Gram matrix whose
    minimal vectors escape the box is rejected rather than silently
    truncated. Every hit is primitive: an integer form gives k c the
    norm k^2 times an integer, which is 2 only for k = +-1.
    """
    q = build_d4_form() if gram is None else tuple(tuple(map(index, r)) for r in gram)
    hits = []
    for c in product(range(-_BOX, _BOX + 1), repeat=4):
        norm = sum(c[i] * q[i][j] * c[j] for i in range(4) for j in range(4))
        if norm == _MIN_NORM:
            hits.append(c)
    if len(hits) != _EXPECTED_MIN_VECTORS:
        raise FanConstructionError(
            f"expected {_EXPECTED_MIN_VECTORS} minimal vectors, found {len(hits)}"
        )
    return tuple(sorted(hits))


@dataclass(frozen=True)
class StarFan:
    """The subdivided cone: rays, barycenter, facets, and the simplicial
    fan whose ray 0 is the barycenter and whose ray 1+i is `gammas[i]`.

    `facets` index into `gammas`; `fan.top_cones` index into `fan.rays`.
    """

    gram: tuple[tuple[int, ...], ...]
    ray_vectors: tuple[tuple[int, ...], ...]
    gammas: tuple[SymMatrix, ...]
    eta: SymMatrix
    eta_content: int
    facets: tuple[Facet, ...]
    fan: Fan

    @property
    def e_index(self) -> int:
        return 0


def build_star_fan(change_of_basis: Sequence[Sequence[int]] | None = None) -> StarFan:
    """Construct the star fan of the barycenter ray.

    With a unimodular `change_of_basis` U the whole construction is
    transported along c -> U^{-1} c; every combinatorial invariant must
    be unchanged, which the tests exercise.
    """
    q, u = _form_in_basis(change_of_basis)
    vecs: Sequence[tuple[int, ...]] = minimal_vectors()
    if u is not None:
        uinv = unimodular_inverse(u)
        vecs = sorted(
            tuple(sum(uinv[i][j] * v[j] for j in range(4)) for i in range(4))
            for v in vecs
        )
    reps = tuple(sorted({_canon(v) for v in vecs}))
    if len(reps) != _EXPECTED_RAYS:
        raise FanConstructionError(
            f"expected {_EXPECTED_RAYS} antipodal pairs, found {len(reps)}"
        )
    gammas = tuple(SymMatrix.from_vector(c) for c in reps)
    base = Cone(_AMBIENT, tuple(g.coords for g in gammas))
    if cone_dim(base) != _AMBIENT:
        raise FanConstructionError("rays do not span the full ambient space")
    total = [0] * _AMBIENT
    for g in gammas:
        for k, x in enumerate(g.coords):
            total[k] += x
    content = gcd_content(total)
    eta = SymMatrix.from_coords(primitive_vector(total))
    facets = tuple(enumerate_facets(base))
    if len(facets) != _EXPECTED_FACETS:
        raise FanConstructionError(f"expected {_EXPECTED_FACETS} facets, found {len(facets)}")
    for f in facets:
        if len(f.incident) != _AMBIENT - 1:
            raise FanConstructionError(
                f"facet {sorted(f.incident)} has {len(f.incident)} rays; the subdivision needs 9"
            )
        if sum(a * b for a, b in zip(f.normal, eta.coords)) <= 0:
            raise FanConstructionError("barycenter is not strictly interior")
    rays = (eta.coords,) + tuple(g.coords for g in gammas)
    tops: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    for f in facets:
        idx = frozenset({0} | {1 + i for i in f.incident})
        if idx in seen:
            raise FanConstructionError(f"facets produce a duplicate cone {sorted(idx)}")
        seen.add(idx)
        tops.append(idx)
    fan = Fan(rays, tuple(tops))
    return StarFan(q, reps, gammas, eta, content, facets, fan)


@dataclass(frozen=True)
class LatticeAutomorphism:
    """An integer matrix preserving the quartic form, together with the
    permutation it induces on the twelve rays (by index into `gammas`)."""

    matrix: tuple[tuple[int, ...], ...]
    ray_permutation: tuple[int, ...]


@dataclass(frozen=True)
class Stabilizer:
    elements: tuple[LatticeAutomorphism, ...]

    @property
    def order(self) -> int:
        """The number of distinct matrices among the elements."""
        return len({el.matrix for el in self.elements})


def compute_stabilizer(star: StarFan) -> Stabilizer:
    """All integer automorphisms of the quartic form, as a permutation
    group on the rays.

    Candidates send each basis vector to a minimal vector subject to the
    Gram conditions, so every basis vector must itself be minimal (norm
    2); a basis that breaks this is rejected, not searched. The form's
    inner products between minimal vectors are tabulated once, so the
    candidates for each column are the intersection of the neighbour
    sets of the columns already chosen; columns are tried in sorted
    order. Every element is checked to be unimodular, to permute the
    rays, to fix the barycenter and to permute the top cones; a failure
    of any check is a hard error because it would mean the fan does not
    actually carry the symmetry.
    """
    q = star.gram
    for i in range(4):
        if q[i][i] != _MIN_NORM:
            raise StabilizerError(
                f"basis vector {i + 1} has norm {q[i][i]}, not the minimal norm "
                f"{_MIN_NORM}; the search only maps basis vectors to minimal vectors"
            )
    vecs = sorted(set(star.ray_vectors) | {tuple(-x for x in v) for v in star.ray_vectors})
    qv = [tuple(sum(q[i][j] * v[j] for j in range(4)) for i in range(4)) for v in vecs]
    # nbr[a][x]: the indices b with <vecs[a], vecs[b]> = x.
    nbr: list[dict[int, frozenset[int]]] = []
    for qa in qv:
        groups: dict[int, set[int]] = {}
        for b, w in enumerate(vecs):
            groups.setdefault(sum(map(mul, qa, w)), set()).add(b)
        nbr.append({x: frozenset(bs) for x, bs in groups.items()})
    none: frozenset[int] = frozenset()

    n_rays = len(star.ray_vectors)
    rep_index = {v: i for i, v in enumerate(star.ray_vectors)}
    ray_of = {v: rep_index[_canon(v)] for v in vecs}
    eta = star.eta.rows
    # A permutation of the rays maps a facet onto a facet exactly when it
    # maps the rays the facet leaves out onto the rays another facet
    # leaves out; those complements are 3 rays against the facet's 9.
    complements = [
        tuple(i for i in range(n_rays) if i not in f.incident) for f in star.facets
    ]
    complement_masks = frozenset(sum(1 << i for i in comp) for comp in complements)
    elements: list[LatticeAutomorphism] = []
    for a1 in range(len(vecs)):
        for a2 in sorted(nbr[a1].get(q[0][1], none)):
            for a3 in sorted(nbr[a1].get(q[0][2], none) & nbr[a2].get(q[1][2], none)):
                for a4 in sorted(
                    nbr[a1].get(q[0][3], none)
                    & nbr[a2].get(q[1][3], none)
                    & nbr[a3].get(q[2][3], none)
                ):
                    cols = (vecs[a1], vecs[a2], vecs[a3], vecs[a4])
                    mat = tuple(zip(*cols))
                    if abs(int_det(mat)) != 1:
                        raise StabilizerError(f"form-preserving matrix {mat} is not unimodular")
                    perm = []
                    for v in star.ray_vectors:
                        image = tuple(sum(map(mul, row, v)) for row in mat)
                        if image not in ray_of:
                            raise StabilizerError(
                                f"matrix {mat} maps ray vector {v} outside the ray set"
                            )
                        perm.append(ray_of[image])
                    if len(set(perm)) != n_rays:
                        raise StabilizerError(
                            f"matrix {mat} maps two rays to one; its ray map is not a bijection"
                        )
                    # g eta g^T, reading eta's rows as its columns (it is symmetric).
                    g_eta = [[sum(map(mul, row, col)) for col in eta] for row in mat]
                    if any(
                        sum(map(mul, g_eta[i], mat[j])) != eta[i][j]
                        for i in range(4)
                        for j in range(i, 4)
                    ):
                        raise StabilizerError(f"matrix {mat} moves the barycenter")
                    bits = [1 << p for p in perm]
                    for comp in complements:
                        image_mask = 0
                        for i in comp:
                            image_mask |= bits[i]
                        if image_mask not in complement_masks:
                            raise StabilizerError(
                                f"matrix {mat} does not permute the top cones"
                            )
                    elements.append(LatticeAutomorphism(mat, tuple(perm)))
    return Stabilizer(tuple(elements))
