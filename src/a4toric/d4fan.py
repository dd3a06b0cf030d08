"""The star fan of the barycenter ray inside the perfect cone of an even form.

A positive-definite even Gram matrix Q on Z^n has finitely many vectors
of norm c^T Q c = 2, in antipodal pairs. Each pair c gives a rank-one
symmetric matrix c c^T, and those matrices are the rays of a cone in the
lattice of integer symmetric n x n matrices, which must span all
N = n(n+1)/2 dimensions. Subdividing at the primitive interior ray eta
(the barycenter) yields a fan of basic cones, one per facet. The integer
automorphisms of the form permute everything and fix eta.

The default form is the D4 root form, realized on Z^4 by the basis
f1 = e1-e2, f2 = e2-e3, f3 = e3-e4, f4 = e3+e4, so its Gram matrix is
the D4 Cartan matrix: 24 vectors of norm 2 give 12 rays spanning a
ten-dimensional cone with 64 facets, and the group has order 1152. On
the Cartan form of A_n the cone is simplicial and the star fan is the
blow-up of affine N-space at the origin.

Symmetric matrices are flattened to N coordinates, the diagonal first
and then the upper triangle row by row; for n = 4 that is
(S11, S22, S33, S44, S12, S13, S14, S23, S24, S34).
"""

from __future__ import annotations

from itertools import product
from math import isqrt
from operator import index, itemgetter, mul
from typing import Callable, Iterator, NamedTuple, Sequence, TypeVar

from .cones import Cone, Facet, Fan, enumerate_facets
from .exact import gcd_content, int_det, primitive_vector, rank

__all__ = [
    "D4_GRAM",
    "FanConstructionError",
    "StabilizerError",
    "StarFan",
    "LatticeAutomorphism",
    "Stabilizer",
    "short_vectors",
    "build_star_fan",
    "compute_stabilizer",
    "facet_permutation_test",
]

Gram = tuple[tuple[int, ...], ...]
T = TypeVar("T")

# The Gram matrix of f1..f4 above.
D4_GRAM: Gram = (
    (2, -1, 0, 0),
    (-1, 2, -1, -1),
    (0, -1, 2, 0),
    (0, -1, 0, 2),
)


class FanConstructionError(RuntimeError):
    """The fan under construction violates a structural requirement."""


class StabilizerError(RuntimeError):
    """An automorphism candidate fails a consistency requirement."""


def _canon(vec: Sequence[int]) -> tuple[int, ...]:
    """Antipodal representative whose first nonzero coordinate is positive."""
    for x in vec:
        if x != 0:
            return tuple(vec) if x > 0 else tuple(-y for y in vec)
    raise ValueError("zero vector has no antipodal representative")


def _flat(m: Sequence[Sequence[T]]) -> tuple[T, ...]:
    """Flat coordinates of a symmetric matrix: the diagonal, then the
    upper triangle row by row."""
    n = len(m)
    return tuple(m[i][i] for i in range(n)) + tuple(
        m[i][j] for i in range(n) for j in range(i + 1, n)
    )


def _form(gram: Sequence[Sequence[int]]) -> Gram:
    """The Gram matrix as integer rows, checked to be square, symmetric
    and positive definite (every leading principal minor positive)."""
    q = tuple(tuple(map(index, row)) for row in gram)
    n = len(q)
    if n == 0 or any(len(row) != n for row in q):
        raise ValueError("a Gram matrix must be a nonempty square matrix")
    if any(q[i][j] != q[j][i] for i in range(n) for j in range(i)):
        raise ValueError("the Gram matrix is not symmetric")
    if any(int_det([row[:k] for row in q[:k]]) <= 0 for k in range(1, n + 1)):
        raise ValueError("the Gram matrix is not positive definite")
    return q


def short_vectors(gram: Sequence[Sequence[int]], norm: int) -> tuple[tuple[int, ...], ...]:
    """The integer vectors c with c^T Q c = norm, in sorted order, for a
    positive-definite Gram matrix Q.

    Every such c has c_i^2 <= norm (Q^-1)_ii (Fincke-Pohst, Math. Comp.
    1985), and (Q^-1)_ii is the cofactor of Q_ii over det Q, so the box
    |c_i| <= isqrt(norm * cofactor_ii // det Q) holds them all and is
    computed in integers.
    """
    q = _form(gram)
    norm = index(norm)
    det = int_det(q)
    ranges = []
    for i in range(len(q)):
        minor = [row[:i] + row[i + 1 :] for k, row in enumerate(q) if k != i]
        bound = isqrt(norm * int_det(minor) // det)
        ranges.append(range(-bound, bound + 1))
    return tuple(
        c
        for c in product(*ranges)
        if sum(x * sum(map(mul, row, c)) for x, row in zip(c, q)) == norm
    )


class StarFan(NamedTuple):
    """The subdivided cone of a Gram matrix: the antipodal representatives
    c of its norm-2 vectors, the barycenter eta in flat coordinates with
    the content of the ray sum it divides, the facets, and the simplicial
    fan whose ray 0 is eta and whose ray 1+i is c_i c_i^T flattened.

    `facets` index into `ray_vectors`; `fan.top_cones` index into `fan.rays`.
    """

    gram: Gram
    ray_vectors: tuple[tuple[int, ...], ...]
    eta: tuple[int, ...]
    eta_content: int
    facets: tuple[Facet, ...]
    fan: Fan

    @property
    def e_index(self) -> int:
        return 0


def build_star_fan(gram: Sequence[Sequence[int]] | None = None) -> StarFan:
    """The star fan of the barycenter ray for a positive-definite even
    Gram matrix (default `D4_GRAM`); every dimension is read from it."""
    q = _form(D4_GRAM if gram is None else gram)
    if any(row[i] % 2 for i, row in enumerate(q)):
        raise ValueError("the Gram matrix is not even: a diagonal entry is odd")
    reps = tuple(sorted({_canon(v) for v in short_vectors(q, 2)}))
    rays = tuple(_flat([[a * b for b in c] for a in c]) for c in reps)
    ambient = len(_flat(q))
    if rank(rays) != ambient:
        raise FanConstructionError(
            f"the {len(rays)} rays of the norm-2 vectors do not span all {ambient} "
            "coordinates of the symmetric matrices"
        )
    if len(rays) == 1:
        raise FanConstructionError("the cone of the one norm-2 ray has no interior to subdivide")
    total = [sum(col) for col in zip(*rays)]
    eta = primitive_vector(total)
    facets = tuple(enumerate_facets(Cone(ambient, rays)))
    # A facet that is not simplicial would give a cone with eta that is
    # not simplicial either; the sum of all rays is interior, so facets
    # give distinct cones.
    for i, f in enumerate(facets):
        if len(f.incident) != ambient - 1:
            raise FanConstructionError(
                f"facet {i} of the cone has {len(f.incident)} rays, not {ambient - 1}: "
                "it is not simplicial, so the star fan would not be"
            )
    tops = tuple(frozenset({0} | {1 + i for i in f.incident}) for f in facets)
    return StarFan(q, reps, eta, gcd_content(total), facets, Fan((eta,) + rays, tops))


class LatticeAutomorphism(NamedTuple):
    """An integer matrix preserving the form, together with the
    permutation it induces on the rays (by index into `ray_vectors`)."""

    matrix: tuple[tuple[int, ...], ...]
    ray_permutation: tuple[int, ...]


class Stabilizer(NamedTuple):
    elements: tuple[LatticeAutomorphism, ...]

    @property
    def order(self) -> int:
        """The number of distinct matrices among the elements."""
        return len({el.matrix for el in self.elements})


def facet_permutation_test(
    n_rays: int, facets: Sequence[frozenset[int]]
) -> Callable[[Sequence[int]], bool]:
    """The test of whether a bijection of the rays 0..n_rays-1, given as
    the image of each ray, maps the facets, given as the rays each holds,
    onto themselves.

    A bijection maps a facet onto a facet exactly when it maps the rays
    that facet leaves out onto the rays another facet leaves out, so the
    test runs on bitmasks of those complements, computed once here,
    whatever their sizes. The caller checks that the argument is a
    bijection and that every facet names rays of 0..n_rays-1 only.
    """
    every = frozenset(range(n_rays))
    complements = [tuple(every - inc) for inc in facets]
    masks = frozenset(sum(1 << i for i in comp) for comp in complements)

    def permutes(perm: Sequence[int]) -> bool:
        bits = [1 << p for p in perm]
        for comp in complements:
            image = 0
            for i in comp:
                image |= bits[i]
            if image not in masks:
                return False
        return True

    return permutes


def _close(
    generated: set[tuple[int, ...]], steps: list[itemgetter], new: tuple[int, ...]
) -> None:
    """Extend `generated`, the group of permutations that the generators
    taken by `steps` generate, by the generator `new`, and append its
    step. A step maps a permutation p to p composed with its generator.

    The old group is closed under the old steps, so each of its elements
    needs only the new one, and every element that appears then takes
    every step until nothing new appears: a finite set closed under
    composition with the generators is the group they generate."""
    step = itemgetter(*new)
    frontier = list(generated)
    take = [step]
    steps.append(step)
    while frontier:
        found = []
        for p in frontier:
            for s in take:
                r = s(p)
                if r not in generated:
                    generated.add(r)
                    found.append(r)
        frontier = found
        take = steps


def compute_stabilizer(star: StarFan) -> Stabilizer:
    """All integer automorphisms of the form, as a permutation group on
    the rays.

    A matrix g preserves Q exactly when its column i has norm Q_ii and
    columns i and k have inner product Q_ik. The form's inner products
    between the vectors of the diagonal norms are tabulated once, so the
    candidates for column i are the vectors of norm Q_ii intersected
    with the neighbour sets of the columns already chosen; the search
    recurses over the columns in sorted order. The elements are checked
    to be unimodular, to permute the rays, to fix the barycenter and to
    permute the top cones; a failure of any check is a hard error because
    it would mean the fan does not actually carry the symmetry.

    The ray check runs on packed integers. Balanced base-w packing,
    P(v) = sum of v_j w^j, is linear, so P(g c) = sum of c_k P(column k)
    is one dot product with the packed columns. The base w is 2B + 1 for
    a bound B, read off the candidate vectors and the rays, on every
    coordinate g c and +-c can have; P is injective on that box, so
    equal keys mean equal vectors. The barycenter check compares
    g eta g^T with eta as integer matrices.

    Every element gets its ray permutation, checked to be a bijection.
    That check is invariant under negation: (-g) c = -(g c) is the same
    antipodal ray as g c, so -g induces the permutation of g: an element
    whose negation came first takes that permutation, found by the
    indices of its negated columns.

    The other three checks run only on the kernel, the elements whose
    permutation is the identity (I and -I on D4), and on a greedy
    generating set: each element whose permutation the generators chosen
    before it do not yet generate is checked when it is chosen (5 on D4).
    That suffices, because the three properties survive products:
    |det gh| = |det g| |det h|, gh eta (gh)^T = g (h eta h^T) g^T, and a
    composition of permutations that map the top cones onto themselves
    does too. The search returns the group of all form-preserving integer
    matrices, on which g -> permutation is a homomorphism with that
    kernel, so every element is a checked kernel element times a product
    of checked generators. Two checks make an incomplete search fail
    loudly: the permutations the generators generate must be exactly the
    permutations found, and each permutation must be induced by as many
    elements as the identity is, as each coset of the kernel is.
    Generation is the classical closure (Butler, Fundamental Algorithms
    for Permutation Groups, LNCS 559, 1991).
    """
    q = star.gram
    n = len(q)
    by_norm = {x: short_vectors(q, x) for x in {q[i][i] for i in range(n)}}
    vecs = sorted({v for vs in by_norm.values() for v in vs})
    position = {v: a for a, v in enumerate(vecs)}
    of_norm = {x: frozenset(position[v] for v in vs) for x, vs in by_norm.items()}
    # nbr[a][x]: the indices b with <vecs[a], vecs[b]> = x.
    nbr: list[dict[int, frozenset[int]]] = []
    for v in vecs:
        qa = [sum(map(mul, row, v)) for row in q]
        groups: dict[int, set[int]] = {}
        for b, w in enumerate(vecs):
            groups.setdefault(sum(map(mul, qa, w)), set()).add(b)
        nbr.append({x: frozenset(bs) for x, bs in groups.items()})
    none: frozenset[int] = frozenset()

    def columns(chosen: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        i = len(chosen)
        if i == n:
            yield chosen
            return
        candidates = of_norm[q[i][i]]
        for k, a in enumerate(chosen):
            candidates = candidates & nbr[a].get(q[k][i], none)
        for a in sorted(candidates):
            yield from columns(chosen + (a,))

    rays = star.ray_vectors
    every_ray = set(range(len(rays)))
    # _flat of the matrix of index pairs lists the pair behind each flat
    # coordinate, which unflattens eta.
    eta = [[0] * n for _ in range(n)]
    for (i, j), x in zip(_flat([[(i, j) for j in range(n)] for i in range(n)]), star.eta):
        eta[i][j] = eta[j][i] = x
    # Every entry of g is a candidate-vector coordinate, at most m in size.
    m = max(abs(x) for v in vecs for x in v)
    bound = max(
        m * max(sum(map(abs, c)) for c in rays),  # g c
        max(abs(x) for c in rays for x in c),  # +-c
    )
    powers = [(2 * bound + 1) ** j for j in range(n)]
    packed = [sum(map(mul, v, powers)) for v in vecs]
    ray_of = {
        sum(map(mul, u, powers)): i
        for i, v in enumerate(rays)
        for u in (v, tuple(-x for x in v))
    }
    permutes_facets = facet_permutation_test(len(rays), [f.incident for f in star.facets])
    # neg[a]: the index of -vecs[a], or -1 where the search has no such vector.
    neg = [position.get(tuple(-x for x in v), -1) for v in vecs]
    identity = tuple(range(len(rays)))
    # The permutation of each element awaiting its negation, keyed by the
    # negation's columns.
    negations: dict[tuple[int, ...], tuple[int, ...]] = {}
    # How many elements induce each permutation found.
    counts: dict[tuple[int, ...], int] = {}
    # The permutations the generators generate, and one step per generator.
    generated = {identity}
    steps: list[itemgetter] = []
    elements: list[LatticeAutomorphism] = []
    for chosen in columns(()):
        mat = tuple(zip(*(vecs[a] for a in chosen)))
        cols = [packed[a] for a in chosen]
        perm = negations.pop(chosen, None)
        if perm is None:
            perm = tuple([ray_of.get(sum(map(mul, c, cols)), -1) for c in rays])
            if set(perm) != every_ray:
                raise StabilizerError(
                    f"matrix {mat} does not map the rays bijectively onto the rays"
                )
            negations[tuple([neg[a] for a in chosen])] = perm
        if perm == identity or perm not in generated:
            if abs(int_det(mat)) != 1:
                raise StabilizerError(f"form-preserving matrix {mat} is not unimodular")
            # eta g^T, then g eta g^T.
            eta_gt = [[sum(map(mul, row, g_row)) for g_row in mat] for row in eta]
            if [[sum(map(mul, g_row, col)) for col in zip(*eta_gt)] for g_row in mat] != eta:
                raise StabilizerError(f"matrix {mat} moves the barycenter")
            if not permutes_facets(perm):
                raise StabilizerError(f"matrix {mat} does not permute the top cones")
            if perm != identity:
                _close(generated, steps, perm)
        counts[perm] = counts.get(perm, 0) + 1
        elements.append(LatticeAutomorphism(mat, perm))
    if generated != counts.keys():
        raise StabilizerError(
            f"the {len(steps)} generators generate {len(generated)} ray permutations, "
            f"but the elements found induce {len(counts)}"
        )
    kernel = counts.get(identity, 0)
    for perm, count in counts.items():
        if count != kernel:
            raise StabilizerError(
                f"ray permutation {perm} is induced by {count} elements, "
                f"the identity by {kernel}"
            )
    return Stabilizer(tuple(elements))
