"""Polyhedral cone combinatorics over an ambient lattice Z^n.

Cones are described by primitive integer ray generators. Facet
enumeration is deliberate brute force over generator subsets: the
largest instance this package ever needs is twelve rays in Z^10
(220 candidate subsets), far below the point where double-description
style algorithms would pay off. Cones of every dimension take the same
integer path: each candidate covector is the kernel line of a subset of
generators stacked on an integer kernel basis of all of them, so no
rational arithmetic is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import index

from .exact import DimensionError, gcd_content, int_det, kernel_basis, kernel_line, rank

__all__ = [
    "Cone",
    "Facet",
    "Fan",
    "DegenerateConeError",
    "cone_dim",
    "enumerate_facets",
]


class DegenerateConeError(ValueError):
    """The cone is not pointed in its span (it contains a line)."""


@dataclass(frozen=True)
class Cone:
    """A rational polyhedral cone spanned by primitive integer generators.

    Generators must be nonzero, primitive, and pairwise distinct; since
    primitive vectors coincide exactly when they are positive multiples
    of each other, distinctness rules out duplicates up to rescaling.
    """

    ambient: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        gens = tuple(tuple(map(index, g)) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        if self.ambient <= 0:
            raise ValueError("ambient dimension must be positive")
        if not gens:
            raise ValueError("a cone needs at least one generator")
        seen = set()
        for g in gens:
            if len(g) != self.ambient:
                raise DimensionError("generator length does not match ambient dimension")
            content = gcd_content(g)
            if content == 0:
                raise ValueError("zero vector is not a valid ray generator")
            if content != 1:
                raise ValueError(f"generator {g} is not primitive")
            if g in seen:
                raise ValueError(f"duplicate generator {g}")
            seen.add(g)


def cone_dim(cone: Cone) -> int:
    """Dimension of the linear span of the cone."""
    return rank(cone.generators)


@dataclass(frozen=True)
class Facet:
    """A codimension-one face: primitive supporting covector plus the
    indices of the generators it vanishes on.

    The covector evaluates to zero on every incident generator and
    strictly positively on every other generator of the cone.
    """

    normal: tuple[int, ...]
    incident: frozenset[int]


def enumerate_facets(cone: Cone) -> list[Facet]:
    """All facets of a pointed cone of dimension at least two.

    Each candidate facet is cut out by a covector chosen inside the row
    space of the generators (so the answer does not depend on how the
    span sits in the ambient lattice). A covector lies in that row space
    exactly when it vanishes on an integer basis of the generators'
    kernel, so the candidate is the one-dimensional kernel of a
    (dim-1)-subset of generators stacked on that basis, which is empty
    for a full-dimensional cone. One-sidedness over the remaining
    generators filters genuine facets; a generator on which every facet
    covector vanishes witnesses a line in the cone.
    """
    gens = cone.generators
    kernel = kernel_basis(gens, cone.ambient)
    d = cone.ambient - len(kernel)
    if d <= 1:
        return []
    found: dict[tuple[int, ...], frozenset[int]] = {}
    for subset in combinations(range(len(gens)), d - 1):
        normal = kernel_line([gens[i] for i in subset] + kernel, cone.ambient)
        if normal is None:
            continue
        values = [sum(a * b for a, b in zip(normal, g)) for g in gens]
        # A nonzero covector in the row space is nonzero on some generator,
        # so every candidate has a sign.
        if any(v > 0 for v in values) and any(v < 0 for v in values):
            continue
        if any(v < 0 for v in values):
            normal = tuple(-x for x in normal)
            values = [-v for v in values]
        found[normal] = frozenset(i for i, v in enumerate(values) if v == 0)
    for i, g in enumerate(gens):
        if all(sum(a * b for a, b in zip(normal, g)) == 0 for normal in found):
            raise DegenerateConeError(
                f"generator {g} lies on every supporting hyperplane; the cone is not pointed"
            )
    return [Facet(normal, found[normal]) for normal in sorted(found)]


@dataclass(frozen=True)
class Fan:
    """A simplicial fan given by its rays and top-dimensional cones.

    Every top cone must be full-dimensional, simplicial, and basic (its
    rays form a lattice basis); both intersection engines rely on this.
    """

    rays: tuple[tuple[int, ...], ...]
    top_cones: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        rays = tuple(tuple(map(index, r)) for r in self.rays)
        tops = tuple(frozenset(c) for c in self.top_cones)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "top_cones", tops)
        if not rays:
            raise ValueError("a fan needs at least one ray")
        n = len(rays[0])
        seen = set()
        for r in rays:
            if len(r) != n:
                raise DimensionError("rays of mixed ambient dimension")
            if gcd_content(r) != 1:
                raise ValueError(f"ray {r} is not primitive")
            if r in seen:
                raise ValueError(f"duplicate ray {r}")
            seen.add(r)
        for c in tops:
            if not all(0 <= i < len(rays) for i in c):
                raise IndexError("top cone references an unknown ray")
            if len(c) != n:
                raise ValueError("top cones must be simplicial and full-dimensional")
            if abs(int_det([rays[i] for i in sorted(c)])) != 1:
                raise ValueError(f"top cone {sorted(c)} is not basic")

    @property
    def ambient(self) -> int:
        return len(self.rays[0])

