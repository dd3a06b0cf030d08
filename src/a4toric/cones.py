"""Polyhedral cone combinatorics over an ambient lattice Z^n.

Cones are described by primitive integer ray generators. Facet
enumeration walks the generator subsets of size dim-1 depth first: the
largest instance this package ever needs is twelve rays in Z^10 (220
candidate subsets), far below the point where double-description style
algorithms would pay off. Subsets that share a prefix share its
fraction-free echelon form, extended one generator at a time by the
step in `exact` that all of the package's integer eliminations use, and
a prefix that is already linearly dependent cuts off every subset that
extends it. Cones of every dimension take the same integer path: each
candidate covector is the kernel line of a subset of generators stacked
on an integer kernel basis of all of them, so no rational arithmetic is
involved.
"""

from __future__ import annotations

from operator import index, mul
from typing import NamedTuple, Sequence

from .exact import (
    DimensionError,
    _Echelon,
    _echelon,
    _extend,
    _kernel,
    gcd_content,
    int_det,
    kernel_basis,
)

__all__ = [
    "Cone",
    "Facet",
    "Fan",
    "DegenerateConeError",
    "enumerate_facets",
]


class DegenerateConeError(ValueError):
    """The cone is not pointed in its span (it contains a line)."""


class _ConeFields(NamedTuple):
    ambient: int
    generators: tuple[tuple[int, ...], ...]


class Cone(_ConeFields):
    """A rational polyhedral cone spanned by primitive integer generators.

    Generators must be nonzero, primitive, and pairwise distinct; since
    primitive vectors coincide exactly when they are positive multiples
    of each other, distinctness rules out duplicates up to rescaling.
    Every construction, `_make` and `_replace` included, is checked.
    """

    __slots__ = ()

    def __new__(cls, ambient: int, generators: Sequence[Sequence[int]]) -> Cone:
        gens = tuple(tuple(map(index, g)) for g in generators)
        if ambient <= 0:
            raise ValueError("ambient dimension must be positive")
        if not gens:
            raise ValueError("a cone needs at least one generator")
        seen = set()
        for g in gens:
            if len(g) != ambient:
                raise DimensionError("generator length does not match ambient dimension")
            content = gcd_content(g)
            if content == 0:
                raise ValueError("zero vector is not a valid ray generator")
            if content != 1:
                raise ValueError(f"generator {g} is not primitive")
            if g in seen:
                raise ValueError(f"duplicate generator {g}")
            seen.add(g)
        return tuple.__new__(cls, (ambient, gens))

    @classmethod
    def _make(cls, iterable) -> Cone:
        return cls(*iterable)


class Facet(NamedTuple):
    """A codimension-one face: primitive supporting covector plus the
    indices of the generators it vanishes on.

    The covector evaluates to zero on every incident generator and
    strictly positively on every other generator of the cone.
    """

    normal: tuple[int, ...]
    incident: frozenset[int]


def enumerate_facets(cone: Cone) -> list[Facet]:
    """All facets of a pointed cone; a ray has none.

    Each candidate facet is cut out by a covector chosen inside the row
    space of the generators (so the answer does not depend on how the
    span sits in the ambient lattice). A covector lies in that row space
    exactly when it vanishes on an integer basis of the generators'
    kernel, so the candidate is the one-dimensional kernel of a
    (dim-1)-subset of generators stacked on that basis, which is empty
    for a full-dimensional cone. The subsets are walked depth first,
    extending one echelon form of the basis by one generator per level;
    a dependent prefix has no one-dimensional kernel in any extension,
    so its subtree is skipped, and a leaf's form has exactly one kernel
    vector, the candidate. One-sidedness over the remaining generators
    filters genuine facets; a generator on which every facet covector
    vanishes witnesses a line in the cone.
    """
    gens = cone.generators
    kernel = kernel_basis(gens, cone.ambient)
    d = cone.ambient - len(kernel)
    if d <= 1:
        # Distinct primitive generators of a line are g and -g.
        if len(gens) > 1:
            raise DegenerateConeError(f"generators {gens} span a line; the cone is not pointed")
        return []
    found: dict[tuple[int, ...], frozenset[int]] = {}

    def walk(form: _Echelon, start: int, left: int) -> None:
        if left == 0:
            (normal,) = _kernel(form)
            values = [sum(map(mul, normal, g)) for g in gens]
            # A nonzero covector in the row space is nonzero on some
            # generator, so every candidate has a sign.
            if any(v > 0 for v in values) and any(v < 0 for v in values):
                return
            if any(v < 0 for v in values):
                normal = tuple(-x for x in normal)
                values = [-v for v in values]
            found[normal] = frozenset(i for i, v in enumerate(values) if v == 0)
            return
        for i in range(start, len(gens) - left + 1):
            child = _extend(form, gens[i])
            if child is not None:
                walk(child, i + 1, left - 1)

    walk(_echelon(kernel, cone.ambient), 0, d - 1)
    for i, g in enumerate(gens):
        if all(sum(a * b for a, b in zip(normal, g)) == 0 for normal in found):
            raise DegenerateConeError(
                f"generator {g} lies on every supporting hyperplane; the cone is not pointed"
            )
    return [Facet(normal, found[normal]) for normal in sorted(found)]


class _FanFields(NamedTuple):
    rays: tuple[tuple[int, ...], ...]
    top_cones: tuple[frozenset[int], ...]


class Fan(_FanFields):
    """A simplicial fan given by its rays and top-dimensional cones.

    Every top cone must be full-dimensional, simplicial, and basic (its
    rays form a lattice basis); both intersection engines rely on this.
    Every construction, `_make` and `_replace` included, is checked.
    """

    __slots__ = ()

    def __new__(cls, rays: Sequence[Sequence[int]], top_cones: Sequence[frozenset[int]]) -> Fan:
        rays = tuple(tuple(map(index, r)) for r in rays)
        tops = tuple(frozenset(c) for c in top_cones)
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
        return tuple.__new__(cls, (rays, tops))

    @classmethod
    def _make(cls, iterable) -> Fan:
        return cls(*iterable)

    @property
    def ambient(self) -> int:
        return len(self.rays[0])

