"""Intersection tables of the two toroidal compactifications at genus 4.

On the first compactification the boundary is a single irreducible
divisor D; the table stores the values a_k = <L^k D^(10-k)>. The top
entry a_10 is the top Hodge power; the lower entries follow from the
recurrence a_{k-1} = 8 a_k - b_{k-1}, whose constants b_k (the degrees
of certain weight-one classes against L^k D^(9-k) on the rank-one part
of the boundary) are quarantined below as externally given data.

The second compactification refines the first by a blow-up whose
exceptional divisor E joins the total transform F of the boundary.
Its table stores a_{k,l} = <L^k F^(10-k-l) E^l>. Pushing forward kills
every monomial with 1 <= l <= 9, the l = 0 column equals the first
table, and the single extremal entry a_{0,10} = <E^10> is a local
toric count divided by the order of the symmetry group of the local
model.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Mapping, NamedTuple, Sequence

__all__ = [
    "FaberData",
    "IgusaTable",
    "VoronoiTable",
    "igusa_table",
    "verify_recurrence",
    "voronoi_table",
    "geometric_basis",
    "TOP_DEGREE",
    "RECURRENCE_FACTOR",
    "PULLBACK_E_COEFF",
]

TOP_DEGREE = 10

# a_{k-1} = RECURRENCE_FACTOR * a_k - b_{k-1}
RECURRENCE_FACTOR = 8

# F is the total transform of the first boundary divisor; the strict
# transform is D = F - PULLBACK_E_COEFF * E.
PULLBACK_E_COEFF = 4


class _Values(NamedTuple):
    values: tuple[Fraction, ...]


class FaberData(_Values):
    """The externally given recurrence constants b_9 .. b_0.

    `values[k]` is b_k. These ten rationals are inputs to this package,
    not results of it; everything derived from them is cross-checked by
    the recurrence and by the independent toric route. Every
    construction, `_make` and `_replace` included, is checked.
    """

    __slots__ = ()

    def __new__(cls, values: Sequence[Fraction]) -> FaberData:
        vals = tuple(Fraction(v) for v in values)
        if len(vals) != TOP_DEGREE:
            raise ValueError(f"expected {TOP_DEGREE} constants b_0..b_9")
        return tuple.__new__(cls, (vals,))

    @classmethod
    def _make(cls, iterable) -> FaberData:
        return cls(*iterable)

    def b(self, k: int) -> Fraction:
        if not 0 <= k < TOP_DEGREE:
            raise IndexError(f"b_{k} is not defined")
        return self.values[k]

    @classmethod
    def default(cls) -> "FaberData":
        return cls(
            (
                Fraction(-251987683, 4320),  # b_0
                Fraction(-1636249, 1080),    # b_1
                Fraction(-1759, 210),        # b_2
                Fraction(1759, 1680),        # b_3
                Fraction(0),                 # b_4
                Fraction(-2, 945),           # b_5
                Fraction(1, 3780),           # b_6
                Fraction(0),                 # b_7
                Fraction(0),                 # b_8
                Fraction(1, 113400),         # b_9
            )
        )


class IgusaTable(_Values):
    """Values a_k = <L^k D^(10-k)> for k = 10 .. 0 on the first
    compactification. Every construction, `_make` and `_replace`
    included, is checked."""

    __slots__ = ()

    def __new__(cls, values: Sequence[Fraction]) -> IgusaTable:
        vals = tuple(Fraction(v) for v in values)
        if len(vals) != TOP_DEGREE + 1:
            raise ValueError("expected the eleven values a_0..a_10")
        return tuple.__new__(cls, (vals,))

    @classmethod
    def _make(cls, iterable) -> IgusaTable:
        return cls(*iterable)

    def a(self, k: int) -> Fraction:
        if not 0 <= k <= TOP_DEGREE:
            raise IndexError(f"a_{k} is not defined")
        return self.values[k]


def igusa_table(a_top: Fraction, faber: FaberData) -> IgusaTable:
    """Fill the table downward from a_10 = a_top by the recurrence
    a_{k-1} = 8 a_k - b_{k-1}."""
    values = [Fraction(0)] * (TOP_DEGREE + 1)
    values[TOP_DEGREE] = Fraction(a_top)
    for k in range(TOP_DEGREE, 0, -1):
        values[k - 1] = RECURRENCE_FACTOR * values[k] - faber.b(k - 1)
    return IgusaTable(tuple(values))


def verify_recurrence(table: IgusaTable, faber: FaberData) -> tuple[bool, int | None]:
    """Check b_{k-1} = 8 a_k - a_{k-1} for every k; returns (True, None)
    or (False, first failing k)."""
    for k in range(TOP_DEGREE, 0, -1):
        if faber.b(k - 1) != RECURRENCE_FACTOR * table.a(k) - table.a(k - 1):
            return False, k
    return True, None


class VoronoiTable(NamedTuple):
    """Values a_{k,l} = <L^k F^(10-k-l) E^l> on the second
    compactification, for k, l >= 0 with k + l <= 10."""

    entries: Mapping[tuple[int, int], Fraction]

    def a(self, k: int, l: int) -> Fraction:
        if (k, l) not in self.entries:
            raise IndexError(f"a_({k},{l}) is not defined")
        return self.entries[(k, l)]


def voronoi_table(igusa: IgusaTable, e_top_toric: Fraction, stabilizer_order: int) -> VoronoiTable:
    """Assemble the second table from the first one plus the local toric
    count for E^10 and the order of its local symmetry group.

    Every monomial with 1 <= l <= 9 pushes forward to zero; l = 0
    reproduces the first table; a_{0,10} = e_top_toric / stabilizer
    order.
    """
    if stabilizer_order <= 0:
        raise ValueError("stabilizer order must be a positive integer")
    entries: dict[tuple[int, int], Fraction] = {}
    for k in range(TOP_DEGREE + 1):
        for l in range(TOP_DEGREE + 1 - k):
            if l == 0:
                entries[(k, l)] = igusa.a(k)
            else:
                entries[(k, l)] = Fraction(0)
    entries[(0, TOP_DEGREE)] = Fraction(e_top_toric, stabilizer_order)
    return VoronoiTable(entries)


def geometric_basis(table: VoronoiTable, k: int, m: int, l: int) -> Fraction:
    """Value of <L^k D^m E^l> where D = F - 4E is the strict transform of
    the first boundary divisor; requires k + m + l = 10.

    Expanding the binomial gives sum_j C(m,j) (-4)^j a_{k, l+j}, with
    out-of-range entries equal to zero.
    """
    if min(k, m, l) < 0 or k + m + l != TOP_DEGREE:
        raise ValueError("exponents must be nonnegative with k + m + l = 10")
    total = Fraction(0)
    for j in range(m + 1):
        term = table.entries.get((k, l + j))
        if term:
            total += comb(m, j) * Fraction(-PULLBACK_E_COEFF) ** j * term
    return total

