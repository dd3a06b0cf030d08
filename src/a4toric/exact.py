"""Exact integer and rational linear algebra kernel.

Every computation in this package runs over arbitrary-precision integers
and `fractions.Fraction`; nothing here ever touches a float, so equality
tests downstream are exact and meaningful. Only `rref` works over the
rationals; every other function takes integer entries only.

Matrices are plain sequences of equal-length rows. Functions return new
tuples or lists and never mutate their arguments.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import index
from typing import Sequence

Scalar = int | Fraction

__all__ = [
    "DimensionError",
    "gcd_content",
    "primitive_vector",
    "int_det",
    "rank",
    "rref",
    "kernel_basis",
    "kernel_line",
    "unimodular_inverse",
]


class DimensionError(ValueError):
    """Operands have incompatible or unsupported dimensions."""


def gcd_content(vec: Sequence[int]) -> int:
    """Greatest common divisor of the absolute values; 0 for a zero vector."""
    g = 0
    for x in vec:
        g = gcd(g, x)
    return g


def primitive_vector(vec: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by its content; rejects the zero vector."""
    g = gcd_content(vec)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in vec)


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix.

    Fraction-free Bareiss elimination: every intermediate quotient is an
    exact integer division, so the result is exact for any size. Entries
    must be integers; anything else raises TypeError rather than being
    truncated.
    """
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise DimensionError("int_det requires a square matrix")
    if n == 0:
        return 1
    a = [[index(x) for x in row] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rref(rows: Sequence[Sequence[Scalar]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals.

    Returns the reduced matrix and the list of pivot columns.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    for row in mat:
        if len(row) != ncols:
            raise DimensionError("ragged matrix")
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def _integer_rows(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Copy of an integer matrix with rows of `ncols` entries. Entries
    must be integers; anything else, a Fraction included, raises
    TypeError rather than being truncated."""
    out = []
    for row in rows:
        if len(row) != ncols:
            raise DimensionError("ragged matrix")
        out.append([index(x) for x in row])
    return out


def _fraction_free_reduce(mat: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix, in place.

    Bareiss's update (pivot * entry - multiplier * pivot-row entry) divided
    by the previous pivot is an exact integer division at every step, and
    clearing above the pivot as well as below keeps it exact. Returns the
    pivot columns and the last pivot d: pivot row i then carries d in its
    own pivot column and 0 in the others, the rows below the pivots are
    zero, and dividing by d gives the reduced row echelon form.
    """
    pivots: list[int] = []
    prev = 1
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        if r == len(mat):
            break
        found = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if found is None:
            continue
        mat[r], mat[found] = mat[found], mat[r]
        prow = mat[r]
        p = prow[c]
        for i, row in enumerate(mat):
            if i == r:
                continue
            f = row[c]
            if f:
                mat[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
            elif p != prev:
                mat[i] = [p * x // prev for x in row]
        pivots.append(c)
        prev = p
        r += 1
    return pivots, prev


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix."""
    if not rows:
        return 0
    return len(_fraction_free_reduce(_integer_rows(rows, len(rows[0])))[0])


def kernel_basis(rows: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    """Primitive integer vectors spanning the kernel of an integer matrix.

    The matrix acts on column vectors of length `ncols`. There is one
    vector per non-pivot column, in increasing column order, with a
    positive coordinate at that column and zero at the other non-pivot
    columns; the list is empty when the kernel is zero.
    """
    mat = _integer_rows(rows, ncols)
    pivots, d = _fraction_free_reduce(mat)
    # The reduced form is mat / d, so the kernel vector of a free column
    # has d there and -mat[i][free] at the i-th pivot column.
    sign = 1 if d > 0 else -1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[free] = d * sign
        for i, c in enumerate(pivots):
            vec[c] = -mat[i][free] * sign
        basis.append(primitive_vector(vec))
    return basis


def kernel_line(rows: Sequence[Sequence[int]], ncols: int) -> tuple[int, ...] | None:
    """Primitive integer spanning vector of a one-dimensional kernel, or
    None unless the kernel has dimension exactly one (see `kernel_basis`)."""
    basis = kernel_basis(rows, ncols)
    return basis[0] if len(basis) == 1 else None


def unimodular_inverse(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Exact integer inverse of a square integer matrix with determinant +-1.

    Eliminates [A | I] fraction-free; the left block ends as d I and the
    right one as d A^-1, where d = +-det A is the last pivot, so for a
    unimodular A the inverse is the right block times d.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionError("unimodular_inverse requires a square matrix")
    aug = [[index(x) for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    pivots, d = _fraction_free_reduce(aug)
    if pivots != list(range(n)) or d not in (1, -1):
        raise ValueError(f"matrix is not unimodular (determinant {int_det(rows)})")
    return [[x * d for x in row[n:]] for row in aug]
