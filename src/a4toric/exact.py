"""Exact integer and rational linear algebra kernel.

Every computation in this package runs over arbitrary-precision integers
and `fractions.Fraction`; nothing here ever touches a float, so equality
tests downstream are exact and meaningful. Only `rref` works over the
rationals; every other function takes integer entries only.

One fraction-free reduced echelon form, built one row at a time by
`_extend` (Bareiss's exact-division update), is behind `rank`,
`kernel_basis` and `unimodular_inverse`, and behind the facet search in
`cones`, which extends one form per subset prefix and reads each
candidate's kernel line off it with `_kernel`. Only this module knows the
form's layout. Two other eliminations stay apart: `int_det`'s forward-only
Bareiss, cheaper for a determinant, and `rref`, which keeps the
verification oracles independent of the integer path.

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


# A fraction-free reduced echelon form (pivots, free, rows, det): pivot
# row i carries det at column pivots[i] and 0 at the other pivot columns,
# and rows[i][k] at column free[k]. Dividing by det gives the reduced row
# echelon form, and every entry is a minor of the rows, so no step needs
# a fraction.
_Echelon = tuple[list[int], list[int], list[list[int]], int]


def _extend(form: _Echelon, g: Sequence[int]) -> _Echelon | None:
    """The reduced form of the rows of `form` and one more row g, or None
    when g lies in their span; `form` itself is left as it was.

    Reducing g against the pivot rows, times det, leaves the minors
    det(A g) on the free columns (A the old rows), with no division; its
    first nonzero entry p becomes the new pivot and the new det, and
    Bareiss's update (p * entry - multiplier * new entry) / det, an exact
    division, clears that column from the old rows.
    """
    pivots, free, rows, det = form
    new = [det * g[c] for c in free]
    for c, row in zip(pivots, rows):
        x = g[c]
        if x:
            new = [a - x * b for a, b in zip(new, row)]
    j = next((k for k, x in enumerate(new) if x), None)
    if j is None:
        return None
    p = new[j]
    out = []
    for row in rows:
        f = row[j]
        out.append([(p * a - f * b) // det for a, b in zip(row, new)])
    out.append(new)
    for row in out:
        del row[j]
    return pivots + [free[j]], free[:j] + free[j + 1 :], out, p


def _echelon(rows: Sequence[Sequence[int]], ncols: int) -> _Echelon:
    """The reduced form of an integer matrix with rows of `ncols` entries,
    extended one row at a time. Entries must be integers; anything else,
    a Fraction included, raises TypeError rather than being truncated."""
    form: _Echelon = ([], list(range(ncols)), [], 1)
    for row in rows:
        if len(row) != ncols:
            raise DimensionError("ragged matrix")
        form = _extend(form, [index(x) for x in row]) or form
    return form


def _kernel(form: _Echelon) -> list[tuple[int, ...]]:
    """Primitive integer vectors spanning the kernel of a form's rows.

    Each pivot row's first nonzero entry is its pivot, so the form is the
    reduced row echelon form times det with its rows permuted: the kernel
    vector of a free column has |det| there, 0 at the other free columns
    and -rows[i][k] (times det's sign) at the i-th pivot column.
    """
    pivots, free, rows, det = form
    sign = 1 if det > 0 else -1
    basis = []
    for k, c in enumerate(free):
        vec = [0] * (len(pivots) + len(free))
        vec[c] = det * sign
        for p, row in zip(pivots, rows):
            vec[p] = -row[k] * sign
        basis.append(primitive_vector(vec))
    return basis


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix."""
    if not rows:
        return 0
    return len(_echelon(rows, len(rows[0]))[0])


def kernel_basis(rows: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    """Primitive integer vectors spanning the kernel of an integer matrix.

    The matrix acts on column vectors of length `ncols`. There is one
    vector per non-pivot column, in increasing column order, with a
    positive coordinate at that column and zero at the other non-pivot
    columns; the list is empty when the kernel is zero.
    """
    return _kernel(_echelon(rows, ncols))


def kernel_line(rows: Sequence[Sequence[int]], ncols: int) -> tuple[int, ...] | None:
    """Primitive integer spanning vector of a one-dimensional kernel, or
    None unless the kernel has dimension exactly one (see `kernel_basis`)."""
    basis = kernel_basis(rows, ncols)
    return basis[0] if len(basis) == 1 else None


def unimodular_inverse(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Exact integer inverse of a square integer matrix with determinant +-1.

    Reduces [A | I] fraction-free. A is invertible exactly when every
    pivot falls in the left block; the rows then end as d (I | A^-1) with
    their pivots permuted, where d = +-det A is the last pivot, so for a
    unimodular A row k of the inverse is d times the row whose pivot is
    column k.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionError("unimodular_inverse requires a square matrix")
    aug = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)]
    pivots, free, right, d = _echelon(aug, 2 * n)
    if free != list(range(n, 2 * n)) or d not in (1, -1):
        raise ValueError(f"matrix is not unimodular (determinant {int_det(rows)})")
    by_pivot = dict(zip(pivots, right))
    return [[x * d for x in by_pivot[k]] for k in range(n)]
