from __future__ import annotations

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from a4toric.cones import Cone, enumerate_facets
from a4toric.exact import (
    DimensionError,
    gcd_content,
    int_det,
    kernel_basis,
    kernel_line,
    primitive_vector,
    rank,
    rref,
    unimodular_inverse,
)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def small_int_matrix(n: int):
    return st.lists(
        st.lists(st.integers(-5, 5), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )


def cofactor_det(rows) -> int:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (1 if j % 2 == 0 else -1) * rows[0][j] * cofactor_det(minor)
    return total


def test_fraction_arithmetic_examples():
    assert Fraction(1, 907200) * 8 == Fraction(1, 113400)
    x = Fraction(-1759, 1680)
    assert x + 0 == x
    assert x - x == 0
    assert Fraction(-1680, 1152) == Fraction(-35, 24)


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b * c) == (a * b) * c
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


def test_gcd_content():
    assert gcd_content((6, 12, 6, 6, 6, 3, 3, 6, 6, 3)) == 3
    assert gcd_content((-4, 6)) == 2
    assert gcd_content((0, 0, 0)) == 0
    assert gcd_content(()) == 0
    assert gcd_content((5,)) == 5


def test_primitive_vector():
    assert primitive_vector((6, -12, 3)) == (2, -4, 1)
    assert primitive_vector((-2, 0)) == (-1, 0)
    with pytest.raises(ValueError):
        primitive_vector((0, 0))


def test_int_det_examples():
    assert int_det([[1]]) == 1
    assert int_det([[1, 2], [3, 4]]) == -2
    assert int_det([[2, 0], [0, 3]]) == 6
    assert int_det([[1, 2], [2, 4]]) == 0
    identity10 = [[int(i == j) for j in range(10)] for i in range(10)]
    assert int_det(identity10) == 1
    assert int_det([]) == 1
    with pytest.raises(DimensionError):
        int_det([[1, 2], [3, 4], [5, 6]])


@pytest.mark.parametrize("entry", [Fraction(3, 2), 1.5, "2"])
def test_int_det_rejects_non_integer_entries(entry):
    # Truncating would turn det [[3/2]] into 1 and det diag(1/2, 2) into 0.
    with pytest.raises(TypeError):
        int_det([[entry]])
    with pytest.raises(TypeError):
        int_det([[entry, 0], [0, 2]])


@given(st.integers(1, 4).flatmap(small_int_matrix))
def test_int_det_matches_cofactor_expansion(mat):
    assert int_det(mat) == cofactor_det(mat)


@given(st.integers(2, 4).flatmap(small_int_matrix))
def test_int_det_antisymmetry_under_row_swap(mat):
    swapped = [mat[1], mat[0]] + mat[2:]
    assert int_det(swapped) == -int_det(mat)


def test_rank_and_rref():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    red, pivots = rref([[2, 4], [1, 3]])
    assert pivots == [0, 1]
    assert red == [[1, 0], [0, 1]]


def test_kernel_line():
    assert kernel_line([[1, 0, 0], [0, 1, 0]], 3) == (0, 0, 1)
    # kernel dimension 2: no single line
    assert kernel_line([[1, 0, 0]], 3) is None


@pytest.mark.parametrize(
    "entry",
    [1.5, 2.0, "1", Fraction(1, 2)],
    ids=["float", "integral_float", "string", "fraction"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda rows: rank(rows),
        lambda rows: kernel_line(rows, 2),
        lambda rows: kernel_basis(rows, 2),
    ],
    ids=["rank", "kernel_line", "kernel_basis"],
)
def test_integer_rows_reject_non_rational_entries(call, entry):
    # Every entry goes through operator.index: a non-integer raises, a
    # Fraction and an integral float included, rather than being scaled
    # or truncated.
    with pytest.raises(TypeError):
        call([[1, 2], [entry, 2]])


def test_unimodular_inverse():
    assert unimodular_inverse([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]
    inv = unimodular_inverse([[1, 1], [0, 1]])
    assert inv == [[1, -1], [0, 1]]
    with pytest.raises(ValueError):
        unimodular_inverse([[2, 0], [0, 1]])


@given(st.integers(2, 4).flatmap(small_int_matrix))
def test_unimodular_inverse_roundtrip(mat):
    det = int_det(mat)
    if abs(det) != 1:
        with pytest.raises(ValueError):
            unimodular_inverse(mat)
        return
    inv = unimodular_inverse(mat)
    n = len(mat)
    product = [
        [sum(mat[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    assert product == [[int(i == j) for j in range(n)] for i in range(n)]


def fraction_inverse(mat):
    """Reference inverse from the rational RREF of [A | I]; None if singular."""
    n = len(mat)
    red, pivots = rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)])
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red[:n]]


def fraction_kernel_basis(rows, ncols):
    """Reference kernel basis from the rational RREF: one primitive vector
    per free column, positive there."""
    red, pivots = rref(rows) if rows else ([], [])
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(int(c == free)) for c in range(ncols)]
        for r, c in enumerate(pivots):
            vec[c] = -red[r][free]
        mult = lcm(*(x.denominator for x in vec))
        basis.append(primitive_vector([int(x * mult) for x in vec]))
    return basis


def fraction_kernel_line(rows, ncols):
    """Reference kernel line: the one-vector case of the reference basis."""
    basis = fraction_kernel_basis(rows, ncols)
    return basis[0] if len(basis) == 1 else None


@st.composite
def unimodular_matrices(draw):
    """Row-permuted products L U with L unit lower triangular and U upper
    triangular with diagonal entries +-1."""
    n = draw(st.integers(1, 5))
    entry = st.integers(-3, 3)
    lower = [[1 if i == j else draw(entry) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [
        [draw(st.sampled_from((1, -1))) if i == j else draw(entry) if j > i else 0 for j in range(n)]
        for i in range(n)
    ]
    product = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [product[i] for i in draw(st.permutations(range(n)))]


@given(unimodular_matrices())
def test_unimodular_inverse_matches_fraction_rref(mat):
    inv = unimodular_inverse(mat)
    assert all(type(x) is int for row in inv for x in row)
    assert inv == fraction_inverse(mat)


@given(st.integers(1, 4).flatmap(small_int_matrix))
def test_unimodular_inverse_rejects_what_fraction_rref_rejects(mat):
    ref = fraction_inverse(mat)
    if ref is None or abs(int_det(mat)) != 1:
        with pytest.raises(ValueError):
            unimodular_inverse(mat)
    else:
        assert unimodular_inverse(mat) == ref


@st.composite
def kernel_cases(draw):
    """Integer combinations of `r` random rows, so the rank is at most r."""
    ncols = draw(st.integers(1, 6))
    r = draw(st.integers(0, ncols))
    entry = st.integers(-4, 4)
    base = [[draw(entry) for _ in range(ncols)] for _ in range(r)]
    nrows = draw(st.integers(0, 6))
    rows = [
        [sum(c * b[j] for c, b in zip(cs, base)) for j in range(ncols)]
        for cs in ([draw(st.integers(-2, 2)) for _ in base] for _ in range(nrows))
    ]
    return rows, ncols


@given(kernel_cases())
def test_kernel_line_matches_fraction_rref(case):
    rows, ncols = case
    line = kernel_line(rows, ncols)
    assert line == fraction_kernel_line(rows, ncols)
    if line is not None:
        assert all(sum(a * b for a, b in zip(row, line)) == 0 for row in rows)
    basis = kernel_basis(rows, ncols)
    assert basis == fraction_kernel_basis(rows, ncols)
    assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows for vec in basis)


def test_kernel_line_rank_deficient_is_none():
    assert kernel_line([[1, 2, 3], [2, 4, 6]], 3) is None
    assert kernel_line([[0, 0, 0]], 3) is None
    assert kernel_line([[1, 2], [3, 4]], 2) is None
    assert kernel_line([], 1) == (1,)


def test_integer_kernels_build_no_fraction(monkeypatch):
    def refuse(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built from integer input")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    with pytest.raises(AssertionError):
        Fraction(1, 2)
    assert unimodular_inverse([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
    assert kernel_line([[1, 2, 3], [4, 5, 6]], 3) == (1, -2, 1)
    assert rank([[1, 2, 3], [2, 4, 6]]) == 1
    assert kernel_basis([[1, 2, 3]], 3) == [(-2, 1, 0), (-3, 0, 1)]
    facets = enumerate_facets(Cone(3, ((1, 0, 0), (1, 2, 0))))
    assert {f.normal for f in facets} == {(0, 1, 0), (2, -1, 0)}
