from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from a4toric.tables import (
    PULLBACK_E_COEFF,
    RECURRENCE_FACTOR,
    TOP_DEGREE,
    FaberData,
    IgusaTable,
    geometric_basis,
    igusa_table,
    verify_recurrence,
    voronoi_table,
)

A_TOP = Fraction(1, 907200)
EXPECTED_TABLE = (
    Fraction(101449217, 1440),
    Fraction(1636249, 1080),
    Fraction(0),
    Fraction(-1759, 1680),
    Fraction(0),
    Fraction(0),
    Fraction(-1, 3780),
    Fraction(0),
    Fraction(0),
    Fraction(0),
    Fraction(1, 907200),
)
CORNER = Fraction(-35, 24)


@pytest.fixture(scope="module")
def igusa():
    return igusa_table(A_TOP, FaberData.default())


@pytest.fixture(scope="module")
def voronoi(igusa):
    return voronoi_table(igusa, Fraction(-1680), 1152)


def test_constants():
    assert TOP_DEGREE == 10
    assert RECURRENCE_FACTOR == 8
    assert PULLBACK_E_COEFF == 4


def test_faber_data():
    faber = FaberData.default()
    assert faber.b(0) == Fraction(-251987683, 4320)
    assert faber.b(1) == Fraction(-1636249, 1080)
    assert faber.b(4) == 0
    assert faber.b(9) == Fraction(1, 113400)
    with pytest.raises(IndexError):
        faber.b(10)
    with pytest.raises(IndexError):
        faber.b(-1)
    with pytest.raises(ValueError):
        FaberData((Fraction(1),) * 9)


def test_igusa_table_values(igusa):
    assert igusa.values == EXPECTED_TABLE
    assert igusa.a(TOP_DEGREE) == A_TOP
    assert igusa.a(0) == Fraction(101449217, 1440)
    assert igusa.a(9) == igusa.a(8) == igusa.a(7) == 0
    with pytest.raises(IndexError):
        igusa.a(11)
    with pytest.raises(ValueError):
        IgusaTable((Fraction(1),) * 10)


def test_verify_recurrence(igusa):
    assert verify_recurrence(igusa, FaberData.default()) == (True, None)
    bumped = IgusaTable((igusa.values[0] + 1,) + igusa.values[1:])
    assert verify_recurrence(bumped, FaberData.default()) == (False, 1)


def test_corrupted_constants_are_detected(igusa):
    clean = FaberData.default()
    corrupted = FaberData(
        clean.values[:5] + (clean.values[5] + Fraction(1, 7),) + clean.values[6:]
    )
    table = igusa_table(A_TOP, corrupted)
    assert table.values != EXPECTED_TABLE
    ok, failing = verify_recurrence(igusa, corrupted)
    assert not ok and failing == 6


@given(
    st.fractions(
        min_value=Fraction(-5), max_value=Fraction(5), max_denominator=100
    )
)
def test_recurrence_closes_for_any_top_value(a_top):
    faber = FaberData.default()
    assert verify_recurrence(igusa_table(a_top, faber), faber) == (True, None)


def test_voronoi_table(voronoi, igusa):
    assert voronoi.a(0, TOP_DEGREE) == CORNER
    assert all(voronoi.a(k, 0) == igusa.a(k) for k in range(TOP_DEGREE + 1))
    for k in range(TOP_DEGREE + 1):
        for l in range(1, TOP_DEGREE + 1 - k):
            if (k, l) != (0, TOP_DEGREE):
                assert voronoi.a(k, l) == 0
    assert voronoi.a(3, 5) == 0
    assert voronoi.a(6, 0) == Fraction(-1, 3780)
    with pytest.raises(IndexError):
        voronoi.a(5, 6)
    with pytest.raises(IndexError):
        voronoi.a(-1, 0)


def test_voronoi_table_rejects_bad_order(igusa):
    with pytest.raises(ValueError):
        voronoi_table(igusa, Fraction(-1680), 0)
    with pytest.raises(ValueError):
        voronoi_table(igusa, Fraction(-1680), -3)


def test_corner_is_quotient_of_computed_factors(igusa):
    assert Fraction(-1680, 1152) == CORNER
    assert voronoi_table(igusa, Fraction(-1680), 1152).a(0, 10) == CORNER


def test_geometric_basis(voronoi):
    assert geometric_basis(voronoi, 10, 0, 0) == Fraction(1, 907200)
    assert geometric_basis(voronoi, 6, 4, 0) == Fraction(-1, 3780)
    assert geometric_basis(voronoi, 0, 0, 10) == CORNER
    expected_corner_mix = Fraction(101449217, 1440) + 4**10 * CORNER
    assert geometric_basis(voronoi, 0, 10, 0) == expected_corner_mix
    assert expected_corner_mix == Fraction(-2100560383, 1440)
    for k, l in ((0, 10), (10, 0), (4, 6), (7, 3)):
        assert geometric_basis(voronoi, k, 0, l) == voronoi.a(k, l)
    with pytest.raises(ValueError):
        geometric_basis(voronoi, 1, 1, 1)
    with pytest.raises(ValueError):
        geometric_basis(voronoi, -1, 1, 10)


def test_exact_string_round_trip(voronoi, igusa):
    for v in igusa.values:
        assert Fraction(str(v)) == v
    for v in voronoi.entries.values():
        assert Fraction(str(v)) == v
