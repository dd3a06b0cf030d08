"""The package's records: immutable, validated on every construction
path, with the reprs they have always had, and cheap to import."""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction

import pytest

from a4toric import assemble_system, solve_system
from a4toric.cones import Cone, Facet, Fan
from a4toric.d4fan import LatticeAutomorphism, Stabilizer, build_star_fan, compute_stabilizer
from a4toric.exact import DimensionError
from a4toric.intersection import LinearRelation
from a4toric.proportionality import l_top
from a4toric.tables import FaberData, IgusaTable, VoronoiTable
from a4toric.verify import CheckResult, VerifyReport, plane_blowup_fan, projective_plane_fan

A2_GRAM = ((2, -1), (-1, 2))


def _records():
    """One small instance of each immutable record type, with its repr."""
    star = build_star_fan(A2_GRAM)
    el = compute_stabilizer(star).elements[1]
    check = CheckResult("stabilizer", "order", "1152", "1152", True)
    facet = "Facet(normal=(0, 0, 1), incident=frozenset({0, 1}))"
    auto = "LatticeAutomorphism(matrix=((-1, 1), (-1, 0)), ray_permutation=(1, 2, 0))"
    check_repr = (
        "CheckResult(name='stabilizer', description='order', expected='1152', "
        "actual='1152', passed=True)"
    )
    return [
        (Cone(2, ((1, 0), (0, 1))), "Cone(ambient=2, generators=((1, 0), (0, 1)))"),
        (star.facets[0], facet),
        (
            projective_plane_fan(),
            "Fan(rays=((1, 0), (0, 1), (-1, -1)), top_cones=(frozenset({0, 1}), "
            "frozenset({0, 2}), frozenset({1, 2})))",
        ),
        (
            star,
            "StarFan(gram=((2, -1), (-1, 2)), ray_vectors=((0, 1), (1, 0), (1, 1)), "
            f"eta=(2, 2, 1), eta_content=1, facets=({facet}, "
            "Facet(normal=(0, 1, -1), incident=frozenset({1, 2})), "
            "Facet(normal=(1, 0, -1), incident=frozenset({0, 2}))), "
            "fan=Fan(rays=((2, 2, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)), "
            "top_cones=(frozenset({0, 1, 2}), frozenset({0, 2, 3}), frozenset({0, 1, 3}))))",
        ),
        (el, auto),
        (Stabilizer((el,)), f"Stabilizer(elements=({auto},))"),
        (
            LinearRelation(0, (1, 0, -1)),
            "LinearRelation(index=0, coefficients=(1, 0, -1))",
        ),
        (check, check_repr),
        (VerifyReport((check,)), f"VerifyReport(checks=({check_repr},))"),
        (
            l_top(2),
            "ProportionalityResult(genus=2, top_power=3, value=Fraction(1, 1440), "
            "stack_value=Fraction(1, 2880))",
        ),
        (
            VoronoiTable({(0, 0): Fraction(1, 2)}),
            "VoronoiTable(entries={(0, 0): Fraction(1, 2)})",
        ),
        (
            FaberData((0,) * 9 + (Fraction(1, 2),)),
            "FaberData(values=(" + "Fraction(0, 1), " * 9 + "Fraction(1, 2)))",
        ),
        (
            IgusaTable((0,) * 10 + (Fraction(1, 2),)),
            "IgusaTable(values=(" + "Fraction(0, 1), " * 10 + "Fraction(1, 2)))",
        ),
    ]


def test_reprs_are_unchanged():
    for obj, text in _records():
        assert repr(obj) == text


def test_records_are_immutable():
    records = _records()
    assert len({type(obj) for obj, _ in records}) == 13
    for obj, _ in records:
        for field in obj._fields:
            with pytest.raises(AttributeError):
                setattr(obj, field, getattr(obj, field))
        with pytest.raises(AttributeError):
            obj.extra = 1


def test_records_compare_and_hash_by_value():
    assert Cone(2, [[1, 0], [0, 1]]) == Cone(2, ((1, 0), (0, 1)))
    assert hash(projective_plane_fan()) == hash(projective_plane_fan())
    assert projective_plane_fan() != plane_blowup_fan()
    assert FaberData.default() == FaberData(FaberData.default().values)


BASIC = ((1, 0), (0, 1))
# Each validated type, a valid instance's fields and fields it rejects.
VALIDATED = [
    (Cone, (2, BASIC), {"generators": ((2, 0),)}, ValueError),
    (Cone, (2, BASIC), {"generators": ((1, 0, 0),)}, DimensionError),
    (Cone, (2, BASIC), {"ambient": 0}, ValueError),
    (Fan, (BASIC, (frozenset({0, 1}),)), {"rays": ((1, 0), (1, 2))}, ValueError),
    (Fan, (BASIC, (frozenset({0, 1}),)), {"top_cones": (frozenset({0, 2}),)}, IndexError),
    (FaberData, ((0,) * 10,), {"values": (0,) * 9}, ValueError),
    (IgusaTable, ((0,) * 11,), {"values": (0,) * 10}, ValueError),
]


@pytest.mark.parametrize(("cls", "good", "bad", "error"), VALIDATED)
def test_validated_records_check_every_construction(cls, good, bad, error):
    valid = cls(*good)
    fields = {**valid._asdict(), **bad}
    with pytest.raises(error):
        cls(*fields.values())
    with pytest.raises(error):
        cls(**fields)
    with pytest.raises(error):
        cls._make(fields.values())
    with pytest.raises(error):
        valid._replace(**bad)
    # The valid fields pass every path, normalized alike.
    for made in (cls(**valid._asdict()), cls._make(good), valid._replace()):
        assert type(made) is cls and made == valid


def test_validated_records_normalize_on_replace():
    fan = projective_plane_fan()._replace(top_cones=[[0, 1], [0, 2], [1, 2]])
    assert fan == projective_plane_fan()
    assert all(type(c) is frozenset for c in fan.top_cones)
    table = IgusaTable((0,) * 11)._replace(values=range(11))
    assert table.values == tuple(Fraction(k) for k in range(11))


def test_solution_values_are_computed_once():
    solution = solve_system(assemble_system(plane_blowup_fan(), e_index=2))
    assert solution.values is solution.values


def test_cli_import_loads_no_dataclasses(cli_env):
    # The test session itself imports dataclasses, so only a fresh
    # interpreter shows what the package loads.
    code = "import sys, a4toric.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=cli_env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
