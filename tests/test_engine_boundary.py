"""The argument checks of `IntersectionEngine.evaluate` and `system_value`
against the explicit checks they replaced: every input gets the same
value, or the same exception type and message."""

from __future__ import annotations

import operator
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a4toric.intersection import IntersectionEngine, UnsupportedMonomialError
from a4toric.verify import projective_plane_fan


def reference_checked(engine, mono):
    """The argument check the engine used before the `bytes` fast path."""
    key = tuple(map(operator.index, mono))
    if len(key) != len(engine.fan.rays):
        raise ValueError("monomial length does not match the ray count")
    if min(key) < 0:
        raise ValueError("negative exponents are not allowed")
    if sum(key) != engine.fan.ambient:
        raise ValueError("degree must equal the ambient dimension")
    return key


def reference_evaluate(engine, mono):
    key = reference_checked(engine, mono)
    if key[engine.e_index] < 1:
        raise UnsupportedMonomialError(
            "the recursive engine only evaluates monomials with a "
            "positive exceptional exponent"
        )
    return engine._eval(key)


def reference_system_value(engine, mono):
    key = reference_checked(engine, mono)
    if max(key) <= 1:
        return int(engine.atlas.cone_for(sum(1 << i for i, x in enumerate(key) if x)) is not None)
    return engine.solution.by_key.get(engine.system.keys.pack(key))


class Index:
    """An exponent that is an integer only through `__index__`."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"Index({self.value})"


CONTAINERS = {
    "tuple": tuple,
    "list": list,
    "iterator": lambda xs: iter(list(xs)),
    "bytes": bytes,
    "bytearray": bytearray,
    "memoryview": lambda xs: memoryview(bytes(xs)),
    "array_b": lambda xs: array("b", xs),
    "array_i": lambda xs: array("i", xs),
}


def outcome(call, engine, make):
    """The value `call` returns on a fresh container, or the type and
    message of what it raises."""
    try:
        return ("value", call(engine, make()))
    except Exception as exc:  # the raised type and message are compared
        return (type(exc), str(exc))


def assert_same(engine, make):
    for public, reference in (
        (IntersectionEngine.evaluate, reference_evaluate),
        (IntersectionEngine.system_value, reference_system_value),
    ):
        got = outcome(public, engine, make)
        want = outcome(reference, engine, make)
        assert got == want, (public.__name__, make())


@pytest.fixture(scope="module")
def plane():
    return IntersectionEngine(projective_plane_fan())


@pytest.fixture(scope="module")
def engines(engine, plane):
    return {"D4": engine, "P2": plane}


D4_TOP = (10,) + (0,) * 12
D4_CASES = {
    "valid": D4_TOP,
    "valid, E^9*D1": (9, 1) + (0,) * 11,
    "valid, no E": (0,) * 3 + (1,) * 10,
    "bools": (True,) * 10 + (False,) * 3,
    "index": (Index(9), Index(1)) + (Index(0),) * 11,
    "float": (9.5, 0.5) + (0,) * 11,
    "integral float": (10.0,) + (0,) * 12,
    "Fraction": (Fraction(9), 1) + (0,) * 11,
    "str": ("9", 1) + (0,) * 11,
    "negative": (11, -1) + (0,) * 11,
    "negative then float": (-1, 1.5) + (0,) * 11,
    "256 and negative": (256, -246) + (0,) * 11,
    "256": (256,) + (0,) * 12,
    "huge": (10**30, -(10**30) + 10) + (0,) * 11,
    "huge negative": (-(10**30),) + (0,) * 12,
    "short": (10,),
    "long": D4_TOP + (0,),
    "empty": (),
    "short and negative": (11, -1),
    "short and float": (1.5,),
    "low degree": (9,) + (0,) * 12,
    "high degree": (11,) + (0,) * 12,
}


def holds(container, exps):
    """Whether `container` can be built from `exps`: bytes, arrays and
    memoryviews take only integers in their item range."""
    try:
        CONTAINERS[container](exps)
    except (TypeError, ValueError, OverflowError):
        return False
    return True


@pytest.mark.parametrize(
    "case, container",
    [(case, c) for case in sorted(D4_CASES) for c in sorted(CONTAINERS) if holds(c, D4_CASES[case])],
)
def test_explicit_cases_match_the_reference(engine, case, container):
    assert_same(engine, lambda: CONTAINERS[container](D4_CASES[case]))


@pytest.mark.parametrize(
    "mono",
    [10, 0, -1, 1.5, None, "1" * 13, "", b"", object()],
    ids=["int", "zero", "negative int", "float", "None", "str", "empty str", "empty bytes", "object"],
)
def test_non_sequences_match_the_reference(engine, plane, mono):
    for eng in (engine, plane):
        assert_same(eng, lambda: mono)


ELEMENTS = st.one_of(
    st.integers(-3, 12),
    st.integers(250, 260),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.integers(-3, 12).map(Index),
    st.sampled_from([0.0, 1.0, 1.5, -1.0, 10.0]),
    st.sampled_from([Fraction(1), Fraction(1, 2)]),
    st.sampled_from(["0", "1"]),
)


@st.composite
def near_monomials(draw, n_rays, ambient):
    """A valid exponent list, then up to three edits that may break it:
    an entry replaced, removed or appended."""
    cuts = sorted(draw(st.lists(st.integers(0, ambient), min_size=n_rays - 1, max_size=n_rays - 1)))
    exps = [b - a for a, b in zip([0, *cuts], [*cuts, ambient])]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["replace", "remove", "append"]))
        if edit == "append" or not exps:
            exps.append(draw(ELEMENTS))
        elif edit == "remove":
            del exps[draw(st.integers(0, len(exps) - 1))]
        else:
            exps[draw(st.integers(0, len(exps) - 1))] = draw(ELEMENTS)
    return exps


@settings(max_examples=150)
@given(
    name=st.sampled_from(["D4", "P2"]),
    container=st.sampled_from(sorted(CONTAINERS)),
    data=st.data(),
)
def test_random_inputs_match_the_reference(engines, name, container, data):
    eng = engines[name]
    exps = data.draw(near_monomials(len(eng.fan.rays), eng.fan.ambient))
    if not holds(container, exps):
        container = "list"
    assert_same(eng, lambda: CONTAINERS[container](exps))


def test_a_memo_hit_does_not_enter_the_recursion(star, monkeypatch):
    eng = IntersectionEngine(star.fan, star.e_index)
    mono = (9, 1) + (0,) * 11
    value = eng.evaluate(mono)

    def recursion(mono):
        raise AssertionError(f"_eval entered for {mono}")

    monkeypatch.setattr(eng, "_eval", recursion)
    for make in CONTAINERS.values():
        assert eng.evaluate(make(mono)) == value


def test_memo_keys_are_tuples_of_exact_ints(star):
    eng = IntersectionEngine(star.fan, star.e_index)
    assert eng.evaluate((True,) * 10 + (False,) * 3) == eng.evaluate((1,) * 10 + (0,) * 3)
    assert eng.evaluate((Index(7), Index(2), Index(1)) + (Index(0),) * 10) == eng.evaluate(
        (7, 2, 1) + (0,) * 10
    )
    assert len(eng._memo) > 2
    assert all(type(key) is tuple for key in eng._memo)
    assert all(type(x) is int for key in eng._memo for x in key)


@pytest.mark.parametrize("e_index", [0.0, 1.5, "0", None])
def test_non_integer_exceptional_index_is_rejected_at_construction(star, e_index):
    with pytest.raises(TypeError):
        IntersectionEngine(star.fan, e_index)


def test_exceptional_index_accepts_integers(star):
    assert IntersectionEngine(star.fan, Index(0)).e_index == 0
    assert type(IntersectionEngine(star.fan, True).e_index) is int
