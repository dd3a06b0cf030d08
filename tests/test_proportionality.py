from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from a4toric.proportionality import ProportionalityResult, bernoulli, l_top


def test_bernoulli_examples():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(8) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert all(bernoulli(n) == 0 for n in range(3, 25, 2))
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_bernoulli_defining_recurrence():
    for n in range(1, 25):
        assert sum(comb(n + 1, k) * bernoulli(k) for k in range(n + 1)) == 0


def test_bernoulli_von_staudt_clausen():
    # The denominator of B_n (n even) is the product of the primes p
    # with p - 1 dividing n.
    for n in range(2, 21, 2):
        denom = 1
        for p in range(2, n + 2):
            if all(p % q for q in range(2, p)) and n % (p - 1) == 0:
                denom *= p
        assert bernoulli(n).denominator == denom


def test_l_top_genus_4():
    res = l_top(4)
    assert isinstance(res, ProportionalityResult)
    assert res.genus == 4
    assert res.top_power == 10
    assert res.value == Fraction(1, 907200)
    assert res.stack_value == Fraction(1, 1814400)


def test_l_top_small_genus():
    one = l_top(1)
    assert one.top_power == 1
    assert one.value == Fraction(1, 12)
    assert one.stack_value == Fraction(1, 24)
    two = l_top(2)
    assert two.top_power == 3
    assert two.value == Fraction(1, 1440)


def test_l_top_rejects_bad_genus():
    with pytest.raises(ValueError):
        l_top(0)
    with pytest.raises(ValueError):
        l_top(-3)


@given(st.integers(1, 7))
def test_stack_value_is_half(genus):
    res = l_top(genus)
    assert res.stack_value * 2 == res.value
    assert res.top_power == genus * (genus + 1) // 2
    assert res.value > 0
