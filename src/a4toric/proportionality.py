"""Top self-intersection of the weight-one Hodge class on the moduli
stack of principally polarized abelian varieties.

For genus g the top power of the Hodge class L on the coarse space is

    L^h = h! * 2^((g-1)(g-2)/2) * prod_{j=1..g} ((j-1)! / (2j)!) * |B_2j|

with h = g(g+1)/2 and B_2j the Bernoulli numbers. The stack count is
half of this: the generic abelian variety has the automorphism +-1.

The formula takes absolute values of the Bernoulli numbers: the
signed product alternates (already negative at genus 2) while the
geometric degree is positive.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple

__all__ = ["bernoulli", "ProportionalityResult", "l_top"]

_bernoulli_cache: list[Fraction] = [Fraction(1), Fraction(-1, 2)]


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2), by the defining recurrence
    sum_{k=0..n} binom(n+1, k) B_k = 0."""
    if n < 0:
        raise ValueError("Bernoulli numbers are indexed by n >= 0")
    if n % 2 == 1 and n > 1:
        return Fraction(0)
    while len(_bernoulli_cache) <= n:
        m = len(_bernoulli_cache)
        acc = sum(comb(m + 1, k) * _bernoulli_cache[k] for k in range(m))
        _bernoulli_cache.append(Fraction(-acc, m + 1))
    return _bernoulli_cache[n]


class ProportionalityResult(NamedTuple):
    """Exact top power of the Hodge class at a given genus, on the coarse
    space (`value`) and on the stack (`stack_value` = value / 2)."""

    genus: int
    top_power: int
    value: Fraction
    stack_value: Fraction


def l_top(genus: int) -> ProportionalityResult:
    """Evaluate the closed form above."""
    if genus < 1:
        raise ValueError("genus must be at least 1")
    h = genus * (genus + 1) // 2
    value = Fraction(factorial(h) * 2 ** ((genus - 1) * (genus - 2) // 2))
    for j in range(1, genus + 1):
        value *= Fraction(factorial(j - 1), factorial(2 * j)) * abs(bernoulli(2 * j))
    return ProportionalityResult(genus, h, value, value / 2)
