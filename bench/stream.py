"""Seeded stream of degree-10 boundary monomials for the in-process workload.

A monomial is an exponent tuple aligned with the fan's ray list, with a
positive exponent on the exceptional ray. The stream mixes four shapes in
fixed proportions, so that every seed exercises the recursive engine the
same way while drawing different monomials:

* ``outside``: the support lies in no top cone, so the value is 0 at once;
* ``squarefree``: E times nine distinct divisors, worth 1 exactly when
  the nine form a facet of the subdivided cone;
* ``e_power``: E^a (5 <= a <= 9) times distinct divisors of one cone,
  the pure power columns of the block system;
* ``repeated_d``: E^a (1 <= a <= 4) times divisors of one cone with at
  least one of them repeated, which drives the covector recursion.

E^10 closes every stream, so that each pass reproduces the headline
number on a memo the rest of the stream has already filled.
"""

from __future__ import annotations

import random
from itertools import combinations

DEGREE = 10
LENGTH = 5000
MIX = (("outside", 0.15), ("squarefree", 0.15), ("e_power", 0.35), ("repeated_d", 0.35))


def generate(
    seed: int,
    top_cones: tuple[frozenset[int], ...],
    n_rays: int,
    e_index: int,
) -> tuple[list[tuple[int, ...]], list[str]]:
    """Return the stream and the shape of each of its monomials."""
    rng = random.Random(seed)
    divisors = [i for i in range(n_rays) if i != e_index]
    cone_parts = sorted(tuple(sorted(c - {e_index})) for c in top_cones if e_index in c)
    part_sets = [frozenset(p) for p in cone_parts]
    outside = [
        s
        for k in range(2, DEGREE)
        for s in combinations(divisors, k)
        if not any(frozenset(s) <= p for p in part_sets)
    ]
    nine_sets = list(combinations(divisors, DEGREE - 1))
    names = [name for name, _ in MIX]
    weights = [w for _, w in MIX]

    def monomial(e_exp: int, d_exps: dict[int, int]) -> tuple[int, ...]:
        mono = [0] * n_rays
        mono[e_index] = e_exp
        for i, x in d_exps.items():
            mono[i] = x
        return tuple(mono)

    stream: list[tuple[int, ...]] = []
    shapes: list[str] = []
    for _ in range(LENGTH - 1):
        shape = rng.choices(names, weights)[0]
        if shape == "outside":
            s = rng.choice(outside)
            mono = monomial(DEGREE - len(s), {i: 1 for i in s})
        elif shape == "squarefree":
            mono = monomial(1, {i: 1 for i in rng.choice(nine_sets)})
        elif shape == "e_power":
            a = rng.randint(5, DEGREE - 1)
            mono = monomial(a, {i: 1 for i in rng.sample(rng.choice(cone_parts), DEGREE - a)})
        else:
            a = rng.randint(1, 4)
            rest = DEGREE - a
            distinct = rng.randint(1, rest - 1)
            chosen = rng.sample(rng.choice(cone_parts), distinct)
            d_exps = {i: 1 for i in chosen}
            for _ in range(rest - distinct):
                d_exps[rng.choice(chosen)] += 1
            mono = monomial(a, d_exps)
        stream.append(mono)
        shapes.append(shape)
    stream.append(monomial(DEGREE, {}))
    shapes.append("e_power")
    return stream, shapes


def repeat_share(stream: list[tuple[int, ...]]) -> float:
    """Share of stream entries that equal an earlier entry."""
    return 1 - len(set(stream)) / len(stream)
