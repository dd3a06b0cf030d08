"""Top intersection numbers of boundary divisors on a basic star fan.

A monomial is a tuple of exponents aligned with the fan's ray list; its
value is the degree of the corresponding product of toric boundary
divisors. Two independent engines compute these values:

* a linear system: each linear equivalence among the divisors (one per
  ambient coordinate, with coefficients the ray coordinates) is
  multiplied by every admissible degree n-1 monomial with positive
  exceptional exponent and square-free divisor part;
  each multiplier yields one block of rows that an exact structured
  elimination solves top-down, because the block's unknown columns sit
  inside the unimodular basis of a containing cone;

* a recursive evaluator: a repeated divisor factor is rewritten through
  the support covector of a containing basic cone (a row of the cone
  matrix inverse), trading one squared factor for a signed sum of
  neighbouring square-free extensions until only square-free products
  remain, which are 1 on the ray set of a top cone and 0 otherwise.

Both engines return exact integers; the fan's cones being basic makes
every intermediate covector integral.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .cones import Fan
from .exact import unimodular_inverse

Monomial = tuple[int, ...]

__all__ = [
    "Monomial",
    "MonomialSyntaxError",
    "UnsupportedMonomialError",
    "InconsistentSystemError",
    "parse_monomial",
    "format_monomial",
    "LinearRelation",
    "build_relations",
    "LinearSystem",
    "assemble_system",
    "SystemSolution",
    "ConeAtlas",
    "solve_system",
    "squarefree_value",
    "IntersectionEngine",
]


class MonomialSyntaxError(ValueError):
    """A monomial expression does not match the grammar E^a*Di^b*..."""


class UnsupportedMonomialError(ValueError):
    """The monomial cannot be evaluated by this engine."""


class InconsistentSystemError(RuntimeError):
    """The assembled linear system admits no solution."""


_FACTOR_RE = re.compile(r"^(E|D([1-9][0-9]*))(?:\^([+-]?[0-9]+))?$")


def parse_monomial(text: str, ray_count: int = 13) -> Monomial:
    """Parse an expression like ``E^2*D3*D5`` into an exponent tuple.

    Ray 0 is named E; ray k is named Dk for k = 1..ray_count-1.
    Repeated factors accumulate.
    """
    if not text or not text.strip():
        raise MonomialSyntaxError("empty monomial expression")
    exponents = [0] * ray_count
    for raw in text.split("*"):
        token = raw.strip()
        m = _FACTOR_RE.match(token)
        if m is None:
            raise MonomialSyntaxError(f"cannot parse factor {token!r}")
        if m.group(2) is None:
            index = 0
        else:
            index = int(m.group(2))
            if index > ray_count - 1:
                raise MonomialSyntaxError(
                    f"divisor index {index} out of range 1..{ray_count - 1}"
                )
        exp = 1 if m.group(3) is None else int(m.group(3))
        if exp < 0:
            raise MonomialSyntaxError("negative exponents are not allowed")
        exponents[index] += exp
    return tuple(exponents)


def format_monomial(mono: Sequence[int]) -> str:
    """Inverse of parse_monomial; the empty monomial renders as ``1``."""
    parts = []
    for k, exp in enumerate(mono):
        if exp == 0:
            continue
        name = "E" if k == 0 else f"D{k}"
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(parts) if parts else "1"


def _support(mono: Sequence[int]) -> frozenset[int]:
    return frozenset(i for i, e in enumerate(mono) if e > 0)


def _is_squarefree(mono: Sequence[int]) -> bool:
    return all(e <= 1 for e in mono)


def _bump(mono: Monomial, index: int) -> Monomial:
    return mono[:index] + (mono[index] + 1,) + mono[index + 1 :]


def _mask(rays: Iterable[int]) -> int:
    """Bitmask with bit r set for each ray index r."""
    mask = 0
    for r in rays:
        mask |= 1 << r
    return mask


@dataclass(frozen=True)
class LinearRelation:
    """The linear equivalence attached to one ambient coordinate: the sum
    of (ray coordinate) * (ray divisor) is rationally equivalent to 0."""

    index: int
    coefficients: tuple[int, ...]


def build_relations(fan: Fan) -> tuple[LinearRelation, ...]:
    """One relation per ambient coordinate; coefficient of ray r is the
    r-th ray's coordinate in that slot."""
    return tuple(
        LinearRelation(j, tuple(ray[j] for ray in fan.rays))
        for j in range(fan.ambient)
    )


@dataclass
class LinearSystem:
    """The assembled block system.

    Unknown columns are exactly the degree-n monomials that actually
    occur in some row and are neither square-free (those are 0/1
    constants) nor supported outside every cone (those vanish). They
    come in two shapes per admissible support: the pure power form with
    exceptional exponent >= 2, and the forms with a single squared
    divisor factor.
    """

    fan: Fan
    e_index: int
    relations: tuple[LinearRelation, ...]
    multipliers: tuple[Monomial, ...]
    unknown_index: dict[Monomial, int]
    admissible: frozenset[frozenset[int]]

    @property
    def n_rows(self) -> int:
        return len(self.multipliers) * len(self.relations)

    @property
    def n_unknowns(self) -> int:
        return len(self.unknown_index)


def _admissible_family(fan: Fan, e_index: int) -> frozenset[frozenset[int]]:
    """Every set of rays that, with the exceptional ray, lies in a top cone."""
    family: set[frozenset[int]] = set()
    for c in fan.top_cones:
        if e_index not in c:
            continue
        items = sorted(c - {e_index})
        for r in range(len(items) + 1):
            for sub in combinations(items, r):
                family.add(frozenset(sub))
    if not family:
        raise ValueError("no top cone contains the exceptional ray")
    return frozenset(family)


def _power_monomial(n_rays: int, e_index: int, e_exp: int, dset: frozenset[int]) -> Monomial:
    mono = [0] * n_rays
    mono[e_index] = e_exp
    for i in dset:
        mono[i] = 1
    return tuple(mono)


def assemble_system(
    fan: Fan,
    relations: tuple[LinearRelation, ...] | None = None,
    e_index: int = 0,
) -> LinearSystem:
    """Lay out multipliers and unknown columns without materializing rows.

    Multipliers are the degree n-1 monomials with positive exceptional
    exponent and square-free divisor part whose support extends inside
    some top cone. A row is one relation times one multiplier; the
    solver works block by block, so no row is ever built.
    """
    if relations is None:
        relations = build_relations(fan)
    n = fan.ambient
    n_rays = len(fan.rays)
    if len(relations) != n or any(len(r.coefficients) != n_rays for r in relations):
        raise ValueError(
            "expected one relation per ambient coordinate with one "
            "coefficient per ray"
        )
    admissible = _admissible_family(fan, e_index)
    ordered = sorted(admissible, key=lambda s: (len(s), tuple(sorted(s))))
    multipliers: list[Monomial] = []
    unknowns: list[Monomial] = []
    for s in ordered:
        t = len(s)
        if t > n - 2:
            continue
        mult = _power_monomial(n_rays, e_index, (n - 1) - t, s)
        multipliers.append(mult)
        unknowns.append(_bump(mult, e_index))
        for i in sorted(s):
            unknowns.append(_bump(mult, i))
    unknowns.sort()
    unknown_index = {m: k for k, m in enumerate(unknowns)}
    return LinearSystem(
        fan=fan,
        e_index=e_index,
        relations=relations,
        multipliers=tuple(multipliers),
        unknown_index=unknown_index,
        admissible=admissible,
    )


@dataclass
class SystemSolution:
    """Exact solution of a LinearSystem with diagnostics.

    Values are integers: every unknown is obtained from the integer
    inverse of a basic cone matrix acting on previously solved integer
    values, starting from square-free constants. `rank` counts the
    columns some block solved and `free_columns` lists those none did.
    """

    values: dict[Monomial, int]
    consistent: bool
    problems: tuple[str, ...]
    n_unknowns: int
    n_rows: int
    rank: int
    free_columns: tuple[int, ...]
    e_top: int


class ConeAtlas:
    """Integer data of a basic fan's top cones, each item computed once.

    `vectors[r]` is the lattice vector of ray r. Per top cone the atlas
    keeps the integer inverse of the matrix whose columns are the cone's
    ray vectors, and per ray rho of the cone the nonzero values
    (rp, coeff) of the covector dual to rho on the rays rp outside the
    cone; on the cone's other rays that covector vanishes. Containing
    cones are looked up by bitmasks of ray indices. Both intersection
    engines read one atlas, so the inverses of a fan are computed once.
    """

    def __init__(self, vectors: Sequence[Sequence[int]], top_cones: Sequence[frozenset[int]]):
        self.vectors = tuple(tuple(v) for v in vectors)
        self.top_cones = tuple(top_cones)
        self._masks = tuple(_mask(c) for c in self.top_cones)
        self._containing: dict[int, int | None] = {}
        self._inverses: dict[int, tuple[list[list[int]], tuple[int, ...]]] = {}
        self._terms: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}

    def cone_for(self, mask: int) -> int | None:
        """Index of the first top cone containing every ray of `mask`,
        or None if no top cone does."""
        got = self._containing.get(mask, -1)
        if got == -1:
            got = next((ci for ci, cm in enumerate(self._masks) if not mask & ~cm), None)
            self._containing[mask] = got
        return got

    def inverse(self, ci: int) -> tuple[list[list[int]], tuple[int, ...]]:
        """The cone's rays in increasing order, with the inverse whose
        row k is the covector dual to the k-th of them."""
        got = self._inverses.get(ci)
        if got is None:
            cols = tuple(sorted(self.top_cones[ci]))
            mat = [[self.vectors[r][j] for r in cols] for j in range(len(self.vectors[0]))]
            got = (unimodular_inverse(mat), cols)
            self._inverses[ci] = got
        return got

    def terms(self, ci: int, rho: int) -> tuple[tuple[int, int], ...]:
        """Nonzero (rp, coeff) of the covector dual to ray rho in cone ci,
        over the rays rp outside the cone, in increasing order of rp."""
        key = (ci, rho)
        got = self._terms.get(key)
        if got is None:
            inv, cols = self.inverse(ci)
            mu = inv[cols.index(rho)]
            cone = self.top_cones[ci]
            got = tuple(
                (rp, coeff)
                for rp, vec in enumerate(self.vectors)
                if rp not in cone
                for coeff in (sum(a * b for a, b in zip(mu, vec)),)
                if coeff
            )
            self._terms[key] = got
        return got


def solve_system(system: LinearSystem, atlas: ConeAtlas | None = None) -> SystemSolution:
    """Solve the block system exactly, largest supports first.

    The block of a multiplier with support S has unknown columns indexed
    by S plus the exceptional ray; those columns are rays of a common
    basic cone, hence linearly independent, so the block determines its
    unknowns uniquely once larger supports are known. Expressing the
    block's right-hand side in the cone's unimodular ray basis both
    solves for the unknowns (coordinates inside the support) and checks
    consistency (coordinates outside the support must vanish). Each
    column of `unknown_index` must be solved by exactly one block: a
    column solved twice is a problem, and columns no block solves are
    reported as free and lower the rank.

    `atlas` supplies the cone inverses; it must describe the system's
    own relations, and a fresh one is built when it is omitted.
    """
    fan = system.fan
    e = system.e_index
    n = fan.ambient
    n_rays = len(fan.rays)
    # Ray vectors come from the stored relations, so the solver works on
    # the system's own equations even when they are not the fan's.
    vectors = tuple(zip(*(rel.coefficients for rel in system.relations)))
    if atlas is None:
        atlas = ConeAtlas(vectors, fan.top_cones)
    elif atlas.vectors != vectors or atlas.top_cones != fan.top_cones:
        raise ValueError("the cone atlas does not describe the system's relations")
    index = system.unknown_index
    solved = dict.fromkeys(index.values(), 0)
    values: dict[Monomial, int] = {}
    problems: list[str] = []
    for mult in reversed(system.multipliers):
        s = frozenset(i for i in range(n_rays) if i != e and mult[i] > 0)
        t = len(s)
        supp = s | {e}
        inv, cols = atlas.inverse(atlas.cone_for(_mask(supp)))
        rhs = [0] * n
        for rho in range(n_rays):
            if rho in supp:
                continue
            if s | {rho} not in system.admissible:
                continue
            val = 1 if t == n - 2 else values[_bump(mult, rho)]
            if val == 0:
                continue
            for j, c in enumerate(vectors[rho]):
                if c:
                    rhs[j] -= c * val
        for ray_k, row in zip(cols, inv):
            y = sum(map(operator.mul, row, rhs))
            if ray_k in supp:
                mono = _bump(mult, ray_k)
                values[mono] = y
                col = index.get(mono)
                if col is None:
                    problems.append(
                        f"block {format_monomial(mult)} solves {format_monomial(mono)}, "
                        "which is not a column"
                    )
                else:
                    solved[col] += 1
            elif y != 0:
                problems.append(
                    f"block {format_monomial(mult)}: coefficient of ray {ray_k} "
                    f"must vanish but equals {y}"
                )
    for mono, col in index.items():
        if solved[col] > 1:
            problems.append(f"column {format_monomial(mono)} is solved by {solved[col]} blocks")
    free_columns = tuple(sorted(col for col, times in solved.items() if times == 0))
    e_top_mono = _power_monomial(n_rays, e, n, frozenset())
    return SystemSolution(
        values=values,
        consistent=not problems,
        problems=tuple(problems),
        n_unknowns=system.n_unknowns,
        n_rows=system.n_rows,
        rank=len(solved) - len(free_columns),
        free_columns=free_columns,
        e_top=values[e_top_mono],
    )


def squarefree_value(mono: Sequence[int], fan: Fan) -> int:
    """1 if the support is exactly the ray set of a top cone, else 0.

    Requires a square-free monomial of degree equal to the ambient
    dimension, so the support always has full size.
    """
    if len(mono) != len(fan.rays):
        raise ValueError("monomial length does not match the ray count")
    if not _is_squarefree(mono):
        raise ValueError("monomial is not square-free")
    if sum(mono) != fan.ambient:
        raise ValueError("degree must equal the ambient dimension")
    return 1 if _support(mono) in set(fan.top_cones) else 0


class IntersectionEngine:
    """Both engines over one fan, reading one shared cone atlas.

    The recursive evaluator and the block solver find containing cones
    and integer cone inverses in `atlas`, so each inverse is computed
    once per engine; the evaluator also reads its covector terms there.
    The linear system is assembled and solved lazily on first use. The
    verification suite rebuilds every row from the raw relations, so a
    fault in the shared atlas still shows.
    """

    def __init__(self, fan: Fan, e_index: int = 0):
        if not 0 <= e_index < len(fan.rays):
            raise IndexError("exceptional ray index out of range")
        self.fan = fan
        self.e_index = e_index
        self.atlas = ConeAtlas(fan.rays, fan.top_cones)
        self._memo: dict[Monomial, int] = {}
        self._system: LinearSystem | None = None
        self._solution: SystemSolution | None = None

    @property
    def system(self) -> LinearSystem:
        if self._system is None:
            self._system = assemble_system(self.fan, e_index=self.e_index)
        return self._system

    @property
    def solution(self) -> SystemSolution:
        if self._solution is None:
            self._solution = solve_system(self.system, self.atlas)
        return self._solution

    @property
    def e_top(self) -> Fraction:
        """Top self-intersection of the exceptional divisor, as an exact
        rational; raises if the system is inconsistent."""
        sol = self.solution
        if not sol.consistent:
            raise InconsistentSystemError(
                f"{len(sol.problems)} block inconsistencies; first: {sol.problems[0]}"
            )
        return Fraction(sol.e_top)

    def system_value(self, mono: Sequence[int]) -> int | None:
        """Value according to the linear system: a solved unknown, a
        square-free constant, or None if the monomial is not a column."""
        key = tuple(mono)
        if _is_squarefree(key) and sum(key) == self.fan.ambient:
            return squarefree_value(key, self.fan)
        return self.solution.values.get(key)

    def evaluate(self, mono: Sequence[int]) -> int:
        """Recursive engine: exact value of any degree-n monomial with
        positive exceptional exponent. Exponents must be integers;
        anything else raises TypeError rather than being truncated."""
        key = tuple(map(operator.index, mono))
        if len(key) != len(self.fan.rays):
            raise ValueError("monomial length does not match the ray count")
        if any(x < 0 for x in key):
            raise ValueError("negative exponents are not allowed")
        if sum(key) != self.fan.ambient:
            raise ValueError("degree must equal the ambient dimension")
        if key[self.e_index] < 1:
            raise UnsupportedMonomialError(
                "the recursive engine only evaluates monomials with a "
                "positive exceptional exponent"
            )
        return self._eval(key)

    def _eval(self, mono: Monomial) -> int:
        """`evaluate` without its argument checks, for monomials that
        come from the system itself: a tuple of nonnegative ints, one
        per ray, of degree equal to the ambient dimension."""
        cached = self._memo.get(mono)
        if cached is not None:
            return cached
        ci = self.atlas.cone_for(_mask(i for i, x in enumerate(mono) if x))
        if ci is None:
            value = 0
        else:
            e = self.e_index
            rho = e if mono[e] >= 2 else next((i for i, x in enumerate(mono) if x >= 2), None)
            if rho is None:
                # Degree n and square-free: the support has n rays inside
                # an n-ray cone, so it equals that cone's ray set.
                value = 1
            else:
                base = mono[:rho] + (mono[rho] - 1,) + mono[rho + 1 :]
                value = 0
                for rp, coeff in self.atlas.terms(ci, rho):
                    value -= coeff * self._eval(_bump(base, rp))
        self._memo[mono] = value
        return value

