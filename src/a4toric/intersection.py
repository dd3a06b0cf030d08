"""Top intersection numbers of boundary divisors on a basic star fan.

A monomial is a tuple of exponents aligned with the fan's ray list; its
value is the degree of the corresponding product of toric boundary
divisors. Two independent engines compute these values:

* a linear system: each linear equivalence among the divisors (one per
  ambient coordinate, with coefficients the ray coordinates) is
  multiplied by every admissible degree n-1 monomial with positive
  exceptional exponent and square-free divisor part;
  each multiplier yields one block of rows, solved top-down in the
  unimodular ray basis of a containing cone: each unknown is a sum over
  the few rays outside that cone of their integer coordinates in the
  basis, and the cone's rays outside the support give the consistency
  equations;

* a recursive evaluator: a repeated divisor factor is rewritten through
  the support covector of a containing basic cone (a row of the cone
  matrix inverse), trading one squared factor for a signed sum of
  neighbouring square-free extensions until only square-free products
  remain, which are 1 on the ray set of a top cone and 0 otherwise.

Both engines return exact integers; the fan's cones being basic makes
every intermediate covector integral. Both ask one `ConeAtlas` which top
cone holds a ray set and read the covectors of that cone from it, so a
square-free top monomial and every bump of a block are decided by the
same lookup. The linear system keys each monomial by one packed int
(`MonomialKeys`) and each support by a ray bitmask, and decodes to
exponent tuples only at its public boundary; the recursive evaluator
keys its memo by exponent tuple.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

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
    "MonomialKeys",
    "LinearRelation",
    "build_relations",
    "LinearSystem",
    "assemble_system",
    "SystemSolution",
    "ConeAtlas",
    "solve_system",
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


class MonomialKeys:
    """Packed-integer keys of the monomials over one fan: ray r's
    exponent is the field of w = ambient.bit_length() bits at offset
    w*(R-1-r), R the ray count, so every exponent up to the ambient
    dimension fits, keys sort as exponent tuples do (ray 0 is the most
    significant field) and bumping ray r adds `ones[r]`."""

    def __init__(self, n_rays: int, ambient: int):
        w = ambient.bit_length()
        self.shifts = tuple(w * (n_rays - 1 - r) for r in range(n_rays))
        self.ones = tuple(1 << s for s in self.shifts)
        self.field = (1 << w) - 1

    def pack(self, mono: Sequence[int]) -> int:
        """Key of one exponent per ray, each from 0 to the ambient dimension."""
        return sum(map(operator.lshift, mono, self.shifts))

    def unpack(self, key: int) -> Monomial:
        return tuple(key >> s & self.field for s in self.shifts)


class LinearRelation(NamedTuple):
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


class LinearSystem:
    """The assembled block system, keyed by packed monomials.

    `blocks` holds one (multiplier key, S) per multiplier, S the bitmask
    of its divisor rays (E's bit left out), by the size of S and then its
    rays in increasing order; `columns` each unknown's key and column, in
    key order. The unknowns are the degree-n monomials that occur in some
    row and are neither square-free (0/1 constants) nor supported outside
    every cone (0): per multiplier support, the pure power with
    exceptional exponent >= 2 and the forms with a single squared divisor
    factor.
    """

    def __init__(
        self,
        fan: Fan,
        e_index: int,
        relations: tuple[LinearRelation, ...],
        keys: MonomialKeys,
        blocks: tuple[tuple[int, int], ...],
        columns: dict[int, int],
    ):
        self.fan = fan
        self.e_index = e_index
        self.relations = relations
        self.keys = keys
        self.blocks = blocks
        self.columns = columns

    @property
    def multipliers(self) -> tuple[Monomial, ...]:
        return tuple(self.keys.unpack(key) for key, _ in self.blocks)

    @property
    def n_rows(self) -> int:
        return len(self.blocks) * len(self.relations)

    @property
    def n_unknowns(self) -> int:
        return len(self.columns)


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
    if not any(e_index in cone for cone in fan.top_cones):
        raise ValueError("no top cone contains the exceptional ray")
    keys = MonomialKeys(n_rays, n)
    ones = keys.ones
    ebit = 1 << e_index
    # Every subset of a top cone through E, E's bit left out, walked as
    # the submasks of the cone's mask.
    admissible = {0}
    for full in (sum(1 << r for r in c) ^ ebit for c in fan.top_cones if e_index in c):
        sub = full
        while sub:
            admissible.add(sub)
            sub = (sub - 1) & full
    blocks = []
    for s in admissible:
        t = s.bit_count()
        if t <= n - 2:
            divisors = sum(o for r, o in enumerate(ones) if s >> r & 1)
            blocks.append(((n - 1 - t) * ones[e_index] + divisors, s))
    # Among supports of one size, the key is larger when the first ray
    # where two supports differ belongs to it.
    blocks.sort(key=lambda b: (b[1].bit_count(), -b[0]))
    unknowns = sorted(
        key + o for key, s in blocks for r, o in enumerate(ones) if (s | ebit) >> r & 1
    )
    return LinearSystem(
        fan=fan,
        e_index=e_index,
        relations=relations,
        keys=keys,
        blocks=tuple(blocks),
        columns={key: col for col, key in enumerate(unknowns)},
    )


class SystemSolution:
    """Exact solution of a LinearSystem with diagnostics.

    Values are integers (integer cone coordinates acting on square-free
    constants), by packed key in `by_key` and by exponent tuple in
    `values`. `rank` counts the columns some block solved and
    `free_columns` lists those none did.
    """

    def __init__(
        self,
        by_key: dict[int, int],
        keys: MonomialKeys,
        consistent: bool,
        problems: tuple[str, ...],
        n_unknowns: int,
        n_rows: int,
        rank: int,
        free_columns: tuple[int, ...],
        e_top: int,
    ):
        self.by_key = by_key
        self.keys = keys
        self.consistent = consistent
        self.problems = problems
        self.n_unknowns = n_unknowns
        self.n_rows = n_rows
        self.rank = rank
        self.free_columns = free_columns
        self.e_top = e_top

    @cached_property
    def values(self) -> dict[Monomial, int]:
        unpack = self.keys.unpack
        return {unpack(key): value for key, value in self.by_key.items()}


class ConeAtlas:
    """Integer data of a basic fan's top cones, each item computed once.

    `holders[r]` is the bitmask of the top cones holding ray r, so the
    cones holding a ray set, given as a bitmask of ray indices, are the
    AND of its rays' masks (`holding`). `cone_for` memoizes the first of
    them; it is the engines' one containment test. One cache entry per
    top cone holds the integer inverse of the matrix whose columns are
    its ray vectors (`vectors[r]` for ray r) and, read from it row by row
    on first use, the coordinates of the rays outside the cone. Both
    engines read one atlas, so the inverses of a fan are computed once."""

    def __init__(self, vectors: Sequence[Sequence[int]], top_cones: Sequence[frozenset[int]]):
        self.vectors = tuple(tuple(v) for v in vectors)
        self.top_cones = tuple(top_cones)
        self.holders = tuple(
            sum(1 << ci for ci, c in enumerate(self.top_cones) if r in c)
            for r in range(len(self.vectors))
        )
        self._containing: dict[int, int | None] = {}
        self._cones: dict[int, tuple[list[list[int]], tuple[int, ...], tuple, dict]] = {}

    def holding(self, mask: int) -> int:
        """Bitmask of the top cones containing every ray of `mask`."""
        holders = self.holders
        if mask >> len(holders):
            return 0
        held = (1 << len(self.top_cones)) - 1
        while mask and held:
            low = mask & -mask
            held &= holders[low.bit_length() - 1]
            mask ^= low
        return held

    def cone_for(self, mask: int) -> int | None:
        """Index of the first top cone containing every ray of `mask`,
        or None if no top cone does."""
        got = self._containing.get(mask, -1)
        if got == -1:
            held = self.holding(mask)
            got = self._containing[mask] = (held & -held).bit_length() - 1 if held else None
        return got

    def _entry(self, ci: int) -> tuple[list[list[int]], tuple[int, ...], tuple, dict]:
        got = self._cones.get(ci)
        if got is None:
            cols = tuple(sorted(self.top_cones[ci]))
            mat = [[self.vectors[r][j] for r in cols] for j in range(len(self.vectors[0]))]
            outside = tuple((rp, v) for rp, v in enumerate(self.vectors) if rp not in cols)
            got = self._cones[ci] = (unimodular_inverse(mat), cols, outside, dict.fromkeys(cols))
        return got

    def terms(self, ci: int, rho: int) -> tuple[tuple[int, int], ...]:
        """The covector dual to ray rho of cone ci on the rays outside the
        cone, where it does not vanish: (rp, coeff) by increasing rp."""
        try:
            row = self._cones[ci][3][rho]
        except KeyError:
            row = self._entry(ci)[3][rho]
        if row is None:
            inv, cols, outside, rows = self._cones[ci]
            mu = inv[cols.index(rho)]
            row = rows[rho] = tuple(
                (rp, c) for rp, v in outside if (c := sum(map(operator.mul, mu, v)))
            )
        return row

    def rows(self, ci: int) -> dict[int, tuple[tuple[int, int], ...]]:
        """`terms(ci, rho)` for every ray rho of cone ci, keyed by rho in
        increasing order: the cone's own entry, filled where it is not."""
        rows = self._entry(ci)[3]
        if None in rows.values():
            for rho in rows:
                self.terms(ci, rho)
        return rows


def solve_system(system: LinearSystem, atlas: ConeAtlas | None = None) -> SystemSolution:
    """Solve the block system exactly, largest supports first.

    The block of a multiplier with support S has unknown columns indexed
    by S plus the exceptional ray; those columns are rays of a common
    basic cone, hence linearly independent, so the block determines its
    unknowns uniquely once larger supports are known. In the cone's ray
    basis the right-hand side, minus the bumped values times the rays
    outside the support, takes the atlas coordinates of the rays outside
    the cone and a unit coordinate for each other ray of the cone. The
    coordinates inside the support are the unknowns; the others must
    vanish. Each column must be solved by exactly one block: a column
    solved twice is a problem, and columns no block solves are reported
    as free and lower the rank.

    `atlas` supplies the cone coordinates; it must describe the system's
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
    keys = system.keys
    ones = keys.ones
    columns = system.columns
    holders, holding, rows = atlas.holders, atlas.holding, atlas.rows
    solved = dict.fromkeys(columns.values(), 0)
    values: dict[int, int] = {}
    problems: list[str] = []
    for mkey, s in reversed(system.blocks):
        supp = s | 1 << e
        top = s.bit_count() == n - 2
        # The top cones holding the support; the block is solved in the
        # first of them.
        held = holding(supp)
        if not held:
            raise ValueError(f"block {format_monomial(keys.unpack(mkey))} lies in no top cone")
        # The multiplier bumped by each ray outside the support; a bump
        # whose support lies in no top cone is 0 and left out.
        bumped = {
            rho: 1 if top else values[mkey + ones[rho]]
            for rho in range(n_rays)
            if not supp >> rho & 1 and held & holders[rho]
        }
        for ray_k, row in rows((held & -held).bit_length() - 1).items():
            y = 0
            for rp, coeff in row:
                y -= coeff * bumped.get(rp, 0)
            if supp >> ray_k & 1:
                ukey = mkey + ones[ray_k]
                values[ukey] = y
                col = columns.get(ukey)
                if col is None:
                    problems.append(
                        f"block {format_monomial(keys.unpack(mkey))} solves "
                        f"{format_monomial(keys.unpack(ukey))}, which is not a column"
                    )
                else:
                    solved[col] += 1
            else:
                y -= bumped[ray_k]
                if y != 0:
                    problems.append(
                        f"block {format_monomial(keys.unpack(mkey))}: coefficient of ray "
                        f"{ray_k} must vanish but equals {y}"
                    )
    for ukey, col in columns.items():
        if solved[col] > 1:
            problems.append(
                f"column {format_monomial(keys.unpack(ukey))} is solved by {solved[col]} blocks"
            )
    free_columns = tuple(sorted(col for col, times in solved.items() if times == 0))
    return SystemSolution(
        by_key=values,
        keys=keys,
        consistent=not problems,
        problems=tuple(problems),
        n_unknowns=system.n_unknowns,
        n_rows=system.n_rows,
        rank=len(solved) - len(free_columns),
        free_columns=free_columns,
        e_top=values[n * ones[e]],
    )


class IntersectionEngine:
    """Both engines over one fan, reading one shared cone atlas.

    The recursive evaluator and the block solver find containing cones
    and cone coordinates in `atlas`, so each inverse is computed once per
    engine. The linear system is assembled and solved lazily on first
    use. The verification suite rebuilds every row from the raw
    relations, so a fault in the shared atlas still shows.
    """

    def __init__(self, fan: Fan, e_index: int = 0):
        e_index = operator.index(e_index)
        self._n_rays = len(fan.rays)
        if not 0 <= e_index < self._n_rays:
            raise IndexError("exceptional ray index out of range")
        self.fan = fan
        self.e_index = e_index
        self._ambient = fan.ambient
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

    def _checked(self, mono: Sequence[int]) -> Monomial:
        """`mono` as a tuple of exact ints, one per ray, nonnegative and
        of degree equal to the ambient dimension.

        `mono` may be any iterable; it is read once. An exponent that is
        not an integer (a float, a Fraction, a str) raises TypeError
        rather than being truncated; bools and objects with `__index__`
        count as the integers they convert to. The checks run in this
        order, and the first that fails raises: every exponent is an
        integer (TypeError), the length is the ray count, no exponent is
        negative, the degree is the ambient dimension (each ValueError).

        One `bytes` conversion checks that every exponent is an integer
        from 0 to 255; when it and the length and degree tests pass, the
        monomial is valid. Otherwise the checks above run one by one on
        the same tuple, so each bad input gets the error they give."""
        key = tuple(mono)
        try:
            packed = bytes(key)
        except (TypeError, ValueError):
            pass
        else:
            if len(packed) == self._n_rays and sum(packed) == self._ambient:
                return tuple(packed)
        key = tuple(map(operator.index, key))
        if len(key) != self._n_rays:
            raise ValueError("monomial length does not match the ray count")
        if min(key) < 0:
            raise ValueError("negative exponents are not allowed")
        if sum(key) != self._ambient:
            raise ValueError("degree must equal the ambient dimension")
        return key

    def system_value(self, mono: Sequence[int]) -> int | None:
        """Value according to the linear system: a square-free constant
        (1 on the ray set of a top cone, else 0), a solved unknown, or
        None if the monomial is not a column."""
        key = self._checked(mono)
        if max(key) <= 1:
            # n rays inside an n-ray cone are its ray set.
            return int(self.atlas.cone_for(sum(1 << i for i, x in enumerate(key) if x)) is not None)
        return self.solution.by_key.get(self.system.keys.pack(key))

    def evaluate(self, mono: Sequence[int]) -> int:
        """Recursive engine: exact value of any degree-n monomial with
        positive exceptional exponent.

        `mono` is checked as `_checked` describes, with the errors it
        gives in its order; a valid monomial whose exceptional exponent
        is 0 then raises UnsupportedMonomialError. A monomial already
        evaluated is answered from the memo."""
        key = self._checked(mono)
        if key[self.e_index] < 1:
            raise UnsupportedMonomialError(
                "the recursive engine only evaluates monomials with a "
                "positive exceptional exponent"
            )
        value = self._memo.get(key)
        return self._eval(key) if value is None else value

    def _eval(self, mono: Monomial) -> int:
        """`evaluate` without its argument checks, for monomials that
        come from the system itself: a tuple of nonnegative ints, one
        per ray, of degree equal to the ambient dimension."""
        cached = self._memo.get(mono)
        if cached is not None:
            return cached
        ci = self.atlas.cone_for(sum(1 << i for i, x in enumerate(mono) if x))
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
                    value -= coeff * self._eval(base[:rp] + (base[rp] + 1,) + base[rp + 1 :])
        self._memo[mono] = value
        return value
