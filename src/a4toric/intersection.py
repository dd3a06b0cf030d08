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
same lookup. The atlas inverts one cone matrix and reaches the others by
exchange pivots across walls: two cones sharing a wall differ by one
ray, and the coordinate of the entering ray along the leaving one is
the ratio of their determinants, +-1. The linear system keys each
monomial by one packed int (`MonomialKeys`, one byte per ray) and each
support by a ray bitmask, and decodes to exponent tuples only at its
public boundary; the recursive evaluator keys its memo by the same bytes,
one per ray in ray order. Its public `evaluate` probes the memo with its
argument's bytes before any check: the memo holds only keys the checks
accept, so a repeated monomial is answered at once and only a miss is
checked.
"""

from __future__ import annotations

import operator
import re
from collections import Counter
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


def parse_monomial(text: str, ray_count: int) -> Monomial:
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
    exponent is byte R-1-r of the key, R the ray count, so every exponent
    up to 255 fits, keys sort as exponent tuples do (ray 0 is the most
    significant byte) and bumping ray r adds `ones[r]`. Packing and
    unpacking are one `bytes` conversion each; an exponent outside
    0..255 raises ValueError instead of spilling into the next field."""

    def __init__(self, n_rays: int, ambient: int):
        if ambient > 255:
            raise ValueError(f"ambient dimension {ambient} does not fit a one-byte exponent")
        self.n_rays = n_rays
        self.ones = tuple(1 << 8 * (n_rays - 1 - r) for r in range(n_rays))

    def pack(self, mono: Sequence[int]) -> int:
        """Key of one exponent per ray, each from 0 to 255."""
        return int.from_bytes(bytes(mono), "big")

    def unpack(self, key: int) -> Monomial:
        return tuple(key.to_bytes(self.n_rays, "big"))


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
    rays in increasing order. The blocks are the only listing of the
    unknowns: block (key, S), t = |S|, solves its key bumped by E and by
    each ray r of S, the pure power E^(n-t)*D_S and the forms
    E^(n-1-t)*D_S*D_r with one squared divisor factor. These are the
    degree-n monomials that occur in some row and are neither square-free
    (0/1 constants) nor supported outside every cone (0). Each one gives
    back its S and r, so no two blocks share an unknown, and
    `n_unknowns`, the sum of |S| + 1 over the blocks, counts each once.
    """

    def __init__(
        self,
        fan: Fan,
        e_index: int,
        relations: tuple[LinearRelation, ...],
        keys: MonomialKeys,
        blocks: tuple[tuple[int, int], ...],
        n_unknowns: int,
    ):
        self.fan = fan
        self.e_index = e_index
        self.relations = relations
        self.keys = keys
        self.blocks = blocks
        self.n_unknowns = n_unknowns

    @property
    def multipliers(self) -> tuple[Monomial, ...]:
        return tuple(self.keys.unpack(key) for key, _ in self.blocks)

    @property
    def n_rows(self) -> int:
        return len(self.blocks) * len(self.relations)


def assemble_system(
    fan: Fan,
    relations: tuple[LinearRelation, ...] | None = None,
    e_index: int = 0,
) -> LinearSystem:
    """Lay out the multipliers' blocks without materializing rows.

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
    # Every subset of a top cone through E, E's bit left out: a cone's
    # subsets are doubled by each of its rays in turn.
    admissible = set()
    for cone in fan.top_cones:
        if e_index in cone:
            subs = [0]
            for r in cone - {e_index}:
                bit = 1 << r
                subs += [x | bit for x in subs]
            admissible.update(subs)
    # The divisor part of a support's key, read from one table per eight
    # rays of its mask: entry v of table j sums ones[8j + i] over the set
    # bits i of v.
    tables = []
    for lo in range(0, n_rays, 8):
        table = [0]
        for o in ones[lo : lo + 8]:
            table += [x + o for x in table]
        tables.append(table)
    by_size: list[list[int]] = [[] for _ in range(n - 1)]
    for s in admissible:
        t = s.bit_count()
        if t < n - 1:
            by_size[t].append(s)
    blocks = []
    for t, supports in enumerate(by_size):
        found = [(n - 1 - t) * ones[e_index]] * len(supports)
        for j, table in enumerate(tables):
            found = [k + table[s >> 8 * j & 255] for k, s in zip(found, supports)]
        # Among supports of one size, the key is larger when the first
        # ray where two supports differ belongs to it; keys are distinct.
        blocks += sorted(zip(found, supports), reverse=True)
    return LinearSystem(
        fan=fan,
        e_index=e_index,
        relations=relations,
        keys=keys,
        blocks=tuple(blocks),
        n_unknowns=sum((s | ebit).bit_count() for _, s in blocks),
    )


class SystemSolution:
    """Exact solution of a LinearSystem with diagnostics.

    Values are integers (integer cone coordinates acting on square-free
    constants), by packed key in `by_key` and by exponent tuple in
    `values`. `rank` is `len(by_key)`, the count of distinct unknowns
    solved; on the blocks as assembled it equals `n_unknowns` exactly
    when no key was solved twice.
    """

    def __init__(
        self,
        by_key: dict[int, int],
        keys: MonomialKeys,
        consistent: bool,
        problems: tuple[str, ...],
        n_unknowns: int,
        n_rows: int,
        e_top: int,
    ):
        self.by_key = by_key
        self.keys = keys
        self.consistent = consistent
        self.problems = problems
        self.n_unknowns = n_unknowns
        self.n_rows = n_rows
        self.rank = len(by_key)
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
    them; it is the engines' one containment test. `rows` gives, per top
    cone, the coordinates of the rays outside the cone in the basis of
    its rays (`vectors[r]` for ray r). The first cone asked for is read
    off the integer inverse of its matrix; every later cone is filled by
    exchange pivots along a shortest chain of walls from a filled one, so
    a fan whose top cones are connected through walls costs one inverse
    in any order of calls. Both engines read one atlas, so a fan's
    coordinates are computed once."""

    def __init__(self, vectors: Sequence[Sequence[int]], top_cones: Sequence[frozenset[int]]):
        self.vectors = tuple(tuple(v) for v in vectors)
        self.top_cones = tuple(top_cones)
        self.holders = tuple(
            sum(1 << ci for ci, c in enumerate(self.top_cones) if r in c)
            for r in range(len(self.vectors))
        )
        self._masks = tuple(sum(1 << r for r in c) for c in self.top_cones)
        self._containing: dict[int, int | None] = {}
        self._rows: dict[int, dict[int, tuple[tuple[int, int], ...]]] = {}

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

    def rows(self, ci: int) -> dict[int, tuple[tuple[int, int], ...]]:
        """For each ray rho of top cone ci, by increasing rho, the
        covector dual to rho on the rays outside the cone, where it does
        not vanish: (rp, coeff) by increasing rp. Computed whole on the
        first call for the cone and returned from the cache after.

        The first call pivots along a shortest path of walls (two top
        cones share a wall when they share all but one ray) from a filled
        cone to ci, filling every cone on the way, and inverts ci's
        matrix only when no filled cone is reached. A cone that is not
        unimodular in `vectors` raises ValueError naming it."""
        got = self._rows.get(ci)
        if got is None:
            path = self._wall_path(ci)
            if path is None:
                got = self._rows[ci] = self._inverted(ci)
            else:
                for src, cj in zip(path, path[1:]):
                    got = self._rows[cj] = self._pivoted(src, cj)
        return got

    def _wall_path(self, ci: int) -> list[int] | None:
        """Top cones from a filled one to ci, each sharing a wall with
        the next, found by breadth-first search out of ci, so no path is
        shorter; None when no filled cone is reached."""
        masks = self._masks
        wall = len(self.vectors[0]) - 1
        back = {ci: ci}
        layer = [ci]
        while layer:
            reached = []
            for cj in layer:
                for ck, mask in enumerate(masks):
                    if ck not in back and (mask & masks[cj]).bit_count() == wall:
                        back[ck] = cj
                        if ck in self._rows:
                            path = [ck]
                            while path[-1] != ci:
                                path.append(back[path[-1]])
                            return path
                        reached.append(ck)
            layer = reached
        return None

    def _inverted(self, ci: int) -> dict[int, tuple[tuple[int, int], ...]]:
        """Cone ci's rows read off the integer inverse of its matrix."""
        cols = sorted(self.top_cones[ci])
        mat = [[self.vectors[r][j] for r in cols] for j in range(len(self.vectors[0]))]
        outside = [(rp, v) for rp, v in enumerate(self.vectors) if rp not in cols]
        try:
            inverse = unimodular_inverse(mat)
        except ValueError as exc:
            raise ValueError(f"top cone {ci} {cols} cannot be inverted: {exc}") from exc
        return {
            rho: tuple((rp, c) for rp, v in outside if (c := sum(map(operator.mul, mu, v))))
            for rho, mu in zip(cols, inverse)
        }

    def _pivoted(self, src: int, ci: int) -> dict[int, tuple[tuple[int, int], ...]]:
        """Cone ci's rows from those of filled cone src across their common
        wall: ray a leaves, ray b enters, and with p the coordinate of b
        along a (the ratio of the two cones' determinants, so +-1), row b
        is p times row a with a at p, and every other row loses its b
        coordinate times row b."""
        old = self._rows[src]
        (a,) = self.top_cones[src] - self.top_cones[ci]
        (b,) = self.top_cones[ci] - self.top_cones[src]
        row_b = dict(old[a])
        p = row_b.pop(b, 0)
        if p not in (1, -1):
            raise ValueError(
                f"top cone {ci} {sorted(self.top_cones[ci])} is not unimodular: "
                f"across its wall with cone {src} ray {b} has coordinate {p} along ray {a}"
            )
        row_b = {rp: p * c for rp, c in row_b.items()}
        row_b[a] = p
        rows = {}
        for rho in sorted(self.top_cones[ci]):
            if rho == b:
                row = row_b
            else:
                row = dict(old[rho])
                x = row.pop(b, 0)
                if x:
                    for rp, c in row_b.items():
                        row[rp] = row.get(rp, 0) - x * c
            rows[rho] = tuple(sorted((rp, c) for rp, c in row.items() if c))
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
    vanish. Every block writes each of its own unknowns once, so no
    unknown is left free; the writes are counted, and only when they
    outnumber the keys written are the keys' writers recounted, each key
    solved by more than one block a problem, in key order.

    `atlas` supplies the cone coordinates; it must describe the system's
    own relations, and a fresh one is built when it is omitted.
    """
    fan = system.fan
    e = system.e_index
    n = fan.ambient
    # Ray vectors come from the stored relations, so the solver works on
    # the system's own equations even when they are not the fan's.
    vectors = tuple(zip(*(rel.coefficients for rel in system.relations)))
    if atlas is None:
        atlas = ConeAtlas(vectors, fan.top_cones)
    elif atlas.vectors != vectors or atlas.top_cones != fan.top_cones:
        raise ValueError("the cone atlas does not describe the system's relations")
    keys = system.keys
    ones = keys.ones
    holders, rows = atlas.holders, atlas.rows
    ebit = 1 << e
    # The top cones holding each support, in block order, where the
    # subsets of a support come before it: those holding the support
    # without its lowest ray, ANDed with that ray's.
    held_of = {0: holders[e]}
    for _, s in system.blocks:
        if s not in held_of:
            low = s & -s
            held_of[s] = held_of[s ^ low] & holders[low.bit_length() - 1]
    # Per top cone, built when a block first uses it: the rays outside
    # the cone that its rows use, as (holders, ones), and per ray of the
    # cone its (bit, ones, ray, terms), each term (position among those
    # rays, coefficient).
    plans: dict[int, tuple[tuple, tuple]] = {}
    values: dict[int, int] = {}
    problems: list[str] = []
    writes = 0
    for mkey, s in reversed(system.blocks):
        supp = s | ebit
        # Every ray of the support is a ray of the cone, so the block
        # writes one value per ray of its support.
        writes += supp.bit_count()
        top = s.bit_count() == n - 2
        # The block is solved in the first top cone holding its support.
        held = held_of[s]
        if not held:
            raise ValueError(f"block {format_monomial(keys.unpack(mkey))} lies in no top cone")
        ci = (held & -held).bit_length() - 1
        plan = plans.get(ci)
        if plan is None:
            cone = rows(ci)
            used = sorted({rp for row in cone.values() for rp, _ in row})
            position = {rp: i for i, rp in enumerate(used)}
            plan = plans[ci] = (
                tuple((holders[rp], ones[rp]) for rp in used),
                tuple(
                    (1 << k, ones[k], k, tuple((position[rp], coeff) for rp, coeff in row))
                    for k, row in cone.items()
                ),
            )
        outside, cone_rows = plan
        # The multiplier bumped by each ray outside the cone; a bump
        # whose support lies in no top cone is 0.
        if top:
            bumps = [1 if held & h else 0 for h, _ in outside]
        else:
            bumps = [values[mkey + o] if held & h else 0 for h, o in outside]
        for bit, one, ray_k, terms in cone_rows:
            y = 0
            for i, coeff in terms:
                y -= coeff * bumps[i]
            if supp & bit:
                values[mkey + one] = y
            else:
                # A ray of the cone outside the support: its bump is held.
                y -= 1 if top else values[mkey + one]
                if y != 0:
                    problems.append(
                        f"block {format_monomial(keys.unpack(mkey))}: coefficient of ray "
                        f"{ray_k} must vanish but equals {y}"
                    )
    if writes != len(values):
        # Some key was written by more than one block.
        times = Counter(
            mkey + one
            for mkey, s in system.blocks
            for r, one in enumerate(ones)
            if (s | ebit) >> r & 1
        )
        problems += [
            f"column {format_monomial(keys.unpack(ukey))} is solved by {k} blocks"
            for ukey, k in sorted(times.items())
            if k > 1
        ]
    return SystemSolution(
        by_key=values,
        keys=keys,
        consistent=not problems,
        problems=tuple(problems),
        n_unknowns=system.n_unknowns,
        n_rows=system.n_rows,
        e_top=values[n * ones[e]],
    )


class IntersectionEngine:
    """Both engines over one fan, reading one shared cone atlas.

    The recursive evaluator and the block solver find containing cones
    and cone coordinates in `atlas`, so each cone's coordinates are
    computed once per engine, by pivots along walls from a filled cone
    when one is reachable. The linear system is assembled and solved
    lazily on first use. The evaluator's memo maps a monomial's key, one
    exponent byte per ray in ray order (`int.from_bytes` of it is the
    system's packed key), to its value; every key in it passes the
    argument checks, so `evaluate` answers a hit before checking. The
    verification suite rebuilds every row from the raw relations, so a
    fault in the shared atlas still shows.
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
        self._memo: dict[bytes, int] = {}

    @cached_property
    def system(self) -> LinearSystem:
        return assemble_system(self.fan, e_index=self.e_index)

    @cached_property
    def solution(self) -> SystemSolution:
        return solve_system(self.system, self.atlas)

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

    def _checked(self, key: tuple) -> bytes:
        """The memo key of the monomial `key`: one byte per ray, in ray
        order (the bytes `MonomialKeys.pack` reads), after checking that
        `key` has one integer exponent per ray, none negative, of degree
        equal to the ambient dimension.

        An exponent that is not an integer (a float, a Fraction, a str)
        raises TypeError rather than being truncated; bools and objects
        with `__index__` count as the integers they convert to. The checks
        run in this order, and the first that fails raises: every exponent
        is an integer (TypeError), the length is the ray count, no
        exponent is negative, the degree is the ambient dimension (each
        ValueError)."""
        key = tuple(map(operator.index, key))
        if len(key) != self._n_rays:
            raise ValueError("monomial length does not match the ray count")
        if min(key) < 0:
            raise ValueError("negative exponents are not allowed")
        if sum(key) != self._ambient:
            raise ValueError("degree must equal the ambient dimension")
        return bytes(key)

    def system_value(self, mono: Sequence[int]) -> int | None:
        """Value according to the linear system: a square-free constant
        (1 on the ray set of a top cone, else 0), a solved unknown, or
        None if no block of the system solves the monomial.

        `mono` may be any iterable; it is read once and checked as
        `_checked` describes."""
        key = self._checked(tuple(mono))
        if max(key) <= 1:
            # n rays inside an n-ray cone are its ray set.
            return int(self.atlas.cone_for(sum(1 << i for i, x in enumerate(key) if x)) is not None)
        return self.solution.by_key.get(self.system.keys.pack(key))

    def evaluate(self, mono: Sequence[int]) -> int:
        """Recursive engine: exact value of any degree-n monomial with
        positive exceptional exponent.

        `mono` may be any iterable; it is read once. Its `bytes` are the
        memo key, so a monomial already evaluated is answered by one
        conversion and one dict probe, before any check: the memo holds
        only keys the checks accept (see `_eval`), so no input they reject
        can match one. On a miss, `mono` is checked as `_checked`
        describes, with the errors it gives in its order; a valid monomial
        whose exceptional exponent is 0 then raises
        UnsupportedMonomialError."""
        key = tuple(mono)
        try:
            value = self._memo.get(bytes(key))
        except (TypeError, ValueError):
            value = None
        if value is not None:
            return value
        packed = self._checked(key)
        if packed[self.e_index] < 1:
            raise UnsupportedMonomialError(
                "the recursive engine only evaluates monomials with a "
                "positive exceptional exponent"
            )
        return self._eval(packed)

    def _eval(self, mono: bytes) -> int:
        """`evaluate` without its argument checks, for keys that
        `_checked` accepts with a positive exceptional exponent: one byte
        per ray, of degree equal to the ambient dimension. Callers
        pass only such keys (`evaluate` after its checks, verify's sweep
        the system's own monomials), and every child the recursion stores
        is one too: it keeps its parent's length and degree, and the
        exceptional byte loses 1 only when it is at least 2. So the memo
        holds no key that `evaluate`'s checks reject, which is what lets
        `evaluate` probe it first."""
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
                base = mono[:rho] + bytes((mono[rho] - 1,)) + mono[rho + 1 :]
                value = 0
                for rp, coeff in self.atlas.rows(ci)[rho]:
                    value -= coeff * self._eval(base[:rp] + bytes((base[rp] + 1,)) + base[rp + 1 :])
        self._memo[mono] = value
        return value
