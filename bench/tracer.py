"""Spans around calls into a4toric's public functions, recorded from outside.

`Tracer.install` rebinds each name in `TRACED` to a wrapper in every loaded
a4toric module that holds it, so calls made through any import of the
name are seen. Nothing in the package is edited: the wrappers live only
in the process that installs them. Spans (name, start, end, parent) stay
in memory; `Tracer.summary` folds them into the per-layer figures the
benchmark prints. None of the wrapped functions calls itself through its
public name, so a span never nests inside a span of the same name.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, attribute, span name); "Class.method" names a method.
TRACED = (
    ("a4toric.cli", "main", "cli.main"),
    ("a4toric.verify", "run_all", "verify.run_all"),
    ("a4toric.d4fan", "build_star_fan", "d4fan.build_star_fan"),
    ("a4toric.d4fan", "compute_stabilizer", "d4fan.compute_stabilizer"),
    ("a4toric.cones", "enumerate_facets", "cones.enumerate_facets"),
    ("a4toric.exact", "kernel_line", "exact.kernel_line"),
    ("a4toric.exact", "unimodular_inverse", "exact.unimodular_inverse"),
    ("a4toric.intersection", "assemble_system", "intersection.assemble_system"),
    ("a4toric.intersection", "solve_system", "intersection.solve_system"),
    ("a4toric.intersection", "IntersectionEngine.evaluate", "intersection.evaluate"),
    ("a4toric.proportionality", "l_top", "proportionality.l_top"),
    ("a4toric.tables", "igusa_table", "tables.igusa_table"),
    ("a4toric.tables", "verify_recurrence", "tables.verify_recurrence"),
    ("a4toric.tables", "voronoi_table", "tables.voronoi_table"),
    ("a4toric.tables", "geometric_basis", "tables.geometric_basis"),
)

# Per-layer metrics printed by a traced run: (metric, span name, field).
# A field of "s" is the summed span time, "calls" the span count and
# "self_s" the summed time not covered by wrapped children.
SPAN_METRICS = (
    ("import.s", "import", "s"),
    ("d4fan.build_star_fan.s", "d4fan.build_star_fan", "s"),
    ("d4fan.build_star_fan.calls", "d4fan.build_star_fan", "calls"),
    ("cones.enumerate_facets.s", "cones.enumerate_facets", "s"),
    ("cones.enumerate_facets.calls", "cones.enumerate_facets", "calls"),
    ("d4fan.compute_stabilizer.s", "d4fan.compute_stabilizer", "s"),
    ("intersection.assemble_system.s", "intersection.assemble_system", "s"),
    ("intersection.assemble_system.calls", "intersection.assemble_system", "calls"),
    ("intersection.solve_system.s", "intersection.solve_system", "s"),
    ("intersection.solve_system.calls", "intersection.solve_system", "calls"),
    ("intersection.evaluate.s", "intersection.evaluate", "s"),
    ("intersection.evaluate.calls", "intersection.evaluate", "calls"),
    ("exact.unimodular_inverse.s", "exact.unimodular_inverse", "s"),
    ("exact.unimodular_inverse.calls", "exact.unimodular_inverse", "calls"),
    ("verify.run_all.self_s", "verify.run_all", "self_s"),
    ("proportionality.l_top.s", "proportionality.l_top", "s"),
    ("cli.main.self_s", "cli.main", "self_s"),
)


class Tracer:
    """Records one span per wrapped call, plus work counters taken from
    the values the wrapped calls return."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []
        # Largest system size seen, or the set of facet counts and
        # stabilizer orders seen.
        self.counters: dict[str, int | set[int]] = {}
        self._stack = [-1]

    def span(self, name: str, start: float, end: float) -> None:
        """Record a span timed by the caller, under the current span."""
        self.spans.append((self._name_id(name), start, end, self._stack[-1]))

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        spans, stack = self.spans, self._stack
        observe = _OBSERVERS.get(name)
        counters = self.counters

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if observe is not None:
                observe(result, counters)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every name in `TRACED` wherever a4toric has bound it;
        names of modules not yet imported are left alone."""
        package = [m for n, m in list(sys.modules.items()) if n == "a4toric" or n.startswith("a4toric.")]
        for module_name, attr, span_name in TRACED:
            owner = sys.modules.get(module_name)
            if owner is None:
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(span_name, cls.__dict__[method]))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(span_name, original)
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def summary(self) -> dict:
        """Calls, summed time and self time per span name, plus counters."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, dict[str, float]] = {}
        facet_candidates = 0
        facets_id = self.names.index("cones.enumerate_facets") if "cones.enumerate_facets" in self.names else -1
        for i, (name_id, start, end, parent) in enumerate(self.spans):
            entry = stats.setdefault(self.names[name_id], {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            if self.names[name_id] == "exact.kernel_line" and parent >= 0 and self.spans[parent][0] == facets_id:
                facet_candidates += 1
        tables_s = sum(
            end - start
            for name_id, start, end, parent in self.spans
            if self.names[name_id].startswith("tables.")
            and not (parent >= 0 and self.names[self.spans[parent][0]].startswith("tables."))
        )
        counters = {
            key: sorted(value) if isinstance(value, set) else value
            for key, value in self.counters.items()
        }
        return {"spans": stats, "counters": counters, "facet_candidates": facet_candidates, "tables_s": tables_s}


def layer_metrics(summary: dict) -> dict[str, float]:
    """The per-layer metrics of one traced operation."""
    spans = summary["spans"]
    out = {metric: spans.get(name, {}).get(field, 0) for metric, name, field in SPAN_METRICS}
    out["cones.facet_candidates"] = summary["facet_candidates"]
    out["tables.s"] = summary["tables_s"]
    for key in ("intersection.rows", "intersection.unknowns", "intersection.blocks"):
        out[key] = summary["counters"].get(key, 0)
    return out


def _observe_system(system, counters: dict) -> None:
    # The largest system of an operation is the D4 star fan's; the toy
    # fans of the oracle suite assemble smaller ones.
    for key, value in (
        ("intersection.rows", system.n_rows),
        ("intersection.unknowns", system.n_unknowns),
        ("intersection.blocks", len(system.multipliers)),
    ):
        counters[key] = max(counters.get(key, 0), value)


def _observe_star(star, counters: dict) -> None:
    counters.setdefault("d4fan.facets", set()).add(len(star.facets))


def _observe_stabilizer(stabilizer, counters: dict) -> None:
    counters.setdefault("d4fan.stabilizer_order", set()).add(stabilizer.order)


_OBSERVERS = {
    "intersection.assemble_system": _observe_system,
    "d4fan.build_star_fan": _observe_star,
    "d4fan.compute_stabilizer": _observe_stabilizer,
}
