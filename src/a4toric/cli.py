"""Command-line front end.

Subcommands build the fan, evaluate intersection monomials, print the
tables, and run the verification suite. Output is deterministic text
or JSON; exact rationals are serialized as decimal-string numerator
and denominator pairs, never as floats. Exit status: 0 on success,
1 on a computation or verification failure, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from functools import lru_cache

from .d4fan import StarFan, Stabilizer, build_star_fan, compute_stabilizer
from .exact import int_det
from .intersection import (
    IntersectionEngine,
    MonomialSyntaxError,
    UnsupportedMonomialError,
    format_monomial,
    parse_monomial,
)
from .proportionality import l_top
from .tables import TOP_DEGREE, FaberData, geometric_basis, igusa_table, voronoi_table
from .verify import run_all

__all__ = ["main", "console_entry"]


class _UsageError(Exception):
    pass


@lru_cache(maxsize=1)
def _context() -> tuple[StarFan, Stabilizer, IntersectionEngine]:
    star = build_star_fan()
    stabilizer = compute_stabilizer(star)
    engine = IntersectionEngine(star.fan, star.e_index)
    return star, stabilizer, engine


def _rational(x: object) -> dict[str, str]:
    """The JSON form of an exact rational, for `json.dumps(default=...)`."""
    if isinstance(x, Fraction):
        return {"numerator": str(x.numerator), "denominator": str(x.denominator)}
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _emit(
    args: argparse.Namespace, command: str, inputs: dict, results: dict, lines: list[str]
) -> None:
    """Print one command's results: as JSON, or as the text lines that the
    command formatted from the same results."""
    if args.format == "json":
        doc: dict = {"command": command, "inputs": inputs, "results": results}
        if not args.reproducible:
            doc["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        print(json.dumps(doc, indent=2, default=_rational))
    else:
        print("\n".join(lines))


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _cmd_fan_report(args: argparse.Namespace) -> int:
    star, stabilizer, _ = _context()
    dets = [
        int_det([star.fan.rays[i] for i in sorted(c)]) for c in star.fan.top_cones
    ]
    results = {
        "ray_count": len(star.ray_vectors),
        "rays": [
            {"index": i + 1, "vector": list(v), "coordinates": list(g)}
            for i, (v, g) in enumerate(zip(star.ray_vectors, star.fan.rays[1:]))
        ],
        "exceptional_ray": {"coordinates": list(star.eta), "content": star.eta_content},
        "facet_count": len(star.facets),
        "facets": [
            {"index": fi + 1, "rays": [i + 1 for i in sorted(f.incident)]}
            for fi, f in enumerate(star.facets)
        ],
        "cone_count": len(dets),
        "cones": [
            {"index": fi + 1, "facet": fi + 1, "determinant": d}
            for fi, d in enumerate(dets)
        ],
        "all_cones_basic": all(abs(d) == 1 for d in dets),
        "stabilizer_order": stabilizer.order,
    }
    eta = results["exceptional_ray"]
    lines = ["fan report", f"ray count: {results['ray_count']}"]
    for r in results["rays"]:
        lines.append(
            f"  ray {r['index']:2d}: vector {tuple(r['vector'])}; "
            f"coordinates {tuple(r['coordinates'])}"
        )
    lines.append(
        f"exceptional ray: coordinates {tuple(eta['coordinates'])}; "
        f"content {eta['content']}"
    )
    lines.append(f"facet count: {results['facet_count']}")
    for f in results["facets"]:
        lines.append(f"  facet {f['index']:2d}: rays " + " ".join(map(str, f["rays"])))
    lines.append(
        f"cone count: {results['cone_count']}; all basic (|det| = 1): "
        f"{_yes(results['all_cones_basic'])}"
    )
    lines.append(f"stabilizer order: {results['stabilizer_order']}")
    _emit(args, "fan report", {}, results, lines)
    return 0


def _cmd_intersection(args: argparse.Namespace) -> int:
    star, stabilizer, engine = _context()
    tokens = list(args.expr)
    if tokens and tokens[0] == "eval":
        tokens = tokens[1:]
    if len(tokens) != 1:
        raise _UsageError("expected exactly one monomial expression")
    raw = tokens[0]
    n_rays = len(star.fan.rays)
    e_top_mono = (TOP_DEGREE,) + (0,) * (n_rays - 1)
    mono = e_top_mono if raw == "e10" else parse_monomial(raw, n_rays)
    if sum(mono) != TOP_DEGREE:
        raise _UsageError(
            f"monomial {format_monomial(mono)} has degree {sum(mono)}; "
            f"the top intersection degree is {TOP_DEGREE}"
        )
    if mono[0] < 1:
        raise _UsageError(
            "the monomial must contain the exceptional factor E: values "
            "without it do not localize to this star fan"
        )
    recursive = Fraction(engine.evaluate(mono))
    system = engine.system_value(mono)
    results: dict = {
        "expression": format_monomial(mono),
        "system_value": None if system is None else Fraction(system),
        "recursive_value": recursive,
        "agree": None if system is None else system == recursive,
    }
    if mono == e_top_mono:
        results["stabilizer_order"] = stabilizer.order
        results["moduli_value"] = recursive / stabilizer.order
    agree = results["agree"]
    lines = [
        f"intersection {results['expression']}",
        "system value:    "
        + ("not a system column" if system is None else str(results["system_value"])),
        f"recursive value: {recursive}",
        "agreement:       " + ("n/a" if agree is None else _yes(agree)),
    ]
    if "moduli_value" in results:
        lines.append(f"stabilizer order: {results['stabilizer_order']}")
        lines.append(f"moduli value:    {results['moduli_value']}")
    _emit(args, "intersection", {"expression": raw}, results, lines)
    return 1 if agree is False else 0


def _cmd_tables(args: argparse.Namespace) -> int:
    if args.stack and args.which != "ltop":
        raise _UsageError("--stack only applies to the ltop table")
    if args.basis != "lfe" and args.which != "voronoi":
        raise _UsageError("--basis only applies to the voronoi table")
    if args.genus != 4 and args.which != "ltop":
        raise _UsageError("--genus only applies to the ltop table")
    if args.which == "ltop":
        if args.genus < 1:
            raise _UsageError("genus must be at least 1")
        lt = l_top(args.genus)
        results = {
            "genus": lt.genus,
            "top_power": lt.top_power,
            "variety_value": lt.value,
            "stack_value": lt.stack_value,
            "selected": "stack" if args.stack else "variety",
            "value": lt.stack_value if args.stack else lt.value,
        }
        lines = [
            "top power of the weight-one class",
            f"genus: {results['genus']}",
            f"top power: {results['top_power']}",
            f"variety value: {results['variety_value']}",
            f"stack value:   {results['stack_value']}",
            f"selected: {results['selected']} ({results['value']})",
        ]
        inputs = {"genus": args.genus, "stack": bool(args.stack)}
        _emit(args, "tables ltop", inputs, results, lines)
        return 0
    igusa = igusa_table(l_top(4).value, FaberData.default())
    if args.which == "igusa":
        results = {
            "values": [{"k": k, "value": igusa.a(k)} for k in range(TOP_DEGREE, -1, -1)]
        }
        lines = ["table igusa: <L^k D^(10-k)> for k = 10 .. 0"]
        for entry in results["values"]:
            lines.append(f"  k = {entry['k']:2d}: {entry['value']}")
        _emit(args, "tables igusa", {}, results, lines)
        return 0
    _, stabilizer, engine = _context()
    vor = voronoi_table(igusa, engine.e_top, stabilizer.order)
    geometric = args.basis == "geometric"
    entries = []
    for k in range(TOP_DEGREE, -1, -1):
        for l in range(0, TOP_DEGREE + 1 - k):
            if geometric:
                m = TOP_DEGREE - k - l
                entries.append({"k": k, "m": m, "l": l, "value": geometric_basis(vor, k, m, l)})
            else:
                entries.append({"k": k, "l": l, "value": vor.a(k, l)})
    results = {
        "basis": args.basis,
        "e_top_toric": engine.e_top,
        "stabilizer_order": stabilizer.order,
        "entries": entries,
    }
    if geometric:
        lines = ["table voronoi (geometric basis): <L^k D^m E^l> with D = F - 4E"]
    else:
        e_top, order = results["e_top_toric"], results["stabilizer_order"]
        lines = [
            "table voronoi: <L^k F^(10-k-l) E^l> for k + l <= 10",
            f"corner entry: {e_top}/{order} = {e_top / order}",
        ]
    # Each entry lists its exponents in output order: k, l or k, m, l.
    for entry in entries:
        if entry["value"] != 0:
            exponents = ", ".join(f"{key} = {entry[key]:2d}" for key in entry if key != "value")
            lines.append(f"  {exponents}: {entry['value']}")
    lines.append("  all remaining entries: 0")
    _emit(args, "tables voronoi", {"basis": args.basis}, results, lines)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_all(*_context())
    checks = [c._asdict() for c in report.checks]
    passed = sum(c["passed"] for c in checks)
    results = {
        "checks": checks,
        "passed_count": passed,
        "failed_count": len(checks) - passed,
        "all_passed": report.all_passed,
    }
    lines = [
        f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}: "
        f"expected {c['expected']}; got {c['actual']}"
        for c in checks
    ]
    lines.append(
        f"{len(checks)} checks: {results['passed_count']} passed, "
        f"{results['failed_count']} failed"
    )
    if args.json:
        args.format = "json"
    _emit(args, "verify", {}, results, lines)
    return 0 if report.all_passed else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    common.add_argument(
        "--reproducible",
        action="store_true",
        help="omit the timestamp so output is byte-stable",
    )
    parser = argparse.ArgumentParser(
        prog="a4toric",
        description=(
            "Exact intersection numbers on the toroidal compactifications "
            "of the moduli space of abelian fourfolds"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fan = sub.add_parser("fan", help="fan construction reports")
    fan_sub = fan.add_subparsers(dest="fan_command", required=True)
    fan_sub.add_parser(
        "report", parents=[common], help="rays, facets, cones, stabilizer"
    )
    inter = sub.add_parser(
        "intersection",
        parents=[common],
        help="evaluate a degree-10 boundary monomial (e10, or E^a*Di*... grammar)",
    )
    inter.add_argument("expr", nargs="+", help="'e10', or a monomial expression")
    tables = sub.add_parser("tables", parents=[common], help="print a table")
    tables.add_argument("which", choices=("igusa", "voronoi", "ltop"))
    tables.add_argument(
        "--basis",
        choices=("lfe", "geometric"),
        default="lfe",
        help="voronoi table basis: L/F/E powers or L/D/E with D = F - 4E",
    )
    tables.add_argument("--genus", type=int, default=4, help="genus for ltop")
    tables.add_argument(
        "--stack", action="store_true", help="use the stack normalization for ltop"
    )
    verify = sub.add_parser(
        "verify", parents=[common], help="run the verification suite"
    )
    verify.add_argument(
        "--json", action="store_true", help="shorthand for --format json"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # Exact values print in full, past the interpreter's limit on
    # int-to-string conversion (L^h has a 4,343-digit numerator at genus
    # 57). Argument parsing keeps the limit, and it is restored on return
    # because `main` also runs in-process. Interpreters before 3.10.7
    # have no limit.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if args.command == "fan":
            return _cmd_fan_report(args)
        if args.command == "intersection":
            return _cmd_intersection(args)
        if args.command == "tables":
            return _cmd_tables(args)
        if args.command == "verify":
            return _cmd_verify(args)
    except (_UsageError, MonomialSyntaxError, UnsupportedMonomialError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    raise AssertionError("unreachable command")


def console_entry() -> None:
    """Run `main` and end the process with its status once standard output
    and standard error are flushed, without tearing the interpreter down:
    the command has written everything it will write, and freeing every
    object at exit only costs time. A reader that closed standard output
    early ends the command with status 1 and no traceback, whether the
    broken pipe shows in a print inside `main` or in the final flush; any
    other exception that escapes `main` propagates with its traceback."""
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        status = 1
    sys.stderr.flush()
    os._exit(status)
