from __future__ import annotations

import dataclasses
import io
import json
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from a4toric import cli, verify
from a4toric.cones import Fan
from a4toric.d4fan import FanConstructionError
from a4toric.cli import main
from a4toric.intersection import IntersectionEngine
from a4toric.tables import FaberData

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden"
CLI_GOLDEN = Path(__file__).resolve().parent / "golden"

# Every command pinned under tests/golden, as <name>.txt (text) and
# <name>.json (JSON); both are rendered with --reproducible.
GOLDEN_COMMANDS = {
    "fan_report": ["fan", "report"],
    "intersection_e10": ["intersection", "e10"],
    "intersection_E9_D1": ["intersection", "E^9*D1"],
    "intersection_E8_D1_2": ["intersection", "E^8*D1^2"],
    "tables_igusa": ["tables", "igusa"],
    "tables_voronoi_lfe": ["tables", "voronoi", "--basis", "lfe"],
    "tables_voronoi_geometric": ["tables", "voronoi", "--basis", "geometric"],
    "tables_ltop_stack_genus3": ["tables", "ltop", "--stack", "--genus", "3"],
    "verify": ["verify"],
}


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture(scope="session")
def passing_output():
    """Standard output of an in-process run that must exit 0, memoized
    per argv, for tests that only read a passing command's output."""
    memo: dict[tuple[str, ...], str] = {}

    def run(argv):
        key = tuple(argv)
        if key not in memo:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(list(argv))
            assert code == 0, err.getvalue()
            memo[key] = out.getvalue()
        return memo[key]

    return run


def as_fraction(rat):
    return Fraction(int(rat["numerator"]), int(rat["denominator"]))


def test_fan_report_json(capsys):
    doc = run_json(capsys, ["fan", "report", "--format", "json", "--reproducible"])
    assert doc["command"] == "fan report"
    assert "generated_at" not in doc
    res = doc["results"]
    assert res["ray_count"] == 12
    assert res["facet_count"] == 64
    assert res["cone_count"] == 64
    assert res["all_cones_basic"] is True
    assert res["stabilizer_order"] == 1152
    assert res["exceptional_ray"]["coordinates"] == [2, 4, 2, 2, 2, 1, 1, 2, 2, 1]
    assert res["exceptional_ray"]["content"] == 3
    assert len(res["rays"]) == 12
    assert all(len(f["rays"]) == 9 for f in res["facets"])
    assert all(abs(c["determinant"]) == 1 for c in res["cones"])


def test_fan_report_text(capsys):
    code, out, err = run_cli(capsys, ["fan", "report", "--reproducible"])
    assert code == 0
    assert "ray count: 12" in out
    assert "facet count: 64" in out
    assert "stabilizer order: 1152" in out


def test_intersection_e10(capsys):
    doc = run_json(capsys, ["intersection", "e10", "--format", "json", "--reproducible"])
    res = doc["results"]
    assert res["expression"] == "E^10"
    assert as_fraction(res["system_value"]) == -1680
    assert as_fraction(res["recursive_value"]) == -1680
    assert res["agree"] is True
    assert res["stabilizer_order"] == 1152
    assert as_fraction(res["moduli_value"]) == Fraction(-35, 24)


def test_intersection_grammar_alias(capsys):
    doc = run_json(
        capsys, ["intersection", "eval", "E^10", "--format", "json", "--reproducible"]
    )
    assert as_fraction(doc["results"]["recursive_value"]) == -1680


def test_intersection_facet_monomial(capsys, star):
    facet = star.facets[0]
    expr = "E*" + "*".join(f"D{i + 1}" for i in sorted(facet.incident))
    doc = run_json(capsys, ["intersection", expr, "--format", "json", "--reproducible"])
    res = doc["results"]
    assert as_fraction(res["system_value"]) == 1
    assert as_fraction(res["recursive_value"]) == 1
    assert res["agree"] is True
    assert "moduli_value" not in res


def test_intersection_non_column_monomial(capsys, star):
    # Two squared boundary factors: valid for the recursive engine, but
    # not a column of the linear system.
    i, j = sorted(star.facets[0].incident)[:2]
    expr = f"E^6*D{i + 1}^2*D{j + 1}^2"
    doc = run_json(capsys, ["intersection", expr, "--format", "json", "--reproducible"])
    res = doc["results"]
    assert res["system_value"] is None
    assert res["agree"] is None
    int(res["recursive_value"]["numerator"])  # parses as an integer


@pytest.mark.parametrize(
    "argv",
    [
        ["intersection", "E^9"],
        ["intersection", "D1^10"],
        ["intersection", "X*Y"],
        ["intersection", "e10", "extra"],
        ["intersection", "E^11"],
        ["tables", "igusa", "--stack"],
        ["tables", "igusa", "--genus", "5"],
        ["tables", "igusa", "--basis", "geometric"],
        ["bogus"],
        [],
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2


def test_tables_ltop(capsys):
    doc = run_json(capsys, ["tables", "ltop", "--format", "json", "--reproducible"])
    res = doc["results"]
    assert res["genus"] == 4
    assert res["top_power"] == 10
    assert as_fraction(res["variety_value"]) == Fraction(1, 907200)
    assert as_fraction(res["stack_value"]) == Fraction(1, 1814400)
    assert res["selected"] == "variety"
    stacked = run_json(
        capsys, ["tables", "ltop", "--stack", "--format", "json", "--reproducible"]
    )
    assert stacked["results"]["selected"] == "stack"
    assert as_fraction(stacked["results"]["value"]) == Fraction(1, 1814400)
    low = run_json(
        capsys, ["tables", "ltop", "--genus", "2", "--format", "json", "--reproducible"]
    )
    assert as_fraction(low["results"]["value"]) == Fraction(1, 1440)


def test_tables_igusa(capsys):
    doc = run_json(capsys, ["tables", "igusa", "--format", "json", "--reproducible"])
    values = doc["results"]["values"]
    assert [v["k"] for v in values] == list(range(10, -1, -1))
    by_k = {v["k"]: as_fraction(v["value"]) for v in values}
    assert by_k[10] == Fraction(1, 907200)
    assert by_k[6] == Fraction(-1, 3780)
    assert by_k[0] == Fraction(101449217, 1440)
    assert by_k[9] == by_k[8] == by_k[7] == 0


def test_tables_voronoi(capsys):
    doc = run_json(capsys, ["tables", "voronoi", "--format", "json", "--reproducible"])
    res = doc["results"]
    assert res["basis"] == "lfe"
    assert as_fraction(res["e_top_toric"]) == -1680
    assert res["stabilizer_order"] == 1152
    entries = {(e["k"], e["l"]): as_fraction(e["value"]) for e in res["entries"]}
    assert len(entries) == 66
    assert entries[(0, 10)] == Fraction(-35, 24)
    assert entries[(10, 0)] == Fraction(1, 907200)
    assert entries[(0, 0)] == Fraction(101449217, 1440)
    assert entries[(3, 5)] == 0


def test_tables_voronoi_geometric(capsys):
    doc = run_json(
        capsys,
        ["tables", "voronoi", "--basis", "geometric", "--format", "json", "--reproducible"],
    )
    entries = {
        (e["k"], e["m"], e["l"]): as_fraction(e["value"])
        for e in doc["results"]["entries"]
    }
    assert len(entries) == 66
    assert entries[(10, 0, 0)] == Fraction(1, 907200)
    assert entries[(6, 4, 0)] == Fraction(-1, 3780)
    assert entries[(0, 0, 10)] == Fraction(-35, 24)
    assert entries[(0, 10, 0)] == Fraction(-2100560383, 1440)


VERIFY_TEXT = ["verify", "--format", "text", "--reproducible"]
VERIFY_JSON = ["verify", "--format", "json", "--reproducible"]


def test_verify_text(passing_output):
    out = passing_output(VERIFY_TEXT)
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert len(lines) == 10
    assert all(l.startswith("[PASS]") for l in lines)
    assert "10 checks: 10 passed, 0 failed" in out


def test_verify_json(passing_output):
    doc = json.loads(passing_output(VERIFY_JSON))
    res = doc["results"]
    assert res["all_passed"] is True
    assert res["passed_count"] == 10
    assert res["failed_count"] == 0
    names = [c["name"] for c in res["checks"]]
    assert names == [
        "hodge_top_power",
        "first_table",
        "recurrence_closure",
        "fan_combinatorics",
        "stabilizer",
        "exceptional_top_power",
        "engine_agreement",
        "second_table",
        "oracle_suites",
        "determinism",
    ]
    assert all(c["passed"] for c in res["checks"])


def test_verify_fault_injection(capsys, monkeypatch):
    clean = FaberData.default()
    corrupted = FaberData(
        (clean.values[0] + 1,) + clean.values[1:]
    )
    monkeypatch.setattr(FaberData, "default", classmethod(lambda cls: corrupted))
    code = main(["verify", "--reproducible"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL]" in out
    failing = [l for l in out.splitlines() if l.startswith("[FAIL]")]
    assert any("first_table" in l or "recurrence_closure" in l for l in failing)
    # The toric side is untouched by the corrupted constants.
    assert any(
        l.startswith("[PASS]") and "exceptional_top_power" in l
        for l in out.splitlines()
    )


def test_verify_reports_a_worker_failure(capsys, monkeypatch):
    # Check 10's rebuild runs in the worker process; its exception comes
    # back with its type, and verify reports it as a failed computation.
    def broken(*args, **kwargs):
        raise FanConstructionError("rebuild broken")

    monkeypatch.setattr(verify, "build_star_fan", broken)
    code, out, err = run_cli(capsys, ["verify"])
    assert code == 1
    assert out == ""
    assert err == "computation failed: rebuild broken\n"


def test_verify_fails_determinism_on_a_changed_rebuild(capsys, monkeypatch):
    build = verify.build_star_fan

    def moved(*args, **kwargs):
        fresh = build(*args, **kwargs)
        rays = (fresh.fan.rays[0], tuple(-x for x in fresh.fan.rays[1])) + fresh.fan.rays[2:]
        return dataclasses.replace(fresh, fan=Fan(rays, fresh.fan.top_cones))

    monkeypatch.setattr(verify, "build_star_fan", moved)
    code, out, _ = run_cli(capsys, ["verify", "--reproducible"])
    assert code == 1
    failing = [l for l in out.splitlines() if l.startswith("[FAIL]")]
    assert failing == ["[FAIL] determinism: expected ok; got rebuild or rendering drifted"]


def _corrupt_inverse(atlas, monkeypatch):
    inv, _ = atlas.inverse(0)
    inv[0][0] += 1


def _corrupt_terms(atlas, monkeypatch):
    # The E-coordinate in cone 0 of the first ray outside it, changed in
    # the cone's one cache entry: the block solve reads its rows whole
    # and the evaluator one at a time.
    rows = atlas.rows(0)
    (rp, coeff), *rest = rows[0]
    rows[0] = ((rp, coeff + 1), *rest)


@pytest.mark.parametrize("corrupt", [_corrupt_inverse, _corrupt_terms], ids=["inverse", "terms"])
def test_corrupted_atlas_fails_verify(capsys, monkeypatch, star, stabilizer, corrupt):
    engine = IntersectionEngine(star.fan, star.e_index)
    corrupt(engine.atlas, monkeypatch)
    # verify hands this engine to run_all. Both engines read the corrupted
    # atlas, but the row sweep rebuilds every row from the raw relations,
    # so it names a row that the corrupted values break.
    monkeypatch.setattr(cli, "_context", lambda: (star, stabilizer, engine))
    code = main(["verify", "--reproducible"])
    out = capsys.readouterr().out
    assert code == 1
    line = next(l for l in out.splitlines() if l.startswith("[FAIL] engine_agreement"))
    assert re.search(r"first nonzero row: E\S* times relation \d+$", line)


@pytest.mark.parametrize(
    ("argv", "golden"),
    [
        (VERIFY_JSON, "verify.json"),
        (["fan", "report", "--format", "json", "--reproducible"], "fan_report.json"),
    ],
)
def test_reproducible_output_matches_golden_file(passing_output, argv, golden):
    out = passing_output(argv)
    assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_every_command_matches_its_golden_output(passing_output, name, fmt):
    out = passing_output(GOLDEN_COMMANDS[name] + ["--format", fmt, "--reproducible"])
    suffix = "txt" if fmt == "text" else "json"
    assert out.encode("utf-8") == (CLI_GOLDEN / f"{name}.{suffix}").read_bytes()


def test_timestamp_presence(capsys):
    with_ts = run_json(capsys, ["tables", "ltop", "--format", "json"])
    assert "generated_at" in with_ts
    without_ts = run_json(capsys, ["tables", "ltop", "--format", "json", "--reproducible"])
    assert "generated_at" not in without_ts


def test_repeated_runs_are_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        code, out, err = run_cli(capsys, ["verify", "--json", "--reproducible"])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_subprocess_smoke(cli_env):
    proc = subprocess.run(
        [sys.executable, "-m", "a4toric", "tables", "ltop", "--format", "json", "--reproducible"],
        capture_output=True,
        text=True,
        timeout=120,
        env=cli_env,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert as_fraction(doc["results"]["variety_value"]) == Fraction(1, 907200)


def test_fan_report_imports_no_worker_machinery(cli_env):
    # `fan report` and the import of the command line pay for every module
    # the package loads; the verify worker's pickling is loaded only when
    # verify joins it.
    code = (
        "import contextlib, io, sys\n"
        "import a4toric.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert a4toric.cli.main(['fan', 'report']) == 0\n"
        "print(sorted({'pickle', 'multiprocessing'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=cli_env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
