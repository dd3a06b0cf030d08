"""Self-check of the benchmark.

Usage: python3 bench/selfcheck.py   (from the repository root, about a minute)

1. A one-second run of every workload, untraced and traced, passes and
   prints exactly the metrics BENCHMARK.json declares, each with its unit.
2. A tampered golden output, or a wrong expected value, makes a run
   report failed operations and exit nonzero instead of passing.

Exits 0 when every check holds and prints one line per check.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)])
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]) if lines else {}


def _declared(trace: int) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def main() -> int:
    failures = 0

    def report(ok: bool, what: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {what}")

    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            code, result = _run(workload, trace)
            units = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            report(
                code == 0 and result.get("correct") is True and result.get("failed") == 0,
                f"{workload} trace={trace} passes",
            )
            report(units == _declared(trace), f"{workload} trace={trace} prints every declared metric with its unit")

    run.OUT.mkdir(exist_ok=True)
    tampered = run.OUT / "tampered_fan_report.json"
    tampered.write_bytes(run.GOLDEN["fan_cold"].read_bytes().replace(b"1152", b"1153"))
    original = run.GOLDEN["fan_cold"]
    run.GOLDEN["fan_cold"] = tampered
    try:
        code, result = _run("fan_cold", 0)
    finally:
        run.GOLDEN["fan_cold"] = original
        tampered.unlink()
    report(code != 0 and result.get("failed", 0) > 0, "a tampered golden output fails fan_cold")

    for workload, key, wrong in (
        ("fan_cold", "stabilizer_order", 1151),
        ("verify_cold", "e_top", -1681),
        ("monomial_stream", "e_top", -1681),
    ):
        right = run.EXPECTED[key]
        run.EXPECTED[key] = wrong
        try:
            code, result = _run(workload, 0)
        finally:
            run.EXPECTED[key] = right
        report(code != 0 and result.get("failed", 0) > 0, f"a wrong expected {key} fails {workload}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
