"""Benchmark of a4toric: two cold command lines and an in-process monomial stream.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it needs only the standard library and
the sources under src/. One closed-loop client runs one operation at a
time:

* verify_cold: a fresh interpreter runs
  `python -m a4toric verify --json --reproducible`;
* fan_cold: a fresh interpreter runs
  `python -m a4toric fan report --format json --reproducible`;
* monomial_stream: a seeded stream of degree-10 monomials (see stream.py)
  goes through `IntersectionEngine.evaluate`, one call per operation. The
  calls run in a child process (stream_child.py) that does no block solve.

Every operation is checked. A cold operation must exit 0 with standard
output byte-identical to its golden file, and the headline numbers in that
output must equal EXPECTED. Each stream value that the block system also
determines must equal the block solve made at set-up, and E^10 must equal
EXPECTED["e_top"].

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones declared in BENCHMARK.json; with --trace 1 the run
alternates untraced and traced operations and the metrics are the
per-layer ones, plus the tracing overhead. The line before it records
the run: samples, tail percentile and whether it applies, failed ratio,
work counters and, when traced, how the overhead was resolved. The
exit status is 0 when every operation was correct, 1 when one was not,
and 2 when the benchmark could not set up (then no result is printed).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import re
import statistics
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path
from time import perf_counter, perf_counter_ns

import stream
from tracer import Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

COLD = {
    "verify_cold": ("verify", "--json", "--reproducible"),
    "fan_cold": ("fan", "report", "--format", "json", "--reproducible"),
}
# Standard output of each cold command at the commit the benchmark was
# defined on.
GOLDEN = {
    "verify_cold": BENCH / "golden" / "verify.json",
    "fan_cold": BENCH / "golden" / "fan_report.json",
}
WORKLOADS = (*COLD, "monomial_stream")

# Mathematical invariants of the computation. They are gated wherever an
# operation exposes them; work counts that later changes are meant to
# lower (evaluate and inverse calls, facet candidates) are only reported.
EXPECTED = {
    "checks_passed": 10,
    "e_top": -1680,
    "corner": "-35/24",
    "stabilizer_order": 1152,
    "rays": 12,
    "facets": 64,
    "rows": 33110,
    "unknowns": 21635,
    "blocks": 3311,
}
SETUP_ROUNDS = 5
TAIL_BEYOND = 10


class SetupError(RuntimeError):
    """The benchmark cannot prepare a run; no result is printed."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    # A cold operation is a fresh interpreter, not uncompiled sources:
    # set-up writes the bytecode cache and every operation reads it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _spawn(cmd: list[str]) -> tuple[int, bytes, bytes, float, float]:
    """Run a child to completion; return its exit code, standard output,
    standard error, wall time in seconds and peak RSS in MB."""
    with tempfile.TemporaryFile(dir=OUT) as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, stderr=err)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            # wait4 rather than Popen.wait, for the child's own rusage.
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        elapsed = perf_counter() - start
        err.seek(0)
        return proc.returncode, out, err.read(), elapsed, usage.ru_maxrss / 1024


def _verify_counters(doc: dict) -> dict:
    results = doc["results"]
    actual = {c["name"]: c["actual"] for c in results["checks"]}
    counters = {"checks_passed": results["passed_count"]}
    patterns = (
        ("exceptional_top_power", r"(?P<e_top>-?\d+) \(consistent, unique\)"),
        ("engine_agreement", r"0 mismatches on (?P<unknowns>\d+) unknowns, 0 nonzero rows of (?P<rows>\d+)"),
        ("second_table", r"corner (?P<corner>\S+) = -?\d+/\d+, column match, zero band"),
        ("stabilizer", r"(?P<stabilizer_order>\d+) \(permutes cones\)"),
        ("fan_combinatorics", r"rays (?P<rays>\d+), facets (?P<facets>\d+) \(9 rays each\).*"),
    )
    for check, pattern in patterns:
        match = re.fullmatch(pattern, actual[check])
        if match is None:
            raise ValueError(f"check {check} reads {actual[check]!r}")
        for key, value in match.groupdict().items():
            counters[key] = value if key == "corner" else int(value)
    return counters


def _fan_counters(doc: dict) -> dict:
    results = doc["results"]
    if results["all_cones_basic"] is not True:
        raise ValueError("a cone is not basic")
    return {
        "rays": results["ray_count"],
        "facets": results["facet_count"],
        "stabilizer_order": results["stabilizer_order"],
    }


def _traced_counters(summary: dict) -> dict:
    counters = {}
    for key, name in (("facets", "d4fan.facets"), ("stabilizer_order", "d4fan.stabilizer_order")):
        seen = summary["counters"].get(name, [])
        if len(seen) > 1:
            raise ValueError(f"{name} differs between calls: {seen}")
        if seen:
            counters[key] = seen[0]
    for key in ("rows", "unknowns", "blocks"):
        value = summary["counters"].get(f"intersection.{key}")
        if value is not None:
            counters[key] = value
    return counters


def _mismatches(counters: dict) -> list[str]:
    return [f"{k} = {v}, expected {EXPECTED[k]}" for k, v in counters.items() if v != EXPECTED[k]]


def _cold_op(workload: str, golden: bytes, trace_path: Path | None = None) -> dict:
    argv = COLD[workload]
    if trace_path is None:
        cmd = [sys.executable, "-m", "a4toric", *argv]
    else:
        trace_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "traced_child.py"), str(trace_path), *argv]
    code, out, err, elapsed, rss = _spawn(cmd)
    problems = []
    if code != 0:
        problems.append(f"exit status {code}: {err.decode(errors='replace')[-500:]}")
    if out != golden:
        problems.append("standard output differs from the golden file")
    counters: dict = {}
    summary = None
    try:
        doc = json.loads(out)
        counters = _verify_counters(doc) if workload == "verify_cold" else _fan_counters(doc)
        if trace_path is not None:
            summary = json.loads(trace_path.read_text())
            counters.update(_traced_counters(summary))
    except (ValueError, KeyError, TypeError, OSError) as exc:
        problems.append(f"cannot read the output: {exc!r}")
    problems += _mismatches(counters)
    for problem in problems:
        print(f"{workload}: {problem}", file=sys.stderr)
    return {"latency": elapsed, "rss_mb": rss, "ok": not problems, "counters": counters, "summary": summary}


def _run_cold(workload: str, seconds: float, trace: bool) -> dict:
    golden = GOLDEN[workload].read_bytes()
    setup = []
    for _ in range(SETUP_ROUNDS):
        # Spawning an import checks the sources load and, the first time,
        # writes their bytecode cache.
        code, _, err, elapsed, _ = _spawn([sys.executable, "-c", "import a4toric.cli"])
        if code != 0:
            raise SetupError(f"cannot import a4toric: {err.decode(errors='replace')[-500:]}")
        setup.append(elapsed)
    trace_path = OUT / f"trace-{os.getpid()}.json"
    plain, traced = [], []
    deadline = perf_counter() + seconds
    try:
        while True:
            start = perf_counter()
            plain.append(_cold_op(workload, golden))
            if trace:
                traced.append(_cold_op(workload, golden, trace_path))
            if _past(deadline, start):
                break
    finally:
        trace_path.unlink(missing_ok=True)
    ops = plain + traced
    result = {
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "setup_s": statistics.median(setup),
        "latencies": [op["latency"] for op in plain],
        "peak_rss_mb": max(op["rss_mb"] for op in plain),
        "counters": ops[-1]["counters"],
    }
    if trace:
        result["layers"] = _median_layers([layer_metrics(op["summary"]) for op in traced if op["summary"]])
        result["overhead_pairs"] = [(p["latency"], t["latency"]) for p, t in zip(plain, traced)]
    return result


def _past(deadline: float, start: float) -> bool:
    """Whether one more step as long as the one begun at `start` would
    end after `deadline`, so that a run lasts at most its seconds."""
    now = perf_counter()
    return now + (now - start) > deadline


def _median_layers(per_op: list[dict]) -> dict:
    if not per_op:
        return {}
    return {key: statistics.median(op[key] for op in per_op) for key in per_op[0]}


def _import_a4toric():
    for name in [n for n in sys.modules if n == "a4toric" or n.startswith("a4toric.")]:
        del sys.modules[name]
    return importlib.import_module("a4toric")


def _stream_setup(seed: int, tracer: Tracer | None = None) -> dict:
    """Import the package afresh, build the fan, generate the stream and
    solve the block system that checks it."""
    start = perf_counter()
    a4 = _import_a4toric()
    if tracer is not None:
        tracer.span("import", start, perf_counter())
        tracer.install()
    star = a4.build_star_fan()
    fan = star.fan
    monomials, shapes = stream.generate(seed, fan.top_cones, len(fan.rays), star.e_index)
    system = a4.assemble_system(fan, e_index=star.e_index)
    solution = a4.solve_system(system)
    top_cones = set(fan.top_cones)
    expected = []
    for mono, shape in zip(monomials, shapes):
        if shape == "outside":
            expected.append(0)
        elif shape == "squarefree":
            expected.append(int(frozenset(i for i, x in enumerate(mono) if x) in top_cones))
        else:
            expected.append(solution.values.get(mono))
    expected[-1] = EXPECTED["e_top"]
    counters = {
        "facets": len(star.facets),
        "rows": system.n_rows,
        "unknowns": system.n_unknowns,
        "blocks": len(system.multipliers),
        "e_top": solution.e_top,
    }
    problems = _mismatches(counters)
    if not solution.consistent:
        problems.append("the block system is inconsistent")
    for problem in problems:
        print(f"monomial_stream: {problem}", file=sys.stderr)
    return {
        "a4": a4,
        "star": star,
        "monomials": monomials,
        "shapes": shapes,
        "expected": expected,
        "counters": counters,
        "ok": not problems,
        "elapsed": perf_counter() - start,
    }


def _stream_pass(setup: dict, offset: int, latencies: array) -> int:
    """Evaluate the stream once on a fresh engine, starting at `offset`
    (E^10 stays last); append each call's time and return the failures."""
    body, expected = setup["monomials"][:-1], setup["expected"][:-1]
    monomials = body[offset:] + body[:offset] + setup["monomials"][-1:]
    expected = expected[offset:] + expected[:offset] + setup["expected"][-1:]
    star = setup["star"]
    evaluate = setup["a4"].IntersectionEngine(star.fan, star.e_index).evaluate
    values = []
    clock = perf_counter_ns
    for mono in monomials:
        start = clock()
        try:
            value = evaluate(mono)
        except Exception as exc:  # a failing call is counted, not fatal
            value = exc
        latencies.append(clock() - start)
        values.append(value)
    failed = 0
    for mono, value, want in zip(monomials, values, expected):
        if isinstance(value, Exception) or (want is not None and value != want):
            failed += 1
            if failed == 1:
                print(f"monomial_stream: {mono} gave {value!r}, expected {want}", file=sys.stderr)
    return failed


def stream_passes(job: dict, plain_path: Path) -> dict:
    """The timed part of monomial_stream, run by stream_child.py in a
    process of its own so that its peak RSS is that of the passes.

    `job` holds the seed, the seconds, the trace flag, the stream and the
    values expected from the set-up block solve. Passes repeat until the
    seconds are up; with the trace flag each is followed by a traced
    set-up round and pass. The time of each untraced call, in
    nanoseconds, goes to `plain_path`.
    """
    sys.path.insert(0, str(SRC))
    a4 = importlib.import_module("a4toric")
    setup = {
        "a4": a4,
        "star": a4.build_star_fan(),
        "monomials": [tuple(mono) for mono in job["monomials"]],
        "expected": job["expected"],
    }
    n = len(setup["monomials"])
    offsets = random.Random(job["seed"])
    plain = array("q")
    pairs, layers = [], []
    attempted = failed = passes = 0
    deadline = perf_counter() + job["seconds"]
    while True:
        start = perf_counter()
        first = len(plain)
        failed += _stream_pass(setup, offsets.randrange(n - 1), plain)
        attempted += n
        passes += 1
        if job["trace"]:
            tracer = Tracer()
            unit = _stream_setup(job["seed"], tracer)
            traced = array("q")
            unit_failed = _stream_pass(unit, offsets.randrange(n - 1), traced)
            failed += unit_failed if unit["ok"] else n
            attempted += n
            layers.append(layer_metrics(tracer.summary()))
            pairs.append((statistics.median(plain[first:]) / 1e9, statistics.median(traced) / 1e9))
        if _past(deadline, start):
            break
    with open(plain_path, "wb") as out:
        plain.tofile(out)
    return {"attempted": attempted, "failed": failed, "passes": passes, "pairs": pairs, "layers": layers}


def _run_stream(seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    setup_s, setup_ok = [], True
    for _ in range(SETUP_ROUNDS):
        setup = _stream_setup(seed)
        setup_s.append(setup["elapsed"])
        setup_ok &= setup["ok"]
    job = OUT / f"stream-{os.getpid()}"
    job_path, plain_path = job.with_suffix(".json"), job.with_suffix(".ns")
    job_path.write_text(
        json.dumps(
            {
                "seed": seed,
                "seconds": seconds,
                "trace": trace,
                "monomials": setup["monomials"],
                "expected": setup["expected"],
            }
        )
    )
    try:
        code, out, err, _, rss = _spawn([sys.executable, str(BENCH / "stream_child.py"), str(job)])
        sys.stderr.write(err.decode(errors="replace"))
        if code != 0:
            raise SetupError(f"the stream process exited with status {code}")
        done = json.loads(out)
        plain = array("q")
        plain.frombytes(plain_path.read_bytes())
    finally:
        job_path.unlink(missing_ok=True)
        plain_path.unlink(missing_ok=True)
    shapes = setup["shapes"]
    n = len(shapes)
    result = {
        "attempted": done["attempted"],
        "failed": done["failed"] if setup_ok else done["attempted"],
        "setup_s": statistics.median(setup_s),
        "latencies": [x / 1e9 for x in plain],
        "peak_rss_mb": rss,
        "counters": setup["counters"],
        "passes": done["passes"],
        "stream": {
            "length": n,
            "repeat_share": stream.repeat_share(setup["monomials"]),
            "checked_share": sum(v is not None for v in setup["expected"]) / n,
            "mix": {name: shapes.count(name) for name, _ in stream.MIX},
        },
    }
    if trace:
        result["layers"] = _median_layers(done["layers"])
        result["overhead_pairs"] = done["pairs"]
    return result


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples beyond it. A run
    with too few samples for that falls back to its median, the highest
    percentile with half the other samples beyond it; its record says
    that the tail does not apply."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, (n - 1) // 2)
    return ordered[n - 1 - beyond], 100 * (n - beyond) / n, beyond


def _overhead(pairs: list) -> tuple[float, dict]:
    """Tracing overhead from pairs of adjacent untraced and traced
    latencies: the median of traced minus untraced. When the quartiles of
    those differences straddle 0, the run cannot tell the overhead from
    noise: the metric then reads 0 and the record says it is unresolved."""
    diffs = [traced - plain for plain, traced in pairs]
    median = statistics.median(diffs)
    resolved = False
    if len(diffs) > 1:
        q1, _, q3 = statistics.quantiles(diffs, n=4)
        resolved = q1 > 0 or q3 < 0
    return (median if resolved else 0.0), {"median_s": median, "pairs": len(diffs), "resolved": resolved}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return the result object and the run record."""
    if not (SRC / "a4toric" / "__init__.py").is_file():
        raise SetupError(f"no a4toric sources under {SRC}")
    OUT.mkdir(exist_ok=True)
    if workload in COLD:
        result = _run_cold(workload, seconds, trace)
    else:
        result = _run_stream(seed, seconds, trace)
    latencies = result["latencies"]
    tail, percentile, beyond = _tail(latencies)
    if trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)} for name, value in result["layers"].items()}
        overhead, overhead_record = _overhead(result["overhead_pairs"])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "latency_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "latency_tail_s": {"value": tail, "unit": "s"},
            "throughput_ops_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": result["setup_s"], "unit": "s"},
        }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "samples": len(latencies),
        "tail_percentile": percentile,
        "tail_beyond": beyond,
        "tail_applies": beyond == TAIL_BEYOND,
        "failed_ratio": result["failed"] / result["attempted"],
        "counters": result["counters"],
    }
    for key in ("passes", "stream"):
        if key in result:
            record[key] = result[key]
    if trace:
        record["trace_overhead"] = overhead_record
    outcome = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    return outcome, record


def _layer_unit(name: str) -> str:
    return "s" if name.endswith(("_s", ".s")) else "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1, help="stream seed (default 1)")
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        outcome, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record))
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
