"""Run the benchmark over several seeds and write a trajectory entry.

Usage:
    python3 bench/record.py --out bench/trajectory/BENCH_<n>.json
    python3 bench/record.py --first-seed 11 --baseline bench/trajectory/BENCH_<n>.json \
        --out bench/trajectory/BENCH_<n>_repeat.json

For each workload in BENCHMARK.json it makes RUNS untraced runs, one
after another with seeds --first-seed, --first-seed + 1, ..., each of
BENCHMARK.json's run_seconds, then one traced run with the first seed.
It writes the median, quartiles and relative spread of every end-to-end
metric, the per-layer metrics of the traced run, the machine details and
/proc/loadavg at start and end to --out, and a Markdown table beside it
(same name, .md). With --baseline it also compares each median with the
baseline entry's. It exits 1 if a run failed, a spread other than
setup_s's exceeds its metric's bound, or a median (setup_s's too) is
worse than the baseline's by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10
# Set-up is one stretch of a few seconds at the start of each run, so the
# host's speed drift between minutes shows in it undamped (a 27 % spread
# on the stream in BENCH_1). Its spread is recorded but not gated; its
# median is gated against the baseline, as for every metric.
UNGATED_SPREAD = {"setup_s"}

# (measure, workload, metric, unit): the ROADMAP's baseline rows, read
# from the runs that measure the same thing. The stream's set-up makes
# exactly one D4 fan build, assembly and block solve.
REANCHOR_ROWS = (
    ("cold `verify --json --reproducible` (median)", "verify_cold", "latency_p50_s", "s"),
    ("cold `fan report --format json --reproducible` (median)", "fan_cold", "latency_p50_s", "s"),
    ("import", "fan_cold", "import.s", "s"),
    ("`build_star_fan`", "fan_cold", "d4fan.build_star_fan.s", "s"),
    ("`compute_stabilizer`", "fan_cold", "d4fan.compute_stabilizer.s", "s"),
    ("assemble", "monomial_stream", "intersection.assemble_system.s", "s"),
    ("`solve_system`", "monomial_stream", "intersection.solve_system.s", "s"),
    ("`evaluate`, all calls of a cold `verify`", "verify_cold", "intersection.evaluate.s", "s"),
    ("`unimodular_inverse`, all calls of a cold `verify`", "verify_cold", "exact.unimodular_inverse.s", "s"),
    ("`run_all` self time, cold", "verify_cold", "verify.run_all.self_s", "s"),
    ("one stream `evaluate` call (median)", "monomial_stream", "latency_p50_s", "s"),
)


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def _run(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict, int]:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} printed no result: {proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1]), proc.returncode


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def _fmt(value: float, unit: str) -> str:
    if unit == "s":
        if abs(value) < 1e-3:
            return f"{value * 1e6:.3g} µs"
        return f"{value * 1e3:.3g} ms" if abs(value) < 1 else f"{value:.3g} s"
    if unit == "count":
        return f"{value:.0f}"
    return f"{value:.4g} {unit}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--baseline", type=Path, help="an earlier entry to compare the medians with")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    entry = {
        "commit": _commit(),
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "loadavg_start": _loadavg(),
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    ok = True
    for workload in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            record, outcome, code = _run(spec, workload, seed, 0)
            ok &= code == 0 and outcome["correct"]
            runs.append({"seed": seed, "record": record, "outcome": outcome})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in outcome["metrics"].items()), file=sys.stderr)
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["outcome"]["metrics"][metric["name"]]["value"] for r in runs]
            stats = _quartiles(values) if len(values) > 1 else {"median": values[0]}
            stats["within_bound"] = stats.get("spread") is None or stats["spread"] <= metric["bound"]
            if metric["name"] not in UNGATED_SPREAD:
                ok &= stats["within_bound"]
            summary[metric["name"]] = stats
        record, outcome, code = _run(spec, workload, args.first_seed, 1)
        ok &= code == 0 and outcome["correct"]
        entry["workloads"][workload] = {
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in outcome["metrics"].items()},
            "traced_record": record,
            "runs": runs,
        }
    entry["loadavg_end"] = _loadavg()
    if args.baseline:
        entry["against"] = _against(spec, entry, args.baseline)
        ok &= all(c["within_bound"] for w in entry["against"]["workloads"].values() for c in w.values())
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(entry, indent=1) + "\n")
    args.out.with_suffix(".md").write_text(_markdown(spec, entry))
    return 0 if ok else 1


def _against(spec: dict, entry: dict, baseline_path: Path) -> dict:
    """Each end-to-end median against the baseline's: `worse` is the share
    by which it got worse (negative when it got better)."""
    baseline = json.loads(baseline_path.read_text())
    workloads = {}
    for workload, data in entry["workloads"].items():
        rows = {}
        for metric in spec["end_to_end"]:
            old = baseline["workloads"][workload]["end_to_end"][metric["name"]]["median"]
            new = data["end_to_end"][metric["name"]]["median"]
            worse = (new - old) / old if metric["better"] == "lower" else (old - new) / old
            rows[metric["name"]] = {
                "baseline": old,
                "median": new,
                "worse": worse,
                "within_bound": worse <= metric["bound"],
            }
        workloads[workload] = rows
    return {"baseline": baseline_path.name, "commit": baseline["commit"], "workloads": workloads}


def _markdown(spec: dict, entry: dict) -> str:
    machine = entry["machine"]
    lines = [
        f"# Benchmark at {entry['commit'][:7]}",
        "",
        f"{machine['nproc']} cores ({machine['cpu_model']}), CPython {machine['python']}; "
        f"runs of {entry['run_seconds']} s; loadavg {entry['loadavg_start']} at start, "
        f"{entry['loadavg_end']} at end.",
        "",
        "## End to end (median of the runs, quartile spread in brackets)",
        "",
        "| Workload | " + " | ".join(m["name"] for m in spec["end_to_end"]) + " | failed_ratio |",
        "| --- |" + " --- |" * (len(spec["end_to_end"]) + 1),
    ]
    for workload, data in entry["workloads"].items():
        cells = []
        for metric in spec["end_to_end"]:
            stats = data["end_to_end"][metric["name"]]
            spread = stats.get("spread")
            cell = _fmt(stats["median"], metric["unit"]) + (f" ({spread:.1%})" if spread is not None else "")
            if metric["name"] == "latency_tail_s" and not all(r["record"]["tail_applies"] for r in data["runs"]):
                cell += ", n/a: median fallback"
            cells.append(cell)
        failed = sum(r["outcome"]["failed"] for r in data["runs"])
        attempted = sum(r["outcome"]["attempted"] for r in data["runs"])
        cells.append(f"{failed}/{attempted}")
        lines.append(f"| {workload} | " + " | ".join(cells) + " |")
    if "against" in entry:
        against = entry["against"]
        lines += [
            "",
            f"## Against {against['baseline']} ({against['commit'][:7]}): "
            "share by which each median got worse, bound in brackets",
            "",
            "| Workload | " + " | ".join(m["name"] for m in spec["end_to_end"]) + " |",
            "| --- |" + " --- |" * len(spec["end_to_end"]),
        ]
        for workload, rows in against["workloads"].items():
            cells = [
                f"{rows[m['name']]['worse']:+.1%} ({m['bound']:.0%})"
                + ("" if rows[m["name"]]["within_bound"] else " EXCEEDED")
                for m in spec["end_to_end"]
            ]
            lines.append(f"| {workload} | " + " | ".join(cells) + " |")
    lines += [
        "",
        "## In the layout of the ROADMAP's re-anchor rows",
        "",
        "| Measure | Time | Source |",
        "| --- | --- | --- |",
    ]
    for measure, workload, metric, unit in REANCHOR_ROWS:
        data = entry["workloads"].get(workload)
        if data is None:
            continue
        value = data["end_to_end"][metric]["median"] if metric in data["end_to_end"] else data["per_layer"].get(metric)
        if value is not None:
            lines.append(f"| {measure} | {_fmt(value, unit)} | `{metric}` on {workload} |")
    lines += ["", "## Per layer (one traced run per workload, median per operation)", ""]
    lines += ["| Measure | " + " | ".join(entry["workloads"]) + " |", "| --- |" + " --- |" * len(entry["workloads"])]
    for metric in spec["per_layer"]:
        cells = []
        for data in entry["workloads"].values():
            value = data["per_layer"].get(metric["name"])
            cells.append("" if value is None else _fmt(value, metric["unit"]))
        lines.append(f"| `{metric['name']}` | " + " | ".join(cells) + " |")
    lines.append("")
    for workload, data in entry["workloads"].items():
        overhead = data["traced_record"]["trace_overhead"]
        lines.append(
            f"- `trace.overhead_s` on {workload}: median difference {_fmt(overhead['median_s'], 's')} "
            f"over {overhead['pairs']} adjacent pairs, {'resolved' if overhead['resolved'] else 'unresolved (reads 0)'}."
        )
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
