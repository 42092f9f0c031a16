#!/usr/bin/env python3
"""Smoke test of one bench_e2e workload (ctest label "bench").

    smoke_test.py --bench BENCH_E2E --workload W --benchmark-json FILE
                  --out-dir DIR

Runs the workload at --smoke scale twice with the same seed and once traced,
then asserts that every end-to-end and per-layer metric BENCHMARK.json names
is reported, that no op failed and no correctness check fired, that the trace
is a loadable Chrome trace, and, on the simulated workloads, that the
sim-clock metrics and sim.events_per_op of the two untraced runs are
identical.  The tcp workload picks free ports, so parallel ctest is safe.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

SEED = 7
# Metrics measured on the simulated clock (or counted), so a seed fixes them.
SIM_CLOCK = [
    "section_p50_ms", "section_p99_ms", "read_p50_ms", "read_p99_ms",
    "sections_per_s", "max_rate_per_s", "sim.events_per_op",
    "client.create_p50_ms", "client.acquire_p50_ms", "client.get_p50_ms",
    "client.put_p50_ms", "client.release_p50_ms", "client.acquire_p99_ms",
    "client.read_p50_ms", "core.polls_per_section", "core.grant_ratio",
]


def run(bench, workload, out, trace=None):
    cmd = [bench, "--workload", workload, "--seed", str(SEED), "--smoke",
           "--out", str(out)]
    if trace:
        cmd += ["--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"FAIL: {' '.join(cmd)} exited {p.returncode}")
    return json.loads(out.read_text())["workloads"][workload]["metrics"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--benchmark-json", required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    spec = json.loads(Path(args.benchmark_json).read_text())
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = out / args.workload
    a = run(args.bench, args.workload, Path(f"{stem}.a.json"))
    b = run(args.bench, args.workload, Path(f"{stem}.b.json"))
    trace = Path(f"{stem}.trace.json")
    t = run(args.bench, args.workload, Path(f"{stem}.t.json"), trace)

    problems = []
    for m in spec["end_to_end"]:
        if m["name"] not in a:
            problems.append(f"end-to-end metric {m['name']} missing")
        elif a[m["name"]]["unit"] != m["unit"]:
            problems.append(f"{m['name']} unit {a[m['name']]['unit']} "
                            f"!= {m['unit']}")
    for m in spec["per_layer"]:
        if m["name"] not in t:
            problems.append(f"per-layer metric {m['name']} missing")
        elif t[m["name"]]["unit"] != m["unit"]:
            problems.append(f"{m['name']} unit {t[m['name']]['unit']} "
                            f"!= {m['unit']}")
    for name, res in (("first", a), ("second", b), ("traced", t)):
        for key in ("failed_frac", "check.violations"):
            if res.get(key, {}).get("value") != 0:
                problems.append(f"{name} run: {key} = "
                                f"{res.get(key, {}).get('value')}")
    events = json.loads(trace.read_text())["traceEvents"]
    if not any(e.get("ph") == "X" for e in events):
        problems.append("trace holds no spans")
    if args.workload != "tcp-loopback":
        for key in SIM_CLOCK:
            if a[key]["value"] != b[key]["value"]:
                problems.append(f"{key} differs between same-seed runs: "
                                f"{a[key]['value']} vs {b[key]['value']}")
    for p in problems:
        print(f"FAIL: {p}")
    if not problems:
        print(f"ok: {args.workload} smoke ({len(a)} metrics, "
              f"{len(events)} trace events)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
