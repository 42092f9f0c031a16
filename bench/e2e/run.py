#!/usr/bin/env python3
"""Runs one bench_e2e workload and prints a one-line JSON verdict.

    python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Builds bench_e2e and musicd from source (CMake, package bench/e2e) into
$CARGO_TARGET_DIR/bench_e2e under the repository root (default
.bench_build/bench_e2e), runs the workload, and prints as the last line of
stdout one JSON object

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

whose metrics are the BENCHMARK.json end_to_end metrics (--trace 0) or its
per_layer metrics (--trace 1, the traced run).  Build logs go to stderr.
Exits non-zero, without the JSON line, when the build or the run fails; a
run whose correctness checks fail prints "correct": false and exits 1.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then brings bench_e2e (and musicd) up to date."""
    configured = any((build_dir / f).exists()
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", str(build_dir), "--target", "bench_e2e",
           "-j", str(os.cpu_count() or 2)]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "bench_e2e"
    t0 = time.monotonic()
    if not build(build_dir):
        log("build failed")
        return 1
    log(f"build ready in {time.monotonic() - t0:.1f}s")

    runs = build_dir / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    out = runs / f"{stem}.json"
    cmd = [str(build_dir / "bench_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--out", str(out)]
    if args.trace:
        cmd += ["--trace", str(runs / f"{stem}.trace.json")]
    if out.exists():
        out.unlink()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"bench_e2e did not finish within {RUN_TIMEOUT_S}s")
        return 1
    if not out.exists():
        log(f"bench_e2e exited {rc} without a result")
        return 1

    result = json.loads(out.read_text())["workloads"].get(args.workload, {})
    got = result.get("metrics", {})
    missing = [m["name"] for m in wanted if m["name"] not in got]
    if missing:
        log(f"missing metrics: {', '.join(missing)}")
    violations = got.get("check.violations", {}).get("value", 1)
    correct = rc == 0 and result.get("ran", False) and violations == 0 \
        and not missing
    metrics = {m["name"]: got[m["name"]] for m in wanted if m["name"] in got}
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(got.get("ops.attempted", {}).get("value", 0)),
        "failed": int(got.get("ops.failed", {}).get("value", 0)),
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
