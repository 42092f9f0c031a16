#!/usr/bin/env python3
"""Self-test of tools/check_perf.py against the committed baselines.

    python3 tests/tools/check_perf_test.py

Each committed baseline must pass against itself.  A copy of the fig5 or
cluster baseline with one seeded field nudged by the smallest representable
step, or with one seeded field missing, must fail (exit 1), while a
wall-clock rate inside the 30% tolerance still passes and one below it
fails.
"""

import copy
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CHECK = ROOT / "tools" / "check_perf.py"
BASELINES = ROOT / "bench" / "baseline"


def run_check(baseline, current):
    """Exit code of check_perf.py on a baseline file and a current doc."""
    with tempfile.NamedTemporaryFile("w", suffix=".json") as f:
        json.dump(current, f)
        f.flush()
        proc = subprocess.run(
            [sys.executable, str(CHECK), str(baseline), f.name],
            capture_output=True, text=True)
    return proc.returncode, proc.stdout


def expect(code, want, what, out):
    if code != want:
        print(f"FAIL: {what}: exit {code}, want {want}\n{out}")
        return False
    print(f"ok: {what}")
    return True


def main():
    ok = True
    for path in sorted(BASELINES.glob("BENCH_*.json")):
        doc = json.loads(path.read_text())
        code, out = run_check(path, doc)
        ok &= expect(code, 0, f"{path.name} against itself", out)

    for name, field in (("BENCH_fig5.json", "fig5a.lUsEu.music_ms"),
                        ("BENCH_fig5.json", "fig5a.11.mscp.events"),
                        ("BENCH_cluster.json", "cluster.sh16.p99_ms"),
                        ("BENCH_cluster.json",
                         "cluster.sh4.critical_puts_per_sec")):
        path = BASELINES / name
        base = json.loads(path.read_text())
        nudged = copy.deepcopy(base)
        v = nudged["metrics"][field]
        nudged["metrics"][field] = (math.nextafter(v, math.inf)
                                    if isinstance(v, float) else v + 1)
        code, out = run_check(path, nudged)
        ok &= expect(code, 1, f"{name}: {field} nudged", out)
        missing = copy.deepcopy(base)
        del missing["metrics"][field]
        code, out = run_check(path, missing)
        ok &= expect(code, 1, f"{name}: {field} missing", out)

    path = BASELINES / "BENCH_cluster.json"
    base = json.loads(path.read_text())
    drifted = copy.deepcopy(base)
    drifted["events_total"] += 1
    code, out = run_check(path, drifted)
    ok &= expect(code, 1, "BENCH_cluster.json: events_total nudged", out)

    # Host-clock fields stay tolerant: timing moves, seeded fields do not.
    slower = copy.deepcopy(base)
    slower["events_per_sec_aggregate"] *= 0.8
    slower["wall_sec_total"] *= 1.25
    for key in slower["metrics"]:
        if key.endswith(("wall_sec", "events_per_sec")):
            slower["metrics"][key] *= 0.8
    code, out = run_check(path, slower)
    ok &= expect(code, 0, "BENCH_cluster.json: 20% slower host", out)
    slower["events_per_sec_aggregate"] = base["events_per_sec_aggregate"] * 0.5
    code, out = run_check(path, slower)
    ok &= expect(code, 1, "BENCH_cluster.json: rate halved", out)

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
