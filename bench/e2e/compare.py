#!/usr/bin/env python3
"""Compares bench_e2e runs of a parent commit and a change.

    compare.py PARENT_RUNS... -- CHANGE_RUNS... [--benchmark-json FILE]

Each run is a result file written by bench_e2e --out, made with the same
seed and --seconds on both sides.  List the runs in the order they ran: the
i-th parent run and the i-th change run form a pair (alternate which side
runs first).  For every workload and every end-to-end metric of
BENCHMARK.json, with its direction and bound, the verdict is

  gain        the change wins at least 9 of every 10 pairs (ties count for
              neither), the medians differ by more than the parent's
              interquartile range, and no more ops failed than at the parent;
  REGRESSED   the change's median is worse than the parent's by more than
              the bound (a share of the parent's median);
  unresolved  the parent's runs spread wider than the bound (IQR / median),
              unless every change run beats every parent run;
  ok          otherwise.

Prints one row per workload (each cell: change median vs parent median, and
the verdict when it is not ok) and exits 1 if any metric regressed.
"""

import json
import statistics
import sys
from pathlib import Path


def load(paths):
    runs = []
    for p in paths:
        doc = json.loads(Path(p).read_text())
        runs.append({wl: {k: v["value"] for k, v in w["metrics"].items()}
                     for wl, w in doc["workloads"].items()})
    return runs


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(metric, parent, change, more_failures):
    """(cell text, verdict) for one metric on one workload."""
    lower = metric["better"] == "lower"
    def better(a, b):  # a beats b
        return a < b if lower else a > b
    pm, cm = statistics.median(parent), statistics.median(change)
    iqr = spread(parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    diff = (cm - pm) / pm if pm else 0.0
    cell = f"{diff:+.1%}"
    worse_by = diff if lower else -diff
    if pairs and wins >= 0.9 * len(pairs) and better(cm, pm) and \
            abs(cm - pm) > iqr and not more_failures:
        return cell + " gain", "gain"
    if worse_by > metric["bound"]:
        return cell + " REGRESSED", "regressed"
    if pm and iqr / abs(pm) > metric["bound"] and \
            not all(better(c, p) for c in change for p in parent):
        return cell + " unresolved", "unresolved"
    return cell, "ok"


def main():
    argv = sys.argv[1:]
    bench_json = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    if "--benchmark-json" in argv:
        i = argv.index("--benchmark-json")
        bench_json = Path(argv[i + 1])
        del argv[i:i + 2]
    if "--" not in argv or argv.index("--") in (0, len(argv) - 1):
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    parent, change = load(argv[:cut]), load(argv[cut + 1:])
    metrics = json.loads(bench_json.read_text())["end_to_end"]

    workloads = [w for w in parent[0] if all(w in r for r in parent + change)]
    width = max([16] + [len(m["name"]) for m in metrics])
    print(f"{len(parent)} parent runs, {len(change)} change runs")
    print(f"{'workload':16s} " + " ".join(f"{m['name']:>{width}s}"
                                          for m in metrics))
    regressed = False
    for wl in workloads:
        failed = [statistics.mean(r[wl].get("ops.failed", 0) for r in side)
                  for side in (parent, change)]
        cells = []
        for m in metrics:
            p = [r[wl][m["name"]] for r in parent if m["name"] in r[wl]]
            c = [r[wl][m["name"]] for r in change if m["name"] in r[wl]]
            if not p or not c:
                cells.append("missing")
                continue
            text, v = verdict(m, p, c, failed[1] > failed[0])
            regressed = regressed or v == "regressed"
            cells.append(text)
        print(f"{wl:16s} " + " ".join(f"{c:>{width}s}" for c in cells))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
