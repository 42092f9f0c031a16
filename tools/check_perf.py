#!/usr/bin/env python3
"""Compare a fresh BENCH_*.json against its committed baseline.

Usage: check_perf.py <baseline.json> <current.json> [--max-regression 0.30]

Fails (exit 1) on either of two kinds of drift from the committed baseline:

1. **Seeded outputs differ at all.**  The simulated benches (``fig5``,
   ``cluster``) are seeded and deterministic, so everything they report
   except host-clock timing must reproduce bit for bit: ``events_total`` and
   every ``metrics`` key that ends neither in ``wall_sec`` nor in
   ``events_per_sec`` -- the fig5 ``*_ms`` and ``*.events`` fields, the
   cluster ``critical_puts_per_sec``, ``p99_ms``, ``events``,
   ``scaling_1_to_16`` and ``monotonic_1_to_16``.  A key present on one
   side only is drift too.  A change that moves them must update the
   baseline in the same commit and say why.

2. **A throughput headline regresses by more than the allowed fraction.**
   Only rate-style headlines are compared -- absolute wall-clock varies with
   the host, while events/sec and speedup ratios are size-independent:

   * ``speedup_events_per_sec``     (bench_kernel: fast path vs seed kernel)
   * ``fastpath.events_per_sec``    (bench_kernel: absolute kernel rate)
   * ``events_per_sec_aggregate``   (figure benches via BenchReport)

   The seed-baseline kernel's own rate is deliberately NOT compared: the
   seed kernel getting slower is not a regression in the code under test.
   The default tolerance (30%) absorbs host-speed differences between the
   machine that produced the committed baseline and the CI runner; a
   genuine fast-path regression (e.g. losing the alloc-free path or the
   wheel) costs 2-4x and clears the threshold easily.

``bench_kernel`` and ``bench_pdes`` get only the rate check: their other
fields are host-clock measurements (ns/event, parity and speedup ratios).
"""

import argparse
import json
import sys

HEADLINE_KEYS = (
    "speedup_events_per_sec",
    "events_per_sec_aggregate",
)

# Benches whose non-timing outputs are seeded and must match exactly.
SEEDED_BENCHES = ("fig5", "cluster")
HOST_CLOCK_SUFFIXES = ("wall_sec", "events_per_sec")


def headline_metrics(doc):
    """Extract the comparable rate metrics from one BENCH_*.json document."""
    out = {}
    for key in HEADLINE_KEYS:
        if isinstance(doc.get(key), (int, float)):
            out[key] = float(doc[key])
    fast = doc.get("fastpath")
    if isinstance(fast, dict) and isinstance(
        fast.get("events_per_sec"), (int, float)
    ):
        out["fastpath.events_per_sec"] = float(fast["events_per_sec"])
    return out


def seeded_fields(doc):
    """The fields of a seeded bench's document that must match exactly."""
    out = {}
    if "events_total" in doc:
        out["events_total"] = doc["events_total"]
    for key, value in doc.get("metrics", {}).items():
        if not key.endswith(HOST_CLOCK_SUFFIXES):
            out[key] = value
    return out


def check_seeded(base, cur):
    """Prints one line per seeded field; returns True when all match."""
    base_s = seeded_fields(base)
    cur_s = seeded_fields(cur)
    ok = True
    for key in sorted(set(base_s) | set(cur_s)):
        if key not in cur_s:
            print(f"FAIL {key}: in baseline but missing from current")
            ok = False
        elif key not in base_s:
            print(f"FAIL {key}: in current but missing from baseline")
            ok = False
        elif cur_s[key] != base_s[key]:
            print(f"FAIL {key}: current {cur_s[key]!r} != "
                  f"baseline {base_s[key]!r} (seeded, must match exactly)")
            ok = False
    if ok:
        print(f"ok   {len(base_s)} seeded fields match exactly")
    return ok


def check_rates(base, cur, max_regression):
    """Prints one line per headline rate; returns True when none regressed."""
    base_m = headline_metrics(base)
    cur_m = headline_metrics(cur)
    ok = True
    for key, b in sorted(base_m.items()):
        c = cur_m.get(key)
        if c is None:
            print(f"FAIL {key}: present in baseline but missing from current")
            ok = False
            continue
        floor = b * (1.0 - max_regression)
        verdict = "ok  " if c >= floor else "FAIL"
        print(
            f"{verdict} {key}: current {c:.4g} vs baseline {b:.4g} "
            f"(floor {floor:.4g})"
        )
        if c < floor:
            ok = False
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="allowed fractional drop vs baseline (default 0.30 = 30%%)",
    )
    args = ap.parse_args()

    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.current) as f:
        cur = json.load(f)

    if not headline_metrics(base):
        print(f"error: no headline metrics in baseline {args.baseline}")
        return 2

    seeded_ok = True
    if base.get("bench") in SEEDED_BENCHES:
        seeded_ok = check_seeded(base, cur)
    rates_ok = check_rates(base, cur, args.max_regression)

    if not seeded_ok:
        print(f"seeded outputs drifted from {args.baseline}")
    if not rates_ok:
        print(
            f"perf regression > {args.max_regression:.0%} vs "
            f"{args.baseline}"
        )
    if not (seeded_ok and rates_ok):
        return 1
    print(f"perf ok within {args.max_regression:.0%} of {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
