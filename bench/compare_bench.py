#!/usr/bin/env python3
"""Compare two google-benchmark JSON files for wall-clock regressions.

Usage: compare_bench.py BASELINE.json CURRENT.json [--threshold 1.25]
                        [--warn-only]

Every benchmark present in both files is compared on real_time (normalised
to nanoseconds). Entries slower than threshold x baseline are regressions:
listed loudly, and the script exits 1 unless --warn-only. Benchmarks only
present on one side are reported informationally and never fail the gate.
"""
import argparse
import json
import sys

UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load(path):
    with open(path) as fh:
        doc = json.load(fh)
    out = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench["name"]
        ns = bench["real_time"] * UNIT_NS.get(bench.get("time_unit", "ns"), 1.0)
        out[name] = ns
    return out


def fmt_ns(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.2f} {unit}"
    return f"{ns:.0f} ns"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=1.25)
    ap.add_argument("--warn-only", action="store_true")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)
    shared = sorted(set(base) & set(cur))

    regressions = []
    if not shared:
        print("== no overlapping benchmarks between baseline and current; "
              "nothing to compare")
    else:
        print(f"== comparing {len(shared)} benchmarks "
              f"(threshold {args.threshold:.2f}x)")
        for name in shared:
            ratio = cur[name] / base[name] if base[name] > 0 else float("inf")
            marker = " <-- REGRESSION" if ratio > args.threshold else ""
            print(f"  {name}: {fmt_ns(base[name])} -> {fmt_ns(cur[name])} "
                  f"({ratio:.2f}x){marker}")
            if ratio > args.threshold:
                regressions.append((name, ratio))

        for name in sorted(set(base) - set(cur)):
            print(f"  {name}: in baseline only (not run)")
        for name in sorted(set(cur) - set(base)):
            print(f"  {name}: new benchmark (no baseline)")

    if regressions:
        print(f"\n!! {len(regressions)} benchmark(s) regressed beyond "
              f"{args.threshold:.2f}x:")
        for name, ratio in regressions:
            print(f"!!   {name} ({ratio:.2f}x)")
        if args.warn_only:
            print("!! BENCH_WARN_ONLY set: reporting only, not failing")
            return 0
        return 1
    print("== perf gate clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
