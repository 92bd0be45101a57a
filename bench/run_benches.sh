#!/usr/bin/env bash
# Perf gate runner: executes the micro-benchmark suite, writes a
# machine-readable BENCH_micro.json (ns/op plus allocs/op counters), and
# compares wall-clock numbers against the committed baseline
# bench/BENCH_baseline.json.
#
# A benchmark more than 25% slower than its baseline entry fails the gate
# (exit 1) — unless BENCH_WARN_ONLY=1, which downgrades regressions to
# warnings (the ctest `bench-smoke` registration uses that, so shared CI
# machines cannot flake the build; run this script directly before merging
# perf-sensitive changes).
#
# Environment:
#   BUILD_DIR      build tree holding bench/micro_benchmarks (default: build)
#   BENCH_OUT      output JSON path (default: <repo>/BENCH_micro.json)
#   BENCH_FILTER   --benchmark_filter regex (default: whole suite)
#   BENCH_WARN_ONLY=1  report regressions without failing
#
# To refresh the baseline after an intentional perf change:
#   bench/run_benches.sh && cp BENCH_micro.json bench/BENCH_baseline.json
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"
OUT="${BENCH_OUT:-$ROOT/BENCH_micro.json}"
BASELINE="$ROOT/bench/BENCH_baseline.json"
BIN="$BUILD/bench/micro_benchmarks"

if [ ! -x "$BIN" ]; then
  echo "error: $BIN not built (cmake --build $BUILD --target micro_benchmarks)" >&2
  exit 2
fi

args=(--benchmark_out="$OUT" --benchmark_out_format=json
      --benchmark_min_time=0.05)
if [ -n "${BENCH_FILTER:-}" ]; then
  args+=("--benchmark_filter=${BENCH_FILTER}")
fi

echo "== running micro benchmarks -> $OUT"
"$BIN" "${args[@]}"

if [ ! -f "$BASELINE" ]; then
  echo "== no committed baseline at $BASELINE; skipping comparison"
  echo "   (cp $OUT $BASELINE to create one)"
  exit 0
fi

warn_flag=()
if [ "${BENCH_WARN_ONLY:-0}" = "1" ]; then
  warn_flag=(--warn-only)
fi
python3 "$ROOT/bench/compare_bench.py" "$BASELINE" "$OUT" \
  --threshold 1.25 "${warn_flag[@]}"
