#!/usr/bin/env bash
# refresh_bench.sh — regenerate the committed bench snapshots in-place.
#
#   tools/refresh_bench.sh <build-dir> [seconds-per-cell]
#
# Runs the two always-available self-timed benches and rewrites
#   bench/BENCH_macro_mvm.json        (one JSON line per kernel cell)
#   bench/BENCH_serving.json          (one JSON line per serving config)
# keeping only the JSON lines (stdout commentary is dropped), so the
# committed snapshots stay machine-diffable. Wired as the `bench` CMake
# target: `cmake --build build --target bench` refreshes both files.
# Live HTTP throughput and latency are measured by perfbench/run.py.
#
# Snapshots are a perf *trajectory*, not a CI gate: absolute numbers move
# with the host, but the within-file ratios (packed-vs-legacy speedup,
# worker scaling) are the signal. Each bench self-checks bit-identity
# before timing, so a refresh also re-verifies the packed kernel.

set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: refresh_bench.sh <build-dir> [seconds-per-cell]" >&2
  exit 2
fi
build="$1"
seconds="${2:-0.05}"
repo="$(cd "$(dirname "$0")/.." && pwd)"
out="$repo/bench"
mkdir -p "$out"

for bin in bench_macro_mvm bench_serving_throughput; do
  if [ ! -x "$build/$bin" ]; then
    echo "refresh_bench: '$build/$bin' not built" >&2
    exit 2
  fi
done

echo "refresh_bench: bench_macro_mvm --seconds=$seconds" >&2
"$build/bench_macro_mvm" --seconds="$seconds" \
  | grep '^{' > "$out/BENCH_macro_mvm.json"

echo "refresh_bench: bench_serving_throughput --seconds=$seconds" >&2
"$build/bench_serving_throughput" --seconds="$seconds" \
  | grep '^{' > "$out/BENCH_serving.json"

echo "refresh_bench: wrote $(wc -l < "$out/BENCH_macro_mvm.json") macro rows" \
     "and $(wc -l < "$out/BENCH_serving.json") serving rows into $out" >&2
