#!/usr/bin/env bash
# refresh_bench.sh — regenerate the committed bench snapshots in-place.
#
#   tools/refresh_bench.sh <build-dir> [seconds-per-cell]
#
# Runs the two always-available self-timed benches and rewrites
#   bench/BENCH_macro_mvm.json        (one JSON line per kernel cell)
#   bench/BENCH_serving.json          (one JSON line per serving config)
#   bench/BENCH_fault_resilience.json (one JSON line per resilience config)
# keeping only the JSON lines (stdout commentary is dropped), so the
# committed snapshots stay machine-diffable. Wired as the `bench` CMake
# target: `cmake --build build --target bench` refreshes all files.
#
# The fault-resilience section stands up a real yoloc_serve (ephemeral
# port, plans written by serve_from_plan --save) and drives it with
# yoloc_loadgen, one closed-loop row per resilience config. Live HTTP
# throughput and latency are measured by perfbench/run.py instead.
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

for bin in bench_macro_mvm bench_serving_throughput \
           yoloc_serve yoloc_loadgen serve_from_plan; do
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

# ------------------------------------------------------- live HTTP server
# Drives a live yoloc_serve over loopback. Durations scale with the
# per-cell budget (40x, floor 1 s): a default refresh spends ~1 s per
# scenario here.
http_seconds=$(awk -v s="$seconds" 'BEGIN { d = s * 40; if (d < 1) d = 1; printf "%.1f", d }')
workdir=$(mktemp -d)
server_pid=""
cleanup() {
  if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
    kill "$server_pid" 2>/dev/null || true
    wait "$server_pid" 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

plan="$workdir/bench.yolocplan"
start_server() {  # start_server <extra flags...>; sets server_pid, port_file
  port_file="$workdir/port"
  rm -f "$port_file"
  "$build/yoloc_serve" --plan "$plan" --port 0 \
      --port-file "$port_file" --workers 2 "$@" >/dev/null 2>&1 &
  server_pid=$!
  for _ in $(seq 1 100); do
    [ -s "$port_file" ] && return 0
    kill -0 "$server_pid" 2>/dev/null || {
      echo "refresh_bench: yoloc_serve died during startup" >&2; exit 1; }
    sleep 0.05
  done
  echo "refresh_bench: yoloc_serve never published its port" >&2
  exit 1
}

stop_server() {
  kill -TERM "$server_pid" 2>/dev/null || true
  wait "$server_pid" 2>/dev/null || true
  server_pid=""
}

"$build/serve_from_plan" --save "$workdir/bench.yolocplan" >/dev/null

# ------------------------------------------------------ fault resilience
# One closed-loop probe against four resilience configs of the SAME
# model. The signal is relational: faults_off must sit within noise of
# no_fault_config (the dormant fault model is one flag check per MVM —
# the derived overhead row makes the ratio explicit), breaker_tripped
# serves everything on the 1 surviving worker (throughput holds when the
# host is CPU-bound below the worker count, but queue-wait latency
# rises), and degraded should show 503s on the shed lanes while
# interactive rides through error-free.
echo "refresh_bench: fault resilience ($http_seconds s per scenario)" >&2
: > "$out/BENCH_fault_resilience.json"
tag_fault_row() {  # tag_fault_row <scenario> <row-file>
  sed "s/^{\"bench\":\"http_serving\",/{\"bench\":\"fault_resilience\",\"scenario\":\"$1\",/" \
      "$2" >> "$out/BENCH_fault_resilience.json"
}

"$build/serve_from_plan" --save "$workdir/faultoff.yolocplan" \
    --fault-stuck 0.02 --fault-flip 0.0005 --fault-inactive \
    --canaries 4 >/dev/null

# Baseline: no fault config in the plan at all (v1 artifact).
plan="$workdir/bench.yolocplan"
start_server --max-queue-depth 256
"$build/yoloc_loadgen" --port-file "$port_file" --mode closed \
    --concurrency 4 --duration-s "$http_seconds" --priority-mix 2,1,1 \
    | grep '^{' > "$workdir/no_fault.json"
tag_fault_row no_fault_config "$workdir/no_fault.json"
stop_server

# Dormant faults + recorded canaries: the fault-off hot path.
plan="$workdir/faultoff.yolocplan"
start_server --max-queue-depth 256
"$build/yoloc_loadgen" --port-file "$port_file" --mode closed \
    --concurrency 4 --duration-s "$http_seconds" --priority-mix 2,1,1 \
    | grep '^{' > "$workdir/faults_off.json"
tag_fault_row faults_off "$workdir/faults_off.json"
stop_server

awk -v base="$(sed 's/.*"images_per_s":\([0-9.]*\).*/\1/' "$workdir/no_fault.json")" \
    -v off="$(sed 's/.*"images_per_s":\([0-9.]*\).*/\1/' "$workdir/faults_off.json")" \
    'BEGIN { printf "{\"bench\":\"fault_resilience\",\"scenario\":\"faults_off_overhead\",\"baseline_images_per_s\":%.2f,\"faults_off_images_per_s\":%.2f,\"overhead_pct\":%.2f}\n", base, off, (base - off) / base * 100 }' \
    >> "$out/BENCH_fault_resilience.json"

# Breaker force-tripped on 1 of 2 workers: ~half capacity, zero errors.
start_server --max-queue-depth 256 --trip-workers 1
"$build/yoloc_loadgen" --port-file "$port_file" --mode closed \
    --concurrency 4 --duration-s "$http_seconds" --priority-mix 2,1,1 \
    | grep '^{' > "$workdir/tripped.json"
tag_fault_row breaker_tripped "$workdir/tripped.json"
stop_server

# Degraded with shedding: 1/2 healthy is below both thresholds, so the
# batch and best-effort lanes take 503s while interactive still serves.
start_server --max-queue-depth 256 --trip-workers 1 \
    --shed-best-effort-below 0.75 --shed-batch-below 0.6
"$build/yoloc_loadgen" --port-file "$port_file" --mode closed \
    --concurrency 4 --duration-s "$http_seconds" --priority-mix 2,1,1 \
    | grep '^{' > "$workdir/degraded.json"
tag_fault_row degraded_shedding "$workdir/degraded.json"
stop_server

echo "refresh_bench: wrote $(wc -l < "$out/BENCH_macro_mvm.json") macro rows," \
     "$(wc -l < "$out/BENCH_serving.json") serving rows," \
     "$(wc -l < "$out/BENCH_fault_resilience.json") resilience rows into $out" >&2
