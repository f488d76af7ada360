#!/usr/bin/env bash
# ci_check.sh — the full local CI gate, one command, one summary.
#
#   tools/ci_check.sh <source-dir> [build-dir]
#
# Five gates, in order:
#   1. tier-1   — the plain test suite in <build-dir> (configured +
#                 built here if the directory is missing);
#   2. tsan     — a ThreadSanitizer build (<build-dir>-tsan) running the
#                 concurrency-heavy labels: serve | trace | fault;
#   3. asan     — an AddressSanitizer + UBSan build (<build-dir>-asan;
#                 any UBSan report aborts the test) running
#                 the wire/format labels http | serde, and macro (the
#                 packed kernels, the uint8 im2col gather and the int8
#                 GEMM write through raw pointers into the session's
#                 MvmScratch buffers and the caller's outputs);
#   4. native   — a -march=native build (<build-dir>-native) running the
#                 packed-vs-oracle and quantized-conv bit-identity
#                 labels: macro | fault,
#                 so the contract holds under the ISA deployments are
#                 told to build with (FMA and wider vectors included);
#   5. perfbench — the serving benchmark (perfbench/run.py, which builds
#                 its own trees under .bench_build/) on analog_closed and
#                 rebranch_batch, 3 s each with tracing on: the gate
#                 fails unless the benchmark builds against this tree and
#                 its last line (the JSON result) reads "correct": true.
#
# The exact-cost tile's GEMM has two bodies on x86-64 GCC/Clang: the
# plain gemm_s8u8_accumulate and an AVX2 vpmaddwd variant, both built in
# every one of these trees (-march=native included) and picked at
# runtime. test_int_gemm (macro label) runs each against the other, so
# the asan and native gates cover the plain body even on an AVX2 host,
# where serving never selects it. The noisy read chain likewise has a
# plain body and two vector bodies (AVX2 and AVX-512F, one source,
# macro/noisy_chain.inc, compiled at both widths) in every tree;
# test_packed_weights runs each one the CPU supports against scalar
# keyed reads, and checks that the dispatch picks the widest (a host
# without AVX-512F builds that body but cannot run it). The POPCNT pair
# is different: a native build on a POPCNT host compiles only its one
# (hardware) body.
#
# Every gate runs even after an earlier one fails, so a single pass
# reports ALL the breakage; the exit code is non-zero when any gate
# failed. Wired as the `check` CMake target:
#   cmake --build build --target check
#
# Sanitizer and native builds are configured with the repo's own
# YOLOC_TSAN / YOLOC_ASAN / YOLOC_NATIVE options (separate build trees;
# the sanitizers are mutually exclusive) and are incremental — rerunning the gate only rebuilds what
# changed. Everything runs from main(), called on the last line, so bash
# has parsed the whole file first: editing it mid-run cannot break a run.

set -uo pipefail

# run_gate NAME BUILD_DIR CMAKE_EXTRA_ARGS CTEST_ARGS...
run_gate() {
  local name="$1" dir="$2" extra="$3"
  shift 3
  local log
  log="$(mktemp -t yoloc_ci_${name}.XXXXXX)"
  echo "== gate: ${name} (${dir}) =="
  local ok=1
  # shellcheck disable=SC2086  # $extra is deliberately word-split
  if ! cmake -B "$dir" -S "$src" $extra >"$log" 2>&1; then
    ok=0
  elif ! cmake --build "$dir" -j "$jobs" >>"$log" 2>&1; then
    ok=0
  elif ! ctest --test-dir "$dir" --output-on-failure -j "$jobs" "$@" \
       >>"$log" 2>&1; then
    ok=0
  fi
  if [ "$ok" = 1 ]; then
    tail -n 3 "$log" | sed 's/^/  /'
    gate_results+=("PASS")
  else
    echo "-- ${name} FAILED; log tail:"
    tail -n 40 "$log" | sed 's/^/  /'
    echo "-- full log: $log"
    gate_results+=("FAIL")
  fi
  gate_names+=("$name")
  [ "$ok" = 1 ] && rm -f "$log"
  return 0
}

# run_perfbench WORKLOAD: one short perfbench run; PASS only when it
# exits 0 and its last stdout line reports "correct": true.
run_perfbench() {
  local workload="$1" log out
  log="$(mktemp -t yoloc_ci_perfbench.XXXXXX)"
  out="$(mktemp -t yoloc_ci_perfbench_out.XXXXXX)"
  echo "== gate: perfbench ${workload} =="
  local ok=1
  if ! (cd "$src" && python3 perfbench/run.py --workload "$workload" \
          --seed 1 --seconds 3 --trace 1) >"$out" 2>"$log"; then
    ok=0
  elif ! tail -n 1 "$out" | grep -Eq '"correct": ?true'; then
    ok=0
  fi
  if [ "$ok" = 1 ]; then
    echo "  correct: true"
    gate_results+=("PASS")
  else
    echo "-- perfbench ${workload} FAILED; result and log tails:"
    tail -n 1 "$out" | cut -c1-400 | sed 's/^/  /'
    tail -n 20 "$log" | sed 's/^/  /'
    echo "-- full log: $log"
    gate_results+=("FAIL")
  fi
  gate_names+=("perfbench:${workload}")
  [ "$ok" = 1 ] && rm -f "$log"
  rm -f "$out"
  return 0
}

main() {
  if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: ci_check.sh <source-dir> [build-dir]" >&2
    exit 2
  fi
  src="$1"  # src, build, jobs and the gate_* arrays are read by the helpers
  build="${2:-$src/build}"
  jobs="$(nproc 2>/dev/null || echo 4)"
  gate_names=()
  gate_results=()

  run_gate tier-1 "$build" ""
  run_gate tsan "${build}-tsan" "-DYOLOC_TSAN=ON" -L "serve|trace|fault"
  run_gate asan "${build}-asan" "-DYOLOC_ASAN=ON" -L "http|serde|macro"
  run_gate native "${build}-native" "-DYOLOC_NATIVE=ON" -L "macro|fault"
  run_perfbench analog_closed
  run_perfbench rebranch_batch

  echo
  echo "== ci_check summary =="
  local status=0 i
  for i in "${!gate_names[@]}"; do
    printf '  %-24s %s\n' "${gate_names[$i]}" "${gate_results[$i]}"
    [ "${gate_results[$i]}" = "PASS" ] || status=1
  done
  exit "$status"
}

main "$@"
