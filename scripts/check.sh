#!/usr/bin/env bash
# One-command verification: the tier-1 build + test gate, then the same
# suite under ASan+UBSan (STPX_SANITIZE=ON) and the wire-layer, durable-mux,
# trace, and fabric suites under TSan (STPX_SANITIZE_THREAD=ON), each in a
# separate build tree.
#
#   scripts/check.sh                  # every stage
#   scripts/check.sh --fast           # everything except the sanitizer stages
#   scripts/check.sh --stage fabric   # one stage (tier-1 build implied)
#   scripts/check.sh --list           # stage names
#
# Every ctest invocation runs with a per-test timeout so a livelocked
# schedule fails the stage instead of hanging it.  The bench-smoke stages
# also leave BENCH_smoke.json, BENCH_r2_recovery.json,
# BENCH_r3_stabilization.json, BENCH_r4_mux.json, BENCH_r5_durable_mux.json,
# BENCH_r6_trace.json, and BENCH_r7_fabric.json reports at the repo root
# (CI uploads them as artifacts).  The perfbench stage runs the benchmark
# (perfbench/run.py, built into .bench_build/) on mux_restart and sim_soak
# for 3 s each, untraced and traced, and fails unless every run reports
# "correct": true — so a change to an interface the benchmark wraps fails
# here rather than at benchmark time.
#
# Exits nonzero on the first failing stage.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"
TEST_TIMEOUT=300  # seconds per test

STAGES=(tier1 bench recovery stabilization net durable-mux trace fabric perfbench asan tsan)

ensure_build() {
  cmake -B build -S . >/dev/null
  cmake --build build -j "${JOBS}"
}

stage_tier1() {
  echo "== tier-1: configure + build + ctest (build/) =="
  ensure_build
  ctest --test-dir build --output-on-failure -j "${JOBS}" --timeout "${TEST_TIMEOUT}"
}

stage_bench() {
  echo "== bench smoke: a bench binary emits a valid JSON report + EngineStep (round-robin, sim_soak-shaped chaos), DelChannelSendDeliver and FullRunRepFreeDel simulator benches =="
  ctest --test-dir build -L bench_smoke --output-on-failure --timeout "${TEST_TIMEOUT}"
  ./build/bench/t1_alpha_table --quiet --json BENCH_smoke.json
  ./build/bench/validate_bench_json BENCH_smoke.json
  ./build/bench/m1_micro --benchmark_filter='EngineStep|DelChannelSendDeliver|FullRunRepFreeDel'
}

stage_recovery() {
  echo "== recovery smoke: the durable-recovery conformance suite + protocol x storage-fault bench report =="
  ctest --test-dir build -L recovery_smoke --output-on-failure -j "${JOBS}" --timeout "${TEST_TIMEOUT}"
  ./build/bench/r2_recovery --quiet --json BENCH_r2_recovery.json
  ./build/bench/validate_bench_json BENCH_r2_recovery.json
}

stage_stabilization() {
  echo "== stabilization smoke: the self-stabilization conformance suite + corruption-matrix bench report =="
  ctest --test-dir build -L stabilization_smoke --output-on-failure -j "${JOBS}" --timeout "${TEST_TIMEOUT}"
  ./build/bench/r3_stabilization --quiet --json BENCH_r3_stabilization.json
  ./build/bench/validate_bench_json BENCH_r3_stabilization.json
}

stage_net() {
  echo "== net smoke: the wire-layer conformance suite + mux bench report =="
  ctest --test-dir build -L net_smoke --output-on-failure -j "${JOBS}" --timeout "${TEST_TIMEOUT}"
  ./build/bench/r4_mux --quiet --json BENCH_r4_mux.json
  ./build/bench/validate_bench_json BENCH_r4_mux.json
}

stage_durable_mux() {
  echo "== durable-mux smoke: crash-restart rehydration suite + SessionLogScan replay/scan/restore phase benches + FileStoreAppendBatch bench + bench report =="
  ctest --test-dir build -L durable_mux_smoke --output-on-failure -j "${JOBS}" --timeout "${TEST_TIMEOUT}"
  ./build/bench/m1_micro --benchmark_filter='SessionLogScan/(replay|scan|restore)/|FileStoreAppendBatch'
  ./build/bench/r5_durable_mux --quiet --json BENCH_r5_durable_mux.json
  ./build/bench/validate_bench_json BENCH_r5_durable_mux.json
}

stage_trace() {
  echo "== trace smoke: flight recorder + trace-analysis suite + overhead-gated bench report =="
  ctest --test-dir build -L trace_smoke --output-on-failure -j "${JOBS}" --timeout "${TEST_TIMEOUT}"
  ./build/bench/r6_trace --quiet --json BENCH_r6_trace.json
  ./build/bench/validate_bench_json BENCH_r6_trace.json
}

stage_fabric() {
  echo "== fabric smoke: multi-backend failover + rejoin/reclaim suites + router forward bench + crash re-homing bench report =="
  ctest --test-dir build -L "fabric_smoke|rejoin_smoke" --output-on-failure -j "${JOBS}" --timeout "${TEST_TIMEOUT}"
  ./build/bench/m1_micro --benchmark_filter=RouterForward
  if ! ./build/bench/r7_fabric --quiet --json BENCH_r7_fabric.json; then
    # r7 writes the failing seed's 1-minimal plan (it replays through
    # fault::fabric_plan_from_text) and removes any stale one at start.
    echo "r7_fabric failed; FABRIC_failure_plan.txt:"
    cat FABRIC_failure_plan.txt 2>/dev/null || echo "(none written)"
    return 1
  fi
  ./build/bench/validate_bench_json BENCH_r7_fabric.json
}

stage_perfbench() {
  echo "== perfbench: the benchmark's output checks on mux_restart and sim_soak, untraced and traced =="
  local w t out
  for w in mux_restart sim_soak; do
    for t in 0 1; do
      out="$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 3 --trace "$t")" || {
        echo "${out}"
        echo "perfbench: ${w} --trace ${t} failed" >&2
        return 1
      }
      if [[ "$(tail -n 1 <<<"${out}")" != *'"correct": true'* ]]; then
        echo "${out}"
        echo "perfbench: ${w} --trace ${t} is not correct" >&2
        return 1
      fi
      echo "perfbench: ${w} --trace ${t} correct"
    done
  done
}

stage_asan() {
  echo "== sanitizers: ASan+UBSan configure + build + ctest (build/asan/) =="
  cmake -B build/asan -S . -DSTPX_SANITIZE=ON >/dev/null
  cmake --build build/asan -j "${JOBS}"
  ctest --test-dir build/asan --output-on-failure -j "${JOBS}" --timeout "${TEST_TIMEOUT}"
}

stage_tsan() {
  echo "== sanitizers: TSan configure + build + net/durable-mux/trace/fabric/rejoin smoke (build/tsan/) =="
  cmake -B build/tsan -S . -DSTPX_SANITIZE_THREAD=ON >/dev/null
  cmake --build build/tsan -j "${JOBS}" --target test_net test_durable_mux test_trace test_fabric \
        test_rejoin r4_mux r5_durable_mux r6_trace r7_fabric validate_bench_json
  ctest --test-dir build/tsan -L "net_smoke|durable_mux_smoke|trace_smoke|fabric_smoke|rejoin_smoke" \
        --output-on-failure -j "${JOBS}" --timeout "${TEST_TIMEOUT}"
}

run_stage() {
  case "$1" in
    tier1)         stage_tier1 ;;
    bench)         stage_bench ;;
    recovery)      stage_recovery ;;
    stabilization) stage_stabilization ;;
    net)           stage_net ;;
    durable-mux)   stage_durable_mux ;;
    trace)         stage_trace ;;
    fabric)        stage_fabric ;;
    perfbench)     stage_perfbench ;;
    asan)          stage_asan ;;
    tsan)          stage_tsan ;;
    *)
      echo "check.sh: unknown stage '$1' (try --list)" >&2
      exit 2
      ;;
  esac
}

case "${1:-}" in
  --list)
    printf '%s\n' "${STAGES[@]}"
    exit 0
    ;;
  --stage)
    [[ $# -ge 2 ]] || { echo "check.sh: --stage needs a name (try --list)" >&2; exit 2; }
    # A single stage still needs binaries; these stages build their own.
    [[ "$2" == "tier1" || "$2" == "perfbench" || "$2" == "asan" || "$2" == "tsan" ]] || ensure_build
    run_stage "$2"
    echo "== check.sh: stage $2 PASS =="
    exit 0
    ;;
  --fast)
    for s in "${STAGES[@]}"; do
      [[ "$s" == "asan" || "$s" == "tsan" ]] && continue
      run_stage "$s"
    done
    echo "== check.sh: tier-1 PASS (sanitizer stages skipped via --fast) =="
    exit 0
    ;;
  "")
    for s in "${STAGES[@]}"; do run_stage "$s"; done
    echo "== check.sh: ALL PASS =="
    ;;
  *)
    echo "check.sh: unknown flag '$1' (--fast | --stage <name> | --list)" >&2
    exit 2
    ;;
esac
