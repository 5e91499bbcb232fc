#!/usr/bin/env bash
# The full static-analysis / sanitizer gate:
#
#   1. strict build (UKVM_WERROR=ON, UKVM_CHECK=ON) + complete test suite;
#   2. clang-tidy over src/ with the repo's .clang-tidy, gating: every
#      enabled check is an error (skipped with a notice when no clang-tidy
#      binary is installed);
#   3. AddressSanitizer+UBSan build (UKVM_SANITIZE=ON) + complete suite;
#   4. ThreadSanitizer build (UKVM_TSAN=ON) + complete suite — the simulator
#      is single-threaded by design, so any report is a design break;
#   5. E18 lifecycle fuzz sweep: the cross-stack fuzzer's full seed bank
#      (UKVM_FUZZ_SEEDS, default 1024 here vs 32 in plain ctest) under ASan,
#      every seed auditor-clean and two-run deterministic — the ukernel
#      banks run as an E23 configuration matrix (full fast-path family and
#      Call-only);
#   6. E19 recovery fuzz sweep: the crash-recovery fuzzer (mid-flight
#      backend kills, journal replay, exactly-once read-back) on all three
#      storage stacks with the extended seed bank, under ASan — the ukernel
#      bank runs the same E23 configuration matrix;
#   7. E23 differential IPC fuzz sweep: seeded random IPC histories run
#      twice (fast path on vs off) under ASan; every seed must produce
#      identical results, identical end-state digests, a balanced ledger,
#      and a clean auditor/race-detector, with every family path taken;
#   8. E17 tracing-overhead gate: bench_e17_trace_overhead exits non-zero
#      if tracing perturbs simulated time by even one cycle, breaks span
#      discipline, or attributes less than 95% of accounted cycles;
#   9. E20 race-detection gate: bench_e20_race_overhead exits non-zero if
#      the detector perturbs simulated time at all or any stock
#      split-driver protocol reports a race;
#  10. E22 request-tracing gate: bench_e22_reqtrace exits non-zero if the
#      request tracer perturbs simulated time at all, if fewer than 99% of
#      completed requests are fully parented (or any handoff orphans), or
#      if the E19 crash shape's slowest request fails to attribute
#      detect/reconnect/replay on its critical path;
#  11. E21 fast-path gate: bench_e21_ipc_fastpath exits non-zero unless the
#      L4 fast path is >=2x on two platforms, the E1/E11 shapes improve,
#      and a fastpath-on run is auditor/race-detector clean;
#  12. E23 fast-path family gate: bench_e23_replywait exits non-zero unless
#      reply-wait coalescing is >=1.3x vs the E21 Call-only baseline on at
#      least two platform shapes, Send/Notify/fault-IPC ride the fast
#      stubs, the pinned window saves exactly (N-1)*pte_write over a
#      burst, and a full-family run is checker-clean;
#  13. perf-regression gate: every deterministic bench regenerates its
#      BENCH_*.json into a scratch dir and the result is compared
#      bit-exactly against the committed bench-results/ baselines — the
#      sim is deterministic, so any drift is a perf regression (or an
#      uncommitted baseline). E17/E20 participate via their deterministic
#      tables; their host wall-clock columns live in BENCH_*_HOST.json,
#      which is never compared. The same runs' trace exports (TRACE_*,
#      STACKS_*, REQTRACE_*, REQTABLE_*) must match the sha256 digests in
#      bench-results/TRACE_EXPORTS.sha256 (written by scripts/bench.sh), so
#      an instrumentation change that alters an export fails here.
#      Stages 11-13 reuse stage 1's strict tree:
#      UKVM_CHECK=ON (the default) adds observers only, never charges, so
#      that tree regenerates every baseline bit-exactly.
#
# Exits non-zero if any stage that can run fails. Build trees live under
# build-check/ so the default build/ is left alone.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"

echo "== [1/13] strict build (-Werror, UKVM_CHECK=ON) + tests =="
cmake -B build-check/werror -S . -DUKVM_WERROR=ON -DUKVM_CHECK=ON >/dev/null
cmake --build build-check/werror -j"${JOBS}"
ctest --test-dir build-check/werror -j"${JOBS}" --output-on-failure

echo "== [2/13] clang-tidy over src/ (gating) =="
if command -v clang-tidy >/dev/null 2>&1; then
  # The strict tree has a fresh compile_commands.json for it to use. The
  # explicit --warnings-as-errors mirrors .clang-tidy's WarningsAsErrors so
  # the stage gates even under an older clang-tidy that ignores the config
  # key: any diagnostic fails the xargs pipeline and, via set -e, the script.
  cmake -B build-check/werror -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  find src -name '*.cc' -print0 |
    xargs -0 -n1 -P"${JOBS}" clang-tidy -p build-check/werror --quiet \
      --warnings-as-errors='*'
else
  echo "clang-tidy not installed; skipping lint stage (build+tests still gate)."
fi

echo "== [3/13] ASan+UBSan build + tests =="
cmake -B build-check/asan -S . -DUKVM_SANITIZE=ON >/dev/null
cmake --build build-check/asan -j"${JOBS}"
ctest --test-dir build-check/asan -j"${JOBS}" --output-on-failure

echo "== [4/13] TSan build + tests =="
cmake -B build-check/tsan -S . -DUKVM_TSAN=ON >/dev/null
cmake --build build-check/tsan -j"${JOBS}"
ctest --test-dir build-check/tsan -j"${JOBS}" --output-on-failure

echo "== [5/13] E18 lifecycle fuzz sweep (extended seed bank, ASan) =="
UKVM_FUZZ_SEEDS="${UKVM_FUZZ_SEEDS:-1024}" \
  build-check/asan/tests/ukvm_tests --gtest_filter='FuzzLifecycle.*'

echo "== [6/13] E19 recovery fuzz sweep (extended seed bank, ASan) =="
UKVM_FUZZ_SEEDS="${UKVM_FUZZ_SEEDS:-1024}" \
  build-check/asan/tests/ukvm_tests --gtest_filter='FuzzRecovery.*'

echo "== [7/13] E23 differential fast-vs-slow IPC fuzz sweep (ASan) =="
UKVM_FUZZ_SEEDS="${UKVM_FUZZ_SEEDS:-1024}" \
  build-check/asan/tests/ukvm_tests --gtest_filter='FuzzIpcDiff.*'

echo "== [8/13] E17 tracing zero-perturbation gate =="
cmake --build build-check/werror -j"${JOBS}" --target bench_e17_trace_overhead
build-check/werror/bench/bench_e17_trace_overhead

echo "== [9/13] E20 race-detection zero-perturbation gate =="
cmake --build build-check/werror -j"${JOBS}" --target bench_e20_race_overhead
build-check/werror/bench/bench_e20_race_overhead

echo "== [10/13] E22 request-tracing gate =="
cmake --build build-check/werror -j"${JOBS}" --target bench_e22_reqtrace
build-check/werror/bench/bench_e22_reqtrace

# Stages 11-13 run from stage 1's strict tree (build-check/werror), which
# already built every bench. Its UKVM_CHECK=ON is the default configuration
# and only adds observers, so the committed baselines regenerate from it
# bit-exactly. Every bench's BENCH_<id>.json carries pure simulated-cycle
# data (E17/E20 split their wall-clock columns into BENCH_<id>_HOST.json,
# which never gates).
DET_BENCHES="bench_e1_ipc_pingpong bench_e2_syscall_paths bench_e3_dom0_cpu \
             bench_e4_crossings bench_e5_fault_isolation bench_e6_portability \
             bench_e10_small_spaces bench_e11_osbench bench_e12_mmu_batching \
             bench_e16_batched_io bench_e17_trace_overhead bench_e18_shootdown \
             bench_e19_recovery bench_e20_race_overhead \
             bench_e21_ipc_fastpath bench_e22_reqtrace bench_e23_replywait"
DET_JSONS="BENCH_E1.json BENCH_E2.json BENCH_E3.json BENCH_E4.json BENCH_E5.json \
           BENCH_E6.json BENCH_E10.json BENCH_E11.json BENCH_E12.json BENCH_E16.json BENCH_E17.json BENCH_E18.json BENCH_E19.json \
           BENCH_E20.json BENCH_E21.json BENCH_E22.json BENCH_E23.json"
# shellcheck disable=SC2086
cmake --build build-check/werror -j"${JOBS}" --target ${DET_BENCHES}

echo "== [11/13] E21 IPC fast-path gate =="
build-check/werror/bench/bench_e21_ipc_fastpath

echo "== [12/13] E23 fast-path family gate =="
build-check/werror/bench/bench_e23_replywait

echo "== [13/13] bench JSON bit-exact perf-regression gate =="
rm -rf build-check/bench-json
mkdir -p build-check/bench-json
for bench in ${DET_BENCHES}; do
  UKVM_BENCH_JSON=build-check/bench-json UKVM_TRACE_DIR=build-check/bench-json \
    "build-check/werror/bench/${bench}" >/dev/null
done
for json in ${DET_JSONS}; do
  baseline="bench-results/${json}"
  regen="build-check/bench-json/${json}"
  if ! cmp -s "${baseline}" "${regen}"; then
    echo "PERF REGRESSION: ${baseline} no longer matches a fresh run:" >&2
    diff -u "${baseline}" "${regen}" >&2 || true
    exit 1
  fi
done
echo "all deterministic bench JSONs regenerate bit-identically."
if ! (cd build-check/bench-json && sha256sum --quiet -c ../../bench-results/TRACE_EXPORTS.sha256); then
  echo "TRACE EXPORT DRIFT: an export no longer matches bench-results/TRACE_EXPORTS.sha256" >&2
  exit 1
fi
echo "all trace exports match their committed digests."

echo "check.sh: all stages passed."
