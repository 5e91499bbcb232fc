#!/usr/bin/env bash
# Builds the bench suite and runs the experiments that export machine-readable
# results (E1 IPC ping-pong, E2 null-syscall entry paths, E3 Dom0 CPU
# accounting, E4 crossing counts, E5 fault-isolation blast radius, E6
# portability matrix, E10 small address spaces, E11 lmbench-style OS
# operations, E12 page-table update batching, E16 batched datapath, E17 tracing overhead,
# E18 TLB shootdown scaling, E19 crash-recovery latency + exactly-once
# ledger, E20 race-detection overhead, E21 L4 fast-path IPC, E22 causal request tracing, E23 the
# completed fast-path family), plus E8's per-layer line counts. Each bench
# writes BENCH_<id>.json into $OUT alongside its human-readable tables on
# stdout; E17/E20 split their host wall-clock columns into a separate
# BENCH_<id>_HOST.json so the deterministic tables stay bit-exact, and E8
# writes only BENCH_E8_HOST.json (line counts move with every edit, so the
# committed file is a code-size trajectory, never compared). E17
# additionally writes a Perfetto-loadable Chrome trace and flamegraph.pl
# collapsed stacks, and E22 a request-flow view plus per-request table,
# into $OUT via UKVM_TRACE_DIR.
#
# The trace exports (TRACE_*, STACKS_*, REQTRACE_*, REQTABLE_*) are
# byte-identical run to run; their sha256 digests go into
# $OUT/TRACE_EXPORTS.sha256, which is committed and which check.sh stage 13
# verifies, so an instrumentation change that alters an export fails there.
#
# After the deterministic suite, bench_simspeed reports *wall-clock* harness
# throughput (host ns per simulated hot op; BM_LifecycleSeed's
# items_per_second is fuzz seeds/sec). Wall-clock numbers vary by host, so
# they go into $OUT/BENCH_SIMSPEED_HOST.json, a tracked trajectory that is
# never compared, and stay out of the bit-exact BENCH_*.json set.
#
#   OUT=results ./scripts/bench.sh      # default OUT is bench-results/
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
OUT="${OUT:-bench-results}"
BUILD="${BUILD:-build}"

cmake -B "${BUILD}" -S . >/dev/null
cmake --build "${BUILD}" -j"${JOBS}" --target \
  bench_e1_ipc_pingpong bench_e2_syscall_paths bench_e3_dom0_cpu \
  bench_e4_crossings bench_e5_fault_isolation bench_e6_portability \
  bench_e10_small_spaces bench_e11_osbench bench_e12_mmu_batching \
  bench_e16_batched_io bench_e17_trace_overhead bench_e18_shootdown \
  bench_e19_recovery bench_e20_race_overhead bench_e21_ipc_fastpath \
  bench_e22_reqtrace bench_e23_replywait bench_e8_tcb_size bench_simspeed

mkdir -p "${OUT}"
export UKVM_BENCH_JSON="${OUT}"
export UKVM_TRACE_DIR="${OUT}"

for bench in bench_e1_ipc_pingpong bench_e2_syscall_paths bench_e3_dom0_cpu \
             bench_e4_crossings bench_e5_fault_isolation bench_e6_portability \
             bench_e10_small_spaces bench_e11_osbench bench_e12_mmu_batching \
             bench_e16_batched_io bench_e17_trace_overhead bench_e18_shootdown \
             bench_e19_recovery bench_e20_race_overhead \
             bench_e21_ipc_fastpath bench_e22_reqtrace bench_e23_replywait \
             bench_e8_tcb_size; do
  echo "== ${bench} =="
  "${BUILD}/bench/${bench}"
  echo
done

(cd "${OUT}" && sha256sum TRACE_*.json STACKS_*.txt REQTRACE_*.json \
   REQTABLE_*.json) > "${OUT}/TRACE_EXPORTS.sha256"

echo "== bench_simspeed (wall-clock harness throughput; not in the bit-exact set) =="
# Older google-benchmark releases reject the suffixed "0.05s" spelling; the
# bare double works on both (newer ones print a deprecation notice).
"${BUILD}/bench/bench_simspeed" --benchmark_min_time=0.05 \
  --benchmark_out="${OUT}/BENCH_SIMSPEED_HOST.json" \
  --benchmark_out_format=json
echo

echo "JSON results:"
ls -1 "${OUT}"/BENCH_*.json
