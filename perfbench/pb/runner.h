// Runs one pass of a workload over the three stacks, one after another,
// from one thread with a closed loop (each call returns before the next is
// issued), and checks every output.

#ifndef PERFBENCH_PB_RUNNER_H_
#define PERFBENCH_PB_RUNNER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "pb/ops.h"
#include "pb/probe.h"
#include "pb/target.h"

namespace perfbench {

struct PassOptions {
  Workload workload = Workload::kCtl;
  uint64_t seed = 0;
  double seconds = 1;     // host time the timed phases get, over all stacks
  bool audit = true;      // the default Config; false only for audit_overhead_x
  Recorder* recorder = nullptr;  // non-null: the traced pass
  // Verifier self-test: expect a deliberately wrong pattern, so every
  // readback and received payload must be counted as failed.
  bool corrupt_expected = false;
};

// Simulated-clock figures over one exact window: the first timed round of
// ctl/io, or the first timed lifecycle seed of boot (which starts from the
// fresh machine's zero). Exact for a given seed.
struct Exact {
  uint64_t ops = 0;
  uint64_t cycles = 0;
  uint64_t idle_cycles = 0;
  // CPU-busy cycles: all accounted cycles except idle and device DMA (which
  // the hardware domain accounts concurrently with the CPU).
  uint64_t busy_cycles = 0;
  uint64_t ipc_like = 0;
  uint64_t ledger_events = 0;
  uint64_t tlb_hits = 0;
  uint64_t tlb_lookups = 0;
  uint64_t l4_ipc = 0;
  uint64_t l4_string_bytes = 0;
  uint64_t hypercalls = 0;
  uint64_t evtchn = 0;
  uint64_t gnttab_maps = 0;
  uint64_t page_flips = 0;
  uint64_t packets = 0;
  uint64_t driver_cycles = 0;
  std::vector<std::pair<std::string, uint64_t>> domain_cycles;  // Target::Domains order
};

struct StackResult {
  std::vector<double> setup_s;     // one per set-up repetition
  std::vector<double> boot_ms;     // stack constructor, every boot
  std::vector<double> teardown_ms; // stack destructor, every teardown
  std::vector<double> checkpoint_ms;
  uint64_t timed_ops = 0;          // ops completed in the timed phase
  double timed_s = 0;              // host time of this stack's turns
  Reservoir op_ns{1 << 17};        // every timed op
  Reservoir block{1 << 16};        // the current time slice's ops
  std::vector<double> block_p50;   // per time slice
  std::vector<double> block_p90;   // per time slice with >= kMinP90Samples
  double P50() const;
  double P90() const;
  Exact exact;
  // From power-on to the end of the exact window (equal to `exact` on boot).
  Exact power_on;
  uint64_t exact_charges = 0;  // CpuAccounting charges in the window (traced pass only)
};

// The p90 of a sample needs at least 10 samples beyond it.
inline constexpr uint64_t kMinP90Samples = 100;

struct PassResult {
  std::array<StackResult, kStackCount> stacks;
  std::vector<double> block_ops_per_s;  // per time slice
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t error_count = 0;  // loud failures (each printed to stderr)
  uint64_t digest = 0;
  uint64_t driver_retries = 0;

  bool correct() const { return failed == 0 && error_count == 0; }
  double ops_per_s() const;
};

PassResult RunPass(const PassOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_PB_RUNNER_H_
