// Seeded, deterministic fault injection for the simulated devices.
//
// The paper's §3.1 liability-inversion argument ("a failure of the Parallax
// server only affects its clients") is only honest if both stacks survive
// *partial* failures, not just clean kills: dropped frames, flaky sectors,
// lost completion interrupts. A FaultPlan describes, per fault class, how
// often and in which burst windows faults fire; a FaultInjector attached to
// a Nic/Disk draws from per-class deterministic PRNG streams so the same
// seed always produces the bit-identical fault schedule (experiment E15
// compares stacks under one schedule and tests assert reproducibility).
//
// Every injected fault is counted in the machine's ukvm::Counters under
// "fault.*" names, so benches and tests can observe exactly what happened.

#ifndef UKVM_SRC_HW_FAULT_INJECTOR_H_
#define UKVM_SRC_HW_FAULT_INJECTOR_H_

#include <cstdint>
#include <span>

#include "src/core/error.h"
#include "src/core/metrics.h"
#include "src/hw/machine.h"

namespace hwsim {

// One fault class's firing rule. Each decision point ("opportunity") draws
// against `probability`; while simulated time falls inside the burst window
// (Now() % burst_period in [burst_start, burst_start + burst_len) cycles,
// with burst_period > 0), `burst_probability` is used instead. Bursts model
// the interesting real-world shape — a cable yanked for a while, a disk
// region going bad — and give experiments a deterministic "storm" phase.
// Windows are wall-clock (simulated) on purpose: a storm must end when time
// passes, not when the victim has submitted enough requests — otherwise a
// circuit breaker that stops submitting would freeze the storm open.
struct FaultRate {
  double probability = 0.0;
  uint64_t burst_period = 0;  // cycles
  uint64_t burst_start = 0;   // cycles into each period
  uint64_t burst_len = 0;     // cycles
  double burst_probability = 1.0;

  bool enabled() const { return probability > 0.0 || (burst_period > 0 && burst_len > 0); }
};

struct FaultPlan {
  uint64_t seed = 1;

  FaultRate nic_tx_drop;   // transmitted frame lost on the wire (after DMA)
  FaultRate nic_rx_drop;   // inbound frame dropped before DMA
  FaultRate nic_corrupt;   // one byte of the frame flipped in transit

  FaultRate disk_read_error;   // request completes with Err::kCorrupted
  FaultRate disk_write_error;  // request completes with Err::kFault
  FaultRate disk_latency;      // service time spiked by disk_latency_spike_cycles
  uint64_t disk_latency_spike_cycles = 0;

  FaultRate irq_lost;      // a completion's IRQ edge is swallowed
  FaultRate irq_spurious;  // an extra IRQ edge with no completion behind it

  bool any_enabled() const {
    return nic_tx_drop.enabled() || nic_rx_drop.enabled() || nic_corrupt.enabled() ||
           disk_read_error.enabled() || disk_write_error.enabled() || disk_latency.enabled() ||
           irq_lost.enabled() || irq_spurious.enabled();
  }
};

class FaultInjector {
 public:
  FaultInjector(Machine& machine, const FaultPlan& plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // --- Decision points (each advances its own deterministic stream) ---------

  bool DropTxFrame();                              // "fault.nic.tx_drop"
  bool DropRxFrame();                              // "fault.nic.rx_drop"
  bool CorruptFrame(std::span<uint8_t> frame);     // "fault.nic.corrupt"
  ukvm::Err DiskIoError(bool is_write);            // "fault.disk.{read,write}_error"
  uint64_t DiskExtraLatency();                     // "fault.disk.latency"
  bool LoseIrq();                                  // "fault.irq.lost"
  bool SpuriousIrq();                              // "fault.irq.spurious"

  // --- Introspection --------------------------------------------------------

  const FaultPlan& plan() const { return plan_; }
  uint64_t injected_total() const { return injected_total_; }

 private:
  struct Stream {
    FaultRate rate;
    uint64_t rng_state = 0;
    uint32_t counter_id = 0;  // a name id: names the counter and the trace instant
  };

  Stream MakeStream(const FaultRate& rate, uint64_t stream_id, const char* counter_name);
  // Draws the next decision from `s`, counting the fault when it fires.
  bool Fire(Stream& s);

  Machine& machine_;
  FaultPlan plan_;
  uint64_t injected_total_ = 0;

  Stream tx_drop_;
  Stream rx_drop_;
  Stream corrupt_;
  Stream read_error_;
  Stream write_error_;
  Stream latency_;
  Stream irq_lost_;
  Stream irq_spurious_;
};

}  // namespace hwsim

#endif  // UKVM_SRC_HW_FAULT_INJECTOR_H_
