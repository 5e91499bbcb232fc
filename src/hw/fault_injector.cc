#include "src/hw/fault_injector.h"

namespace hwsim {

namespace {

// splitmix64: tiny, well-mixed, and fully portable — the fault schedule must
// be bit-identical across platforms and runs, so no std:: engine.
uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Uniform double in [0, 1) from the top 53 bits.
double NextDouble(uint64_t& state) {
  return static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
}

}  // namespace

FaultInjector::FaultInjector(Machine& machine, const FaultPlan& plan)
    : machine_(machine), plan_(plan) {
  tx_drop_ = MakeStream(plan.nic_tx_drop, 1, "fault.nic.tx_drop");
  rx_drop_ = MakeStream(plan.nic_rx_drop, 2, "fault.nic.rx_drop");
  corrupt_ = MakeStream(plan.nic_corrupt, 3, "fault.nic.corrupt");
  read_error_ = MakeStream(plan.disk_read_error, 4, "fault.disk.read_error");
  write_error_ = MakeStream(plan.disk_write_error, 5, "fault.disk.write_error");
  latency_ = MakeStream(plan.disk_latency, 6, "fault.disk.latency");
  irq_lost_ = MakeStream(plan.irq_lost, 7, "fault.irq.lost");
  irq_spurious_ = MakeStream(plan.irq_spurious, 8, "fault.irq.spurious");
}

FaultInjector::Stream FaultInjector::MakeStream(const FaultRate& rate, uint64_t stream_id,
                                                const char* counter_name) {
  Stream s;
  s.rate = rate;
  // Decorrelate streams: each gets its own state derived from (seed, id), so
  // the nic schedule does not depend on how often the disk consulted its own
  // stream.
  s.rng_state = plan_.seed * 0x9e3779b97f4a7c15ull + stream_id;
  s.counter_id = machine_.counters().Intern(counter_name);
  return s;
}

bool FaultInjector::Fire(Stream& s) {
  if (!s.rate.enabled()) {
    return false;
  }
  double p = s.rate.probability;
  if (s.rate.burst_period > 0 && s.rate.burst_len > 0) {
    const uint64_t phase = machine_.Now() % s.rate.burst_period;
    if (phase >= s.rate.burst_start && phase < s.rate.burst_start + s.rate.burst_len) {
      p = s.rate.burst_probability;
    }
  }
  if (p <= 0.0 || NextDouble(s.rng_state) >= p) {
    return false;
  }
  machine_.counters().Add(s.counter_id);
  machine_.tracer().Instant(s.counter_id, ukvm::kHardwareDomain);
  ++injected_total_;
  return true;
}

bool FaultInjector::DropTxFrame() { return Fire(tx_drop_); }

bool FaultInjector::DropRxFrame() { return Fire(rx_drop_); }

bool FaultInjector::CorruptFrame(std::span<uint8_t> frame) {
  if (!Fire(corrupt_)) {
    return false;
  }
  if (!frame.empty()) {
    // Deterministic victim byte and flip pattern from the corruption stream.
    const uint64_t draw = SplitMix64(corrupt_.rng_state);
    frame[draw % frame.size()] ^= static_cast<uint8_t>(0x01u << ((draw >> 32) & 7u)) | 0x80u;
  }
  return true;
}

ukvm::Err FaultInjector::DiskIoError(bool is_write) {
  if (is_write) {
    return Fire(write_error_) ? ukvm::Err::kFault : ukvm::Err::kNone;
  }
  return Fire(read_error_) ? ukvm::Err::kCorrupted : ukvm::Err::kNone;
}

uint64_t FaultInjector::DiskExtraLatency() {
  return Fire(latency_) ? plan_.disk_latency_spike_cycles : 0;
}

bool FaultInjector::LoseIrq() { return Fire(irq_lost_); }

bool FaultInjector::SpuriousIrq() { return Fire(irq_spurious_); }

}  // namespace hwsim
