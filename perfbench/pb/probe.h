// Host-time samples and the traced run's span recorder.
//
// Spans are recorded only by the benchmark's own code, around each call it
// makes into the program (stack boot/teardown, each syscall, event-loop
// pumping, audit checkpoints, bare hardware construction). Each span
// carries its host interval, its simulated-clock delta, crossing-ledger,
// CPU-accounting and charge-count deltas, its parent span and the op id.
// Aggregates are folded in as spans close; a bounded prefix of the raw
// spans is kept in memory and written out when the run ends.

#ifndef PERFBENCH_PB_PROBE_H_
#define PERFBENCH_PB_PROBE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/metrics.h"
#include "src/hw/machine.h"
#include "pb/ops.h"
#include "pb/target.h"

namespace perfbench {

inline uint64_t HostNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// A fixed-capacity uniform sample (Algorithm R with a fixed-seed generator),
// so memory does not grow with run length and percentiles come from
// samples rather than from the slowest few.
class Reservoir {
 public:
  explicit Reservoir(size_t capacity = 1 << 16);
  void Add(double value);
  uint64_t count() const { return seen_; }
  size_t capacity() const { return capacity_; }
  // The mean of the kept samples ranked within q +/- 0.5% (at least the
  // two nearest ranks); 0 when empty. Averaging a narrow rank window keeps
  // nanosecond-resolution timings from snapping to the same integer.
  double Quantile(double q) const;

 private:
  std::vector<double> kept_;
  size_t capacity_;
  uint64_t seen_ = 0;
  uint64_t rng_ = 0x853c49e6748fea9bull;
};

double Median(std::vector<double> values);

// Span names; each belongs to one layer of the program (or to the
// benchmark itself, for the op spans that parent everything else).
enum class SpanName : uint8_t {
  kOp,            // bench: one op (a lifecycle seed on boot)
  kMachineCtor,   // hw: bare Machine at the default size
  kDiskCtor,      // hw: bare Disk at the default size
  kEventLoop,     // hw: RunFor / RunUntilIdle / WaitUntil
  kStackBoot,     // stacks: stack constructor
  kStackTeardown, // stacks: stack destructor
  kSpawn,         // os: process creation
  kCheckpoint,    // check: Auditor::Checkpoint
  kCallBase,      // os.<call>: one per Call, in Call order
};
inline constexpr size_t kSpanNameCount = static_cast<size_t>(SpanName::kCallBase) + kCallCount;
inline SpanName CallSpan(Call call) {
  return static_cast<SpanName>(static_cast<size_t>(SpanName::kCallBase) +
                               static_cast<size_t>(call));
}
std::string SpanNameString(size_t name);

enum class Layer : uint8_t { kBench, kHw, kStacks, kOs, kCheck, kCount };
inline constexpr size_t kLayerCount = static_cast<size_t>(Layer::kCount);
const char* LayerName(Layer layer);
Layer LayerOf(size_t name);

// Counts every CpuAccounting charge (core.charges_per_op).
class ChargeCounter : public ukvm::ChargeObserver {
 public:
  void OnCharge(ukvm::DomainId, uint64_t) override { ++charges; }
  uint64_t charges = 0;
};

struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = root
  uint16_t name = 0;
  uint8_t stack = 0;
  uint64_t op = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t child_ns = 0;  // host time covered by child spans
  uint64_t sim_cycles = 0;
  uint64_t ledger_events = 0;
  uint64_t accounted_cycles = 0;
  uint64_t charges = 0;
};

class Recorder {
 public:
  explicit Recorder(size_t keep_spans = 1 << 16);
  ~Recorder();

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // Points the sim-side deltas at `machine` (installing the charge
  // counter) for spans of `stack`; Unbind before the machine dies.
  void Bind(hwsim::Machine& machine, StackKind stack);
  void Unbind();
  void SetStack(StackKind stack) { stack_ = static_cast<uint8_t>(stack); }
  void SetOp(uint64_t op) { op_ = op; }
  // Spans closed while an op id is set (timed phases only) feed the
  // per-layer self-time totals; 0 marks set-up.
  // While set, closed spans also feed the exact per-call sim-cycle sums.
  void SetExactWindow(bool on) { exact_ = on; }

  void Begin(SpanName name);
  void End();

  struct Agg {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
    uint64_t exact_count = 0;
    uint64_t exact_sim_cycles = 0;
    Reservoir ns{4096};
  };
  const Agg& agg(size_t name, StackKind stack) const {
    return aggs_[name][static_cast<size_t>(stack)];
  }
  uint64_t self_ns(Layer layer) const { return layer_self_ns_[static_cast<size_t>(layer)]; }
  uint64_t charges() const { return counter_.charges; }

  // Writes the kept spans as tab-separated lines with a header.
  bool Write(const std::string& path) const;

 private:
  struct Snap {
    bool valid = false;
    uint64_t sim = 0, ledger = 0, acct = 0, charges = 0;
  };
  Snap Sample() const;

  struct Open {
    Span span;
    Snap at_start;
  };

  hwsim::Machine* machine_ = nullptr;
  ChargeCounter counter_;
  uint8_t stack_ = 0;
  uint64_t op_ = 0;
  bool exact_ = false;
  uint32_t next_id_ = 1;
  uint64_t closed_ = 0;
  std::vector<Open> open_;
  std::vector<Span> kept_;
  size_t keep_;
  std::array<std::array<Agg, kStackCount>, kSpanNameCount> aggs_;
  std::array<uint64_t, kLayerCount> layer_self_ns_{};
};

// RAII span; a no-op without a recorder (the untraced run).
class Scope {
 public:
  Scope(Recorder* rec, SpanName name) : rec_(rec) {
    if (rec_ != nullptr) {
      rec_->Begin(name);
    }
  }
  ~Scope() {
    if (rec_ != nullptr) {
      rec_->End();
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder* rec_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PB_PROBE_H_
