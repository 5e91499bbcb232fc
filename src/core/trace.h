// The E17 observability layer: flight recorder, latency histograms, and
// cycle-attribution profiler.
//
// Everything here observes the simulation without perturbing it: no method
// in this file ever charges simulated cycles, so a run with tracing on is
// cycle-for-cycle identical to the same run with tracing off (proven by
// bench_e17_trace_overhead). The only cost of tracing is host wall-clock.
//
// Three instruments share one Tracer per machine:
//   - Flight recorder: a fixed-capacity ring of typed TraceEvents. Spans
//     are recorded as *completed* intervals (begin time + duration) when
//     they close, so a wrapped ring never holds a begin without its end.
//   - Latency histograms: named LogHistograms fed per-mechanism crossing
//     latency (automatically, from the bus's crossing events) and
//     end-to-end request latency (from the split drivers).
//   - Cycle profiler: tags every charge event with the interned
//     attribution path pushed by the code that is running (hypercall nr,
//     IPC op, softirq, ...), and dumps collapsed stacks for flamegraph.pl.
//
// All three name things by ids from the machine's NameTable, and one
// ProbeScope opens a span and pushes a frame under the same id.
//
// Determinism: all recorded content derives from simulated time, interned
// ids, and event order; exports sort any unordered containers. Same seed +
// same Config => byte-identical dumps.

#ifndef UKVM_SRC_CORE_TRACE_H_
#define UKVM_SRC_CORE_TRACE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/core/histogram.h"
#include "src/core/ids.h"
#include "src/core/names.h"
#include "src/core/obs.h"

namespace ukvm {

// Per-stack tracing knobs. Default-off: stacks built with an all-default
// Config run with zero instrumentation active.
struct TraceConfig {
  bool enabled = false;
  // Flight-recorder capacity in events; oldest events are overwritten.
  size_t ring_capacity = 1u << 16;
};

enum class TraceEventType : uint8_t {
  kSpan = 0,  // completed interval: time = begin, dur = length
  kInstant,   // point event (IRQ, sched switch, fault firing, ...)
  kCrossing,  // one ledger crossing (a = from-domain, b = bytes)
};

struct TraceEvent {
  TraceEventType type = TraceEventType::kInstant;
  uint32_t name = 0;  // a name-table id
  DomainId domain;    // the domain the event is attributed to
  uint64_t time = 0;  // simulated cycles
  uint64_t dur = 0;   // span length (kSpan) or crossing cycles (kCrossing)
  uint64_t a = 0;     // event-specific payload
  uint64_t b = 0;
  uint64_t seq = 0;   // global ordinal; survives ring wrap
};

// Cycle-attribution profiler. Instrumented code pushes frames (name-table
// ids, via ProbeScope) around the work it charges; every charge is then
// attributed to (domain, active path). Paths are interned in a trie so the
// hot path is one map lookup + one counter bump.
class CycleProfiler {
 public:
  CycleProfiler();

  void Push(uint32_t frame);
  void Pop();
  size_t depth() const { return stack_.size(); }

  void OnCharge(DomainId domain, uint64_t cycles);

  uint64_t total_cycles() const { return total_cycles_; }

  // Visits every (domain, path, cycles) attribution, path outermost-first
  // (empty for cycles charged with no frames pushed). Deterministic order:
  // sorted by (domain, trie node).
  void ForEachAttribution(
      const std::function<void(DomainId, const std::vector<uint32_t>&, uint64_t)>& fn) const;

  void Reset();

 private:
  struct Node {
    uint32_t parent = 0;  // index into nodes_; node 0 is the root
    uint32_t frame = 0;
  };

  std::vector<Node> nodes_;
  std::unordered_map<uint64_t, uint32_t> children_;  // (parent<<32)|frame -> node
  std::vector<uint32_t> stack_;                      // open frames as trie nodes
  uint32_t current_ = 0;                             // trie node of the full path
  std::unordered_map<uint64_t, uint64_t> cycles_;    // (domain<<32)|node -> cycles
  uint64_t total_cycles_ = 0;
};

class Tracer : public Observer {
 public:
  // The bus kinds (src/core/obs.h) the tracer consumes while enabled.
  static constexpr ObsMask kObsKinds =
      ObsBit(ObsKind::kCharge) | ObsBit(ObsKind::kCrossing) | ObsBit(ObsKind::kIrq);

  // Span, instant, frame and histogram names are ids in `names`, the
  // machine's one name table.
  explicit Tracer(NameTable& names);

  // Arms the instruments. Clears any previously recorded events/attributions
  // and sizes the ring per `config`. (Interned names survive: instrumented
  // code caches ids at construction time.)
  void Enable(const TraceConfig& config);
  // Stops recording; already-captured data stays readable for export.
  void Disable();
  bool enabled() const { return enabled_; }

  void SetTimeSource(std::function<uint64_t()> now) { now_ = std::move(now); }

  // --- Names and domains ------------------------------------------------------

  const std::string& Name(uint32_t id) const { return names_.Name(id); }

  // Display names for domains in exports ("Dom0", "sigma0", ...).
  void RegisterDomain(DomainId domain, std::string_view name);
  // Registered name, or "invalid" / "dom<N>" fallbacks.
  std::string DomainName(DomainId domain) const;
  // Sorted by domain id — export iteration order.
  const std::map<uint32_t, std::string>& domain_names() const { return domain_names_; }

  // --- Flight recorder --------------------------------------------------------

  // Opens a span; returns a token for EndSpan. No-op (returns 0) while
  // disabled. Spans nest LIFO; closing out of order counts a mismatch and
  // discards the intervening opens.
  uint64_t BeginSpan(uint32_t name, DomainId domain);
  void EndSpan(uint64_t token);

  void Instant(uint32_t name, DomainId domain, uint64_t a = 0, uint64_t b = 0);

  // Bus observer: a charge goes to the profiler; a crossing records a
  // kCrossing event and feeds the per-mechanism latency histogram
  // "xing.<mechanism>"; an IRQ records an "irq.assert"/"irq.deliver"
  // instant.
  void OnEvent(const ObsEvent& event) override;

  // Oldest-first walk of the retained window.
  void ForEachEvent(const std::function<void(const TraceEvent&)>& fn) const;
  uint64_t events_recorded() const { return events_recorded_; }
  uint64_t events_dropped() const;
  size_t ring_capacity() const { return ring_.size(); }
  uint64_t span_mismatches() const { return span_mismatches_; }
  size_t open_spans() const { return open_spans_.size(); }

  // --- Probes -----------------------------------------------------------------

  // A probe pushes profiler frame `name` and, given a domain, opens a span
  // under the same name; EndProbe closes both. Returns 0 (and EndProbe is a
  // no-op) while disabled. ProbeScope is the RAII form.
  uint64_t BeginProbe(uint32_t name, DomainId domain);
  uint64_t BeginProbe(uint32_t name);
  void EndProbe(uint64_t token);

  // --- Latency histograms -----------------------------------------------------

  // Registers a histogram keyed by `name`'s id and returns that id.
  uint32_t InternHistogram(std::string_view name);
  void RecordLatency(uint32_t id, uint64_t value) {
    if (enabled_) {
      histograms_[id].Record(value);
    }
  }
  // Name-sorted walk — export iteration order.
  void ForEachHistogram(
      const std::function<void(const std::string&, const LogHistogram&)>& fn) const;

  CycleProfiler& profiler() { return profiler_; }
  const CycleProfiler& profiler() const { return profiler_; }

 private:
  void Emit(TraceEvent event);

  // BeginProbe's token for a frame-only probe (span tokens count up from 1).
  static constexpr uint64_t kFrameOnly = ~0ull;

  struct OpenSpan {
    uint64_t token = 0;
    uint32_t name = 0;
    DomainId domain;
    uint64_t start = 0;
  };

  NameTable& names_;
  uint32_t irq_assert_ = 0;
  uint32_t irq_deliver_ = 0;
  bool enabled_ = false;
  std::function<uint64_t()> now_;

  std::map<uint32_t, std::string> domain_names_;

  std::vector<TraceEvent> ring_;
  uint64_t events_recorded_ = 0;
  std::vector<OpenSpan> open_spans_;
  uint64_t next_span_token_ = 1;
  uint64_t span_mismatches_ = 0;

  std::unordered_map<uint32_t, LogHistogram> histograms_;  // name id -> histogram

  CycleProfiler profiler_;
};

// RAII probe. ProbeScope(tracer, name, domain) opens a span and pushes a
// profiler frame under the same name id; ProbeScope(tracer, name) pushes
// the frame only. Safe to construct while tracing is disabled (no-op), and
// to destroy after tracing was disabled mid-probe.
class ProbeScope {
 public:
  ProbeScope(Tracer& tracer, uint32_t name, DomainId domain)
      : tracer_(tracer), token_(tracer.BeginProbe(name, domain)) {}
  ProbeScope(Tracer& tracer, uint32_t name) : tracer_(tracer), token_(tracer.BeginProbe(name)) {}
  ~ProbeScope() { tracer_.EndProbe(token_); }
  ProbeScope(const ProbeScope&) = delete;
  ProbeScope& operator=(const ProbeScope&) = delete;

 private:
  Tracer& tracer_;
  uint64_t token_;
};

}  // namespace ukvm

#endif  // UKVM_SRC_CORE_TRACE_H_
