#include "src/core/trace.h"

#include <algorithm>
#include <cassert>

namespace ukvm {

// --- CycleProfiler ---------------------------------------------------------------

CycleProfiler::CycleProfiler() {
  nodes_.push_back(Node{});  // node 0: the root (empty path)
}

void CycleProfiler::Push(uint32_t frame) {
  const uint64_t key = (uint64_t{current_} << 32) | frame;
  auto it = children_.find(key);
  uint32_t node;
  if (it != children_.end()) {
    node = it->second;
  } else {
    node = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back(Node{current_, frame});
    children_.emplace(key, node);
  }
  stack_.push_back(node);
  current_ = node;
}

void CycleProfiler::Pop() {
  assert(!stack_.empty());
  stack_.pop_back();
  current_ = stack_.empty() ? 0 : stack_.back();
}

void CycleProfiler::OnCharge(DomainId domain, uint64_t cycles) {
  cycles_[(uint64_t{domain.value()} << 32) | current_] += cycles;
  total_cycles_ += cycles;
}

void CycleProfiler::ForEachAttribution(
    const std::function<void(DomainId, const std::vector<uint32_t>&, uint64_t)>& fn) const {
  std::vector<std::pair<uint64_t, uint64_t>> entries(cycles_.begin(), cycles_.end());
  std::sort(entries.begin(), entries.end());
  std::vector<uint32_t> path;
  for (const auto& [key, cycles] : entries) {
    const DomainId domain{static_cast<uint32_t>(key >> 32)};
    path.clear();
    for (uint32_t node = static_cast<uint32_t>(key & 0xffffffffu); node != 0;
         node = nodes_[node].parent) {
      path.push_back(nodes_[node].frame);
    }
    std::reverse(path.begin(), path.end());
    fn(domain, path, cycles);
  }
}

void CycleProfiler::Reset() {
  cycles_.clear();
  total_cycles_ = 0;
}

// --- Tracer ----------------------------------------------------------------------

Tracer::Tracer(NameTable& names)
    : names_(names),
      irq_assert_(names.Intern("irq.assert")),
      irq_deliver_(names.Intern("irq.deliver")) {}

void Tracer::Enable(const TraceConfig& config) {
  ring_.assign(config.ring_capacity > 0 ? config.ring_capacity : 1, TraceEvent{});
  events_recorded_ = 0;
  open_spans_.clear();
  span_mismatches_ = 0;
  for (auto& [id, h] : histograms_) {
    h.Reset();
  }
  profiler_.Reset();
  enabled_ = true;
}

void Tracer::Disable() { enabled_ = false; }

void Tracer::RegisterDomain(DomainId domain, std::string_view name) {
  domain_names_[domain.value()] = std::string(name);
}

std::string Tracer::DomainName(DomainId domain) const {
  auto it = domain_names_.find(domain.value());
  if (it != domain_names_.end()) {
    return it->second;
  }
  if (!domain.valid()) {
    return "invalid";
  }
  return "dom" + std::to_string(domain.value());
}

void Tracer::Emit(TraceEvent event) {
  if (!enabled_) {
    return;
  }
  event.seq = events_recorded_;
  ring_[events_recorded_ % ring_.size()] = event;
  ++events_recorded_;
}

uint64_t Tracer::BeginSpan(uint32_t name, DomainId domain) {
  if (!enabled_) {
    return 0;
  }
  const uint64_t token = next_span_token_++;
  open_spans_.push_back(OpenSpan{token, name, domain, now_ ? now_() : 0});
  return token;
}

void Tracer::EndSpan(uint64_t token) {
  if (token == 0) {
    return;
  }
  // Spans close LIFO; an out-of-order close (a bug in the instrumentation,
  // or a span crossing an Enable() reset) discards the opens above it and
  // counts each as a mismatch.
  while (!open_spans_.empty() && open_spans_.back().token != token) {
    open_spans_.pop_back();
    ++span_mismatches_;
  }
  if (open_spans_.empty()) {
    ++span_mismatches_;
    return;
  }
  const OpenSpan span = open_spans_.back();
  open_spans_.pop_back();
  TraceEvent event;
  event.type = TraceEventType::kSpan;
  event.name = span.name;
  event.domain = span.domain;
  event.time = span.start;
  event.dur = (now_ ? now_() : 0) - span.start;
  Emit(event);
}

void Tracer::Instant(uint32_t name, DomainId domain, uint64_t a, uint64_t b) {
  if (!enabled_) {
    return;
  }
  TraceEvent event;
  event.type = TraceEventType::kInstant;
  event.name = name;
  event.domain = domain;
  event.time = now_ ? now_() : 0;
  event.a = a;
  event.b = b;
  Emit(event);
}

void Tracer::OnEvent(const ObsEvent& event) {
  switch (event.kind) {
    case ObsKind::kCharge:
      profiler_.OnCharge(event.domain, event.cycles);
      break;
    case ObsKind::kCrossing:
      if (enabled_) {
        Emit({.type = TraceEventType::kCrossing, .name = event.name, .domain = event.peer,
              .time = event.time, .dur = event.cycles, .a = event.domain.value(),
              .b = event.bytes});
        histograms_[event.xing_name].Record(event.cycles);
      }
      break;
    case ObsKind::kIrq:
      Instant(event.flag != 0 ? irq_deliver_ : irq_assert_, kHardwareDomain, event.key);
      break;
    default:
      break;
  }
}

void Tracer::ForEachEvent(const std::function<void(const TraceEvent&)>& fn) const {
  if (ring_.empty()) {
    return;
  }
  const uint64_t capacity = ring_.size();
  const uint64_t retained = events_recorded_ < capacity ? events_recorded_ : capacity;
  const uint64_t first = events_recorded_ - retained;
  for (uint64_t i = 0; i < retained; ++i) {
    fn(ring_[(first + i) % capacity]);
  }
}

uint64_t Tracer::events_dropped() const {
  const uint64_t capacity = ring_.size();
  return events_recorded_ > capacity ? events_recorded_ - capacity : 0;
}

uint64_t Tracer::BeginProbe(uint32_t name, DomainId domain) {
  if (!enabled_) {
    return 0;
  }
  profiler_.Push(name);
  return BeginSpan(name, domain);
}

uint64_t Tracer::BeginProbe(uint32_t name) {
  if (!enabled_) {
    return 0;
  }
  profiler_.Push(name);
  return kFrameOnly;
}

void Tracer::EndProbe(uint64_t token) {
  if (token == 0) {
    return;
  }
  profiler_.Pop();
  if (token != kFrameOnly) {
    EndSpan(token);
  }
}

uint32_t Tracer::InternHistogram(std::string_view name) {
  const uint32_t id = names_.Intern(name);
  histograms_.try_emplace(id);
  return id;
}

void Tracer::ForEachHistogram(
    const std::function<void(const std::string&, const LogHistogram&)>& fn) const {
  std::vector<std::pair<const std::string*, const LogHistogram*>> rows;
  rows.reserve(histograms_.size());
  for (const auto& [id, h] : histograms_) {
    rows.emplace_back(&names_.Name(id), &h);
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) { return *a.first < *b.first; });
  for (const auto& [name, h] : rows) {
    fn(*name, *h);
  }
}

}  // namespace ukvm
