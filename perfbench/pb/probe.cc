#include "pb/probe.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

Reservoir::Reservoir(size_t capacity) : capacity_(capacity) {}

void Reservoir::Add(double value) {
  ++seen_;
  if (kept_.size() < capacity_) {
    kept_.push_back(value);
    return;
  }
  // xorshift64*; fixed seed, so a run's sample choice replays exactly.
  rng_ ^= rng_ >> 12;
  rng_ ^= rng_ << 25;
  rng_ ^= rng_ >> 27;
  const uint64_t r = (rng_ * 0x2545f4914f6cdd1dull) % seen_;
  if (r < capacity_) {
    kept_[r] = value;
  }
}

double Reservoir::Quantile(double q) const {
  if (kept_.empty()) {
    return 0;
  }
  std::vector<double> v = kept_;
  std::sort(v.begin(), v.end());
  const double last = static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(std::max(0.0, q - 0.05) * last));
  const size_t hi = static_cast<size_t>(std::ceil(std::min(1.0, q + 0.05) * last));
  double sum = 0;
  for (size_t i = lo; i <= hi; ++i) {
    sum += v[i];
  }
  return sum / static_cast<double>(hi - lo + 1);
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::string SpanNameString(size_t name) {
  if (name >= static_cast<size_t>(SpanName::kCallBase)) {
    return std::string("os.") +
           CallName(static_cast<Call>(name - static_cast<size_t>(SpanName::kCallBase)));
  }
  switch (static_cast<SpanName>(name)) {
    case SpanName::kOp: return "bench.op";
    case SpanName::kMachineCtor: return "hw.machine_ctor";
    case SpanName::kDiskCtor: return "hw.disk_ctor";
    case SpanName::kEventLoop: return "hw.event_loop";
    case SpanName::kStackBoot: return "stacks.boot";
    case SpanName::kStackTeardown: return "stacks.teardown";
    case SpanName::kSpawn: return "os.spawn";
    case SpanName::kCheckpoint: return "check.checkpoint";
    case SpanName::kCallBase: break;
  }
  return "?";
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kHw: return "hw";
    case Layer::kStacks: return "stacks";
    case Layer::kOs: return "os";
    case Layer::kCheck: return "check";
    case Layer::kCount: break;
  }
  return "?";
}

Layer LayerOf(size_t name) {
  if (name >= static_cast<size_t>(SpanName::kCallBase)) {
    return Layer::kOs;
  }
  switch (static_cast<SpanName>(name)) {
    case SpanName::kOp: return Layer::kBench;
    case SpanName::kMachineCtor:
    case SpanName::kDiskCtor:
    case SpanName::kEventLoop: return Layer::kHw;
    case SpanName::kStackBoot:
    case SpanName::kStackTeardown: return Layer::kStacks;
    case SpanName::kSpawn: return Layer::kOs;
    case SpanName::kCheckpoint: return Layer::kCheck;
    case SpanName::kCallBase: break;
  }
  return Layer::kBench;
}

Recorder::Recorder(size_t keep_spans) : keep_(keep_spans) { kept_.reserve(keep_spans); }

Recorder::~Recorder() { Unbind(); }

void Recorder::Bind(hwsim::Machine& machine, StackKind stack) {
  stack_ = static_cast<uint8_t>(stack);
  if (machine_ == &machine) {
    return;
  }
  Unbind();
  machine_ = &machine;
  stack_ = static_cast<uint8_t>(stack);
  machine.accounting().SetObserver(&counter_);
}

void Recorder::Unbind() {
  if (machine_ != nullptr) {
    machine_->accounting().SetObserver(nullptr);
    machine_ = nullptr;
  }
}

Recorder::Snap Recorder::Sample() const {
  if (machine_ == nullptr) {
    return Snap{};
  }
  return Snap{true, machine_->Now(), machine_->ledger().total_count(),
              machine_->accounting().total_cycles(), counter_.charges};
}

void Recorder::Begin(SpanName name) {
  Open open;
  open.span.id = next_id_++;
  open.span.parent = open_.empty() ? 0 : open_.back().span.id;
  open.span.name = static_cast<uint16_t>(name);
  open.span.stack = stack_;
  open.span.op = op_;
  open.at_start = Sample();
  open.span.start_ns = HostNs();
  open_.push_back(open);
}

void Recorder::End() {
  const uint64_t end_ns = HostNs();
  Open open = open_.back();
  open_.pop_back();
  Span& span = open.span;
  span.end_ns = end_ns;
  // A span that saw a machine at its end measures from a fresh machine's
  // zero when none existed at its start (stack boot); one whose machine
  // went away before it closed (teardown) has no sim-side delta.
  const Snap end = Sample();
  if (end.valid) {
    span.sim_cycles = end.sim - open.at_start.sim;
    span.ledger_events = end.ledger - open.at_start.ledger;
    span.accounted_cycles = end.acct - open.at_start.acct;
    span.charges = end.charges - open.at_start.charges;
  }
  const uint64_t dur = span.end_ns - span.start_ns;
  if (!open_.empty()) {
    open_.back().span.child_ns += dur;
  }
  const uint64_t self = dur - std::min(dur, span.child_ns);
  Agg& agg = aggs_[span.name][span.stack];
  ++agg.count;
  agg.total_ns += dur;
  agg.self_ns += self;
  agg.ns.Add(static_cast<double>(dur));
  if (exact_) {
    ++agg.exact_count;
    agg.exact_sim_cycles += span.sim_cycles;
  }
  if (span.op != 0) {
    layer_self_ns_[static_cast<size_t>(LayerOf(span.name))] += self;
  }
  ++closed_;
  if (kept_.size() < keep_) {
    kept_.push_back(span);
  }
}

bool Recorder::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "# spans kept %zu of %llu\n", kept_.size(),
               static_cast<unsigned long long>(closed_));
  std::fprintf(f,
               "id\tparent\tname\tstack\top\tstart_ns\tend_ns\tself_ns\tsim_cycles\t"
               "ledger_events\taccounted_cycles\tcharges\n");
  for (const Span& s : kept_) {
    const uint64_t dur = s.end_ns - s.start_ns;
    std::fprintf(f, "%u\t%u\t%s\t%s\t%llu\t%llu\t%llu\t%llu\t%llu\t%llu\t%llu\t%llu\n", s.id,
                 s.parent, SpanNameString(s.name).c_str(),
                 StackName(static_cast<StackKind>(s.stack)),
                 static_cast<unsigned long long>(s.op),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(dur - std::min(dur, s.child_ns)),
                 static_cast<unsigned long long>(s.sim_cycles),
                 static_cast<unsigned long long>(s.ledger_events),
                 static_cast<unsigned long long>(s.accounted_cycles),
                 static_cast<unsigned long long>(s.charges));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
