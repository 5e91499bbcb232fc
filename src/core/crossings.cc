#include "src/core/crossings.h"

#include <algorithm>
#include <cassert>

namespace ukvm {

const char* CrossingKindName(CrossingKind kind) {
  switch (kind) {
    case CrossingKind::kSyncCall:
      return "sync-call";
    case CrossingKind::kSyncReply:
      return "sync-reply";
    case CrossingKind::kAsyncNotify:
      return "async-notify";
    case CrossingKind::kDataTransfer:
      return "data-transfer";
    case CrossingKind::kResourceDelegate:
      return "resource-delegate";
    case CrossingKind::kTrap:
      return "trap";
    case CrossingKind::kTrapReturn:
      return "trap-return";
    case CrossingKind::kInterrupt:
      return "interrupt";
    case CrossingKind::kKindCount:
      break;
  }
  return "?";
}

uint64_t CrossingSnapshot::IpcLikeCount() const {
  uint64_t sum = 0;
  for (size_t i = 0; i < kCrossingKindCount; ++i) {
    if (static_cast<CrossingKind>(i) == CrossingKind::kInterrupt) {
      continue;
    }
    sum += kind_counts[i];
  }
  return sum;
}

CrossingSnapshot DiffSnapshots(const CrossingSnapshot& before, const CrossingSnapshot& after) {
  CrossingSnapshot diff;
  for (size_t i = 0; i < kCrossingKindCount; ++i) {
    diff.kind_counts[i] = after.kind_counts[i] - before.kind_counts[i];
  }
  diff.total_count = after.total_count - before.total_count;
  diff.total_cycles = after.total_cycles - before.total_cycles;
  diff.mechanisms = after.mechanisms;
  for (auto& mech : diff.mechanisms) {
    auto it = std::find_if(before.mechanisms.begin(), before.mechanisms.end(),
                           [&](const MechanismStats& m) { return m.name == mech.name; });
    if (it != before.mechanisms.end()) {
      mech.count -= it->count;
      mech.cycles -= it->cycles;
      mech.bytes -= it->bytes;
    }
  }
  return diff;
}

uint32_t CrossingLedger::FindSlot(uint32_t name) const {
  uint32_t id = 0;
  while (id < slots_.size() && slots_[id].name != name) {
    ++id;
  }
  return id;
}

MechanismStats CrossingLedger::Stats(const MechanismSlot& slot) const {
  return MechanismStats{names_.Name(slot.name), slot.kind, slot.count, slot.cycles, slot.bytes};
}

uint32_t CrossingLedger::InternMechanism(std::string_view name, CrossingKind kind) {
  const uint32_t name_id = names_.Intern(name);
  const uint32_t id = FindSlot(name_id);
  if (id < slots_.size()) {
    assert(slots_[id].kind == kind);
    return id;
  }
  const uint32_t xing_name = names_.Intern("xing." + std::string(name));
  slots_.push_back(MechanismSlot{name_id, xing_name, kind, 0, 0, 0});
  return id;
}

void CrossingLedger::Record(uint32_t mechanism, DomainId from, DomainId to, uint64_t cycles,
                            uint64_t bytes) {
  assert(mechanism < slots_.size());
  MechanismSlot& slot = slots_[mechanism];
  slot.count += 1;
  slot.cycles += cycles;
  slot.bytes += bytes;
  kind_counts_[static_cast<size_t>(slot.kind)] += 1;
  total_count_ += 1;
  total_cycles_ += cycles;
  const uint64_t seq = events_recorded_++;
  if (bus_.Wants(ObsKind::kCrossing)) {
    bus_.Emit({.kind = ObsKind::kCrossing, .mechanism = mechanism, .name = slot.name,
               .xing_name = slot.xing_name, .domain = from, .peer = to,
               .time = now_ ? now_() : 0, .seq = seq, .cycles = cycles, .bytes = bytes});
  }
}

uint64_t CrossingLedger::CountByKind(CrossingKind kind) const {
  return kind_counts_[static_cast<size_t>(kind)];
}

MechanismStats CrossingLedger::StatsFor(std::string_view name) const {
  const uint32_t name_id = names_.Find(name);
  const uint32_t id = FindSlot(name_id);
  if (name_id == 0 || id == slots_.size()) {
    return MechanismStats{std::string(name), CrossingKind::kKindCount, 0, 0, 0};
  }
  return Stats(slots_[id]);
}

CrossingSnapshot CrossingLedger::Snapshot() const {
  CrossingSnapshot snap;
  snap.kind_counts = kind_counts_;
  snap.total_count = total_count_;
  snap.total_cycles = total_cycles_;
  snap.mechanisms.reserve(slots_.size());
  for (const MechanismSlot& slot : slots_) {
    snap.mechanisms.push_back(Stats(slot));
  }
  return snap;
}

void CrossingLedger::Reset() {
  for (MechanismSlot& slot : slots_) {
    slot.count = 0;
    slot.cycles = 0;
    slot.bytes = 0;
  }
  kind_counts_.fill(0);
  total_count_ = 0;
  total_cycles_ = 0;
  if (bus_.Wants(ObsKind::kLedgerReset)) {
    bus_.Emit({.kind = ObsKind::kLedgerReset});
  }
}

}  // namespace ukvm
