#include "src/core/metrics.h"

#include <algorithm>
#include <cassert>

namespace ukvm {

void CpuAccounting::SetObserver(ChargeObserver* observer) {
  assert(bus_ != nullptr);
  bus_->Detach(observer_);  // a no-op for nullptr
  observer_ = observer;
  if (observer_ != nullptr) {
    bus_->Attach(observer_, ObsBit(ObsKind::kCharge));
  }
}

const CpuAccounting::Slot* CpuAccounting::FindSlot(DomainId domain) const {
  const uint32_t v = domain.value();
  if (v >= kReservedBase) {
    return &reserved_[v - kReservedBase];
  }
  return v < dense_.size() ? &dense_[v] : nullptr;
}

uint64_t CpuAccounting::CyclesOf(DomainId domain) const {
  const Slot* slot = FindSlot(domain);
  return slot == nullptr ? 0 : slot->cycles;
}

double CpuAccounting::ShareOf(DomainId domain) const {
  if (total_ == 0) {
    return 0.0;
  }
  return static_cast<double>(CyclesOf(domain)) / static_cast<double>(total_);
}

std::vector<std::pair<DomainId, uint64_t>> CpuAccounting::ByDomain() const {
  std::vector<std::pair<DomainId, uint64_t>> out;
  out.reserve(charged_.size());
  for (const DomainId domain : charged_) {
    out.emplace_back(domain, FindSlot(domain)->cycles);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first.value() < b.first.value();
  });
  return out;
}

void CpuAccounting::Reset() {
  dense_.clear();
  reserved_.fill(Slot{});
  charged_.clear();
  total_ = 0;
}

uint32_t Counters::Intern(std::string_view name) {
  const uint32_t id = names_.Intern(name);
  if (std::find(ids_.begin(), ids_.end(), id) == ids_.end()) {
    ids_.push_back(id);
    if (values_.size() <= id) {
      values_.resize(id + 1, 0);
    }
  }
  return id;
}

void Counters::Add(uint32_t id, uint64_t delta) {
  assert(id < values_.size());
  values_[id] += delta;
}

void Counters::AddNamed(std::string_view name, uint64_t delta) { Add(Intern(name), delta); }

uint64_t Counters::Get(std::string_view name) const {
  const uint32_t id = names_.Find(name);
  return id < values_.size() ? values_[id] : 0;
}

std::vector<std::pair<std::string, uint64_t>> Counters::All() const {
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(ids_.size());
  for (const uint32_t id : ids_) {
    out.emplace_back(names_.Name(id), values_[id]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Counters::Reset() { std::fill(values_.begin(), values_.end(), 0); }

}  // namespace ukvm
