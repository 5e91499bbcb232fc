// Per-domain CPU accounting and named event counters.
//
// Experiment E3 reproduces Cherkasova & Gardner's finding that Dom0's CPU
// time dominates a Xen system under I/O load and is proportional to the
// number of page-flipping operations. That requires attributing every
// simulated cycle to the protection domain that consumed it, which is what
// `CpuAccounting` does; `Counters` tracks discrete events (page flips, TLB
// flushes, interrupts) by name.

#ifndef UKVM_SRC_CORE_METRICS_H_
#define UKVM_SRC_CORE_METRICS_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/ids.h"
#include "src/core/names.h"
#include "src/core/obs.h"

namespace ukvm {

// A charge-only observer, for probes that just count charges (perfbench's
// charge counter). CpuAccounting::SetObserver subscribes it to the
// machine bus's kCharge events.
class ChargeObserver : public Observer {
 public:
  virtual void OnCharge(DomainId domain, uint64_t cycles) = 0;
  void OnEvent(const ObsEvent& event) final { OnCharge(event.domain, event.cycles); }
};

// Attributes simulated cycles to protection domains.
class CpuAccounting {
 public:
  // `bus` is where SetObserver subscribes; the machine passes its own to
  // the global table.
  explicit CpuAccounting(ObsBus* bus = nullptr) : bus_(bus) {}

  void Charge(DomainId domain, uint64_t cycles) {
    Slot& slot = SlotOf(domain);
    if (!slot.charged) {
      slot.charged = true;
      charged_.push_back(domain);
    }
    slot.cycles += cycles;
    total_ += cycles;
  }

  // Subscribes `observer` to the bus's kCharge events in place of the one
  // set before (nullptr just detaches that one).
  void SetObserver(ChargeObserver* observer);

  uint64_t CyclesOf(DomainId domain) const;
  uint64_t total_cycles() const { return total_; }

  // Fraction of all accounted cycles consumed by `domain`; 0 if none.
  double ShareOf(DomainId domain) const;

  // All (domain, cycles) pairs, sorted by descending cycles.
  std::vector<std::pair<DomainId, uint64_t>> ByDomain() const;

  void Reset();

 private:
  // Domain ids are minted densely from small counters, so they index a
  // vector; the well-known ids at the top of the range (idle, hardware)
  // get fixed slots.
  static constexpr uint32_t kReservedBase = 0xfffffff0u;
  struct Slot {
    uint64_t cycles = 0;
    bool charged = false;
  };
  Slot& SlotOf(DomainId domain) {
    const uint32_t v = domain.value();
    if (v >= kReservedBase) {
      return reserved_[v - kReservedBase];
    }
    if (v >= dense_.size()) {
      dense_.resize(uint64_t{v} + 1);
    }
    return dense_[v];
  }
  const Slot* FindSlot(DomainId domain) const;

  std::vector<Slot> dense_;
  std::array<Slot, 16> reserved_{};
  std::vector<DomainId> charged_;  // every domain ever charged, even 0 cycles
  uint64_t total_ = 0;
  ObsBus* bus_ = nullptr;
  ChargeObserver* observer_ = nullptr;
};

// Named monotonic counters with cheap hot-path increments via interned ids.
// A counter's id is its name's id in `names`, the machine's one name table.
class Counters {
 public:
  explicit Counters(NameTable& names) : names_(names) {}

  uint32_t Intern(std::string_view name);

  void Add(uint32_t id, uint64_t delta = 1);

  // Convenience slow path for cold code.
  void AddNamed(std::string_view name, uint64_t delta = 1);

  uint64_t Get(std::string_view name) const;
  std::vector<std::pair<std::string, uint64_t>> All() const;
  void Reset();

 private:
  NameTable& names_;
  std::vector<uint64_t> values_;  // indexed by name id
  std::vector<uint32_t> ids_;     // the interned counters, in interning order
};

}  // namespace ukvm

#endif  // UKVM_SRC_CORE_METRICS_H_
