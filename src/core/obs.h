// The observation bus: the one way to watch a machine. Charges, ledger
// crossings and resets, IRQs, device DMA, TLB inserts, page-table
// map/unmap and the race detector's sync edges and shared accesses all
// arrive as one ObsEvent; the tracer (with its profiler), request tracer,
// auditor and race detector each attach once with a mask of the kinds they
// consume, and events fan out in attach order. No component takes a
// per-object callback instead.
//
// Boundary rules: ObsEvent is one versioned POD with fixed-width fields and
// a static string label, and emitting never allocates. Emit sites test
// Wants(kind), one bit test, before building an event, so a kind nobody
// subscribes to costs nothing. An observer must never charge simulated
// cycles or change simulated state; the E17/E20/E22 gates and
// bench_check_overhead check that every sim-cycle result is identical with
// any set of observers attached.

#ifndef UKVM_SRC_CORE_OBS_H_
#define UKVM_SRC_CORE_OBS_H_

#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/core/ids.h"

namespace ukvm {

// Bumped on any change to ObsEvent's layout or to what a kind's fields mean.
inline constexpr uint16_t kObsVersion = 2;

enum class ObsKind : uint8_t {
  kCharge = 0,   // cycles billed to `domain` (global accounting)
  kCrossing,     // one CrossingLedger::Record
  kLedgerReset,  // CrossingLedger::Reset
  kIrq,          // a line latched (flag 0) or delivered (flag 1); key = line
  kDma,          // a device DMA page; key = frame, flag 1 = device writes memory
  kRelease,      // release half of a sync edge `key` by context `domain`
  kAcquire,      // acquire half of a sync edge `key` by context `domain`
  kSharedWrite,  // store to shared cell (key = object, index = offset)
  kSharedRead,   // load from shared cell (key = object, index = offset)
  kRingPublish,  // producer published `index` entries on ring side `key`
  kRingRead,     // consumer reads absolute `index` (ring offset `slot`) of `key`
  kContextDead,  // `domain` died; its shared mappings were force-revoked
  kTlbInsert,    // vCPU `slot` cached salted vpn `key` -> frame `index`; flag = perms
  kPteUpdate,    // `domain`'s `table` mapped (or, flag kObsUnmap, removed) vpn `key`
                 // -> frame `index`; flag = perms of the PTE installed or removed
  kCount,
};

// Flag bits of kTlbInsert and kPteUpdate.
inline constexpr uint8_t kObsWritable = 1;
inline constexpr uint8_t kObsUser = 2;
inline constexpr uint8_t kObsUnmap = 4;  // kPteUpdate: the PTE was removed
constexpr uint8_t ObsPerms(bool writable, bool user) {
  return static_cast<uint8_t>((writable ? kObsWritable : 0) | (user ? kObsUser : 0));
}

using ObsMask = uint32_t;
constexpr ObsMask ObsBit(ObsKind kind) { return ObsMask{1} << static_cast<uint32_t>(kind); }
static_assert(static_cast<uint32_t>(ObsKind::kCount) <= 32, "ObsMask holds one bit per kind");

// Namespaces for the 64-bit sync-edge and shared-object keys: a
// synchronization slot is identified by (kind, a, b), so e.g. an event
// channel's slot can never collide with a shootdown round's even if their
// numeric ids coincide.
enum class RaceEdgeKind : uint8_t {
  kEvtchn = 1,  // a = target domain, b = target port
  kIpi,         // a = shootdown request id (send -> handler)
  kIpiAck,      // a = shootdown request id (handler -> initiator wait)
  kHypercall,   // a = calling domain (degenerate self-edge, stats only)
  kIpc,         // a = from domain, b = to domain (ledger crossings)
  kRingReq,     // a = ring object id (request-side publish/read)
  kRingResp,    // a = ring object id (response-side publish/read)
  kFrame,       // a = physical frame, b = owner domain (shadow objects)
};

// Packs (kind, a, b) into one key: 8 bits of kind, 28 bits each of a and b.
constexpr uint64_t RaceEdgeKey(RaceEdgeKind kind, uint64_t a, uint64_t b = 0) {
  return (static_cast<uint64_t>(kind) << 56) | ((a & 0xFFF'FFFFull) << 28) |
         (b & 0xFFF'FFFFull);
}

// One observation. Fields a kind does not use stay at their defaults;
// emitters fill them with designated initializers in declaration order.
struct ObsEvent {
  uint16_t version = kObsVersion;
  ObsKind kind = ObsKind::kCount;
  uint8_t flag = 0;        // kIrq: delivered; kDma: device writes memory; kObs* bits
  uint32_t mechanism = 0;  // kCrossing: ledger mechanism id
  uint32_t name = 0;       // kCrossing: name-table id of the mechanism's name
  uint32_t xing_name = 0;  // kCrossing: name-table id of "xing.<name>"
  DomainId domain{};       // billed domain, crossing source, DMA initiator, race context
  DomainId peer{};         // kCrossing: destination
  uint64_t time = 0;       // kCrossing: simulated time of the record
  uint64_t seq = 0;        // kCrossing: ordinal since the ledger was created
  uint64_t cycles = 0;     // kCharge, kCrossing
  uint64_t bytes = 0;      // kCrossing
  uint64_t key = 0;        // edge/ring key, shared object, DMA frame, IRQ line, vpn
  uint64_t index = 0;      // publish count, ring read index, shared-cell offset, frame
  uint64_t slot = 0;       // kRingRead: the slot's offset within the ring; kTlbInsert: vCPU
  const char* label = nullptr;  // shared access / ring read: static site label
  const void* table = nullptr;  // kPteUpdate: the page table, identity only
};
static_assert(std::is_trivially_copyable_v<ObsEvent> && std::is_standard_layout_v<ObsEvent>);

class Observer {
 public:
  virtual ~Observer() = default;
  virtual void OnEvent(const ObsEvent& event) = 0;
};

// One per machine. Holds observers by pointer: an observer detaches before
// it is destroyed.
class ObsBus {
 public:
  // Subscribes `observer` to the kinds in `mask`, at the end of the fan-out
  // order; re-attaching an attached observer replaces its mask in place.
  void Attach(Observer* observer, ObsMask mask);
  // Unsubscribes `observer`; a no-op if it is not attached.
  void Detach(Observer* observer);

  bool Wants(ObsKind kind) const { return (wanted_ & ObsBit(kind)) != 0; }

  // Delivers `event` to each observer subscribed to its kind.
  void Emit(const ObsEvent& event) const {
    const ObsMask bit = ObsBit(event.kind);
    // By index: an observer may attach another while handling an event.
    for (size_t i = 0; i < subs_.size(); ++i) {
      if ((subs_[i].mask & bit) != 0) {
        subs_[i].observer->OnEvent(event);
      }
    }
  }

 private:
  struct Subscription {
    Observer* observer;
    ObsMask mask;
  };

  void UpdateWanted();

  std::vector<Subscription> subs_;
  ObsMask wanted_ = 0;  // union of every subscription's mask
};

}  // namespace ukvm

#endif  // UKVM_SRC_CORE_OBS_H_
