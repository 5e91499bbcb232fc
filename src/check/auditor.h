// The auditor: wires the invariant checks and the crossing-discipline
// linter into a live machine.
//
// One Auditor per simulated machine. It watches the machine only through
// its bus and plain state reads: crossings (fanned out to the linter),
// ledger resets, device DMA, TLB inserts and page-table map/unmap arrive as
// events; grant-table and mapping-database mutations are read as
// generation counts. It decides *when* each class of check runs:
//
//  - per crossing: linter observation, plus draining any unmap operations
//    queued since the last event (a removed PTE must have left the TLB by
//    the time the next crossing is recorded); an applied mmu_update batch
//    also rescans the domain's table, catching multi-update interactions
//    the per-update checks cannot see;
//  - per PT update: cheap locality checks on the installed PTE (live frame,
//    privilege, hypervisor hole) — full-table work would be unaffordable on
//    hot paths. Kernels and the hypervisor give each table its bus when they
//    create it, so a new task or domain is audited from its first map;
//  - per checkpoint (Checkpoint()): every full scan, plus ledger pairing
//    balance, which is only meaningful at a quiescent point.
//
// Destruction detaches from the bus, so the auditor may be torn down before
// the kernels it watches.

#ifndef UKVM_SRC_CHECK_AUDITOR_H_
#define UKVM_SRC_CHECK_AUDITOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include <memory>

#include "src/check/invariants.h"
#include "src/check/ledger_lint.h"
#include "src/check/race.h"
#include "src/hw/machine.h"
#include "src/hw/paging.h"

namespace ukern {
class Kernel;
}
namespace uvmm {
class Hypervisor;
}

// Build-level default for whether stacks enable auditing; the UKVM_CHECK
// CMake option sets this (ON by default). Falls back to enabled when built
// outside the project's CMake.
#ifndef UKVM_CHECK_DEFAULT
#define UKVM_CHECK_DEFAULT 1
#endif

namespace ucheck {

class Auditor : public ukvm::Observer {
 public:
  struct Options {
    // Checkpoint TLB sweeps audit only entries inserted since the previous
    // checkpoint (per vCPU). Staleness from unmaps is caught by the
    // deferred-unmap drains, so coverage is unchanged; set false to force
    // the full sweep every time.
    bool incremental_tlb = true;
    // Happens-before race detection over shared rings and grant-mapped
    // frames (E20). Off by default: the detector costs host time but never
    // simulated cycles, so results are identical either way.
    bool race_detect = false;
  };

  explicit Auditor(hwsim::Machine& machine);  // default options
  Auditor(hwsim::Machine& machine, Options options);
  ~Auditor() override;

  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  // Attach the kernel whose tasks or domains to audit, after it has booted.
  void AttachUkernel(ukern::Kernel& kernel);
  void AttachVmm(uvmm::Hypervisor& hv);

  // Registers a standalone space (ownership-only discipline); its maps and
  // unmaps are reported on the machine's bus from now on.
  void AttachSpace(ukvm::DomainId domain, hwsim::PageTable& space);

  // Unregisters a raw space before it is destroyed. Deferred unmap probes
  // already queued for it stay queued — they resolve through the machine's
  // dead-space registry, never the table itself.
  void DetachSpace(hwsim::PageTable& space);

  // Full audit: drain deferred checks, run every invariant scan, and verify
  // the ledger's pairing groups are balanced. `phase` labels the checkpoint
  // in warnings.
  void Checkpoint(const std::string& phase);

  // Violations found so far, across all checkers.
  size_t violation_count() const {
    return invariants_.violation_count() + lint_.violation_count() +
           (race_ ? race_->violation_count() : 0);
  }
  std::vector<std::string> ViolationReports() const;
  void ClearViolations();

  InvariantAuditor& invariants() { return invariants_; }
  LedgerLint& lint() { return lint_; }
  // Null unless Options.race_detect.
  RaceDetector* race() { return race_.get(); }
  uint64_t checkpoints() const { return checkpoints_; }
  const Options& options() const { return options_; }

  // Bus observer: crossings feed the linter and drain deferred unmap
  // checks, a ledger reset resets the linter, DMA targets, TLB inserts and
  // PTE updates are checked.
  void OnEvent(const ukvm::ObsEvent& event) override;

 private:
  void OnCrossing(const ukvm::ObsEvent& event);
  void OnPteUpdate(const ukvm::ObsEvent& event);
  void DrainPendingUnmaps();

  hwsim::Machine& machine_;
  Options options_;
  InvariantAuditor invariants_;
  LedgerLint lint_;
  std::unique_ptr<RaceDetector> race_;
  ukern::Kernel* kernel_ = nullptr;
  uvmm::Hypervisor* hv_ = nullptr;

  struct PendingUnmap {
    const hwsim::PageTable* space;  // pointer-hashed only, never dereferenced
    hwsim::Vaddr vpn;
  };
  std::vector<PendingUnmap> pending_unmaps_;

  // Grant-table / mapdb generations at their last full scan; a checkpoint
  // skips a scan whose structure has not changed since. None yet at first.
  uint64_t grants_scanned_ = UINT64_MAX;
  uint64_t mapdb_scanned_ = UINT64_MAX;

  // Per-vCPU TLB insert stamps consumed by the incremental coherence sweep.
  std::vector<uint64_t> tlb_stamps_;

  uint64_t checkpoints_ = 0;
  size_t warned_ = 0;  // violations already reported via UKVM_WARN
};

}  // namespace ucheck

#endif  // UKVM_SRC_CHECK_AUDITOR_H_
