#include "src/check/auditor.h"

#include <utility>

#include "src/core/log.h"
#include "src/hw/cpu.h"
#include "src/ukernel/kernel.h"
#include "src/ukernel/mapdb.h"
#include "src/vmm/domain.h"
#include "src/vmm/grant_table.h"
#include "src/vmm/hypervisor.h"
#include "src/vmm/pt_virt.h"

namespace ucheck {

using ukvm::ObsBit;
using ukvm::ObsKind;

Auditor::Auditor(hwsim::Machine& machine) : Auditor(machine, Options{}) {}

Auditor::Auditor(hwsim::Machine& machine, Options options)
    : machine_(machine), options_(options), invariants_(machine), lint_(machine.ledger()) {
  machine_.bus().Attach(this, ObsBit(ObsKind::kCrossing) | ObsBit(ObsKind::kLedgerReset) |
                                  ObsBit(ObsKind::kDma) | ObsBit(ObsKind::kTlbInsert) |
                                  ObsBit(ObsKind::kPteUpdate));
  if (options_.race_detect) {
    race_ = std::make_unique<RaceDetector>(machine_);
  }
}

Auditor::~Auditor() { machine_.bus().Detach(this); }

void Auditor::AttachUkernel(ukern::Kernel& kernel) {
  kernel_ = &kernel;
  invariants_.AttachUkernel(kernel);
}

void Auditor::AttachVmm(uvmm::Hypervisor& hv) {
  hv_ = &hv;
  invariants_.AttachVmm(hv);
  if (race_) {
    race_->SetHubDomain(hv.vmm_domain());
  }
}

void Auditor::AttachSpace(ukvm::DomainId domain, hwsim::PageTable& space) {
  invariants_.AttachSpace(domain, space);
  space.Observe(&machine_.bus(), domain);
}

void Auditor::DetachSpace(hwsim::PageTable& space) { invariants_.DetachSpace(&space); }

void Auditor::OnPteUpdate(const ukvm::ObsEvent& event) {
  const auto* space = static_cast<const hwsim::PageTable*>(event.table);
  const std::optional<SpaceKind> kind = invariants_.KindOf(space);
  if (!kind.has_value()) {
    return;
  }
  if ((event.flag & ukvm::kObsUnmap) != 0) {
    // The kernel flushes the TLB right after the unmap, so the check must
    // wait: it runs at the next recorded crossing (by which time the
    // operation has completed) or at the next checkpoint.
    pending_unmaps_.push_back(PendingUnmap{space, event.key});
    return;
  }
  invariants_.CheckMappedPte(event.domain, *kind, event.key,
                             hwsim::Pte{.frame = event.index,
                                        .present = true,
                                        .writable = (event.flag & ukvm::kObsWritable) != 0,
                                        .user = (event.flag & ukvm::kObsUser) != 0});
}

void Auditor::OnCrossing(const ukvm::ObsEvent& event) {
  lint_.Observe(event);
  if (!pending_unmaps_.empty()) {
    DrainPendingUnmaps();
  }
  // An applied mmu_update batch is recorded once, after all its updates
  // landed: rescan just that domain's table.
  if (hv_ != nullptr && event.mechanism == hv_->pt_virt().mechanism()) {
    if (const uvmm::Domain* dom = hv_->FindDomain(event.domain)) {
      invariants_.CheckSpace(dom->id, SpaceKind::kVmmDomain, dom->space);
    }
  }
}

void Auditor::DrainPendingUnmaps() {
  for (const PendingUnmap& pending : pending_unmaps_) {
    invariants_.CheckUnmapFlushed(pending.space, pending.vpn);
  }
  pending_unmaps_.clear();
}

void Auditor::OnEvent(const ukvm::ObsEvent& event) {
  switch (event.kind) {
    case ObsKind::kCrossing:
      OnCrossing(event);
      break;
    case ObsKind::kLedgerReset:
      lint_.Reset();
      break;
    case ObsKind::kDma:
      invariants_.CheckDmaTarget(event.key, event.flag != 0, event.domain);
      break;
    case ObsKind::kTlbInsert:
      invariants_.CheckTlbInsert(static_cast<uint32_t>(event.slot),
                                 hwsim::TlbEntry{.vpn = event.key,
                                                 .frame = event.index,
                                                 .writable = (event.flag & ukvm::kObsWritable) != 0,
                                                 .user = (event.flag & ukvm::kObsUser) != 0,
                                                 .valid = true});
      break;
    case ObsKind::kPteUpdate:
      OnPteUpdate(event);
      break;
    default:
      break;
  }
}

void Auditor::Checkpoint(const std::string& phase) {
  ++checkpoints_;
  DrainPendingUnmaps();
  if (options_.incremental_tlb) {
    invariants_.CheckTlbCoherenceSince(tlb_stamps_);
  } else {
    invariants_.CheckTlbCoherence();
  }
  invariants_.CheckShootdownAcks();
  invariants_.CheckFrameOwnership();
  invariants_.CheckPrivilegeDiscipline();
  invariants_.CheckDeadDomainReclamation();
  if (hv_ != nullptr && hv_->gnttab().generation() != grants_scanned_) {
    grants_scanned_ = hv_->gnttab().generation();
    invariants_.CheckGrantRefcounts();
  }
  if (kernel_ != nullptr && kernel_->mapdb().generation() != mapdb_scanned_) {
    mapdb_scanned_ = kernel_->mapdb().generation();
    invariants_.CheckMapDbCoherence();
  }
  lint_.CheckBalanced();
  const std::vector<std::string> reports = ViolationReports();
  for (size_t i = warned_; i < reports.size(); ++i) {
    UKVM_WARN("ukvm-check[%s]: %s", phase.c_str(), reports[i].c_str());
  }
  if (warned_ == 0 && !reports.empty()) {
    // First violation this machine has ever seen: capture the evidence
    // (flight recorder, histograms, slowest request DAGs) while it is
    // still in the retained windows.
    machine_.PostMortemDump("auditor-violation");
  }
  warned_ = reports.size();
}

std::vector<std::string> Auditor::ViolationReports() const {
  std::vector<std::string> reports;
  for (const InvariantViolation& v : invariants_.violations()) {
    reports.push_back("invariant " + std::string(InvariantName(v.rule)) + " at t=" +
                      std::to_string(v.time) + ": " + v.detail);
  }
  for (const LintViolation& v : lint_.violations()) {
    reports.push_back("lint " + std::string(LintRuleName(v.rule)) + " at t=" +
                      std::to_string(v.time) + " seq=" + std::to_string(v.seq) + " [" +
                      v.mechanism + "]: " + v.detail);
  }
  if (race_) {
    for (std::string& report : race_->ViolationReports()) {
      reports.push_back(std::move(report));
    }
  }
  return reports;
}

void Auditor::ClearViolations() {
  invariants_.ClearViolations();
  lint_.ClearViolations();
  if (race_) {
    race_->ClearViolations();
  }
  warned_ = 0;
}

}  // namespace ucheck
