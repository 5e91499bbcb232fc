#include "src/check/auditor.h"

#include <utility>

#include "src/core/log.h"
#include "src/hw/cpu.h"
#include "src/ukernel/kernel.h"
#include "src/ukernel/mapdb.h"
#include "src/ukernel/task.h"
#include "src/vmm/domain.h"
#include "src/vmm/grant_table.h"
#include "src/vmm/hypervisor.h"
#include "src/vmm/pt_virt.h"

namespace ucheck {

Auditor::Auditor(hwsim::Machine& machine) : Auditor(machine, Options{}) {}

Auditor::Auditor(hwsim::Machine& machine, Options options)
    : machine_(machine), options_(options), invariants_(machine), lint_(machine.ledger()) {
  machine_.bus().Attach(this, ukvm::ObsBit(ukvm::ObsKind::kCrossing) |
                                  ukvm::ObsBit(ukvm::ObsKind::kLedgerReset) |
                                  (options_.check_dma ? ukvm::ObsBit(ukvm::ObsKind::kDma) : 0));
  if (options_.check_tlb_inserts) {
    // Every vCPU's TLB, not just the boot CPU's: remote shootdown targets
    // refill their TLBs too.
    for (uint32_t v = 0; v < machine_.num_vcpus(); ++v) {
      machine_.cpu(v).tlb().SetInsertHook(
          [this](const hwsim::TlbEntry& entry) { invariants_.CheckTlbInsert(entry); });
    }
  }
  if (options_.race_detect) {
    race_ = std::make_unique<RaceDetector>(machine_);
  }
}

Auditor::~Auditor() {
  machine_.bus().Detach(this);
  for (uint32_t v = 0; v < machine_.num_vcpus(); ++v) {
    machine_.cpu(v).tlb().SetInsertHook(nullptr);
  }
  if (kernel_ != nullptr) {
    kernel_->mapdb().SetAuditHook(nullptr);
    kernel_->ForEachTask([](ukern::Task& t) { t.space.SetAuditHook(nullptr); });
  }
  if (hv_ != nullptr) {
    hv_->gnttab().SetAuditHook(nullptr);
    hv_->pt_virt().SetAuditHook(nullptr);
    hv_->ForEachDomain([](uvmm::Domain& d) { d.space.SetAuditHook(nullptr); });
  }
  for (auto& [domain, space] : raw_spaces_) {
    space->SetAuditHook(nullptr);
  }
}

void Auditor::AttachUkernel(ukern::Kernel& kernel) {
  kernel_ = &kernel;
  invariants_.AttachUkernel(kernel);
  kernel.mapdb().SetAuditHook([this] { mapdb_dirty_ = true; });
  RefreshSpaceHooks();
}

void Auditor::AttachVmm(uvmm::Hypervisor& hv) {
  hv_ = &hv;
  invariants_.AttachVmm(hv);
  if (race_) {
    race_->SetHubDomain(hv.vmm_domain());
  }
  hv.gnttab().SetAuditHook([this] { grants_dirty_ = true; });
  // PT-update batches bypass no hooks (PtVirt goes through PageTable::Map/
  // Unmap), but the batch hook gives a consistent point to rescan just the
  // touched domain's table, catching multi-update interactions the
  // per-update checks cannot see.
  hv.pt_virt().SetAuditHook([this](const uvmm::Domain& dom) {
    if (options_.check_pt_updates) {
      invariants_.CheckSpace(dom.id, SpaceKind::kVmmDomain, dom.space);
    }
  });
  RefreshSpaceHooks();
}

void Auditor::AttachSpace(ukvm::DomainId domain, hwsim::PageTable& space) {
  raw_spaces_.emplace_back(domain, &space);
  invariants_.AttachSpace(domain, space);
  HookSpace(domain, SpaceKind::kRaw, space);
}

void Auditor::DetachSpace(hwsim::PageTable& space) {
  space.SetAuditHook(nullptr);
  std::erase_if(raw_spaces_, [sp = &space](const auto& e) { return e.second == sp; });
  invariants_.DetachSpace(&space);
}

void Auditor::HookSpace(ukvm::DomainId domain, SpaceKind kind, hwsim::PageTable& space) {
  if (!options_.check_pt_updates) {
    return;
  }
  space.SetAuditHook([this, domain, kind, sp = &space](hwsim::PageTable::AuditOp op,
                                                       hwsim::Vaddr vpn, const hwsim::Pte& pte) {
    OnPtOp(sp, domain, kind, op, vpn, pte);
  });
}

void Auditor::RefreshSpaceHooks() {
  if (kernel_ != nullptr) {
    kernel_->ForEachTask(
        [this](ukern::Task& t) { HookSpace(t.id, SpaceKind::kUkernelTask, t.space); });
  }
  if (hv_ != nullptr) {
    hv_->ForEachDomain(
        [this](uvmm::Domain& d) { HookSpace(d.id, SpaceKind::kVmmDomain, d.space); });
  }
}

void Auditor::OnPtOp(const hwsim::PageTable* space, ukvm::DomainId domain, SpaceKind kind,
                     hwsim::PageTable::AuditOp op, hwsim::Vaddr vpn, const hwsim::Pte& pte) {
  if (op == hwsim::PageTable::AuditOp::kUnmap) {
    // The kernel flushes the TLB right after this hook fires, so the check
    // must wait: it runs at the next recorded crossing (by which time the
    // operation has completed) or at the next checkpoint.
    pending_unmaps_.push_back(PendingUnmap{space, vpn});
    return;
  }
  invariants_.CheckMappedPte(domain, kind, vpn, pte);
}

void Auditor::DrainPendingUnmaps() {
  for (const PendingUnmap& pending : pending_unmaps_) {
    invariants_.CheckUnmapFlushed(pending.space, pending.vpn);
  }
  pending_unmaps_.clear();
}

void Auditor::OnEvent(const ukvm::ObsEvent& event) {
  switch (event.kind) {
    case ukvm::ObsKind::kCrossing:
      if (options_.lint_crossings) {
        lint_.Observe(event);
      }
      if (!pending_unmaps_.empty()) {
        DrainPendingUnmaps();
      }
      break;
    case ukvm::ObsKind::kLedgerReset:
      lint_.Reset();
      break;
    case ukvm::ObsKind::kDma:
      invariants_.CheckDmaTarget(event.key, event.flag != 0, event.domain);
      break;
    default:
      break;
  }
}

void Auditor::Checkpoint(const std::string& phase) {
  ++checkpoints_;
  RefreshSpaceHooks();
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
  if (grants_dirty_) {
    invariants_.CheckGrantRefcounts();
    grants_dirty_ = false;
  }
  if (mapdb_dirty_) {
    invariants_.CheckMapDbCoherence();
    mapdb_dirty_ = false;
  }
  if (options_.lint_crossings) {
    lint_.CheckBalanced();
  }
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
