// Domain scheduler: context switching between virtual machines.
//
// The paper (§3.2) notes that a VMM "schedules complete operating systems";
// what matters to the experiments is the architectural price of moving the
// CPU between domains — a scheduling decision plus an address-space switch
// (plus the TLB refill that follows) — charged on every inter-VM upcall,
// reflect, and explicit switch.

#ifndef UKVM_SRC_VMM_SCHED_H_
#define UKVM_SRC_VMM_SCHED_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/core/ids.h"
#include "src/hw/machine.h"
#include "src/vmm/domain.h"

namespace uvmm {

class DomainScheduler {
 public:
  explicit DomainScheduler(hwsim::Machine& machine)
      : machine_(machine), trace_switch_(machine.names().Intern("sched.switch")) {}

  // Switches the CPU into `dom`'s context at the given privilege. A switch
  // to the domain already running charges nothing architectural.
  void SwitchTo(Domain& dom, hwsim::PrivLevel level);

  // Enters hypervisor mode without an address-space switch (the hypervisor
  // is mapped in every domain) and — deliberately — without changing the
  // accounting domain: like Xen, hypervisor work done on behalf of a domain
  // is charged to that domain's vCPU. That attribution is what lets
  // experiment E3 see Dom0's CPU grow with page flips, as xentop did for
  // Cherkasova & Gardner.
  void EnterHypervisor();

  // Forgets `dom` if it is the current domain (domain destruction).
  void Detach(const Domain* dom) {
    if (current_ == dom) {
      current_ = nullptr;
    }
  }

  Domain* current() const { return current_; }
  uint64_t domain_switches() const { return switches_; }

  // Scheduling weights (credit-scheduler style); informational plus used by
  // the weighted round-robin pick.
  void SetWeight(ukvm::DomainId dom, uint32_t weight) { weights_[dom] = weight; }
  uint32_t WeightOf(ukvm::DomainId dom) const {
    auto it = weights_.find(dom);
    return it == weights_.end() ? 256 : it->second;
  }

 private:
  hwsim::Machine& machine_;
  Domain* current_ = nullptr;
  uint64_t switches_ = 0;
  uint32_t trace_switch_;
  std::unordered_map<ukvm::DomainId, uint32_t> weights_;
};

// Credit scheduler (Xen-style, simplified): interleaves CPU-bound work of
// several domains in proportion to their weights — §2.2 primitive 4,
// "resource allocation per VM via VMM hypercall interface", made
// observable. Work is supplied as step functions (one step = one quantum of
// guest execution); the runner picks the domain with the most credits,
// runs one step in its context, and debits the cycles it consumed.
class CreditRunner {
 public:
  // A step returns true when the job is finished.
  using Step = std::function<bool()>;

  CreditRunner(hwsim::Machine& machine, DomainScheduler& sched)
      : machine_(machine), sched_(sched) {}

  void Add(Domain* dom, Step step);

  // Runs until every job reports done. Credits refill in proportion to
  // DomainScheduler weights every `refill_period` consumed cycles.
  void Run(uint64_t refill_period = 30 * hwsim::kCyclesPerUs);

  // Cycles each job's domain consumed while the runner drove it.
  uint64_t ConsumedBy(ukvm::DomainId dom) const;

 private:
  struct Job {
    Domain* dom;
    Step step;
    bool done = false;
    int64_t credits = 0;
    uint64_t consumed = 0;
  };

  hwsim::Machine& machine_;
  DomainScheduler& sched_;
  std::vector<Job> jobs_;
};

}  // namespace uvmm

#endif  // UKVM_SRC_VMM_SCHED_H_
