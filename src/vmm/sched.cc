#include "src/vmm/sched.h"

namespace uvmm {

void DomainScheduler::SwitchTo(Domain& dom, hwsim::PrivLevel level) {
  hwsim::Cpu& cpu = machine_.cpu();
  if (current_ != &dom) {
    machine_.tracer().Instant(trace_switch_, dom.id,
                              current_ != nullptr ? current_->id.value() : 0);
    machine_.Charge(machine_.costs().schedule_decision);
    cpu.SwitchAddressSpace(&dom.space);
    cpu.SetSegments(&dom.segments);
    ++switches_;
    current_ = &dom;
  }
  cpu.SetDomain(dom.id);
  cpu.SetMode(level);
}

void DomainScheduler::EnterHypervisor() {
  machine_.cpu().SetMode(hwsim::PrivLevel::kPrivileged);
}

void CreditRunner::Add(Domain* dom, Step step) {
  jobs_.push_back(Job{dom, std::move(step), false, 0, 0});
}

uint64_t CreditRunner::ConsumedBy(ukvm::DomainId dom) const {
  uint64_t total = 0;
  for (const Job& job : jobs_) {
    if (job.dom->id == dom) {
      total += job.consumed;
    }
  }
  return total;
}

void CreditRunner::Run(uint64_t refill_period) {
  const int64_t period_credits = static_cast<int64_t>(refill_period / hwsim::kCyclesPerUs);

  // Each accounting period hands out exactly as many credits as one period
  // of CPU consumes (1 credit = 1 us), split in proportion to weights —
  // the property that makes long-run shares track the weight vector.
  auto refill = [this, period_credits] {
    uint64_t weight_sum = 0;
    for (const Job& job : jobs_) {
      if (!job.done) {
        weight_sum += sched_.WeightOf(job.dom->id);
      }
    }
    if (weight_sum == 0) {
      return;
    }
    for (Job& job : jobs_) {
      if (!job.done) {
        const int64_t share = period_credits *
                              static_cast<int64_t>(sched_.WeightOf(job.dom->id)) /
                              static_cast<int64_t>(weight_sum);
        // Cap accumulation (Xen's anti-hoarding rule).
        job.credits = std::min(job.credits + share, 2 * period_credits);
      }
    }
  };
  refill();
  uint64_t next_refill = machine_.Now() + refill_period;

  while (true) {
    Job* best = nullptr;
    for (Job& job : jobs_) {
      if (!job.done && (best == nullptr || job.credits > best->credits)) {
        best = &job;
      }
    }
    if (best == nullptr) {
      return;  // all done
    }
    sched_.SwitchTo(*best->dom, hwsim::PrivLevel::kUser);
    const uint64_t t0 = machine_.Now();
    best->done = best->step();
    const uint64_t consumed = machine_.Now() - t0;
    best->consumed += consumed;
    // Debit one credit per microsecond consumed (Xen's accounting grain).
    best->credits -= static_cast<int64_t>(consumed / hwsim::kCyclesPerUs + 1);
    if (machine_.Now() >= next_refill) {
      refill();
      next_refill = machine_.Now() + refill_period;
    }
  }
}

}  // namespace uvmm
