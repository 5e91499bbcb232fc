#include "src/stacks/watchdog.h"

#include <utility>

namespace ustack {

using ukvm::Err;

// --- ServiceHealth ---------------------------------------------------------

bool ServiceHealth::ShouldFastFail() {
  if (!policy_.enabled() || !open_) {
    return false;
  }
  if (machine_.Now() >= open_until_) {
    // Half-close: let the next request through to the device; one more
    // failure re-opens the breaker immediately.
    open_ = false;
    consecutive_failures_ = policy_.fail_threshold - 1;
    return false;
  }
  ++degraded_;
  machine_.counters().AddNamed("svc.degraded_reply");
  return true;
}

void ServiceHealth::RecordSuccess() {
  consecutive_failures_ = 0;
  open_ = false;
}

void ServiceHealth::RecordFailure() {
  ++consecutive_failures_;
  if (policy_.enabled() && !open_ && consecutive_failures_ >= policy_.fail_threshold) {
    open_ = true;
    open_until_ = machine_.Now() + policy_.cooldown_cycles;
    ++trips_;
    machine_.counters().AddNamed("svc.breaker_trip");
  }
}

// --- Watchdog --------------------------------------------------------------

void Watchdog::Watch(std::string name, Probe probe, RestartFn restart) {
  Service svc;
  svc.stats.name = std::move(name);
  svc.probe = std::move(probe);
  svc.restart = std::move(restart);
  svc.next_probe_at = machine_.Now() + policy_.probe_interval;
  services_.push_back(std::move(svc));
}

void Watchdog::Poll() {
  for (Service& svc : services_) {
    if (machine_.Now() >= svc.next_probe_at) {
      RunProbe(svc);
    }
  }
}

void Watchdog::RunProbe(Service& svc) {
  ++svc.stats.probes;
  machine_.counters().AddNamed("watchdog.probe");
  const Err err = svc.probe ? svc.probe() : Err::kNotSupported;
  if (err == Err::kNone) {
    if (svc.failing_since != 0) {
      svc.stats.recovery_cycles += machine_.Now() - svc.failing_since;
      svc.failing_since = 0;
    }
    svc.consecutive_failures = 0;
    svc.stats.healthy = true;
    svc.next_probe_at = machine_.Now() + policy_.probe_interval;
    return;
  }

  ++svc.stats.probe_failures;
  machine_.counters().AddNamed("watchdog.probe_fail");
  if (svc.failing_since == 0) {
    svc.failing_since = machine_.Now();
  }
  ++svc.consecutive_failures;
  svc.stats.healthy = false;
  svc.next_probe_at = machine_.Now() + policy_.probe_interval;

  if (svc.consecutive_failures < policy_.fail_threshold) {
    return;
  }
  if (svc.stats.restarts >= policy_.restart_budget) {
    if (!svc.stats.budget_exhausted) {
      svc.stats.budget_exhausted = true;
      machine_.counters().AddNamed("watchdog.budget_exhausted");
    }
    return;
  }
  // Capture the evidence before restarting: the flight recorder and the
  // slowest-request DAGs still hold the window that led to the trip.
  machine_.PostMortemDump("watchdog-restart");
  svc.restart();
  ++svc.stats.restarts;
  // One name-table id serves as the counter and the flight-recorder instant.
  const uint32_t restart = machine_.counters().Intern("watchdog.restart");
  machine_.counters().Add(restart);
  machine_.tracer().Instant(restart, ukvm::kHardwareDomain, svc.stats.restarts);
  svc.consecutive_failures = 0;
  // Give the restarted service room to come up — and back off harder each
  // time in case the underlying device is still sick.
  uint64_t holdoff = policy_.restart_backoff_cycles;
  if (svc.stats.restarts > 1) {
    holdoff <<= (svc.stats.restarts - 1);
  }
  svc.next_probe_at = machine_.Now() + policy_.probe_interval + holdoff;
}

const std::vector<Watchdog::ServiceStats>& Watchdog::stats() const {
  stats_snapshot_.clear();
  for (const Service& svc : services_) {
    stats_snapshot_.push_back(svc.stats);
  }
  return stats_snapshot_;
}

uint64_t Watchdog::restarts_total() const {
  uint64_t total = 0;
  for (const Service& svc : services_) {
    total += svc.stats.restarts;
  }
  return total;
}

}  // namespace ustack
