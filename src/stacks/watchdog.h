// Service health machinery shared by both stacks: a circuit breaker for
// graceful degradation inside a service, and a watchdog that probes
// services from the outside and restarts the ones that stop answering.
//
// The paper's availability argument (§3, E5/E14) is that user-level
// services and driver domains can fail and be restarted without taking the
// system down. The chaos soak (E15) stresses that claim: under persistent
// device faults a service should degrade to error replies — never wedge —
// and a supervisor should be able to detect an unresponsive service via its
// ordinary request path and drive the stack's existing restart procedure.

#ifndef UKVM_SRC_STACKS_WATCHDOG_H_
#define UKVM_SRC_STACKS_WATCHDOG_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/error.h"
#include "src/hw/machine.h"

namespace ustack {

// --- Graceful degradation --------------------------------------------------

struct DegradePolicy {
  uint32_t fail_threshold = 0;   // consecutive device failures to trip (0 = off)
  uint64_t cooldown_cycles = 0;  // how long the breaker stays open once tripped
  bool enabled() const { return fail_threshold > 0; }
};

// Per-service circuit breaker. Services record the outcome of each
// device-path operation; after `fail_threshold` consecutive failures the
// breaker opens and the service fast-fails requests (an error reply in a
// bounded number of cycles) instead of burning its retry budget against a
// device that is clearly sick. After `cooldown_cycles` the breaker
// half-closes: the next request goes to the device, and one more failure
// re-opens it.
class ServiceHealth {
 public:
  ServiceHealth(hwsim::Machine& machine, std::string_view name)
      : machine_(machine), name_(name) {}

  void SetPolicy(const DegradePolicy& policy) { policy_ = policy; }
  const DegradePolicy& policy() const { return policy_; }

  // True when the caller should skip the device and reply kRetryExhausted.
  // Counts the degraded reply.
  bool ShouldFastFail();

  void RecordSuccess();
  void RecordFailure();

  bool open() const { return open_; }
  uint64_t degraded_replies() const { return degraded_; }
  uint64_t trips() const { return trips_; }
  const std::string& name() const { return name_; }

 private:
  hwsim::Machine& machine_;
  std::string name_;
  DegradePolicy policy_;
  uint32_t consecutive_failures_ = 0;
  bool open_ = false;
  uint64_t open_until_ = 0;
  uint64_t degraded_ = 0;
  uint64_t trips_ = 0;
};

// --- Watchdog --------------------------------------------------------------

// Probes services through their normal request paths (a real IPC or ring
// round-trip, never private back doors) and drives the stack's existing
// restart procedure when a service stops answering. Restarts are bounded
// by a budget and spaced by exponential backoff so a service that is sick
// because the hardware is sick doesn't get restarted in a tight loop.
class Watchdog {
 public:
  struct Policy {
    uint64_t probe_interval = 0;          // cycles between probes of one service
    uint32_t fail_threshold = 2;          // consecutive probe failures before restart
    uint32_t restart_budget = 4;          // lifetime restarts per service
    uint64_t restart_backoff_cycles = 0;  // hold-off after restart k is backoff << (k-1)
  };

  // A probe issues one request via the service's public interface and
  // returns its status; kNone means the service answered correctly.
  using Probe = std::function<ukvm::Err()>;
  using RestartFn = std::function<void()>;

  struct ServiceStats {
    std::string name;
    uint64_t probes = 0;
    uint64_t probe_failures = 0;
    uint32_t restarts = 0;
    uint64_t recovery_cycles = 0;  // time from first failed probe back to healthy
    bool budget_exhausted = false;
    bool healthy = true;
  };

  Watchdog(hwsim::Machine& machine, Policy policy) : machine_(machine), policy_(policy) {}

  void Watch(std::string name, Probe probe, RestartFn restart);

  // Runs every due probe once; call periodically from the workload loop.
  void Poll();

  const std::vector<ServiceStats>& stats() const;
  uint64_t restarts_total() const;

 private:
  struct Service {
    ServiceStats stats;
    Probe probe;
    RestartFn restart;
    uint32_t consecutive_failures = 0;
    uint64_t next_probe_at = 0;
    uint64_t failing_since = 0;  // Now() of the first failure in a streak; 0 = healthy
  };

  void RunProbe(Service& svc);

  hwsim::Machine& machine_;
  Policy policy_;
  std::vector<Service> services_;
  mutable std::vector<ServiceStats> stats_snapshot_;
};

}  // namespace ustack

#endif  // UKVM_SRC_STACKS_WATCHDOG_H_
