// ukvm-check overhead: what the always-on auditor costs.
//
// The auditor's bus observers charge no simulated cycles — by design, enabling it
// must not perturb any measured number (the first table asserts exactly
// that). Its real cost is host CPU time spent in the checks, which bounds
// how much auditing the tier-1 suite can afford to leave default-ON. This
// bench runs the E1 (IPC ping-pong path), E4 (mixed crossing blend), and
// E9 (page-flip receive path) workload shapes with auditing off and on and
// reports the host-time ratio.

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "src/experiments/table.h"
#include "src/stacks/ukernel_stack.h"
#include "src/stacks/vmm_stack.h"
#include "src/workloads/netio.h"
#include "src/workloads/oswork.h"

namespace {

struct RunResult {
  uint64_t sim_cycles = 0;
  double host_ms = 0;
  uint64_t checks_flagged = 0;  // violations (must be 0 on healthy stacks)
};

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

RunResult RunUkernelIpc(bool audit) {
  ustack::UkernelStack::Config config;
  config.audit = audit;
  const auto t0 = std::chrono::steady_clock::now();
  ustack::UkernelStack stack(config);
  auto& os = stack.guest_os(0);
  RunResult r;
  const ukvm::Err err = stack.RunAsApp(0, [&] {
    auto pid = os.Spawn("bench");
    uwork::RunNullSyscalls(stack.machine(), os, *pid, 2000);
  });
  (void)err;
  stack.machine().RunUntilIdle();
  if (stack.auditor() != nullptr) {
    stack.auditor()->Checkpoint("bench-end");
    r.checks_flagged = stack.auditor()->violation_count();
  }
  r.sim_cycles = stack.machine().Now();
  r.host_ms = MsSince(t0);
  return r;
}

RunResult RunVmmMixed(bool audit) {
  ustack::VmmStack::Config config;
  config.audit = audit;
  const auto t0 = std::chrono::steady_clock::now();
  ustack::VmmStack stack(config);
  auto& os = stack.guest_os(0);
  RunResult r;
  const ukvm::Err err = stack.RunAsApp(0, [&] {
    auto pid = os.Spawn("bench");
    uwork::RunMixedWorkload(stack.machine(), os, *pid, 80);
  });
  (void)err;
  stack.machine().RunUntilIdle();
  if (stack.auditor() != nullptr) {
    stack.auditor()->Checkpoint("bench-end");
    r.checks_flagged = stack.auditor()->violation_count();
  }
  r.sim_cycles = stack.machine().Now();
  r.host_ms = MsSince(t0);
  return r;
}

RunResult RunVmmFlipReceive(bool audit) {
  ustack::VmmStack::Config config;
  config.audit = audit;
  config.rx_mode = ustack::RxMode::kPageFlip;
  const auto t0 = std::chrono::steady_clock::now();
  ustack::VmmStack stack(config);
  uwork::WireHost wire(stack.machine(), stack.nic());
  stack.RouteWirePort(40, 0);
  auto& os = stack.guest_os(0);
  RunResult r;
  const ukvm::Err err = stack.RunAsApp(0, [&] {
    auto pid = os.Spawn("bench");
    (void)os.NetBind(*pid, 40);
    wire.StartStream(40, 1024, 20 * hwsim::kCyclesPerUs, 64);
    uwork::RunUdpReceive(stack.machine(), os, *pid, 40, 64, 1'000'000'000ull);
  });
  (void)err;
  stack.machine().RunUntilIdle();
  if (stack.auditor() != nullptr) {
    stack.auditor()->Checkpoint("bench-end");
    r.checks_flagged = stack.auditor()->violation_count();
  }
  r.sim_cycles = stack.machine().Now();
  r.host_ms = MsSince(t0);
  return r;
}

}  // namespace

int main() {
  uharness::PrintHeading("check-overhead",
                         "cost of the always-on isolation auditor (src/check)");

  struct Shape {
    const char* name;
    std::function<RunResult(bool)> run;
  };
  const std::vector<Shape> shapes = {
      {"E1 ipc-pingpong (ukernel, 2000 syscalls)", RunUkernelIpc},
      {"E4 mixed blend (vmm, syscalls+files+udp)", RunVmmMixed},
      {"E9 flip receive (vmm, 64 pkts page-flip)", RunVmmFlipReceive},
  };

  uharness::Table table("audit off vs on",
                        {"workload", "sim cycles (off)", "sim cycles (on)", "sim delta",
                         "host ms (off)", "host ms (on)", "host overhead", "violations"});

  bool sim_clean = true;
  for (const Shape& shape : shapes) {
    // Warm-up run to stabilise host timing (allocator, page cache).
    (void)shape.run(false);
    const RunResult off = shape.run(false);
    const RunResult on = shape.run(true);
    const int64_t delta =
        static_cast<int64_t>(on.sim_cycles) - static_cast<int64_t>(off.sim_cycles);
    if (delta != 0) {
      sim_clean = false;
    }
    const double ratio = off.host_ms > 0 ? on.host_ms / off.host_ms : 0;
    char overhead[32];
    std::snprintf(overhead, sizeof overhead, "%.2fx", ratio);
    char delta_str[32];
    std::snprintf(delta_str, sizeof delta_str, "%lld", static_cast<long long>(delta));
    table.AddRow({shape.name, uharness::FmtInt(off.sim_cycles),
                  uharness::FmtInt(on.sim_cycles), delta_str,
                  uharness::FmtDouble(off.host_ms, 1), uharness::FmtDouble(on.host_ms, 1),
                  overhead, uharness::FmtInt(on.checks_flagged)});
  }
  table.Print();

  std::printf(
      "\nInvariant: auditing must be invisible in simulated time (sim delta == 0 on\n"
      "every row: observers charge no cycles, flushes have no counters) — %s. The host\n"
      "column is the real price; it is what UKVM_CHECK=OFF buys back.\n",
      sim_clean ? "holds" : "VIOLATED");
  return sim_clean ? 0 : 1;
}
