// E20: what happens-before race detection costs.
//
// The detector's contract mirrors the tracer's (E17): it observes the
// simulation without perturbing it. No observer on the machine's bus
// charges simulated cycles, so a run with race detection on is
// cycle-for-cycle identical to the same run with it off — the first gate
// asserts sim delta == 0 on every row (the process exits nonzero
// otherwise, and scripts/check.sh gates on it). The real cost is host
// wall-clock, reported as a ratio.
//
// The second gate is the detector's verdict itself: every stock split-driver
// protocol here must run race-free (zero violations on every row). The
// mutation self-tests in tests/test_race.cc cover the other direction —
// that seeded protocol bugs do fire.

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
  uint64_t violations = 0;  // detector verdict (must be 0)
  uint64_t edges = 0;       // release + acquire operations observed
  uint64_t accesses = 0;    // shared slot/frame accesses checked
};

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Drains the stack and reads its results; `t0` is when the run started.
template <typename Stack>
RunResult Harvest(Stack& stack, std::chrono::steady_clock::time_point t0) {
  stack.machine().RunUntilIdle();
  RunResult r;
  r.sim_cycles = stack.machine().Now();
  if (stack.auditor() != nullptr && stack.auditor()->race() != nullptr) {
    r.violations = stack.auditor()->violation_count();
    const ucheck::RaceDetector::Stats s = stack.auditor()->race()->stats();
    r.edges = s.releases + s.acquires;
    r.accesses = s.shared_accesses;
  }
  r.host_ms = MsSince(t0);
  return r;
}

RunResult RunVmmFlipReceive(bool race) {
  ustack::VmmStack::Config config;
  config.audit = false;
  config.race_detect = race;
  config.rx_mode = ustack::RxMode::kPageFlip;
  const auto t0 = std::chrono::steady_clock::now();
  ustack::VmmStack stack(config);
  uwork::WireHost wire(stack.machine(), stack.nic());
  stack.RouteWirePort(40, 0);
  auto& os = stack.guest_os(0);
  (void)stack.RunAsApp(0, [&] {
    auto pid = os.Spawn("bench");
    (void)os.NetBind(*pid, 40);
    wire.StartStream(40, 1024, 20 * hwsim::kCyclesPerUs, 64);
    uwork::RunUdpReceive(stack.machine(), os, *pid, 40, 64, 1'000'000'000ull);
  });
  return Harvest(stack, t0);
}

RunResult RunVmmBlkTraffic(bool race) {
  ustack::VmmStack::Config config;
  config.audit = false;
  config.race_detect = race;
  const auto t0 = std::chrono::steady_clock::now();
  ustack::VmmStack stack(config);
  auto& front = *stack.guest(0).blkfront;
  auto& blk = stack.guest_os(0).block();
  std::vector<uint8_t> block(front.block_size(), 0x5A);
  std::vector<uint8_t> back(front.block_size(), 0);
  for (uint64_t lba = 0; lba < 32; ++lba) {
    (void)blk.Write(lba, 1, block);
  }
  for (uint64_t lba = 0; lba < 32; ++lba) {
    (void)blk.Read(lba, 1, back);
  }
  return Harvest(stack, t0);
}

RunResult RunVmmBatchedCopyReceive(bool race) {
  ustack::VmmStack::Config config;
  config.audit = false;
  config.race_detect = race;
  config.rx_mode = ustack::RxMode::kGrantCopy;
  config.io_batch = 8;
  config.persistent_grants = true;
  const auto t0 = std::chrono::steady_clock::now();
  ustack::VmmStack stack(config);
  uwork::WireHost wire(stack.machine(), stack.nic());
  stack.RouteWirePort(41, 0);
  auto& os = stack.guest_os(0);
  (void)stack.RunAsApp(0, [&] {
    auto pid = os.Spawn("bench");
    (void)os.NetBind(*pid, 41);
    wire.StartStream(41, 1024, 20 * hwsim::kCyclesPerUs, 64);
    uwork::RunUdpReceive(stack.machine(), os, *pid, 41, 64, 1'000'000'000ull);
  });
  return Harvest(stack, t0);
}

RunResult RunUkernelIpc(bool race) {
  ustack::UkernelStack::Config config;
  config.audit = false;
  config.race_detect = race;
  const auto t0 = std::chrono::steady_clock::now();
  ustack::UkernelStack stack(config);
  auto& os = stack.guest_os(0);
  (void)stack.RunAsApp(0, [&] {
    auto pid = os.Spawn("bench");
    uwork::RunNullSyscalls(stack.machine(), os, *pid, 2000);
  });
  return Harvest(stack, t0);
}

}  // namespace

int main() {
  uharness::PrintHeading("E20",
                         "race-detection overhead: vector clocks + ring discipline");

  struct Shape {
    const char* name;
    std::function<RunResult(bool)> run;
  };
  const std::vector<Shape> shapes = {
      {"E9 flip receive (vmm, 64 pkts page-flip)", RunVmmFlipReceive},
      {"blk write/read (vmm, 32 blocks each way)", RunVmmBlkTraffic},
      {"E16 batched copy receive (vmm, batch 8)", RunVmmBatchedCopyReceive},
      {"E1 ipc-pingpong (ukernel, 2000 syscalls)", RunUkernelIpc},
  };

  // Deterministic counters and host wall-clock live in separate tables so
  // the former can join the bit-exact JSON comparison in scripts/check.sh
  // (host timing varies run to run and goes to BENCH_E20_HOST.json).
  uharness::Table table("race detection off vs on (deterministic)",
                        {"workload", "sim cycles (off)", "sim cycles (on)", "sim delta",
                         "hb edges", "accesses", "violations"});
  uharness::Table host_table("race detection host overhead",
                             {"workload", "host ms (off)", "host ms (on)",
                              "host overhead"});
  host_table.MarkHostTime();

  bool sim_clean = true;
  bool races_clean = true;
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
    if (on.violations != 0) {
      races_clean = false;
    }
    const double ratio = off.host_ms > 0 ? on.host_ms / off.host_ms : 0;
    char overhead[32];
    std::snprintf(overhead, sizeof overhead, "%.2fx", ratio);
    char delta_str[32];
    std::snprintf(delta_str, sizeof delta_str, "%lld", static_cast<long long>(delta));
    table.AddRow({shape.name, uharness::FmtInt(off.sim_cycles),
                  uharness::FmtInt(on.sim_cycles), delta_str, uharness::FmtInt(on.edges),
                  uharness::FmtInt(on.accesses), uharness::FmtInt(on.violations)});
    host_table.AddRow({shape.name, uharness::FmtDouble(off.host_ms, 1),
                       uharness::FmtDouble(on.host_ms, 1), overhead});
  }
  table.Print();
  host_table.Print();

  std::printf(
      "\nInvariant: detection must be invisible in simulated time (sim delta == 0 on\n"
      "every row — no bus observer charges cycles) — %s. Stock protocols must be\n"
      "race-free (violations == 0 on every row) — %s.\n",
      sim_clean ? "holds" : "VIOLATED", races_clean ? "holds" : "VIOLATED");
  uharness::WriteJsonIfRequested("E20");
  return sim_clean && races_clean ? 0 : 1;
}
