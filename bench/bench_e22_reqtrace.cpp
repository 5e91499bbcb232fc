// E22: causal request tracing with critical-path and tail-latency attribution.
//
// The request tracer's contract extends E17's: it follows individual
// requests across every handoff the simulator models (ring slots, event
// channels, ledger crossings, multicalls, recovery replay) without charging
// a single simulated cycle. Three gates, all deterministic:
//
//   1. zero perturbation: sim delta == 0 on every shape with tracing armed
//      (the process exits nonzero otherwise, and scripts/check.sh gates);
//   2. completeness: >= 99% of completed requests are fully parented (every
//      stashed handoff adopted by the far side) and zero orphaned handoffs —
//      the propagation points cover the protocols end to end;
//   3. attribution: on the E19 crash shape, the slowest retained request's
//      critical path names the recovery phases (detect / reconnect /
//      replay) — a tail outlier is linked to its cause, not just measured.
//
// When UKVM_TRACE_DIR is set the crash shape also exports its K slowest
// request DAGs as a Perfetto-loadable flow view plus a per-request JSON
// table.

#include <array>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "src/core/reqtrace.h"
#include "src/experiments/table.h"
#include "src/experiments/trace_export.h"
#include "src/stacks/ukernel_stack.h"
#include "src/stacks/vmm_stack.h"
#include "src/workloads/netio.h"
#include "src/workloads/oswork.h"

namespace {

using ukvm::Err;

struct ShapeResult {
  uint64_t sim_cycles = 0;
  ukvm::ReqTraceLint lint;
  uint64_t started = 0;
  ukvm::HistogramSnapshot e2e;
  std::string slowest_origin = "-";
  uint64_t slowest_e2e = 0;
  std::array<uint64_t, ukvm::kReqNodeKindCount> slowest_breakdown{};
  std::string report;
};

ShapeResult Harvest(hwsim::Machine& machine) {
  ShapeResult r;
  r.sim_cycles = machine.Now();
  const ukvm::RequestTrace& rt = machine.reqtrace();
  r.lint = rt.Lint();
  r.started = rt.requests_started();
  r.e2e = rt.e2e().Snapshot();
  if (!rt.slowest().empty()) {
    const ukvm::CompletedRequest& slow = rt.slowest().front();
    r.slowest_origin = rt.Name(slow.nodes.front().name);
    r.slowest_e2e = slow.t1 - slow.t0;
    r.slowest_breakdown = slow.breakdown;
  }
  r.report = rt.SlowestReport();
  return r;
}

ShapeResult RunUkernelIpc(bool rtrace) {
  ustack::UkernelStack::Config config;
  config.audit = false;
  config.trace.enabled = true;
  config.request_trace.enabled = rtrace;
  ustack::UkernelStack stack(config);
  auto& os = stack.guest_os(0);
  (void)stack.RunAsApp(0, [&] {
    auto pid = os.Spawn("bench");
    uwork::RunNullSyscalls(stack.machine(), os, *pid, 2000);
  });
  stack.machine().RunUntilIdle();
  return Harvest(stack.machine());
}

ShapeResult RunVmmMixed(bool rtrace) {
  ustack::VmmStack::Config config;
  config.audit = false;
  config.trace.enabled = true;
  config.request_trace.enabled = rtrace;
  ustack::VmmStack stack(config);
  auto& os = stack.guest_os(0);
  (void)stack.RunAsApp(0, [&] {
    auto pid = os.Spawn("bench");
    uwork::RunMixedWorkload(stack.machine(), os, *pid, 80);
  });
  stack.machine().RunUntilIdle();
  return Harvest(stack.machine());
}

ShapeResult RunVmmBatchedCopyReceive(bool rtrace) {
  ustack::VmmStack::Config config;
  config.audit = false;
  config.trace.enabled = true;
  config.request_trace.enabled = rtrace;
  config.rx_mode = ustack::RxMode::kGrantCopy;
  config.io_batch = 8;
  config.persistent_grants = true;
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
  stack.machine().RunUntilIdle();
  return Harvest(stack.machine());
}

// The E19 shape: kill the storage VM with writes on the ring, restart,
// replay the journal. With tracing on, the replayed requests' DAGs must
// attribute the stall to the recovery phases.
ShapeResult RunRecoveryKill(bool rtrace) {
  ustack::VmmStack::Config config;
  config.audit = false;
  config.trace.enabled = true;
  config.request_trace.enabled = rtrace;
  config.parallax_storage = true;
  config.crash_recovery = true;
  ustack::VmmStack stack(config);
  auto& front = *stack.guest(0).blkfront;
  auto& blk = stack.guest_os(0).block();
  std::vector<uint8_t> block(front.block_size(), 0);
  for (int i = 0; i < 16; ++i) {
    block.assign(block.size(), static_cast<uint8_t>(i + 1));
    if (i == 8) {
      // Land inside this write's completion wait: it dies on the ring,
      // journals, and replays after the restart.
      stack.machine().ScheduleAfter(30 * hwsim::kCyclesPerUs,
                                    [&stack] { (void)stack.KillStorage(); });
    }
    (void)blk.Write(static_cast<uint64_t>(i) % 8, 1, block);
    if (i == 11) {
      stack.machine().RunUntilIdle();
      if (stack.RestartStorage() != Err::kNone) {
        std::printf("FAIL: RestartStorage failed\n");
      }
    }
  }
  stack.machine().RunUntilIdle();
  ShapeResult r = Harvest(stack.machine());
  if (rtrace) {
    uharness::WriteRequestTraceFilesIfRequested(stack.machine().reqtrace(),
                                                stack.machine().tracer(), "e22_recovery",
                                                hwsim::kCyclesPerUs);
  }
  return r;
}

}  // namespace

int main() {
  uharness::PrintHeading(
      "E22", "causal request tracing: critical-path and tail-latency attribution");

  struct Shape {
    const char* name;
    std::function<ShapeResult(bool)> run;
    bool recovery = false;
  };
  const std::vector<Shape> shapes = {
      {"E1 ipc-pingpong (ukernel, 2000 syscalls)", RunUkernelIpc},
      {"E4 mixed blend (vmm, syscalls+files+udp)", RunVmmMixed},
      {"E16 batched copy receive (vmm, batch 8)", RunVmmBatchedCopyReceive},
      {"E19 killed backend mid-write (vmm+parallax)", RunRecoveryKill, true},
  };

  uharness::Table table("request tracing off vs on (deterministic)",
                        {"workload", "sim cycles (off)", "sim cycles (on)", "sim delta",
                         "requests", "completed", "abandoned", "parented", "orphans"});
  uharness::Table tail("tail-latency attribution (slowest retained request)",
                       {"workload", "e2e count", "e2e p50", "e2e p99", "slowest origin",
                        "slowest e2e", "dominant bucket", "bucket cycles"});

  bool sim_clean = true;
  bool parented_ok = true;
  bool recovery_ok = false;
  std::array<uint64_t, ukvm::kReqNodeKindCount> recovery_breakdown{};
  for (const Shape& shape : shapes) {
    const ShapeResult off = shape.run(false);
    const ShapeResult on = shape.run(true);
    const int64_t delta =
        static_cast<int64_t>(on.sim_cycles) - static_cast<int64_t>(off.sim_cycles);
    if (delta != 0) {
      sim_clean = false;
    }
    if (on.lint.parented_fraction() < 0.99 || on.lint.orphaned_handoffs != 0 ||
        on.lint.completed == 0) {
      parented_ok = false;
    }
    char delta_str[32];
    std::snprintf(delta_str, sizeof delta_str, "%lld", static_cast<long long>(delta));
    table.AddRow({shape.name, uharness::FmtInt(off.sim_cycles),
                  uharness::FmtInt(on.sim_cycles), delta_str, uharness::FmtInt(on.started),
                  uharness::FmtInt(on.lint.completed), uharness::FmtInt(on.lint.abandoned),
                  uharness::FmtPercent(on.lint.parented_fraction()),
                  uharness::FmtInt(on.lint.orphaned_handoffs)});

    // Dominant critical-path bucket of the slowest retained request.
    size_t dominant = static_cast<size_t>(ukvm::ReqNodeKind::kQueue);
    for (size_t k = 0; k < ukvm::kReqNodeKindCount; ++k) {
      if (on.slowest_breakdown[k] > on.slowest_breakdown[dominant]) {
        dominant = k;
      }
    }
    tail.AddRow({shape.name, uharness::FmtInt(on.e2e.count), uharness::FmtCycles(on.e2e.p50),
                 uharness::FmtCycles(on.e2e.p99), on.slowest_origin,
                 uharness::FmtCycles(on.slowest_e2e),
                 ukvm::ReqNodeKindName(static_cast<ukvm::ReqNodeKind>(dominant)),
                 uharness::FmtCycles(on.slowest_breakdown[dominant])});

    if (shape.recovery) {
      const bool named = on.report.find("recovery.detect") != std::string::npos &&
                         on.report.find("recovery.reconnect") != std::string::npos &&
                         on.report.find("recovery.replay") != std::string::npos;
      const uint64_t rec_cycles =
          on.slowest_breakdown[static_cast<size_t>(ukvm::ReqNodeKind::kRecovery)];
      recovery_ok = named && rec_cycles > 0;
      recovery_breakdown = on.slowest_breakdown;
    }
  }
  table.Print();
  tail.Print();

  uharness::Table rec("E19 shape: slowest request critical-path breakdown",
                      {"bucket", "cycles"});
  for (size_t k = 0; k < ukvm::kReqNodeKindCount; ++k) {
    if (recovery_breakdown[k] != 0) {
      rec.AddRow({ukvm::ReqNodeKindName(static_cast<ukvm::ReqNodeKind>(k)),
                  uharness::FmtCycles(recovery_breakdown[k])});
    }
  }
  rec.Print();

  std::printf(
      "\nInvariant: request tracing must be invisible in simulated time (sim delta\n"
      "== 0 on every row) — %s. Completeness: >= 99%% of completed requests fully\n"
      "parented, zero orphaned handoffs — %s. Attribution: the E19 crash shape's\n"
      "slowest request names detect/reconnect/replay on its critical path — %s.\n",
      sim_clean ? "holds" : "VIOLATED", parented_ok ? "holds" : "VIOLATED",
      recovery_ok ? "holds" : "VIOLATED");

  uharness::WriteJsonIfRequested("E22");
  return sim_clean && parented_ok && recovery_ok ? 0 : 1;
}
