// The repo benchmark: one workload over the native, ukernel and vmm stacks.
//
//   ukvm_perfbench --workload ctl|io|boot --seed N --seconds S --trace 0|1
//                  [--spans-out FILE] [--corrupt-expected]
//
// --trace 0 prints the end-to-end metrics of one untraced pass. --trace 1
// runs three passes of the same seed (untraced, traced, untraced with the
// audit off), checks that the traced pass reproduces every simulated-clock
// figure exactly, and prints the per-layer metrics, host timings included. Human-readable lines
// come first; the last line of stdout is the JSON result. The exit code is
// non-zero when any output check failed.

#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/hw/disk.h"
#include "src/hw/machine.h"
#include "src/hw/platform.h"
#include "pb/probe.h"
#include "pb/runner.h"

namespace perfbench {
namespace {

struct Args {
  Workload workload = Workload::kCtl;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt_expected = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      if (!ParseWorkload(argv[++i], args.workload)) {
        return false;
      }
      have_workload = true;
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) == "1";
    } else if (a == "--spans-out" && has_value) {
      args.spans_out = argv[++i];
    } else if (a == "--corrupt-expected") {
      args.corrupt_expected = true;
    } else {
      return false;
    }
  }
  return have_workload && args.seconds > 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

const StackResult& Of(const PassResult& r, StackKind kind) {
  return r.stacks[static_cast<size_t>(kind)];
}

// The gated end-to-end metrics: set-up time, memory, and the
// simulated-clock figures (exact for a seed). Per-op host timings are
// reported by the traced run; see README.md for why they carry no bound.
std::vector<Metric> EndToEnd(const PassResult& r) {
  std::vector<Metric> out;
  double setup = 0;
  for (const StackResult& s : r.stacks) {
    setup += Median(s.setup_s);
  }
  out.push_back({"setup_s", setup, "s"});
  out.push_back({"peak_rss_mib", PeakRssMib(), "MiB"});
  for (StackKind k : kStackKinds) {
    const Exact& e = Of(r, k).exact;
    out.push_back({std::string("sim_cycles_per_op.") + StackName(k),
                   Ratio(static_cast<double>(e.cycles), static_cast<double>(e.ops)),
                   "cycles"});
  }
  for (StackKind k : {StackKind::kUkernel, StackKind::kVmm}) {
    const Exact& e = Of(r, k).exact;
    out.push_back({std::string("crossings_per_op.") + StackName(k),
                   Ratio(static_cast<double>(e.ipc_like), static_cast<double>(e.ops)), "count"});
  }
  const Exact& vmm = Of(r, StackKind::kVmm).power_on;
  out.push_back({"dom0_cpu_share",
                 Ratio(static_cast<double>(vmm.driver_cycles),
                       static_cast<double>(vmm.busy_cycles)),
                 "ratio"});
  return out;
}

// Host-clock throughput and per-op latency of an untraced pass.
void HostTimings(const PassResult& r, std::vector<Metric>& out) {
  out.push_back({"ops_per_s", r.ops_per_s(), "1/s"});
  for (StackKind k : kStackKinds) {
    out.push_back({std::string("op_host_us_p50.") + StackName(k), Of(r, k).P50() / 1e3, "us"});
  }
  for (StackKind k : kStackKinds) {
    out.push_back({std::string("op_host_us_p90.") + StackName(k), Of(r, k).P90() / 1e3, "us"});
  }
}

// Every simulated-clock figure of a pass, for the traced/untraced check.
std::vector<uint64_t> SimFigures(const PassResult& r) {
  std::vector<uint64_t> v;
  for (const StackResult& s : r.stacks) {
    for (const Exact* ep : {&s.exact, &s.power_on}) {
    const Exact& e = *ep;
    for (uint64_t x : {e.ops, e.cycles, e.idle_cycles, e.busy_cycles, e.ipc_like,
                       e.ledger_events, e.tlb_hits, e.tlb_lookups, e.l4_ipc, e.l4_string_bytes,
                       e.hypercalls, e.evtchn, e.gnttab_maps, e.page_flips, e.packets,
                       e.driver_cycles}) {
      v.push_back(x);
    }
    for (const auto& dc : e.domain_cycles) {
      v.push_back(dc.second);
    }
    }
  }
  return v;
}

// Bare hardware construction at the default sizes (the ukernel/vmm
// Machine, the default Disk), five times each.
void ProbeHardware(Recorder& rec, std::vector<double>& machine_ms, std::vector<double>& disk_ms) {
  for (int i = 0; i < 5; ++i) {
    uint64_t t0 = HostNs();
    {
      rec.Begin(SpanName::kMachineCtor);
      hwsim::Machine machine(hwsim::MakeX86Platform(), 64ull * 1024 * 1024);
      rec.End();
      machine_ms.push_back(static_cast<double>(HostNs() - t0) / 1e6);
    }
    hwsim::Machine host(hwsim::MakeX86Platform(), 1ull << 20);
    t0 = HostNs();
    rec.Begin(SpanName::kDiskCtor);
    hwsim::Disk disk(host, ukvm::IrqLine(6), hwsim::Disk::Config{});
    rec.End();
    disk_ms.push_back(static_cast<double>(HostNs() - t0) / 1e6);
  }
}

std::vector<Metric> PerLayer(const PassResult& plain, const PassResult& traced,
                             const PassResult& no_audit, const Recorder& rec,
                             const std::vector<double>& machine_ms,
                             const std::vector<double>& disk_ms) {
  std::vector<Metric> out;
  HostTimings(plain, out);
  auto per_stack = [&out](const std::string& base, const std::string& unit, auto fn) {
    for (StackKind k : kStackKinds) {
      out.push_back({base + "." + StackName(k), fn(k), unit});
    }
  };
  auto per_op = [](uint64_t n, const Exact& e) {
    return Ratio(static_cast<double>(n), static_cast<double>(e.ops));
  };
  const auto& T = traced;
  uint64_t traced_ops = 0;
  for (const StackResult& s : T.stacks) {
    traced_ops += s.timed_ops;
  }

  // hw
  out.push_back({"hw.machine_ctor_ms", Median(machine_ms), "ms"});
  out.push_back({"hw.disk_ctor_ms", Median(disk_ms), "ms"});
  per_stack("hw.event_loop_ms_per_kop", "ms/kop", [&](StackKind k) {
    const Recorder::Agg& a = rec.agg(static_cast<size_t>(SpanName::kEventLoop), k);
    return Ratio(static_cast<double>(a.total_ns) / 1e6,
                 static_cast<double>(Of(T, k).timed_ops) / 1e3);
  });
  per_stack("hw.tlb_hit_ratio", "ratio", [&](StackKind k) {
    const Exact& e = Of(T, k).exact;
    return Ratio(static_cast<double>(e.tlb_hits), static_cast<double>(e.tlb_lookups));
  });
  per_stack("hw.idle_share", "ratio", [&](StackKind k) {
    const Exact& e = Of(T, k).exact;
    return Ratio(static_cast<double>(e.idle_cycles), static_cast<double>(e.cycles));
  });

  // core
  per_stack("core.charges_per_op", "count", [&](StackKind k) {
    return per_op(Of(T, k).exact_charges, Of(T, k).exact);
  });
  per_stack("core.ledger_events_per_op", "count", [&](StackKind k) {
    return per_op(Of(T, k).exact.ledger_events, Of(T, k).exact);
  });

  // os
  for (Call call : {Call::kNull, Call::kCreate, Call::kWrite, Call::kRead, Call::kUnlink,
                    Call::kSend, Call::kRecv}) {
    const size_t name = static_cast<size_t>(CallSpan(call));
    const std::string base = std::string("os.") + CallName(call);
    per_stack(base + ".host_ns_p50", "ns",
              [&](StackKind k) { return rec.agg(name, k).ns.Quantile(0.5); });
    per_stack(base + ".sim_cycles", "cycles", [&](StackKind k) {
      const Recorder::Agg& a = rec.agg(name, k);
      return Ratio(static_cast<double>(a.exact_sim_cycles), static_cast<double>(a.exact_count));
    });
  }

  // ukernel
  const Exact& uk = Of(T, StackKind::kUkernel).exact;
  out.push_back({"ukernel.ipc_per_op", per_op(uk.l4_ipc, uk), "count"});
  out.push_back({"ukernel.string_bytes_per_op", per_op(uk.l4_string_bytes, uk), "B"});
  for (const auto& [name, cycles] : uk.domain_cycles) {
    out.push_back({"ukernel.share." + name,
                   Ratio(static_cast<double>(cycles), static_cast<double>(uk.busy_cycles)),
                   "ratio"});
  }

  // vmm
  const Exact& vm = Of(T, StackKind::kVmm).exact;
  out.push_back({"vmm.hypercalls_per_op", per_op(vm.hypercalls, vm), "count"});
  out.push_back({"vmm.evtchn_per_op", per_op(vm.evtchn, vm), "count"});
  out.push_back({"vmm.gnttab_maps_per_op", per_op(vm.gnttab_maps, vm), "count"});
  out.push_back({"vmm.page_flips_per_op", per_op(vm.page_flips, vm), "count"});
  for (const auto& [name, cycles] : vm.domain_cycles) {
    out.push_back({"vmm.share." + name,
                   Ratio(static_cast<double>(cycles), static_cast<double>(vm.busy_cycles)),
                   "ratio"});
  }

  // drivers
  out.push_back({"drivers.dom0_cycles_per_pkt",
                 Ratio(static_cast<double>(vm.driver_cycles),
                       static_cast<double>(vm.packets)),
                 "cycles"});
  out.push_back({"drivers.retries", static_cast<double>(T.driver_retries), "count"});

  // stacks
  per_stack("stacks.boot_ms", "ms", [&](StackKind k) { return Median(Of(T, k).boot_ms); });
  per_stack("stacks.teardown_ms", "ms",
            [&](StackKind k) { return Median(Of(T, k).teardown_ms); });

  // check
  per_stack("check.checkpoint_ms", "ms",
            [&](StackKind k) { return Median(Of(T, k).checkpoint_ms); });
  per_stack("check.audit_overhead_x", "x", [&](StackKind k) {
    const StackResult& on = Of(plain, k);
    const StackResult& off = Of(no_audit, k);
    return Ratio(Ratio(static_cast<double>(off.timed_ops), off.timed_s),
                 Ratio(static_cast<double>(on.timed_ops), on.timed_s));
  });

  // The traced pass itself.
  out.push_back({"trace_overhead_x", Ratio(plain.ops_per_s(), T.ops_per_s()), "x"});
  const uint64_t attempted = plain.attempted + T.attempted + no_audit.attempted;
  const uint64_t failed = plain.failed + T.failed + no_audit.failed;
  out.push_back({"op_fail_ratio",
                 Ratio(static_cast<double>(failed), static_cast<double>(attempted)), "ratio"});
  for (size_t l = 0; l < kLayerCount; ++l) {
    const Layer layer = static_cast<Layer>(l);
    out.push_back({std::string("self_ms_per_kop.") + LayerName(layer),
                   Ratio(static_cast<double>(rec.self_ns(layer)) / 1e6,
                         static_cast<double>(traced_ops) / 1e3),
                   "ms/kop"});
  }
  return out;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-40s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void PrintPass(const char* label, const PassResult& r) {
  std::printf("pass %s digest %016" PRIx64 " attempted %" PRIu64 " failed %" PRIu64 "\n", label,
              r.digest, r.attempted, r.failed);
  std::printf("pass %s slice_ops_per_s", label);
  for (double v : r.block_ops_per_s) {
    std::printf(" %.0f", v);
  }
  std::printf("\n");
  for (StackKind k : kStackKinds) {
    const StackResult& s = Of(r, k);
    std::printf("pass %s %-7s timed_ops %" PRIu64 " timed_s %.3f samples %" PRIu64
                " setup_reps %zu\n",
                label, StackName(k), s.timed_ops, s.timed_s, s.op_ns.count(), s.setup_s.size());
    std::printf("pass %s %-7s slice_p50_ns", label, StackName(k));
    for (double v : s.block_p50) {
      std::printf(" %.0f", v);
    }
    std::printf("\n");
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: ukvm_perfbench --workload ctl|io|boot --seed N --seconds S "
                 "--trace 0|1 [--spans-out FILE] [--corrupt-expected]\n");
    return 2;
  }
  PassOptions base;
  base.workload = args.workload;
  base.seed = args.seed;
  base.corrupt_expected = args.corrupt_expected;

  if (!args.trace) {
    base.seconds = args.seconds;
    const PassResult r = RunPass(base);
    PrintPass("plain", r);
    PrintResult(r.correct(), r.attempted, r.failed, EndToEnd(r));
    return r.correct() ? 0 : 1;
  }

  // Traced run: the same seed three times. The untraced pass, which also
  // gives the host timings, takes most of the budget.
  base.seconds = args.seconds * 0.7;
  const PassResult plain = RunPass(base);
  base.seconds = args.seconds * 0.15;
  Recorder rec;
  PassOptions traced_opts = base;
  traced_opts.recorder = &rec;
  const PassResult traced = RunPass(traced_opts);
  std::vector<double> machine_ms;
  std::vector<double> disk_ms;
  ProbeHardware(rec, machine_ms, disk_ms);
  PassOptions off_opts = base;
  off_opts.audit = false;
  const PassResult no_audit = RunPass(off_opts);
  PrintPass("plain", plain);
  PrintPass("traced", traced);
  PrintPass("no_audit", no_audit);

  bool correct = plain.correct() && traced.correct() && no_audit.correct();
  if (SimFigures(plain) != SimFigures(traced)) {
    std::fprintf(stderr, "perfbench: FAIL: traced pass changed a simulated-clock figure\n");
    correct = false;
  }
  if (!args.spans_out.empty() && !rec.Write(args.spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans_out.c_str());
    correct = false;
  }
  PrintResult(correct, plain.attempted + traced.attempted + no_audit.attempted,
              plain.failed + traced.failed + no_audit.failed,
              PerLayer(plain, traced, no_audit, rec, machine_ms, disk_ms));
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
