#include "pb/runner.h"

#include <cstdio>
#include <memory>

#include "src/core/crossings.h"
#include "src/workloads/netio.h"

namespace perfbench {

namespace {

// Set-up repetitions per stack (boot + warm-up + checkpoint); setup_s is
// built from their medians.
constexpr int kSetupReps = 7;
// Simulated-time guard on a receive wait (0.5 s of the simulated clock).
constexpr uint64_t kRecvTimeoutCycles = 1000 * 1000 * hwsim::kCyclesPerUs / 2;
// Time slices of the timed phase (see PassRunner::Timed).
constexpr int kBlocks = 10;

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }
double Millis(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

void Loud(PassResult& r, const std::string& what) {
  std::fprintf(stderr, "perfbench: FAIL: %s\n", what.c_str());
  ++r.error_count;
}

// Machine state at the edge of an exact window.
struct Snap {
  uint64_t now = 0;
  uint64_t idle = 0;
  uint64_t dma = 0;
  uint64_t accounted = 0;
  uint64_t tlb_hits = 0;
  uint64_t tlb_lookups = 0;
  uint64_t page_flips = 0;
  uint64_t driver = 0;
  ukvm::CrossingSnapshot ledger;
  std::vector<uint64_t> domains;
};

Snap TakeSnap(Target& t) {
  hwsim::Machine& m = t.machine();
  Snap s;
  s.now = m.Now();
  s.idle = m.accounting().CyclesOf(hwsim::kIdleDomain);
  s.dma = m.accounting().CyclesOf(ukvm::kHardwareDomain);
  s.accounted = m.accounting().total_cycles();
  for (uint32_t v = 0; v < m.num_vcpus(); ++v) {
    s.tlb_hits += m.cpu(v).tlb().hits();
    s.tlb_lookups += m.cpu(v).tlb().hits() + m.cpu(v).tlb().misses();
  }
  s.page_flips = m.counters().Get("xen.page_flips");
  if (t.driver_domain().valid()) {
    s.driver = m.accounting().CyclesOf(t.driver_domain());
  }
  s.ledger = m.ledger().Snapshot();
  for (const NamedDomain& d : t.Domains()) {
    s.domains.push_back(m.accounting().CyclesOf(d.id));
  }
  return s;
}

// `before` default-constructed means "from the fresh machine's zero".
Exact Diff(Target& t, const Snap& before, const Snap& after, uint64_t ops, uint64_t packets) {
  Exact e;
  e.ops = ops;
  e.packets = packets;
  e.cycles = after.now - before.now;
  e.idle_cycles = after.idle - before.idle;
  e.busy_cycles =
      (after.accounted - before.accounted) - e.idle_cycles - (after.dma - before.dma);
  e.tlb_hits = after.tlb_hits - before.tlb_hits;
  e.tlb_lookups = after.tlb_lookups - before.tlb_lookups;
  e.page_flips = after.page_flips - before.page_flips;
  e.driver_cycles = after.driver - before.driver;
  const ukvm::CrossingSnapshot d = ukvm::DiffSnapshots(before.ledger, after.ledger);
  e.ipc_like = d.IpcLikeCount();
  e.ledger_events = d.total_count;
  for (const ukvm::MechanismStats& mech : d.mechanisms) {
    const bool l4 = mech.name.rfind("l4.", 0) == 0;
    if (l4 && (mech.kind == ukvm::CrossingKind::kSyncCall ||
               mech.kind == ukvm::CrossingKind::kAsyncNotify)) {
      e.l4_ipc += mech.count;
    }
    if (mech.name == "l4.ipc.string") {
      e.l4_string_bytes += mech.bytes;
    } else if (mech.name == "xen.hypercall") {
      e.hypercalls += mech.count;
    } else if (mech.name == "xen.evtchn.send") {
      e.evtchn += mech.count;
    } else if (mech.name == "xen.gnttab.map") {
      e.gnttab_maps += mech.count;
    }
  }
  const std::vector<NamedDomain> names = t.Domains();
  uint64_t named = 0;
  for (size_t i = 0; i < names.size(); ++i) {
    const uint64_t b = before.domains.empty() ? 0 : before.domains[i];
    e.domain_cycles.emplace_back(names[i].name, after.domains[i] - b);
    named += after.domains[i] - b;
  }
  e.domain_cycles.emplace_back("other", e.busy_cycles - named);
  return e;
}

// Issues ops against one booted stack and verifies each result.
class Executor {
 public:
  Executor(StackKind kind, Target& target, ukvm::ProcessId pid, uwork::WireHost* wire,
           const Round& round, const PassOptions& options)
      : kind_(kind), t_(target), pid_(pid), wire_(wire), round_(round), options_(options) {
    fds_.fill(-1);
  }

  bool Run(const Op& op) {
    minios::Os& os = t_.os();
    Recorder* rec = options_.recorder;
    switch (op.call) {
      case Call::kNull: {
        Scope s(rec, CallSpan(op.call));
        return os.Null(pid_) == 0;
      }
      case Call::kGetPid: {
        Scope s(rec, CallSpan(op.call));
        return os.GetPid(pid_) == static_cast<minios::SyscallRet>(pid_.value());
      }
      case Call::kGetTime: {
        minios::SyscallRet now = 0;
        {
          Scope s(rec, CallSpan(op.call));
          now = os.GetTime(pid_);
        }
        const bool ok = now >= static_cast<minios::SyscallRet>(last_time_) &&
                        static_cast<uint64_t>(now) <= t_.machine().Now();
        last_time_ = now < 0 ? last_time_ : static_cast<uint64_t>(now);
        return ok;
      }
      case Call::kYield: {
        Scope s(rec, CallSpan(op.call));
        return os.Yield(pid_) >= 0;
      }
      case Call::kCreate: {
        int64_t& fd = fds_[op.slot];
        Scope s(rec, CallSpan(op.call));
        fd = os.Create(pid_, FileName(op.slot));
        return fd >= 0;
      }
      case Call::kWrite: {
        Fill(op, data_);
        Scope s(rec, CallSpan(op.call));
        return os.Write(pid_, fds_[op.slot], data_) == static_cast<int64_t>(op.size);
      }
      case Call::kSeek: {
        Scope s(rec, CallSpan(op.call));
        return os.Seek(pid_, fds_[op.slot], 0) == 0;
      }
      case Call::kRead: {
        back_.assign(op.size, 0);
        minios::SyscallRet n = 0;
        {
          Scope s(rec, CallSpan(op.call));
          n = os.Read(pid_, fds_[op.slot], back_);
        }
        Fill(op, data_);
        if (options_.corrupt_expected) {
          data_[0] ^= 0x5a;
        }
        return n == static_cast<int64_t>(op.size) && back_ == data_;
      }
      case Call::kClose: {
        Scope s(rec, CallSpan(op.call));
        const bool ok = os.Close(pid_, fds_[op.slot]) == 0;
        fds_[op.slot] = -1;
        return ok;
      }
      case Call::kUnlink: {
        Scope s(rec, CallSpan(op.call));
        return os.Unlink(pid_, FileName(op.slot)) == 0;
      }
      case Call::kSend: {
        Fill(op, data_);
        bool ok = false;
        {
          Scope s(rec, CallSpan(op.call));
          ok = os.NetSend(pid_, kSendPort, /*src_port=*/7, data_) >= 0;
        }
        sends_ok_ += ok ? 1 : 0;
        return ok;
      }
      case Call::kRecv:
        return Recv(op);
      case Call::kCount: break;
    }
    return false;
  }

  // Starts the round's open-loop wire stream (io only).
  void BeginRound() {
    recv_seq_ = 0;
    sends_ok_ = 0;
    if (wire_ == nullptr) {
      return;
    }
    injected_before_ = wire_->packets_injected();
    received_before_ = wire_->packets_received();
    drops_before_ = t_.nic().rx_drops();
    if (round_.recvs > 0) {
      wire_->StartStream(kRecvPort, kRecvPayload, kRecvIntervalUs * hwsim::kCyclesPerUs,
                         round_.recvs);
    }
  }

  // Drains the event loop so sent datagrams reach the wire, then checks
  // packet counts against the round; a mismatch is a loud failure.
  void EndRound(PassResult& r) {
    if (wire_ == nullptr) {
      return;
    }
    {
      Scope s(options_.recorder, SpanName::kEventLoop);
      t_.machine().RunUntilIdle();
    }
    const uint64_t injected = wire_->packets_injected() - injected_before_;
    const uint64_t sunk = wire_->packets_received() - received_before_;
    const uint64_t drops = t_.nic().rx_drops() - drops_before_;
    if (injected != round_.recvs || recv_seq_ != round_.recvs || drops != 0) {
      Loud(r, std::string(StackName(kind_)) + ": received " + std::to_string(recv_seq_) +
                  " of " + std::to_string(injected) + " injected (round holds " +
                  std::to_string(round_.recvs) + ", nic drops " + std::to_string(drops) + ")");
    }
    if (sunk != sends_ok_) {
      Loud(r, std::string(StackName(kind_)) + ": wire got " + std::to_string(sunk) +
                  " datagrams of " + std::to_string(sends_ok_) + " sent");
    }
  }

  uint64_t sends_ok() const { return sends_ok_; }

 private:
  static std::string FileName(uint8_t slot) { return "pb" + std::to_string(slot); }

  void Fill(const Op& op, std::vector<uint8_t>& out) const {
    out.resize(op.size);
    for (uint32_t i = 0; i < op.size; ++i) {
      out[i] = DataByte(round_.key, op.tag, i);
    }
  }

  bool Recv(const Op& op) {
    minios::Os& os = t_.os();
    Recorder* rec = options_.recorder;
    if (os.net().QueuedOn(kRecvPort) == 0) {
      Scope s(rec, SpanName::kEventLoop);
      const ukvm::Err wait = t_.machine().WaitUntil(
          [&os] { return os.net().QueuedOn(kRecvPort) > 0; }, kRecvTimeoutCycles);
      if (wait != ukvm::Err::kNone) {
        return false;
      }
    }
    back_.assign(op.size, 0);
    minios::SyscallRet n = 0;
    {
      Scope s(rec, CallSpan(op.call));
      n = os.NetRecv(pid_, kRecvPort, back_);
    }
    if (n < 0) {
      return false;
    }
    const uint64_t seq = recv_seq_++;
    bool ok = n == static_cast<minios::SyscallRet>(op.size);
    const uint8_t flip = options_.corrupt_expected ? 0x5a : 0;
    for (uint32_t i = 0; ok && i < op.size; ++i) {
      ok = back_[i] == (uwork::WireHost::PatternByte(seq, i) ^ flip);
    }
    return ok;
  }

  StackKind kind_;
  Target& t_;
  ukvm::ProcessId pid_;
  uwork::WireHost* wire_;
  const Round& round_;
  const PassOptions& options_;
  std::array<int64_t, kFileSlots> fds_{};
  std::vector<uint8_t> data_;
  std::vector<uint8_t> back_;
  uint64_t last_time_ = 0;
  uint64_t recv_seq_ = 0;
  uint64_t sends_ok_ = 0;
  uint64_t injected_before_ = 0;
  uint64_t received_before_ = 0;
  uint64_t drops_before_ = 0;
};

// A booted stack with its wire peer, guest process and executor.
struct Live {
  std::unique_ptr<Target> target;
  std::unique_ptr<uwork::WireHost> wire;
  std::unique_ptr<Executor> exec;
  ukvm::ProcessId pid;
  bool exact_done = false;
};

class PassRunner {
 public:
  PassRunner(const PassOptions& options, PassResult& result)
      : o_(options), r_(result), round_(MakeRound(options.workload, options.seed)) {
    r_.digest = round_.digest;
  }

  // Set-up goes stack by stack, kSetupReps times; on ctl/io the last set-up
  // of each stack stays up, and the timed phase then takes the stacks in
  // turn, one round (or one lifecycle seed) each, so that all three see the
  // same host conditions as the host's speed drifts.
  void Run() {
    const bool boot = o_.workload == Workload::kBoot;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      for (StackKind kind : kStackKinds) {
        Setup(kind);
        if (boot || rep + 1 < kSetupReps) {
          Teardown(kind);
        }
      }
    }
    Timed();
    if (!boot) {
      for (StackKind kind : kStackKinds) {
        Checkpoint(kind, "perfbench.end");
        Teardown(kind);
      }
    }
    if (o_.recorder != nullptr) {
      o_.recorder->SetOp(0);
      o_.recorder->SetExactWindow(false);
    }
  }

 private:
  StackResult& sr(StackKind kind) { return r_.stacks[static_cast<size_t>(kind)]; }
  Live& live(StackKind kind) { return live_[static_cast<size_t>(kind)]; }

  // Points the recorder (if any) at `kind`'s machine.
  void Focus(StackKind kind) {
    if (o_.recorder != nullptr) {
      o_.recorder->Bind(live(kind).target->machine(), kind);
    }
  }

  void Boot(StackKind kind) {
    Recorder* rec = o_.recorder;
    if (rec != nullptr) {
      rec->Unbind();
      rec->SetStack(kind);
      rec->Begin(SpanName::kStackBoot);
    }
    const uint64_t t0 = HostNs();
    live(kind).target = Target::Boot(kind, o_.audit);
    sr(kind).boot_ms.push_back(Millis(HostNs() - t0));
    if (rec != nullptr) {
      Focus(kind);
      rec->End();
    }
  }

  // Spawns the guest process and, for io, attaches the wire peer.
  void Start(StackKind kind) {
    Live& l = live(kind);
    Target& t = *l.target;
    const bool net = o_.workload == Workload::kIo;
    if (net) {
      l.wire = std::make_unique<uwork::WireHost>(t.machine(), t.nic());
      t.RouteWirePort(kRecvPort);
    }
    t.RunAsApp([&] {
      ukvm::Result<ukvm::ProcessId> pid = ukvm::Err::kNoMemory;
      {
        Scope s(o_.recorder, SpanName::kSpawn);
        pid = t.os().Spawn("perfbench");
      }
      if (!pid.ok()) {
        Loud(r_, std::string(StackName(kind)) + ": Spawn failed");
        return;
      }
      l.pid = *pid;
      if (net && t.os().NetBind(l.pid, kRecvPort) != 0) {
        Loud(r_, std::string(StackName(kind)) + ": NetBind failed");
      }
    });
    l.exec = std::make_unique<Executor>(kind, t, l.pid, l.wire.get(), round_, o_);
  }

  void Teardown(StackKind kind) {
    Recorder* rec = o_.recorder;
    Live& l = live(kind);
    l.exec.reset();
    if (l.wire != nullptr) {
      l.target->nic().SetPeer([](std::vector<uint8_t>) {});
      l.wire.reset();
    }
    hwsim::Machine& m = l.target->machine();
    r_.driver_retries += m.counters().Get("drv.disk.retry") + m.counters().Get("drv.nic.retry");
    if (rec != nullptr) {
      Focus(kind);
      rec->Begin(SpanName::kStackTeardown);
      rec->Unbind();
    }
    const uint64_t t0 = HostNs();
    l.target.reset();
    sr(kind).teardown_ms.push_back(Millis(HostNs() - t0));
    if (rec != nullptr) {
      rec->End();
    }
  }

  void Checkpoint(StackKind kind, const char* phase) {
    ucheck::Auditor* auditor = live(kind).target->auditor();
    if (auditor == nullptr) {
      if (o_.audit) {
        Loud(r_, std::string(StackName(kind)) + ": default Config built no auditor");
      }
      return;
    }
    Focus(kind);
    const uint64_t t0 = HostNs();
    {
      Scope s(o_.recorder, SpanName::kCheckpoint);
      auditor->Checkpoint(phase);
    }
    sr(kind).checkpoint_ms.push_back(Millis(HostNs() - t0));
    if (auditor->violation_count() != 0) {
      std::string what = std::string(StackName(kind)) + ": auditor checkpoint not clean (" +
                         std::to_string(auditor->violation_count()) + " violations)";
      for (const std::string& v : auditor->ViolationReports()) {
        what += "\n  " + v;
      }
      Loud(r_, what);
      auditor->ClearViolations();
    }
  }

  // Runs one op on `kind` and counts it.
  bool Issue(StackKind kind, const Op& op) {
    const bool ok = live(kind).exec->Run(op);
    ++r_.attempted;
    if (!ok) {
      ++r_.failed;
    }
    return ok;
  }

  // The lifecycle seed body, on an already booted stack.
  bool SeedBody(StackKind kind) {
    Live& l = live(kind);
    bool ok = true;
    l.target->RunAsApp([&] {
      for (const Op& op : round_.ops) {
        ok = l.exec->Run(op) && ok;
      }
    });
    const uint64_t errors = r_.error_count;
    Checkpoint(kind, "perfbench.seed");
    return ok && r_.error_count == errors;
  }

  // One set-up: boot + warm-up + checkpoint.
  void Setup(StackKind kind) {
    const uint64_t t0 = HostNs();
    Boot(kind);
    Start(kind);
    if (o_.workload == Workload::kBoot) {
      ++r_.attempted;
      r_.failed += SeedBody(kind) ? 0 : 1;
    } else {
      Live& l = live(kind);
      l.target->RunAsApp([&] {
        l.exec->BeginRound();
        for (const Op& op : round_.ops) {
          (void)Issue(kind, op);
        }
        l.exec->EndRound(r_);
      });
      Checkpoint(kind, "perfbench.setup");
    }
    sr(kind).setup_s.push_back(Seconds(HostNs() - t0));
  }

  // Records one timed op's host time.
  void Sample(StackKind kind, uint64_t ns, bool ok) {
    StackResult& s = sr(kind);
    s.block.Add(static_cast<double>(ns));
    s.op_ns.Add(static_cast<double>(ns));
    s.timed_ops += ok ? 1 : 0;
  }

  // One timed round on `kind`; returns the ops completed.
  uint64_t TimedRound(StackKind kind) {
    Live& l = live(kind);
    Target& t = *l.target;
    Recorder* rec = o_.recorder;
    const bool exact = !l.exact_done;
    uint64_t done = 0;
    Focus(kind);
    const uint64_t round_start = HostNs();
    t.RunAsApp([&] {
      Snap before;
      uint64_t charges_before = 0;
      if (exact) {
        before = TakeSnap(t);
        charges_before = rec != nullptr ? rec->charges() : 0;
        if (rec != nullptr) {
          rec->SetExactWindow(true);
        }
      }
      l.exec->BeginRound();
      for (const Op& op : round_.ops) {
        if (rec != nullptr) {
          rec->SetOp(next_op_);
        }
        ++next_op_;
        const uint64_t t0 = HostNs();
        bool ok = false;
        {
          Scope span(rec, SpanName::kOp);
          ok = Issue(kind, op);
        }
        Sample(kind, HostNs() - t0, ok);
        done += ok ? 1 : 0;
        if (rec != nullptr) {
          rec->SetOp(0);
        }
      }
      l.exec->EndRound(r_);
      if (exact) {
        const uint64_t packets = round_.recvs + l.exec->sends_ok();
        const Snap after = TakeSnap(t);
        StackResult& s = sr(kind);
        s.exact = Diff(t, before, after, round_.ops.size(), packets);
        s.power_on = Diff(t, Snap{}, after, round_.ops.size(), packets);
        if (rec != nullptr) {
          s.exact_charges = rec->charges() - charges_before;
          rec->SetExactWindow(false);
        }
        l.exact_done = true;
      }
    });
    sr(kind).timed_s += Seconds(HostNs() - round_start);
    return done;
  }

  // One timed lifecycle seed on `kind`; returns 1 if it completed cleanly.
  uint64_t TimedSeed(StackKind kind) {
    Recorder* rec = o_.recorder;
    StackResult& s = sr(kind);
    const bool exact = !live(kind).exact_done;
    if (rec != nullptr) {
      rec->SetStack(kind);
      rec->SetOp(next_op_);
      rec->SetExactWindow(exact);
    }
    ++next_op_;
    bool ok = false;
    const uint64_t charges_before = rec != nullptr ? rec->charges() : 0;
    const uint64_t t0 = HostNs();
    {
      Scope span(rec, SpanName::kOp);
      Boot(kind);
      Start(kind);
      ok = SeedBody(kind);
      if (exact) {
        s.exact = Diff(*live(kind).target, Snap{}, TakeSnap(*live(kind).target), 1, 0);
        s.power_on = s.exact;
        s.exact_charges = rec != nullptr ? rec->charges() - charges_before : 0;
        live(kind).exact_done = true;
      }
      Teardown(kind);
    }
    const uint64_t dt = HostNs() - t0;
    Sample(kind, dt, ok);
    s.timed_s += Seconds(dt);
    if (rec != nullptr) {
      rec->SetOp(0);
      rec->SetExactWindow(false);
    }
    ++r_.attempted;
    r_.failed += ok ? 0 : 1;
    return ok ? 1 : 0;
  }

  // The timed phase: kBlocks equal slices of the budget. Within a slice the
  // stacks take turns until the slice is spent (at least one turn each);
  // each slice yields an ops/s figure and per-stack percentiles, and the
  // reported figures are their medians, so a transient slow spell on the
  // host moves one slice, not the result.
  void Timed() {
    const bool boot = o_.workload == Workload::kBoot;
    const uint64_t start = HostNs();
    const double slice_ns = o_.seconds * 1e9 / kBlocks;
    for (int b = 0; b < kBlocks; ++b) {
      const uint64_t slice_end = start + static_cast<uint64_t>(slice_ns * (b + 1));
      for (StackResult& s : r_.stacks) {
        s.block = Reservoir(s.block.capacity());
      }
      const uint64_t t0 = HostNs();
      uint64_t done = 0;
      do {
        for (StackKind kind : kStackKinds) {
          done += boot ? TimedSeed(kind) : TimedRound(kind);
        }
      } while (HostNs() < slice_end);
      r_.block_ops_per_s.push_back(static_cast<double>(done) / Seconds(HostNs() - t0));
      for (StackResult& s : r_.stacks) {
        s.block_p50.push_back(s.block.Quantile(0.5));
        if (s.block.count() >= kMinP90Samples) {
          s.block_p90.push_back(s.block.Quantile(0.9));
        }
      }
    }
  }

  const PassOptions& o_;
  PassResult& r_;
  const Round round_;
  std::array<Live, kStackCount> live_;
  uint64_t next_op_ = 1;
};

}  // namespace

double PassResult::ops_per_s() const { return Median(block_ops_per_s); }

double StackResult::P50() const { return Median(block_p50); }

double StackResult::P90() const {
  // A slice's p90 needs kMinP90Samples samples (10 beyond it); where most
  // slices are too small (boot), take it over the whole run.
  return block_p90.size() * 2 >= block_p50.size() ? Median(block_p90) : op_ns.Quantile(0.9);
}

PassResult RunPass(const PassOptions& options) {
  PassResult result;
  PassRunner(options, result).Run();
  return result;
}

}  // namespace perfbench
