#include "src/os/ports/native_port.h"

#include "src/os/kernel.h"

namespace minios {

using ukvm::Err;

// --- Device adaptors -----------------------------------------------------------

class NativePort::NativeNet : public NetDevice {
 public:
  explicit NativeNet(NativePort& port) : port_(port) {}

  Err Send(std::span<const uint8_t> packet) override {
    ukvm::ReqOriginScope req_scope(port_.machine_.reqtrace(), port_.req_tx_name_,
                                   port_.os_domain_);
    // One copy: user payload into the driver's staging frame.
    const Err err = port_.nic_driver_.SendCopy(packet);
    if (err == Err::kNone) {
      port_.machine_.reqtrace().EndRequest(req_scope.ref());
    } else {
      port_.machine_.reqtrace().AbandonRequest(req_scope.ref());
    }
    return err;
  }

  void SetRecvHandler(RecvHandler handler) override {
    handler_ = std::move(handler);
    port_.nic_driver_.SetRxCallback([this](hwsim::Frame frame, uint32_t len) {
      // One copy out of the rx staging frame into OS memory.
      std::vector<uint8_t> bytes(len);
      port_.machine_.memory().Read(port_.machine_.memory().FrameBase(frame), bytes);
      port_.machine_.ChargeCopy(len);
      if (handler_) {
        handler_(bytes);
      }
    });
  }

  uint32_t mtu() const override { return 1514; }

 private:
  NativePort& port_;
  RecvHandler handler_;
};

class NativePort::NativeBlock : public BlockPort {
 public:
  NativeBlock(NativePort& port, hwsim::Frame staging)
      : port_(port), staging_(staging) {}

  uint32_t block_size() const override { return port_.disk_.config().block_size; }
  uint64_t capacity_blocks() const override { return port_.disk_.config().capacity_blocks; }
  uint32_t max_blocks() const override { return port_.disk_driver_.blocks_per_page(); }
  ukvm::DomainId domain() const override { return port_.os_domain_; }
  Err Ready() override { return Err::kNone; }

  BlockCompletion Submit(const BlockRequest& req) override {
    hwsim::Machine& machine = port_.machine_;
    const hwsim::Paddr staging = machine.memory().FrameBase(staging_);
    if (req.write) {
      machine.memory().Write(staging, req.in);
      machine.ChargeCopy(req.in.size());
    }
    bool finished = false;
    Err status = Err::kNone;
    auto on_done = [&](Err s) {
      status = s;
      finished = true;
    };
    // The DMA wait is the request's device leaf.
    const uint64_t submit_t0 = machine.Now();
    Err err = req.write ? port_.disk_driver_.Write(req.lba, req.count, staging_, on_done)
                        : port_.disk_driver_.Read(req.lba, req.count, staging_, on_done);
    if (err == Err::kNone) {
      err = machine.WaitUntil([&] { return finished; }, 1'000'000'000);
    }
    machine.reqtrace().AddLeaf(port_.req_dev_name_, ukvm::ReqNodeKind::kDevice,
                               port_.os_domain_, submit_t0, machine.Now());
    if (err == Err::kNone) {
      err = status;
    }
    if (err == Err::kNone && !req.write) {
      machine.memory().Read(staging, req.out);
      machine.ChargeCopy(req.out.size());
    }
    BlockCompletion done{err, /*answered=*/true};
    if (req.on_answer) {
      req.on_answer(done);
    }
    return done;
  }

 private:
  NativePort& port_;
  hwsim::Frame staging_;
};

class NativePort::NativeConsole : public ConsoleDevice {
 public:
  explicit NativeConsole(NativePort& port) : port_(port) {}
  void Write(std::string_view text) override {
    port_.machine_.ChargeCopy(text.size());
    port_.console_log_.emplace_back(text);
  }

 private:
  NativePort& port_;
};

// --- NativePort ------------------------------------------------------------------

NativePort::NativePort(hwsim::Machine& machine, hwsim::Nic& nic, hwsim::Disk& disk,
                       ukvm::DomainId os_domain, std::vector<hwsim::Frame> pool)
    : machine_(machine),
      os_domain_(os_domain),
      disk_(disk),
      nic_driver_(machine, nic, std::vector<hwsim::Frame>(pool.begin(), pool.end() - 1)),
      disk_driver_(machine, disk),
      nic_irq_(nic.line()),
      disk_irq_(disk.line()) {
  mech_syscall_ = machine_.ledger().InternMechanism("native.syscall", ukvm::CrossingKind::kTrap);
  mech_irq_ = machine_.ledger().InternMechanism("native.irq", ukvm::CrossingKind::kInterrupt);
  ukvm::NameTable& names = machine_.names();
  req_syscall_name_ = names.Intern("os.syscall");
  req_tx_name_ = names.Intern("net.tx");
  req_dev_name_ = names.Intern("disk.io");
  net_dev_ = std::make_unique<NativeNet>(*this);
  block_dev_ = std::make_unique<NativeBlock>(*this, pool.back());
  console_dev_ = std::make_unique<NativeConsole>(*this);
  machine_.SetTrapHandler(this);
  machine_.cpu().SetDomain(os_domain_);
  machine_.cpu().SetInterruptsEnabled(true);
}

NetDevice* NativePort::net() { return net_dev_.get(); }
BlockPort* NativePort::block() { return block_dev_.get(); }
ConsoleDevice* NativePort::console() { return console_dev_.get(); }

NativePort::~NativePort() {
  if (machine_.trap_handler() == this) {
    machine_.SetTrapHandler(nullptr);
  }
}

SyscallRet NativePort::InvokeSyscall(Os& os, ukvm::ProcessId pid, SyscallReq& req) {
  const uint64_t t0 = machine_.Now();
  ukvm::ReqOriginScope req_scope(machine_.reqtrace(), req_syscall_name_, os_domain_);
  // Native path: one trap-gate entry straight into the OS kernel — the same
  // hardware journey as Xen's fast shortcut, with no VMM in the way.
  machine_.Charge(machine_.costs().fast_trap_entry);
  machine_.cpu().ChargeSegmentReloads(hwsim::kTrapReloadedSegments);
  machine_.cpu().SetMode(hwsim::PrivLevel::kPrivileged);
  // copy_from_user / copy_to_user at the kernel boundary.
  machine_.ChargeCopy(req.in.size());
  const SyscallRet ret = os.SyscallImpl(pid, req);
  machine_.ChargeCopy(req.out.size());
  machine_.Charge(machine_.costs().fast_trap_return);
  machine_.cpu().SetMode(hwsim::PrivLevel::kUser);
  machine_.ledger().Record(mech_syscall_, os_domain_, os_domain_, machine_.Now() - t0, 0);
  machine_.reqtrace().EndRequest(req_scope.ref());
  machine_.DeliverPendingInterrupts();
  return ret;
}

void NativePort::HandleTrap(hwsim::TrapFrame& frame) {
  // Only raw hardware exceptions arrive here (syscalls use InvokeSyscall).
  frame.regs[0] = static_cast<uint64_t>(Err::kNotSupported);
}

void NativePort::HandleInterrupt(ukvm::IrqLine line) {
  machine_.ledger().Record(mech_irq_, ukvm::kHardwareDomain, os_domain_, 0, 0);
  if (line == nic_irq_) {
    nic_driver_.OnInterrupt();
  } else if (line == disk_irq_) {
    disk_driver_.OnInterrupt();
  }
}

}  // namespace minios
