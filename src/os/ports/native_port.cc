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

class NativePort::NativeBlock : public BlockDevice {
 public:
  NativeBlock(NativePort& port, hwsim::Frame staging)
      : port_(port), staging_(staging) {}

  uint32_t block_size() const override { return port_.disk_.config().block_size; }
  uint64_t capacity_blocks() const override { return port_.disk_.config().capacity_blocks; }

  Err Read(uint64_t lba, uint32_t count, std::span<uint8_t> out) override {
    const uint32_t bs = block_size();
    if (out.size() < uint64_t{count} * bs) {
      return Err::kInvalidArgument;
    }
    uint32_t done = 0;
    while (done < count) {
      const uint32_t chunk = std::min(count - done, port_.disk_driver_.blocks_per_page());
      // One traced request per chunk; the DMA wait is its device leaf.
      ukvm::ReqOriginScope req_scope(port_.machine_.reqtrace(), port_.req_read_name_,
                                     port_.os_domain_);
      bool finished = false;
      Err status = Err::kNone;
      const uint64_t submit_t0 = port_.machine_.Now();
      Err err = port_.disk_driver_.Read(lba + done, chunk, staging_, [&](Err s) {
        status = s;
        finished = true;
      });
      if (err == Err::kNone) {
        err = port_.machine_.WaitUntil([&] { return finished; }, 1'000'000'000);
      }
      port_.machine_.reqtrace().AddLeaf(port_.req_dev_name_, ukvm::ReqNodeKind::kDevice,
                                        port_.os_domain_, submit_t0, port_.machine_.Now());
      if (err == Err::kNone && status != Err::kNone) {
        err = status;
      }
      if (err != Err::kNone) {
        port_.machine_.reqtrace().AbandonRequest(req_scope.ref());
        return err;
      }
      const uint64_t bytes = uint64_t{chunk} * bs;
      port_.machine_.memory().Read(port_.machine_.memory().FrameBase(staging_),
                                   out.subspan(uint64_t{done} * bs, bytes));
      port_.machine_.ChargeCopy(bytes);
      port_.machine_.reqtrace().EndRequest(req_scope.ref());
      done += chunk;
    }
    return Err::kNone;
  }

  Err Write(uint64_t lba, uint32_t count, std::span<const uint8_t> in) override {
    const uint32_t bs = block_size();
    if (in.size() < uint64_t{count} * bs) {
      return Err::kInvalidArgument;
    }
    uint32_t done = 0;
    while (done < count) {
      const uint32_t chunk = std::min(count - done, port_.disk_driver_.blocks_per_page());
      const uint64_t bytes = uint64_t{chunk} * bs;
      ukvm::ReqOriginScope req_scope(port_.machine_.reqtrace(), port_.req_write_name_,
                                     port_.os_domain_);
      port_.machine_.memory().Write(port_.machine_.memory().FrameBase(staging_),
                                    in.subspan(uint64_t{done} * bs, bytes));
      port_.machine_.ChargeCopy(bytes);
      bool finished = false;
      Err status = Err::kNone;
      const uint64_t submit_t0 = port_.machine_.Now();
      Err err = port_.disk_driver_.Write(lba + done, chunk, staging_, [&](Err s) {
        status = s;
        finished = true;
      });
      if (err == Err::kNone) {
        err = port_.machine_.WaitUntil([&] { return finished; }, 1'000'000'000);
      }
      port_.machine_.reqtrace().AddLeaf(port_.req_dev_name_, ukvm::ReqNodeKind::kDevice,
                                        port_.os_domain_, submit_t0, port_.machine_.Now());
      if (err == Err::kNone && status != Err::kNone) {
        err = status;
      }
      if (err != Err::kNone) {
        port_.machine_.reqtrace().AbandonRequest(req_scope.ref());
        return err;
      }
      port_.machine_.reqtrace().EndRequest(req_scope.ref());
      done += chunk;
    }
    return Err::kNone;
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
  req_read_name_ = names.Intern("blk.read");
  req_write_name_ = names.Intern("blk.write");
  req_dev_name_ = names.Intern("disk.io");
  net_dev_ = std::make_unique<NativeNet>(*this);
  block_dev_ = std::make_unique<NativeBlock>(*this, pool.back());
  console_dev_ = std::make_unique<NativeConsole>(*this);
  machine_.SetTrapHandler(this);
  machine_.cpu().SetDomain(os_domain_);
  machine_.cpu().SetInterruptsEnabled(true);
}

NetDevice* NativePort::net() { return net_dev_.get(); }
BlockDevice* NativePort::block() { return block_dev_.get(); }
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
