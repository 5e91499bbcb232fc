#include "src/os/ports/vmm_port.h"

#include <cassert>

#include "src/os/kernel.h"

namespace minios {

using ukvm::Err;

class VmmPort::HvConsole : public ConsoleDevice {
 public:
  HvConsole(uvmm::Hypervisor& hv, ukvm::DomainId guest) : hv_(hv), guest_(guest) {}
  void Write(std::string_view text) override {
    (void)hv_.HcConsoleIo(guest_, std::string(text));
  }

 private:
  uvmm::Hypervisor& hv_;
  ukvm::DomainId guest_;
};

VmmPort::VmmPort(hwsim::Machine& machine, uvmm::Hypervisor& hv, ukvm::DomainId guest,
                 NetDevice* net_frontend, BlockPort* block_frontend, bool request_fast_trap)
    : machine_(machine), hv_(hv), guest_(guest), net_(net_frontend), block_(block_frontend) {
  req_syscall_name_ = machine_.names().Intern("os.syscall");
  console_dev_ = std::make_unique<HvConsole>(hv_, guest_);
  const Err err = hv_.HcSetTrapTable(
      guest_,
      [this](hwsim::TrapFrame& frame) { return GuestKernelSyscallEntry(frame); },
      [](hwsim::Vaddr, bool) { return Err::kFault; },  // no demand paging in MiniOS
      request_fast_trap);
  assert(err == Err::kNone);
  (void)err;
}

VmmPort::~VmmPort() = default;

ConsoleDevice* VmmPort::console() { return console_dev_.get(); }

SyscallRet VmmPort::InvokeSyscall(Os& os, ukvm::ProcessId pid, SyscallReq& req) {
  uvmm::Domain* dom = hv_.FindDomain(guest_);
  if (dom == nullptr || !dom->alive) {
    return RetOf(Err::kDead);
  }
  os_ = &os;
  pid_ = pid;
  req_ = &req;
  // The application executes int 0x80 at user privilege.
  hv_.sched().SwitchTo(*dom, hwsim::PrivLevel::kUser);
  hwsim::TrapFrame frame;
  frame.vector = hwsim::TrapVector::kSyscall;
  frame.regs[0] = static_cast<uint64_t>(req.nr);
  frame.from_user = true;
  // E22: every guest system call — reflected through the hypervisor or
  // riding the fast trap gate — is one traced request; any frontend work
  // the guest kernel does inside attributes to it via the ambient scope.
  // An OS-level error return is still a completed syscall.
  ukvm::ReqOriginScope req_scope(machine_.reqtrace(), req_syscall_name_,
                                 machine_.cpu().current_domain());
  const uint64_t ret = hv_.GuestSyscall(guest_, frame);
  machine_.reqtrace().EndRequest(req_scope.ref());
  req_ = nullptr;
  machine_.DeliverPendingInterrupts();
  return static_cast<SyscallRet>(ret);
}

uint64_t VmmPort::GuestKernelSyscallEntry(hwsim::TrapFrame& frame) {
  (void)frame;
  if (os_ == nullptr || req_ == nullptr) {
    return static_cast<uint64_t>(RetOf(Err::kInvalidArgument));
  }
  // Guest kernel's copy_from_user / copy_to_user.
  machine_.ChargeCopy(req_->in.size());
  const SyscallRet ret = os_->SyscallImpl(pid_, *req_);
  machine_.ChargeCopy(req_->out.size());
  return static_cast<uint64_t>(ret);
}

Err VmmPort::LoadGlibcStyleSegments() {
  // glibc's TLS wants a flat 4 GiB GS segment; its limit no longer excludes
  // the hypervisor hole.
  hwsim::SegmentDescriptor flat;
  flat.base = 0;
  flat.limit = uint64_t{1} << 32;
  return hv_.HcSetSegment(guest_, hwsim::SegmentReg::kGs, flat);
}

}  // namespace minios
