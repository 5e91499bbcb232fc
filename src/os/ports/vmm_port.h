// VMM port: MiniOS as a paravirtualized guest (XenoLinux-style).
//
// The system-call path is the one §3.2 dissects: by default every guest
// syscall traps into the hypervisor and is reflected into the guest kernel
// (two VMM entries per syscall); when the trap-gate shortcut is armed and
// every segment excludes the hypervisor, syscalls go straight to the guest
// kernel. Loading a glibc-style full-range segment (HcSetSegment) silently
// revokes the shortcut — experiment E2's punchline.
//
// Net and block devices are the paravirtual frontends (netfront/blkfront),
// built by the VMM stack and handed in here.

#ifndef UKVM_SRC_OS_PORTS_VMM_PORT_H_
#define UKVM_SRC_OS_PORTS_VMM_PORT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/hw/machine.h"
#include "src/os/arch_if.h"
#include "src/vmm/hypervisor.h"

namespace minios {

class VmmPort : public ArchPort {
 public:
  // Registers the guest's trap table (syscall + page-fault entries) with
  // the hypervisor; `request_fast_trap` asks for the trap-gate shortcut.
  VmmPort(hwsim::Machine& machine, uvmm::Hypervisor& hv, ukvm::DomainId guest,
          NetDevice* net_frontend, BlockPort* block_frontend, bool request_fast_trap);
  ~VmmPort() override;

  const char* name() const override { return "vmm"; }
  SyscallRet InvokeSyscall(Os& os, ukvm::ProcessId pid, SyscallReq& req) override;
  NetDevice* net() override { return net_; }
  BlockPort* block() override { return block_; }
  ConsoleDevice* console() override;

  ukvm::DomainId guest() const { return guest_; }

  // Simulates glibc's TLS setup: loads a full-range GS segment, which makes
  // the hypervisor revoke the fast trap gate (paper §3.2).
  ukvm::Err LoadGlibcStyleSegments();

 private:
  class HvConsole;

  // Runs at guest-kernel privilege: the guest's syscall trap handler.
  uint64_t GuestKernelSyscallEntry(hwsim::TrapFrame& frame);

  hwsim::Machine& machine_;
  uvmm::Hypervisor& hv_;
  ukvm::DomainId guest_;
  NetDevice* net_;
  BlockPort* block_;
  std::unique_ptr<HvConsole> console_dev_;

  // In-flight syscall state (single-threaded simulation).
  Os* os_ = nullptr;
  ukvm::ProcessId pid_ = ukvm::ProcessId::Invalid();
  SyscallReq* req_ = nullptr;

  // E22: request-trace origin for the trap-and-reflect syscall path, so the
  // VMM stack's control path parents into the request DAG like the ukernel
  // port's syscalls do.
  uint32_t req_syscall_name_ = 0;
};

}  // namespace minios

#endif  // UKVM_SRC_OS_PORTS_VMM_PORT_H_
