// Native port: MiniOS directly on the (simulated) hardware.
//
// This is the baseline configuration of experiment E2: a system call is a
// single trap into the OS kernel, devices are driven directly, and no
// protection-domain crossings beyond user/kernel exist. It doubles as the
// machine's trap handler — MiniOS *is* the kernel here.

#ifndef UKVM_SRC_OS_PORTS_NATIVE_PORT_H_
#define UKVM_SRC_OS_PORTS_NATIVE_PORT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/drivers/disk_driver.h"
#include "src/drivers/nic_driver.h"
#include "src/hw/disk.h"
#include "src/hw/machine.h"
#include "src/hw/nic.h"
#include "src/os/arch_if.h"

namespace minios {

class NativePort : public ArchPort, public hwsim::TrapHandler {
 public:
  // `os_domain` is the accounting domain for the whole OS (kernel + apps
  // share it: no internal protection on this baseline). `pool` are frames
  // for NIC staging.
  NativePort(hwsim::Machine& machine, hwsim::Nic& nic, hwsim::Disk& disk,
             ukvm::DomainId os_domain, std::vector<hwsim::Frame> pool);
  ~NativePort() override;

  // --- ArchPort ---------------------------------------------------------------

  const char* name() const override { return "native"; }
  SyscallRet InvokeSyscall(Os& os, ukvm::ProcessId pid, SyscallReq& req) override;
  NetDevice* net() override;
  BlockPort* block() override;
  ConsoleDevice* console() override;

  // --- hwsim::TrapHandler --------------------------------------------------------

  void HandleTrap(hwsim::TrapFrame& frame) override;
  void HandleInterrupt(ukvm::IrqLine line) override;

  const std::vector<std::string>& console_log() const { return console_log_; }

 private:
  class NativeNet;
  class NativeBlock;
  class NativeConsole;

  hwsim::Machine& machine_;
  ukvm::DomainId os_domain_;
  hwsim::Disk& disk_;
  udrv::NicDriver nic_driver_;
  udrv::DiskDriver disk_driver_;
  ukvm::IrqLine nic_irq_;
  ukvm::IrqLine disk_irq_;
  uint32_t mech_syscall_ = 0;
  uint32_t mech_irq_ = 0;
  // E22 interned request-trace names.
  uint32_t req_syscall_name_ = 0;  // "os.syscall" origin
  uint32_t req_tx_name_ = 0;       // "net.tx" origin
  uint32_t req_dev_name_ = 0;      // "disk.io" device leaf

  std::unique_ptr<NativeNet> net_dev_;
  std::unique_ptr<NativeBlock> block_dev_;
  std::unique_ptr<NativeConsole> console_dev_;
  std::vector<std::string> console_log_;
};

}  // namespace minios

#endif  // UKVM_SRC_OS_PORTS_NATIVE_PORT_H_
