#include "pb/target.h"

#include "src/stacks/native_stack.h"
#include "src/stacks/ukernel_stack.h"
#include "src/stacks/vmm_stack.h"

namespace perfbench {

namespace {

class NativeTarget : public Target {
 public:
  explicit NativeTarget(bool audit) : stack_(Config(audit)) {}

  hwsim::Machine& machine() override { return stack_.machine(); }
  hwsim::Nic& nic() override { return stack_.nic(); }
  minios::Os& os() override { return stack_.os(); }
  ucheck::Auditor* auditor() override { return stack_.auditor(); }
  void RunAsApp(const std::function<void()>& fn) override { fn(); }
  // The native OS owns the NIC; binding the port is all routing needs.
  void RouteWirePort(uint16_t) override {}
  std::vector<NamedDomain> Domains() override { return {{"os", stack_.os_domain()}}; }

 private:
  static ustack::NativeStack::Config Config(bool audit) {
    ustack::NativeStack::Config config;
    config.audit = audit;
    return config;
  }
  ustack::NativeStack stack_;
};

class UkernelTarget : public Target {
 public:
  explicit UkernelTarget(bool audit) : stack_(Config(audit)) {}

  hwsim::Machine& machine() override { return stack_.machine(); }
  hwsim::Nic& nic() override { return stack_.nic(); }
  minios::Os& os() override { return stack_.guest_os(0); }
  ucheck::Auditor* auditor() override { return stack_.auditor(); }
  void RunAsApp(const std::function<void()>& fn) override { (void)stack_.RunAsApp(0, fn); }
  void RouteWirePort(uint16_t port) override { stack_.RouteWirePort(port, 0); }
  std::vector<NamedDomain> Domains() override {
    return {{"app", stack_.guest(0).app_task},
            {"os_server", stack_.guest(0).os_task},
            {"blk_server", stack_.block_server().task()},
            {"net_server", stack_.net_server().task()},
            {"kernel", stack_.kernel().kernel_domain()},
            {"sigma0", stack_.sigma0().task()}};
  }

 private:
  static ustack::UkernelStack::Config Config(bool audit) {
    ustack::UkernelStack::Config config;
    config.audit = audit;
    return config;
  }
  ustack::UkernelStack stack_;
};

class VmmTarget : public Target {
 public:
  explicit VmmTarget(bool audit) : stack_(Config(audit)) {}

  hwsim::Machine& machine() override { return stack_.machine(); }
  hwsim::Nic& nic() override { return stack_.nic(); }
  minios::Os& os() override { return stack_.guest_os(0); }
  ucheck::Auditor* auditor() override { return stack_.auditor(); }
  void RunAsApp(const std::function<void()>& fn) override { (void)stack_.RunAsApp(0, fn); }
  void RouteWirePort(uint16_t port) override { stack_.RouteWirePort(port, 0); }
  std::vector<NamedDomain> Domains() override {
    return {{"guest", stack_.guest(0).domain},
            {"dom0", stack_.dom0()},
            {"hypervisor", stack_.hv().vmm_domain()}};
  }
  ukvm::DomainId driver_domain() override { return stack_.net_domain(); }

 private:
  static ustack::VmmStack::Config Config(bool audit) {
    ustack::VmmStack::Config config;
    config.audit = audit;
    return config;
  }
  ustack::VmmStack stack_;
};

}  // namespace

const char* StackName(StackKind kind) {
  switch (kind) {
    case StackKind::kNative: return "native";
    case StackKind::kUkernel: return "ukernel";
    case StackKind::kVmm: return "vmm";
  }
  return "?";
}

std::unique_ptr<Target> Target::Boot(StackKind kind, bool audit) {
  switch (kind) {
    case StackKind::kNative: return std::make_unique<NativeTarget>(audit);
    case StackKind::kUkernel: return std::make_unique<UkernelTarget>(audit);
    case StackKind::kVmm: return std::make_unique<VmmTarget>(audit);
  }
  return nullptr;
}

}  // namespace perfbench
