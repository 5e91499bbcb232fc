// One stack under test, in its default Config, behind one interface so the
// runner drives native, ukernel and vmm with the same code.

#ifndef PERFBENCH_PB_TARGET_H_
#define PERFBENCH_PB_TARGET_H_

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "src/check/auditor.h"
#include "src/hw/machine.h"
#include "src/hw/nic.h"
#include "src/os/kernel.h"

namespace perfbench {

enum class StackKind : uint8_t { kNative, kUkernel, kVmm };
inline constexpr std::array<StackKind, 3> kStackKinds = {StackKind::kNative, StackKind::kUkernel,
                                                         StackKind::kVmm};
inline constexpr size_t kStackCount = kStackKinds.size();
const char* StackName(StackKind kind);

// A protection domain reported in the per-domain sim-cycle shares.
struct NamedDomain {
  const char* name;
  ukvm::DomainId id;
};

class Target {
 public:
  // Boots the stack. `audit` false is used only for the traced run's
  // audit-overhead comparison; everything else runs the default (audit on).
  static std::unique_ptr<Target> Boot(StackKind kind, bool audit);

  virtual ~Target() = default;

  virtual hwsim::Machine& machine() = 0;
  virtual hwsim::Nic& nic() = 0;
  virtual minios::Os& os() = 0;
  virtual ucheck::Auditor* auditor() = 0;
  // Runs `fn` as the guest application (a plain call on native).
  virtual void RunAsApp(const std::function<void()>& fn) = 0;
  // Routes inbound wire traffic for `port` to the guest.
  virtual void RouteWirePort(uint16_t port) = 0;
  // The stack's named CPU domains. Their shares of busy cycles, plus an
  // "other" share for any domain not listed, sum to 1.
  virtual std::vector<NamedDomain> Domains() = 0;
  // The domain hosting the drivers (Dom0 on vmm); invalid elsewhere.
  virtual ukvm::DomainId driver_domain() { return ukvm::DomainId::Invalid(); }
};

}  // namespace perfbench

#endif  // PERFBENCH_PB_TARGET_H_
