#include "src/core/obs.h"

#include <algorithm>
#include <cassert>

namespace ukvm {

void ObsBus::Attach(Observer* observer, ObsMask mask) {
  assert(observer != nullptr);
  auto it = std::find_if(subs_.begin(), subs_.end(),
                         [observer](const Subscription& sub) { return sub.observer == observer; });
  if (it == subs_.end()) {
    subs_.push_back(Subscription{observer, mask});
  } else {
    it->mask = mask;
  }
  UpdateWanted();
}

void ObsBus::Detach(Observer* observer) {
  std::erase_if(subs_, [observer](const Subscription& sub) { return sub.observer == observer; });
  UpdateWanted();
}

void ObsBus::UpdateWanted() {
  wanted_ = 0;
  for (const Subscription& sub : subs_) {
    wanted_ |= sub.mask;
  }
}

}  // namespace ukvm
