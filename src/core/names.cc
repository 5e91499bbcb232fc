#include "src/core/names.h"

namespace ukvm {

NameTable::NameTable() { Intern(""); }

uint32_t NameTable::Intern(std::string_view name) {
  if (const auto it = ids_.find(name); it != ids_.end()) {
    return it->second;
  }
  const auto id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

uint32_t NameTable::Find(std::string_view name) const {
  const auto it = ids_.find(name);
  return it == ids_.end() ? 0 : it->second;
}

}  // namespace ukvm
