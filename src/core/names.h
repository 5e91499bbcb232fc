// The machine's one name table.
//
// Every instrument on a machine names things: ledger mechanisms, flight
// recorder spans and instants, profiler frames, latency histograms and
// request-trace nodes. They all draw their ids from one NameTable, so a
// name interned once (say "l4.ipc.call" by the ledger) is the same id in
// every one of them, and no instrument keeps a map of its own.

#ifndef UKVM_SRC_CORE_NAMES_H_
#define UKVM_SRC_CORE_NAMES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ukvm {

class NameTable {
 public:
  // Id 0 is reserved for the empty name, so call sites can use 0 as a
  // "not yet interned" sentinel.
  NameTable();

  // Returns the id of `name`, interning it on first sight. Ids are dense
  // and stable for the table's lifetime.
  uint32_t Intern(std::string_view name);
  // Id of an already-interned `name`, or 0 if it was never interned.
  uint32_t Find(std::string_view name) const;
  const std::string& Name(uint32_t id) const { return names_.at(id); }
  size_t size() const { return names_.size(); }

 private:
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, uint32_t, Hash, std::equal_to<>> ids_;
};

}  // namespace ukvm

#endif  // UKVM_SRC_CORE_NAMES_H_
