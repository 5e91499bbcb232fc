// Plain-text table and series printing for the experiment binaries: every
// bench target prints the rows/series of the table or figure it regenerates.

#ifndef UKVM_SRC_EXPERIMENTS_TABLE_H_
#define UKVM_SRC_EXPERIMENTS_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace uharness {

class Table {
 public:
  Table(std::string title, std::vector<std::string> columns);

  void AddRow(std::vector<std::string> cells);
  void Print() const;

  // Flags this table as carrying host-side data: wall-clock measurements,
  // or E8's line counts of this repository's own sources. Host-time
  // tables are excluded from BENCH_<id>.json (which scripts/check.sh
  // compares bit-exact across runs) and land in BENCH_<id>_HOST.json
  // instead, so an experiment can report both deterministic counters and
  // host overhead without breaking the determinism gate.
  void MarkHostTime() { host_time_ = true; }

  size_t rows() const { return rows_.size(); }

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
  bool host_time_ = false;
};

// Number formatting helpers.
std::string FmtInt(uint64_t value);
std::string FmtDouble(double value, int precision = 2);
std::string FmtPercent(double fraction, int precision = 1);
std::string FmtCycles(uint64_t cycles);

// Section header for a bench binary's stdout.
void PrintHeading(const std::string& experiment_id, const std::string& description);

// Machine-readable export: every Table::Print() also records the table in a
// process-global registry. When the environment variable UKVM_BENCH_JSON
// names a directory, this writes the registry's deterministic tables as
// <dir>/BENCH_<experiment_id>.json (skipped when every table is host-time)
// and — if any table was MarkHostTime()d — the host-time tables as
// <dir>/BENCH_<experiment_id>_HOST.json, returning
// true; otherwise it is a no-op. Bench binaries call it once at the end of
// main (scripts/bench.sh sets the variable and collects the files;
// scripts/check.sh compares only the deterministic file bit-exact).
bool WriteJsonIfRequested(const std::string& experiment_id);

}  // namespace uharness

#endif  // UKVM_SRC_EXPERIMENTS_TABLE_H_
