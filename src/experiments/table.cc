#include "src/experiments/table.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace uharness {

namespace {

struct RecordedTable {
  std::string title;
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
  bool host_time = false;
};

std::vector<RecordedTable>& JsonRegistry() {
  static std::vector<RecordedTable> registry;
  return registry;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void PrintJsonStringArray(std::FILE* f, const std::vector<std::string>& items) {
  std::fputc('[', f);
  for (size_t i = 0; i < items.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", JsonEscape(items[i]).c_str());
  }
  std::fputc(']', f);
}

}  // namespace

Table::Table(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void Table::AddRow(std::vector<std::string> cells) {
  cells.resize(columns_.size());
  rows_.push_back(std::move(cells));
}

void Table::Print() const {
  JsonRegistry().push_back(RecordedTable{title_, columns_, rows_, host_time_});
  std::vector<size_t> widths(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::printf("\n%s\n", title_.c_str());
  auto print_sep = [&] {
    std::printf("+");
    for (size_t w : widths) {
      for (size_t i = 0; i < w + 2; ++i) {
        std::printf("-");
      }
      std::printf("+");
    }
    std::printf("\n");
  };
  print_sep();
  std::printf("|");
  for (size_t c = 0; c < columns_.size(); ++c) {
    std::printf(" %-*s |", static_cast<int>(widths[c]), columns_[c].c_str());
  }
  std::printf("\n");
  print_sep();
  for (const auto& row : rows_) {
    std::printf("|");
    for (size_t c = 0; c < columns_.size(); ++c) {
      std::printf(" %-*s |", static_cast<int>(widths[c]), row[c].c_str());
    }
    std::printf("\n");
  }
  print_sep();
}

std::string FmtInt(uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) {
      out.push_back(',');
    }
    out.push_back(*it);
    ++count;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::string FmtDouble(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string FmtPercent(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
  return buf;
}

std::string FmtCycles(uint64_t cycles) { return FmtInt(cycles); }

void PrintHeading(const std::string& experiment_id, const std::string& description) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", experiment_id.c_str(), description.c_str());
  std::printf("================================================================\n");
}

namespace {

bool WriteTableSet(const std::string& experiment_id, const std::string& path,
                   const std::vector<const RecordedTable*>& tables) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "table: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"experiment\": \"%s\",\n  \"tables\": [\n",
               JsonEscape(experiment_id).c_str());
  for (size_t t = 0; t < tables.size(); ++t) {
    std::fprintf(f, "    {\n      \"title\": \"%s\",\n      \"columns\": ",
                 JsonEscape(tables[t]->title).c_str());
    PrintJsonStringArray(f, tables[t]->columns);
    std::fprintf(f, ",\n      \"rows\": [\n");
    for (size_t r = 0; r < tables[t]->rows.size(); ++r) {
      std::fprintf(f, "        ");
      PrintJsonStringArray(f, tables[t]->rows[r]);
      std::fprintf(f, "%s\n", r + 1 == tables[t]->rows.size() ? "" : ",");
    }
    std::fprintf(f, "      ]\n    }%s\n", t + 1 == tables.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\n[json] wrote %s\n", path.c_str());
  return true;
}

}  // namespace

bool WriteJsonIfRequested(const std::string& experiment_id) {
  const char* dir = std::getenv("UKVM_BENCH_JSON");
  if (dir == nullptr || *dir == '\0') {
    return false;
  }
  std::vector<const RecordedTable*> det;
  std::vector<const RecordedTable*> host;
  for (const RecordedTable& table : JsonRegistry()) {
    (table.host_time ? host : det).push_back(&table);
  }
  bool ok = true;
  if (!det.empty() || host.empty()) {
    std::string det_path = dir;
    det_path += "/BENCH_";
    det_path += experiment_id;
    det_path += ".json";
    ok = WriteTableSet(experiment_id, det_path, det);
  }
  if (!host.empty()) {
    std::string host_path = dir;
    host_path += "/BENCH_";
    host_path += experiment_id;
    host_path += "_HOST.json";
    ok = WriteTableSet(experiment_id, host_path, host) && ok;
  }
  return ok;
}

}  // namespace uharness
