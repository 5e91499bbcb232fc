#include "src/experiments/trace_export.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <set>

namespace uharness {

namespace {

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

// Cycles -> "<us>.<frac>" microseconds with three fixed fraction digits,
// in pure integer math so the output is bit-stable across platforms.
std::string CyclesToUs(uint64_t cycles, uint64_t cycles_per_us) {
  char buf[48];
  const uint64_t us = cycles / cycles_per_us;
  const uint64_t frac = (cycles % cycles_per_us) * 1000 / cycles_per_us;
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03" PRIu64, us, frac);
  return buf;
}

}  // namespace

std::string ChromeTraceJson(const ukvm::Tracer& tracer, uint64_t cycles_per_us) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&out, &first] {
    if (!first) {
      out += ",\n";
    } else {
      out += "\n";
      first = false;
    }
  };

  // One "process" per domain that either registered a name or appears in an
  // event, so Perfetto shows readable track names.
  std::set<uint32_t> pids;
  for (const auto& [id, name] : tracer.domain_names()) {
    pids.insert(id);
  }
  tracer.ForEachEvent([&pids](const ukvm::TraceEvent& e) { pids.insert(e.domain.value()); });
  for (uint32_t pid : pids) {
    sep();
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
           ",\"tid\":" + std::to_string(pid) + ",\"args\":{\"name\":\"" +
           JsonEscape(tracer.DomainName(ukvm::DomainId(pid))) + "\"}}";
  }

  tracer.ForEachEvent([&](const ukvm::TraceEvent& e) {
    sep();
    const uint32_t pid = e.domain.value();
    out += "{\"name\":\"" + JsonEscape(tracer.Name(e.name)) + "\",\"pid\":" +
           std::to_string(pid) + ",\"tid\":" + std::to_string(pid) +
           ",\"ts\":" + CyclesToUs(e.time, cycles_per_us);
    switch (e.type) {
      case ukvm::TraceEventType::kSpan:
        out += ",\"ph\":\"X\",\"dur\":" + CyclesToUs(e.dur, cycles_per_us);
        break;
      case ukvm::TraceEventType::kInstant:
        out += ",\"ph\":\"i\",\"s\":\"t\"";
        break;
      case ukvm::TraceEventType::kCrossing:
        out += ",\"ph\":\"X\",\"dur\":" + CyclesToUs(e.dur, cycles_per_us) +
               ",\"cat\":\"crossing\"";
        break;
    }
    out += ",\"args\":{\"seq\":" + std::to_string(e.seq) + ",\"a\":" + std::to_string(e.a) +
           ",\"b\":" + std::to_string(e.b) + "}}";
  });
  out += "\n]}\n";
  return out;
}

std::string CollapsedStacks(const ukvm::Tracer& tracer) {
  std::string out;
  tracer.profiler().ForEachAttribution(
      [&](ukvm::DomainId domain, const std::vector<uint32_t>& path, uint64_t cycles) {
        out += tracer.DomainName(domain);
        if (path.empty()) {
          out += ";(unattributed)";
        } else {
          for (uint32_t frame : path) {
            out += ';';
            out += tracer.Name(frame);
          }
        }
        out += ' ';
        out += std::to_string(cycles);
        out += '\n';
      });
  return out;
}

uint64_t AttributedCycles(const ukvm::CycleProfiler& profiler) {
  uint64_t attributed = 0;
  profiler.ForEachAttribution(
      [&attributed](ukvm::DomainId, const std::vector<uint32_t>& path, uint64_t cycles) {
        if (!path.empty()) {
          attributed += cycles;
        }
      });
  return attributed;
}

std::string RequestTraceJson(const ukvm::RequestTrace& rt, const ukvm::Tracer& tracer,
                             uint64_t cycles_per_us) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&out, &first] {
    if (!first) {
      out += ",\n";
    } else {
      out += "\n";
      first = false;
    }
  };

  // Process-name metadata for every domain a retained node ran in.
  std::set<uint32_t> pids;
  for (const ukvm::CompletedRequest& req : rt.slowest()) {
    for (const ukvm::ReqNode& node : req.nodes) {
      pids.insert(node.domain.valid() ? node.domain.value() : 0);
    }
  }
  for (uint32_t pid : pids) {
    sep();
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    out += std::to_string(pid);
    out += ",\"tid\":";
    out += std::to_string(pid);
    out += ",\"args\":{\"name\":\"";
    out += JsonEscape(tracer.DomainName(ukvm::DomainId(pid)));
    out += "\"}}";
  }

  for (const ukvm::CompletedRequest& req : rt.slowest()) {
    for (size_t i = 0; i < req.nodes.size(); ++i) {
      const ukvm::ReqNode& node = req.nodes[i];
      const uint32_t pid = node.domain.valid() ? node.domain.value() : 0;
      const uint64_t t1 = node.t1 == ukvm::kReqOpen ? req.t1 : node.t1;
      std::string label = rt.Name(node.name);
      if (label.empty()) {
        label = ukvm::ReqNodeKindName(node.kind);
      }
      sep();
      out += "{\"name\":\"";
      out += JsonEscape(label);
      out += "\",\"ph\":\"X\",\"pid\":";
      out += std::to_string(pid);
      out += ",\"tid\":";
      out += std::to_string(pid);
      out += ",\"ts\":";
      out += CyclesToUs(node.t0, cycles_per_us);
      out += ",\"dur\":";
      out += CyclesToUs(t1 >= node.t0 ? t1 - node.t0 : 0, cycles_per_us);
      out += ",\"args\":{\"req\":";
      out += std::to_string(req.id);
      out += ",\"node\":";
      out += std::to_string(i);
      out += ",\"parent\":";
      out += node.parent == ukvm::kReqNoParent ? "-1" : std::to_string(node.parent);
      out += ",\"kind\":\"";
      out += ukvm::ReqNodeKindName(node.kind);
      out += "\"}}";
      // Cross-domain parent->child handoffs as flow arrows.
      if (node.parent != ukvm::kReqNoParent && node.parent < req.nodes.size()) {
        const ukvm::ReqNode& parent = req.nodes[node.parent];
        if (parent.domain != node.domain) {
          const uint32_t ppid = parent.domain.valid() ? parent.domain.value() : 0;
          const std::string flow_id =
              std::to_string(uint64_t{req.id} * 100000 + i);
          sep();
          out += "{\"name\":\"req\",\"ph\":\"s\",\"cat\":\"req\",\"id\":";
          out += flow_id;
          out += ",\"pid\":";
          out += std::to_string(ppid);
          out += ",\"tid\":";
          out += std::to_string(ppid);
          out += ",\"ts\":";
          out += CyclesToUs(node.t0, cycles_per_us);
          out += "}";
          sep();
          out += "{\"name\":\"req\",\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"req\",\"id\":";
          out += flow_id;
          out += ",\"pid\":";
          out += std::to_string(pid);
          out += ",\"tid\":";
          out += std::to_string(pid);
          out += ",\"ts\":";
          out += CyclesToUs(node.t0, cycles_per_us);
          out += "}";
        }
      }
    }
  }
  out += "\n]}\n";
  return out;
}

std::string RequestTableJson(const ukvm::RequestTrace& rt, const ukvm::Tracer& tracer) {
  const ukvm::ReqTraceLint lint = rt.Lint();
  std::string out = "{\"lint\":{\"completed\":";
  out += std::to_string(lint.completed);
  out += ",\"fully_parented\":";
  out += std::to_string(lint.fully_parented);
  out += ",\"orphaned_handoffs\":";
  out += std::to_string(lint.orphaned_handoffs);
  out += ",\"abandoned\":";
  out += std::to_string(lint.abandoned);
  out += ",\"open\":";
  out += std::to_string(lint.open);
  out += ",\"dropped_nodes\":";
  out += std::to_string(lint.dropped_nodes);
  out += "},\n\"requests\":[";
  bool first_req = true;
  for (const ukvm::CompletedRequest& req : rt.slowest()) {
    out += first_req ? "\n" : ",\n";
    first_req = false;
    const ukvm::ReqNode& root = req.nodes.empty() ? ukvm::ReqNode{} : req.nodes[0];
    out += "{\"id\":";
    out += std::to_string(req.id);
    out += ",\"origin\":\"";
    out += JsonEscape(rt.Name(root.name));
    out += "\",\"domain\":\"";
    out += JsonEscape(tracer.DomainName(root.domain));
    out += "\",\"t0\":";
    out += std::to_string(req.t0);
    out += ",\"e2e\":";
    out += std::to_string(req.t1 - req.t0);
    out += ",\"parented\":";
    out += req.parented ? "true" : "false";
    out += ",\"breakdown\":{";
    bool first_kind = true;
    for (size_t k = 0; k < ukvm::kReqNodeKindCount; ++k) {
      if (req.breakdown[k] == 0) {
        continue;
      }
      if (!first_kind) {
        out += ",";
      }
      first_kind = false;
      out += "\"";
      out += ukvm::ReqNodeKindName(static_cast<ukvm::ReqNodeKind>(k));
      out += "\":";
      out += std::to_string(req.breakdown[k]);
    }
    out += "},\"critical_path\":[";
    bool first_seg = true;
    for (const ukvm::ReqSegment& seg : req.critical_path) {
      if (!first_seg) {
        out += ",";
      }
      first_seg = false;
      const ukvm::ReqNode& node = req.nodes[seg.node];
      std::string label = rt.Name(node.name);
      if (label.empty()) {
        label = ukvm::ReqNodeKindName(node.kind);
      }
      out += "{\"node\":\"";
      out += JsonEscape(label);
      out += "\",\"kind\":\"";
      out += ukvm::ReqNodeKindName(node.kind);
      out += "\",\"t0\":";
      out += std::to_string(seg.t0);
      out += ",\"dur\":";
      out += std::to_string(seg.t1 - seg.t0);
      out += "}";
    }
    out += "]}";
  }
  out += "\n]}\n";
  return out;
}

bool WriteRequestTraceFilesIfRequested(const ukvm::RequestTrace& rt,
                                       const ukvm::Tracer& tracer, const std::string& tag,
                                       uint64_t cycles_per_us) {
  const char* dir = std::getenv("UKVM_TRACE_DIR");
  if (dir == nullptr || *dir == '\0') {
    return false;
  }
  std::string trace_path = dir;
  trace_path += "/REQTRACE_";
  trace_path += tag;
  trace_path += ".json";
  std::string table_path = dir;
  table_path += "/REQTABLE_";
  table_path += tag;
  table_path += ".json";
  std::FILE* f = std::fopen(trace_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "trace_export: cannot write %s\n", trace_path.c_str());
    return false;
  }
  const std::string trace_json = RequestTraceJson(rt, tracer, cycles_per_us);
  std::fwrite(trace_json.data(), 1, trace_json.size(), f);
  std::fclose(f);
  f = std::fopen(table_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "trace_export: cannot write %s\n", table_path.c_str());
    return false;
  }
  const std::string table_json = RequestTableJson(rt, tracer);
  std::fwrite(table_json.data(), 1, table_json.size(), f);
  std::fclose(f);
  std::printf("\n[reqtrace] wrote %s and %s\n", trace_path.c_str(), table_path.c_str());
  return true;
}

bool WriteTraceFilesIfRequested(const ukvm::Tracer& tracer, const std::string& tag,
                                uint64_t cycles_per_us) {
  const char* dir = std::getenv("UKVM_TRACE_DIR");
  if (dir == nullptr || *dir == '\0') {
    return false;
  }
  const std::string json_path = std::string(dir) + "/TRACE_" + tag + ".json";
  const std::string stacks_path = std::string(dir) + "/STACKS_" + tag + ".txt";
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "trace_export: cannot write %s\n", json_path.c_str());
    return false;
  }
  const std::string json = ChromeTraceJson(tracer, cycles_per_us);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  f = std::fopen(stacks_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "trace_export: cannot write %s\n", stacks_path.c_str());
    return false;
  }
  const std::string stacks = CollapsedStacks(tracer);
  std::fwrite(stacks.data(), 1, stacks.size(), f);
  std::fclose(f);
  std::printf("\n[trace] wrote %s and %s\n", json_path.c_str(), stacks_path.c_str());
  return true;
}

}  // namespace uharness
