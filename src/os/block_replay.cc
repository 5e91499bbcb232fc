// BlockClient's write-journal replay, in its own file so E8 counts it only
// for guests whose stacks can turn crash recovery on.

#include "src/os/block_client.h"

namespace minios {

using ukvm::Err;

uint64_t BlockClient::ReplayJournal(const RecoveryPhases& phases) {
  ukvm::RequestTrace& rt = machine_.reqtrace();
  // The outage window [failure, detected] and the rebuild [detected,
  // reconnected] are where every journaled request's wall-clock went.
  if (phases.valid()) {
    for (const auto& [id, entry] : journal_) {
      rt.AddLeafTo(entry.trace, req_detect_name_, ukvm::ReqNodeKind::kRecovery, port_.domain(),
                   phases.failure_at, phases.detected_at);
      rt.AddLeafTo(entry.trace, req_reconnect_name_, ukvm::ReqNodeKind::kRecovery,
                   port_.domain(), phases.detected_at, phases.reconnected_at);
    }
  }
  uint64_t replayed = 0;
  auto it = journal_.begin();
  while (it != journal_.end() && port_.Ready() == Err::kNone) {
    const JournalEntry& entry = it->second;
    // The replay re-issues the original request on its own DAG: handoffs
    // that died with the old backend are forgiven, and the replay becomes
    // a recovery leaf on the request's critical path.
    rt.ForgiveHandoffs(entry.trace);
    ukvm::ReqAdoptScope req_scope(rt, entry.trace);
    const uint64_t replay_t0 = machine_.Now();
    BlockRequest req;
    req.write = true;
    req.lba = entry.lba;
    req.count = entry.count;
    req.id = it->first;
    req.journaled = true;
    req.in = entry.payload;
    req.on_answer = [&](const BlockCompletion&) {
      rt.AddLeafTo(entry.trace, req_replay_name_, ukvm::ReqNodeKind::kRecovery, port_.domain(),
                   replay_t0, machine_.Now());
      rt.EndRequest(entry.trace);
    };
    const BlockCompletion result = port_.Submit(req);
    if (!result.answered) {
      break;  // the backend died again; keep the rest for the next replay
    }
    if (result.status == Err::kNone) {
      ++writes_acked_ok_;
    }
    it = journal_.erase(it);
    ++replayed;
  }
  return replayed;
}

}  // namespace minios
