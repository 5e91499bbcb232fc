#include "src/os/block_client.h"

#include <algorithm>

namespace minios {

using ukvm::Err;

BlockClient::BlockClient(hwsim::Machine& machine, BlockPort& port)
    : machine_(machine), port_(port) {
  ukvm::NameTable& names = machine_.names();
  req_read_name_ = names.Intern("blk.read");
  req_write_name_ = names.Intern("blk.write");
  req_detect_name_ = names.Intern("recovery.detect");
  req_reconnect_name_ = names.Intern("recovery.reconnect");
  req_replay_name_ = names.Intern("recovery.replay");
}

Err BlockClient::Read(uint64_t lba, uint32_t count, std::span<uint8_t> out) {
  return Transfer(/*write=*/false, lba, count, {}, out);
}

Err BlockClient::Write(uint64_t lba, uint32_t count, std::span<const uint8_t> in) {
  return Transfer(/*write=*/true, lba, count, in, {});
}

Err BlockClient::Transfer(bool write, uint64_t lba, uint32_t count, std::span<const uint8_t> in,
                          std::span<uint8_t> out) {
  const uint64_t bs = port_.block_size();
  if ((write ? in.size() : out.size()) < count * bs) {
    return Err::kInvalidArgument;
  }
  ukvm::RequestTrace& rt = machine_.reqtrace();
  uint32_t done = 0;
  while (done < count) {
    UKVM_TRY(port_.Ready());
    const uint32_t chunk = std::min(count - done, port_.max_blocks());
    // One traced request per chunk: whatever the port charges for it
    // (staging copies, IPC, grants, ring and device waits) attributes here.
    ukvm::ReqOriginScope req_scope(rt, write ? req_write_name_ : req_read_name_,
                                   port_.domain());
    BlockRequest req;
    req.write = write;
    req.lba = lba + done;
    req.count = chunk;
    req.id = next_id_++;
    req.journaled = write && crash_recovery_;
    if (write) {
      req.in = in.subspan(done * bs, chunk * bs);
    } else {
      req.out = out.subspan(done * bs, chunk * bs);
    }
    if (req.journaled) {
      // Journal before submitting; the entry lives until the backend
      // answers, so a death under the request leaves it for replay.
      journal_.emplace(req.id, JournalEntry{req.lba, chunk, {req.in.begin(), req.in.end()},
                                            req_scope.ref()});
    }
    const BlockCompletion result = port_.Submit(req);
    if (req.journaled && result.answered) {
      // The backend answered (success or error): the write's fate is known.
      journal_.erase(req.id);
      if (result.status == Err::kNone) {
        ++writes_acked_ok_;
      }
    }
    if (result.status == Err::kNone) {
      rt.EndRequest(req_scope.ref());
    } else if (result.answered || !req.journaled) {
      rt.AbandonRequest(req_scope.ref());
    }
    // An unanswered journaled write stays live: its replay ends it.
    if (result.status != Err::kNone) {
      return result.status;
    }
    done += chunk;
  }
  return Err::kNone;
}

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
