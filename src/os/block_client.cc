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

}  // namespace minios
