// MiniOS's one block client: what every substrate's block path shares.
//
// A port (native driver, µ-kernel block-server IPC, VMM blkfront) exposes
// one primitive, BlockPort::Submit. Everything above it lives here, once:
//  - chunking a request at the port's max_blocks();
//  - minting the blk.read/blk.write request origin of each chunk (E22);
//  - the exactly-once write journal (E19): with crash recovery on, each
//    write chunk is journaled under a monotonic id until the backend
//    answers, and a chunk the backend never answered stays for replay;
//  - replaying that journal in id order after the stack restarts the
//    backend, with the same ids, so the backend's recovery log suppresses
//    the writes that landed before the crash.

#ifndef UKVM_SRC_OS_BLOCK_CLIENT_H_
#define UKVM_SRC_OS_BLOCK_CLIENT_H_

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "src/core/reqtrace.h"
#include "src/hw/machine.h"
#include "src/os/arch_if.h"

namespace minios {

// Timestamps of the most recent completed recovery, captured by the
// stack's xenbus-style connection at reconnect. Replay attaches two leaves
// to each journaled write's request DAG: detect = [failure_at,
// detected_at] and reconnect = [detected_at, reconnected_at].
struct RecoveryPhases {
  uint64_t failure_at = 0;
  uint64_t detected_at = 0;
  uint64_t reclaimed_at = 0;
  uint64_t reconnected_at = 0;
  bool valid() const { return reconnected_at != 0; }
};

class BlockClient : public BlockDevice {
 public:
  BlockClient(hwsim::Machine& machine, BlockPort& port);

  uint32_t block_size() const override { return port_.block_size(); }
  uint64_t capacity_blocks() const override { return port_.capacity_blocks(); }
  ukvm::Err Read(uint64_t lba, uint32_t count, std::span<uint8_t> out) override;
  ukvm::Err Write(uint64_t lba, uint32_t count, std::span<const uint8_t> in) override;

  // --- Crash recovery (E19) ---------------------------------------------------

  // Off by default. On, each write chunk goes out as a journaled request
  // (BlockRequest::journaled) and stays in the journal until the backend
  // answers.
  void SetCrashRecovery(bool on) { crash_recovery_ = on; }

  // Re-issues every journaled write, in id order and with its original id,
  // against the reconnected backend. `phases` (when valid) become detect
  // and reconnect leaves on each entry's request DAG; the replay itself
  // becomes a recovery.replay leaf. Returns the number of entries
  // resolved; stops at the first the backend leaves unanswered (it died
  // again) and keeps the rest for the next replay.
  uint64_t ReplayJournal(const RecoveryPhases& phases);

  // Write chunks whose final status was success (exactly-once accounting).
  uint64_t writes_acked_ok() const { return writes_acked_ok_; }
  // Journaled writes still awaiting a backend answer.
  size_t journal_depth() const { return journal_.size(); }

 private:
  struct JournalEntry {
    uint64_t lba = 0;
    uint32_t count = 0;
    std::vector<uint8_t> payload;
    ukvm::ReqTraceRef trace;  // the write request, live until resolved
  };

  ukvm::Err Transfer(bool write, uint64_t lba, uint32_t count, std::span<const uint8_t> in,
                     std::span<uint8_t> out);

  hwsim::Machine& machine_;
  BlockPort& port_;
  bool crash_recovery_ = false;
  uint64_t next_id_ = 1;  // monotonic across restarts — replay reuses ids
  std::map<uint64_t, JournalEntry> journal_;  // unanswered writes, in id order
  uint64_t writes_acked_ok_ = 0;
  // E22 interned request-trace names.
  uint32_t req_read_name_ = 0;       // "blk.read" origin
  uint32_t req_write_name_ = 0;      // "blk.write" origin
  uint32_t req_detect_name_ = 0;     // "recovery.detect" leaf
  uint32_t req_reconnect_name_ = 0;  // "recovery.reconnect" leaf
  uint32_t req_replay_name_ = 0;     // "recovery.replay" leaf
};

}  // namespace minios

#endif  // UKVM_SRC_OS_BLOCK_CLIENT_H_
