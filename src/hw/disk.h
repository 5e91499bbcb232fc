// Simulated block device with a request queue and a seek+transfer latency
// model. Underpins the storage experiments (E5: Parallax-style storage
// service vs. a microkernel file server).

#ifndef UKVM_SRC_HW_DISK_H_
#define UKVM_SRC_HW_DISK_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <span>

#include "src/core/error.h"
#include "src/core/ids.h"
#include "src/hw/fault_injector.h"
#include "src/hw/machine.h"
#include "src/hw/sparse_bytes.h"

namespace hwsim {

class Disk {
 public:
  struct Config {
    uint32_t block_size = 512;
    uint64_t capacity_blocks = 64 * 1024;          // 32 MiB at 512 B blocks
    uint64_t fixed_latency = 100 * kCyclesPerUs;   // seek + rotational
    uint64_t per_block_latency = 2 * kCyclesPerUs; // media transfer rate
  };

  enum class Op : uint8_t { kRead, kWrite };

  struct Completion {
    uint64_t request_id = 0;
    Op op = Op::kRead;
    ukvm::Err status = ukvm::Err::kNone;
  };

  Disk(Machine& machine, ukvm::IrqLine line, Config config);

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  // --- Driver interface ----------------------------------------------------

  // Reads `blocks` blocks starting at `lba` into physical memory at `dest`.
  ukvm::Result<uint64_t> SubmitRead(uint64_t lba, uint32_t blocks, Paddr dest);
  // Writes `blocks` blocks starting at `lba` from physical memory at `src`.
  ukvm::Result<uint64_t> SubmitWrite(uint64_t lba, uint32_t blocks, Paddr src);

  std::optional<Completion> TakeCompletion();

  // Crash-recovery quiesce (E19): abandons every queued-but-uncompleted
  // request — its DMA never lands and its completion IRQ never fires — and
  // drops undelivered completions, so a restarted driver can never be
  // completed into memory it no longer owns. The mechanical model keeps
  // spinning (busy_until_ stands). Returns the number of in-flight
  // requests cancelled.
  uint64_t CancelPending();

  // --- Fault injection ------------------------------------------------------

  // Attaches a fault injector (nullptr detaches). Not owned. Injected
  // faults: read errors (kCorrupted), write errors (kFault), latency
  // spikes, lost completion IRQs, spurious IRQ edges.
  void SetFaultInjector(FaultInjector* injector) { faults_ = injector; }
  FaultInjector* fault_injector() const { return faults_; }

  // --- Introspection and test access ---------------------------------------

  const Config& config() const { return config_; }
  ukvm::IrqLine line() const { return line_; }
  uint64_t completed_requests() const { return completed_; }
  // 4 KiB backing chunks materialised by writes; introspection only.
  uint64_t resident_chunks() const { return backing_.resident_chunks(); }

  // Direct backing-store access (no cycles charged); for tests and for
  // preparing disk images. Unwritten blocks read as zeros.
  ukvm::Err ReadBacking(uint64_t lba, std::span<uint8_t> out) const;
  ukvm::Err WriteBacking(uint64_t lba, std::span<const uint8_t> in);

 private:
  ukvm::Result<uint64_t> Submit(Op op, uint64_t lba, uint32_t blocks, Paddr mem_addr);

  Machine& machine_;
  ukvm::IrqLine line_;
  Config config_;
  FaultInjector* faults_ = nullptr;
  SparseBytes backing_;  // sparse: host memory only for written chunks
  std::deque<Completion> completions_;
  uint64_t next_request_id_ = 1;
  uint64_t busy_until_ = 0;  // requests are serviced serially
  uint64_t completed_ = 0;
  uint64_t inflight_ = 0;
  uint64_t cancel_epoch_ = 0;  // bumping it orphans scheduled completions
};

}  // namespace hwsim

#endif  // UKVM_SRC_HW_DISK_H_
