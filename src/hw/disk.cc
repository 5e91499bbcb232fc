#include "src/hw/disk.h"

#include <algorithm>

namespace hwsim {

Disk::Disk(Machine& machine, ukvm::IrqLine line, Config config)
    : machine_(machine),
      line_(line),
      config_(config),
      backing_(config_.capacity_blocks * config_.block_size, /*chunk_shift=*/12) {}

ukvm::Result<uint64_t> Disk::SubmitRead(uint64_t lba, uint32_t blocks, Paddr dest) {
  return Submit(Op::kRead, lba, blocks, dest);
}

ukvm::Result<uint64_t> Disk::SubmitWrite(uint64_t lba, uint32_t blocks, Paddr src) {
  return Submit(Op::kWrite, lba, blocks, src);
}

ukvm::Result<uint64_t> Disk::Submit(Op op, uint64_t lba, uint32_t blocks, Paddr mem_addr) {
  if (blocks == 0) {
    return ukvm::Err::kInvalidArgument;
  }
  if (lba > config_.capacity_blocks || blocks > config_.capacity_blocks - lba) {
    return ukvm::Err::kOutOfRange;
  }
  const uint64_t bytes = uint64_t{blocks} * config_.block_size;
  if (!machine_.memory().bytes().Contains(mem_addr, bytes)) {
    return ukvm::Err::kOutOfRange;
  }
  const uint64_t request_id = next_request_id_++;
  auto& mem = machine_.memory();
  for (Frame f = mem.FrameOf(mem_addr); f <= mem.FrameOf(mem_addr + bytes - 1); ++f) {
    machine_.NotifyDmaTarget(mem.FrameBase(f), /*to_memory=*/op == Op::kRead);
  }
  uint64_t service_time = config_.fixed_latency + blocks * config_.per_block_latency +
                          machine_.costs().DmaCost(bytes);

  // Fault decisions happen at submit so the schedule depends only on the
  // sequence of requests; their effects land with the completion.
  ukvm::Err injected = ukvm::Err::kNone;
  bool irq_lost = false;
  if (faults_ != nullptr) {
    if (faults_->SpuriousIrq()) {
      machine_.irq_controller().Assert(line_);
    }
    service_time += faults_->DiskExtraLatency();
    injected = faults_->DiskIoError(op == Op::kWrite);
    irq_lost = faults_->LoseIrq();
  }

  busy_until_ = std::max(busy_until_, machine_.Now()) + service_time;
  machine_.AccountOnly(ukvm::kHardwareDomain, machine_.costs().DmaCost(bytes));

  ++inflight_;
  machine_.ScheduleAt(busy_until_, [this, op, lba, bytes, mem_addr, request_id, injected,
                                    irq_lost, epoch = cancel_epoch_] {
    if (epoch != cancel_epoch_) {
      return;  // cancelled by a quiesce; the DMA must not land
    }
    --inflight_;
    const uint64_t disk_off = lba * config_.block_size;
    if (injected == ukvm::Err::kNone) {
      SparseBytes& ram = machine_.memory().bytes();
      if (op == Op::kRead) {
        SparseBytes::Copy(backing_, disk_off, ram, mem_addr, bytes);
      } else {
        SparseBytes::Copy(ram, mem_addr, backing_, disk_off, bytes);
      }
    }
    completions_.push_back(Completion{request_id, op, injected});
    ++completed_;
    if (!irq_lost) {
      machine_.irq_controller().Assert(line_);
    }
  });
  return request_id;
}

uint64_t Disk::CancelPending() {
  const uint64_t cancelled = inflight_;
  inflight_ = 0;
  ++cancel_epoch_;
  completions_.clear();
  return cancelled;
}

std::optional<Disk::Completion> Disk::TakeCompletion() {
  if (completions_.empty()) {
    return std::nullopt;
  }
  Completion completion = completions_.front();
  completions_.pop_front();
  return completion;
}

// lba <= capacity_blocks keeps lba * block_size from wrapping; the store
// range-checks the rest.
ukvm::Err Disk::ReadBacking(uint64_t lba, std::span<uint8_t> out) const {
  if (lba > config_.capacity_blocks) {
    return ukvm::Err::kOutOfRange;
  }
  return backing_.Read(lba * config_.block_size, out);
}

ukvm::Err Disk::WriteBacking(uint64_t lba, std::span<const uint8_t> in) {
  if (lba > config_.capacity_blocks) {
    return ukvm::Err::kOutOfRange;
  }
  return backing_.Write(lba * config_.block_size, in);
}

}  // namespace hwsim
