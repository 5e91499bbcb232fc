#include "src/hw/nic.h"

#include <algorithm>

#include "src/core/log.h"

namespace hwsim {

Nic::Nic(Machine& machine, ukvm::IrqLine line, Config config)
    : machine_(machine), line_(line), config_(config) {}

ukvm::Err Nic::PostRxBuffer(Paddr addr, uint32_t len) {
  if (len == 0 || !machine_.memory().bytes().Contains(addr, len)) {
    return ukvm::Err::kOutOfRange;
  }
  if (rx_buffers_.size() >= config_.rx_queue_depth) {
    return ukvm::Err::kBusy;
  }
  auto& mem = machine_.memory();
  for (Frame f = mem.FrameOf(addr); f <= mem.FrameOf(addr + len - 1); ++f) {
    machine_.NotifyDmaTarget(mem.FrameBase(f), /*to_memory=*/true);
  }
  rx_buffers_.push_back(Buffer{addr, len});
  return ukvm::Err::kNone;
}

ukvm::Err Nic::Transmit(Paddr addr, uint32_t len) {
  if (len == 0 || len > config_.mtu) {
    return ukvm::Err::kInvalidArgument;
  }
  std::vector<uint8_t> packet(len);
  if (machine_.memory().Read(addr, packet) != ukvm::Err::kNone) {
    return ukvm::Err::kOutOfRange;
  }
  auto& mem = machine_.memory();
  for (Frame f = mem.FrameOf(addr); f <= mem.FrameOf(addr + len - 1); ++f) {
    machine_.NotifyDmaTarget(mem.FrameBase(f), /*to_memory=*/false);
  }
  const uint64_t dma = machine_.costs().DmaCost(len);
  machine_.AccountOnly(ukvm::kHardwareDomain, dma);
  ++tx_packets_;

  // Fault decisions happen at the transmit edge so the schedule depends only
  // on the sequence of operations, not on event timing.
  bool dropped = false;
  if (faults_ != nullptr) {
    if (faults_->SpuriousIrq()) {
      machine_.irq_controller().Assert(line_);
    }
    dropped = faults_->DropTxFrame();
    if (!dropped) {
      faults_->CorruptFrame(packet);
    }
  }

  // TX completion after the DMA engine has drained the buffer. The device
  // cannot see a wire drop, so the completion fires either way.
  machine_.ScheduleAfter(dma, [this, addr, len, epoch = cancel_epoch_] {
    if (epoch != cancel_epoch_) {
      return;  // quiesced: the driver that queued this is gone
    }
    tx_completions_.push_back(NicTxCompletion{addr, len});
    RaiseIrq();
  });

  // The packet reaches the peer after DMA + propagation.
  if (!dropped) {
    machine_.ScheduleAfter(dma + config_.wire_latency,
                           [this, packet = std::move(packet)]() mutable {
      if (peer_) {
        peer_(std::move(packet));
      }
    });
  }
  return ukvm::Err::kNone;
}

std::optional<NicRxCompletion> Nic::TakeRxCompletion() {
  if (rx_completions_.empty()) {
    return std::nullopt;
  }
  NicRxCompletion completion = rx_completions_.front();
  rx_completions_.pop_front();
  return completion;
}

std::optional<NicTxCompletion> Nic::TakeTxCompletion() {
  if (tx_completions_.empty()) {
    return std::nullopt;
  }
  NicTxCompletion completion = tx_completions_.front();
  tx_completions_.pop_front();
  return completion;
}

void Nic::InjectPacket(std::span<const uint8_t> bytes) {
  if (faults_ != nullptr && faults_->DropRxFrame()) {
    return;  // lost on the wire before the NIC ever saw it
  }
  if (rx_buffers_.empty()) {
    ++rx_drops_;
    return;
  }
  Buffer buffer = rx_buffers_.front();
  rx_buffers_.pop_front();
  const auto len = static_cast<uint32_t>(std::min<uint64_t>(bytes.size(), buffer.len));
  if (faults_ != nullptr) {
    std::vector<uint8_t> mangled(bytes.begin(), bytes.begin() + len);
    if (faults_->CorruptFrame(mangled)) {
      machine_.memory().Write(buffer.addr, mangled);
    } else {
      machine_.memory().Write(buffer.addr, bytes.subspan(0, len));
    }
  } else {
    machine_.memory().Write(buffer.addr, bytes.subspan(0, len));
  }
  const uint64_t dma = machine_.costs().DmaCost(len);
  machine_.AccountOnly(ukvm::kHardwareDomain, dma);
  ++rx_packets_;
  machine_.ScheduleAfter(dma, [this, buffer, len, epoch = cancel_epoch_] {
    if (epoch != cancel_epoch_) {
      return;  // quiesced: the posting driver is gone
    }
    rx_completions_.push_back(NicRxCompletion{buffer.addr, len});
    RaiseIrq();
  });
}

uint64_t Nic::CancelPosted() {
  const uint64_t forgotten = rx_buffers_.size();
  rx_buffers_.clear();
  rx_completions_.clear();
  tx_completions_.clear();
  irq_latched_ = false;
  ++cancel_epoch_;
  return forgotten;
}

void Nic::RaiseIrq() {
  if (faults_ != nullptr && faults_->LoseIrq()) {
    return;  // completion queued, but the edge never reaches the controller
  }
  if (!irq_enabled_) {
    irq_latched_ = true;  // mitigation: the driver is polling, hold the edge
    ++irqs_suppressed_;
    return;
  }
  ++irqs_raised_;
  machine_.irq_controller().Assert(line_);
}

void Nic::SetInterruptEnable(bool enabled) {
  irq_enabled_ = enabled;
  if (enabled && irq_latched_) {
    irq_latched_ = false;
    ++irqs_raised_;
    machine_.irq_controller().Assert(line_);
  }
}

}  // namespace hwsim
