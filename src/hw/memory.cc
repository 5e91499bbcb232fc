#include "src/hw/memory.h"

#include <cassert>

namespace hwsim {

PhysicalMemory::PhysicalMemory(uint64_t bytes, uint32_t page_shift)
    : page_shift_(page_shift),
      bytes_(((bytes + page_size() - 1) >> page_shift) << page_shift, page_shift) {
  assert(page_shift >= 6 && page_shift <= 20);
  const uint64_t frames = bytes_.size() >> page_shift_;
  owners_.assign(frames, ukvm::DomainId::Invalid());
  free_list_.reserve(frames);
  // Hand frames out in ascending order: push in reverse so pop_back yields 0 first.
  for (Frame f = frames; f > 0; --f) {
    free_list_.push_back(f - 1);
  }
}

ukvm::Result<Frame> PhysicalMemory::AllocFrame(ukvm::DomainId owner) {
  if (free_list_.empty()) {
    return ukvm::Err::kNoMemory;
  }
  const Frame frame = free_list_.back();
  free_list_.pop_back();
  owners_[frame] = owner;
  // Kernels zero frames on allocation; model that for reproducibility. An
  // untouched frame reads as zeros, so zeroing is dropping its chunk.
  bytes_.Drop(frame);
  return frame;
}

ukvm::Err PhysicalMemory::FreeFrame(Frame frame) {
  if (!FrameInRange(frame)) {
    return ukvm::Err::kOutOfRange;
  }
  if (!owners_[frame].valid()) {
    return ukvm::Err::kInvalidArgument;  // double free
  }
  owners_[frame] = ukvm::DomainId::Invalid();
  free_list_.push_back(frame);
  return ukvm::Err::kNone;
}

ukvm::Err PhysicalMemory::TransferFrame(Frame frame, ukvm::DomainId new_owner) {
  if (!FrameInRange(frame)) {
    return ukvm::Err::kOutOfRange;
  }
  if (!owners_[frame].valid()) {
    return ukvm::Err::kInvalidArgument;
  }
  owners_[frame] = new_owner;
  return ukvm::Err::kNone;
}

ukvm::DomainId PhysicalMemory::OwnerOf(Frame frame) const {
  if (!FrameInRange(frame)) {
    return ukvm::DomainId::Invalid();
  }
  return owners_[frame];
}

std::span<uint8_t> PhysicalMemory::FrameData(Frame frame) {
  assert(FrameInRange(frame));
  return bytes_.MutableChunk(frame);
}

std::span<const uint8_t> PhysicalMemory::FrameData(Frame frame) const {
  assert(FrameInRange(frame));
  return bytes_.ChunkData(frame);
}

}  // namespace hwsim
