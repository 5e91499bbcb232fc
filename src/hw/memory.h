// Physical memory and frame allocation.
//
// All payload data in the simulation lives in this byte-addressable
// physical memory, so cross-domain transfers (IPC string copies, grant
// copies, page flips) move real bytes that tests can check for integrity.
// The bytes live in a SparseBytes store with one chunk per frame: a frame
// costs host memory only once written, and zero-on-allocate drops the
// frame's chunk instead of clearing it.
// Frames carry an owner domain, which is what grant tables and the
// microkernel's mapping database validate against.

#ifndef UKVM_SRC_HW_MEMORY_H_
#define UKVM_SRC_HW_MEMORY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/error.h"
#include "src/core/ids.h"
#include "src/hw/sparse_bytes.h"

namespace hwsim {

using Paddr = uint64_t;   // physical byte address
using Vaddr = uint64_t;   // virtual byte address
using Frame = uint64_t;   // physical frame (page) number

class PhysicalMemory {
 public:
  PhysicalMemory(uint64_t bytes, uint32_t page_shift);

  uint64_t size_bytes() const { return bytes_.size(); }
  uint64_t num_frames() const { return owners_.size(); }
  uint64_t page_size() const { return uint64_t{1} << page_shift_; }
  uint32_t page_shift() const { return page_shift_; }
  uint64_t free_frames() const { return free_list_.size(); }
  // Frames materialised since their last allocation; introspection only.
  uint64_t resident_frames() const { return bytes_.resident_chunks(); }

  // Allocates one frame for `owner`; fails with kNoMemory when exhausted.
  ukvm::Result<Frame> AllocFrame(ukvm::DomainId owner);
  ukvm::Err FreeFrame(Frame frame);

  // Changes frame ownership; this is the accounting half of a page flip.
  ukvm::Err TransferFrame(Frame frame, ukvm::DomainId new_owner);

  // Owner of a frame; invalid id for free or out-of-range frames.
  ukvm::DomainId OwnerOf(Frame frame) const;

  // Range-checked byte copies; may cross frame boundaries.
  ukvm::Err Read(Paddr addr, std::span<uint8_t> out) const { return bytes_.Read(addr, out); }
  ukvm::Err Write(Paddr addr, std::span<const uint8_t> in) { return bytes_.Write(addr, in); }

  // Direct access to one frame's bytes (bounds-checked); used by devices and
  // by tests for integrity checks without charging simulated cycles. The
  // mutable form materialises the frame; the const form of an untouched
  // frame is a shared zero page.
  std::span<uint8_t> FrameData(Frame frame);
  std::span<const uint8_t> FrameData(Frame frame) const;

  // The byte store itself, for devices: its overflow-safe range check
  // (Nic, Disk) and DMA straight into a device's own backing (Disk).
  SparseBytes& bytes() { return bytes_; }

  Paddr FrameBase(Frame frame) const { return frame << page_shift_; }
  Frame FrameOf(Paddr addr) const { return addr >> page_shift_; }

 private:
  bool FrameInRange(Frame frame) const { return frame < owners_.size(); }

  uint32_t page_shift_;
  SparseBytes bytes_;
  std::vector<ukvm::DomainId> owners_;  // invalid id == free
  std::vector<Frame> free_list_;
};

}  // namespace hwsim

#endif  // UKVM_SRC_HW_MEMORY_H_
