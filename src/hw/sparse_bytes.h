// Sparse byte store: the one backing for simulated RAM and disk.
//
// The address space [0, size) is cut into equal power-of-two chunks (one
// frame for RAM, 4 KiB of blocks for a disk). A chunk is materialised on its
// first write and reads as zeros until then, so a 64 MiB machine or a 32 MiB
// disk costs host memory only for the bytes a guest actually wrote.

#ifndef UKVM_SRC_HW_SPARSE_BYTES_H_
#define UKVM_SRC_HW_SPARSE_BYTES_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/core/error.h"

namespace hwsim {

class SparseBytes {
 public:
  SparseBytes(uint64_t size, uint32_t chunk_shift);

  uint64_t size() const { return size_; }
  uint64_t chunk_size() const { return uint64_t{1} << chunk_shift_; }
  // Chunks holding host memory; introspection only.
  uint64_t resident_chunks() const { return resident_; }

  // Whether [addr, addr + len) lies inside the store. Written in subtraction
  // form so that no addr/len pair can wrap around and pass.
  bool Contains(uint64_t addr, uint64_t len) const {
    return addr <= size_ && len <= size_ - addr;
  }

  // Range-checked copies that may cross chunk boundaries; kOutOfRange
  // touches nothing.
  ukvm::Err Read(uint64_t addr, std::span<uint8_t> out) const;
  ukvm::Err Write(uint64_t addr, std::span<const uint8_t> in);

  // One chunk's bytes. The mutable form materialises the chunk; the const
  // form of an untouched chunk is a shared zero chunk and materialises
  // nothing.
  std::span<uint8_t> MutableChunk(uint64_t index);
  std::span<const uint8_t> ChunkData(uint64_t index) const;

  // Returns a chunk to the untouched state: it reads as zeros again and its
  // host memory is freed.
  void Drop(uint64_t index);

  // Copies `len` bytes from src[src_addr] to dst[dst_addr] chunk by chunk,
  // with no temporary; a piece lying inside one chunk on both sides is one
  // memcpy. Both ranges must satisfy Contains (callers check).
  static void Copy(const SparseBytes& src, uint64_t src_addr, SparseBytes& dst, uint64_t dst_addr,
                   uint64_t len);

 private:
  uint64_t OffsetIn(uint64_t addr) const { return addr & (chunk_size() - 1); }
  uint8_t* Materialise(uint64_t index);

  uint64_t size_;
  uint32_t chunk_shift_;
  uint64_t resident_ = 0;
  std::vector<std::unique_ptr<uint8_t[]>> chunks_;  // nullptr == all zeros
  std::vector<uint8_t> zeros_;                      // the shared zero chunk
};

}  // namespace hwsim

#endif  // UKVM_SRC_HW_SPARSE_BYTES_H_
