#include "src/hw/sparse_bytes.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace hwsim {

SparseBytes::SparseBytes(uint64_t size, uint32_t chunk_shift)
    : size_(size),
      chunk_shift_(chunk_shift),
      chunks_((size + chunk_size() - 1) >> chunk_shift),
      zeros_(chunk_size(), 0) {}

uint8_t* SparseBytes::Materialise(uint64_t index) {
  std::unique_ptr<uint8_t[]>& chunk = chunks_[index];
  if (chunk == nullptr) {
    chunk = std::make_unique<uint8_t[]>(chunk_size());  // value-initialised: zeros
    ++resident_;
  }
  return chunk.get();
}

ukvm::Err SparseBytes::Read(uint64_t addr, std::span<uint8_t> out) const {
  if (!Contains(addr, out.size())) {
    return ukvm::Err::kOutOfRange;
  }
  for (uint64_t done = 0; done < out.size();) {
    const uint64_t off = OffsetIn(addr + done);
    const uint64_t n = std::min<uint64_t>(out.size() - done, chunk_size() - off);
    const uint8_t* chunk = chunks_[(addr + done) >> chunk_shift_].get();
    if (chunk != nullptr) {
      std::memcpy(out.data() + done, chunk + off, n);
    } else {
      std::memset(out.data() + done, 0, n);
    }
    done += n;
  }
  return ukvm::Err::kNone;
}

ukvm::Err SparseBytes::Write(uint64_t addr, std::span<const uint8_t> in) {
  if (!Contains(addr, in.size())) {
    return ukvm::Err::kOutOfRange;
  }
  for (uint64_t done = 0; done < in.size();) {
    const uint64_t off = OffsetIn(addr + done);
    const uint64_t n = std::min<uint64_t>(in.size() - done, chunk_size() - off);
    std::memcpy(Materialise((addr + done) >> chunk_shift_) + off, in.data() + done, n);
    done += n;
  }
  return ukvm::Err::kNone;
}

std::span<uint8_t> SparseBytes::MutableChunk(uint64_t index) {
  assert(index < chunks_.size());
  return {Materialise(index), chunk_size()};
}

std::span<const uint8_t> SparseBytes::ChunkData(uint64_t index) const {
  assert(index < chunks_.size());
  const uint8_t* chunk = chunks_[index].get();
  return {chunk != nullptr ? chunk : zeros_.data(), chunk_size()};
}

void SparseBytes::Drop(uint64_t index) {
  assert(index < chunks_.size());
  if (chunks_[index] != nullptr) {
    chunks_[index].reset();
    --resident_;
  }
}

void SparseBytes::Copy(const SparseBytes& src, uint64_t src_addr, SparseBytes& dst,
                       uint64_t dst_addr, uint64_t len) {
  assert(src.Contains(src_addr, len) && dst.Contains(dst_addr, len));
  while (len > 0) {
    const uint64_t src_off = src.OffsetIn(src_addr);
    const uint64_t dst_off = dst.OffsetIn(dst_addr);
    const uint64_t n =
        std::min({len, src.chunk_size() - src_off, dst.chunk_size() - dst_off});
    const uint8_t* from = src.chunks_[src_addr >> src.chunk_shift_].get();
    if (from != nullptr) {
      std::memcpy(dst.Materialise(dst_addr >> dst.chunk_shift_) + dst_off, from + src_off, n);
    } else if (uint8_t* to = dst.chunks_[dst_addr >> dst.chunk_shift_].get(); to != nullptr) {
      std::memset(to + dst_off, 0, n);
    }  // zeros onto an untouched chunk: it already reads as zeros
    src_addr += n;
    dst_addr += n;
    len -= n;
  }
}

}  // namespace hwsim
