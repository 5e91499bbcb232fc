#include "src/os/vfs.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <optional>
#include <type_traits>
#include <utility>

namespace minios {

using ukvm::Err;
using ukvm::Result;

namespace {

struct Superblock {
  uint32_t magic = 0;
  uint32_t block_size = 0;
  uint64_t capacity_blocks = 0;
  uint32_t inode_count = 0;
  uint32_t reserved = 0;  // explicit padding: every byte written is defined
};
static_assert(std::has_unique_object_representations_v<Superblock>);

}  // namespace

Err Vfs::ReadBlock(uint64_t lba, std::span<uint8_t> out) { return dev_.Read(lba, 1, out); }

Err Vfs::WriteBlock(uint64_t lba, std::span<const uint8_t> in) { return dev_.Write(lba, 1, in); }

bool Vfs::GeometryFits() const {
  const uint32_t bs = dev_.block_size();
  return bs >= kInodeSize && bs >= sizeof(Superblock) && dev_.capacity_blocks() > DataStart();
}

Err Vfs::Format() {
  if (!GeometryFits()) {
    return Err::kInvalidArgument;
  }
  const uint32_t bs = dev_.block_size();
  std::vector<uint8_t> block(bs, 0);

  Superblock sb;
  sb.magic = kVfsMagic;
  sb.block_size = bs;
  sb.capacity_blocks = dev_.capacity_blocks();
  sb.inode_count = kInodeCount;
  std::memcpy(block.data(), &sb, sizeof(sb));
  UKVM_TRY(WriteBlock(0, block));

  // Zeroed inode table.
  std::fill(block.begin(), block.end(), uint8_t{0});
  for (uint32_t b = 0; b < InodeTableBlocks(); ++b) {
    UKVM_TRY(WriteBlock(1 + b, block));
  }
  // Bitmap: metadata blocks (superblock + inodes + bitmap itself) marked used.
  const uint32_t reserved = DataStart();
  for (uint32_t b = 0; b < BitmapBlocks(); ++b) {
    std::fill(block.begin(), block.end(), uint8_t{0});
    const uint64_t first_bit = uint64_t{b} * bs * 8;
    for (uint64_t bit = 0; bit < uint64_t{bs} * 8; ++bit) {
      if (first_bit + bit < reserved) {
        block[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
      }
    }
    UKVM_TRY(WriteBlock(BitmapStart() + b, block));
  }
  mounted_ = true;
  return Err::kNone;
}

Err Vfs::Mount() {
  if (!GeometryFits()) {
    return Err::kInvalidArgument;
  }
  std::vector<uint8_t> block(dev_.block_size());
  UKVM_TRY(ReadBlock(0, block));
  Superblock sb;
  std::memcpy(&sb, block.data(), sizeof(sb));
  if (sb.magic != kVfsMagic || sb.block_size != dev_.block_size()) {
    return Err::kInvalidArgument;
  }
  mounted_ = true;
  return Err::kNone;
}

std::string_view Vfs::NameOf(const Inode& inode) {
  // Bounded: a block overwritten from outside the filesystem need not
  // hold a terminating NUL.
  const char* end = std::find(std::begin(inode.name), std::end(inode.name), '\0');
  return {inode.name, static_cast<size_t>(end - inode.name)};
}

Vfs::Inode Vfs::InodeAt(std::span<const uint8_t> table_block, uint32_t idx) const {
  Inode inode;
  std::memcpy(&inode, table_block.data() + (idx % InodesPerBlock()) * kInodeSize, sizeof(Inode));
  return inode;
}

Result<Vfs::HeldInode> Vfs::LoadInode(uint32_t idx) {
  if (idx >= kInodeCount) {
    return Err::kOutOfRange;
  }
  HeldInode held{idx, {}, std::vector<uint8_t>(dev_.block_size())};
  UKVM_TRY(ReadBlock(1 + idx / InodesPerBlock(), held.table_block));
  held.inode = InodeAt(held.table_block, idx);
  if (held.inode.used && !SizeFits(held.inode)) {
    return Err::kCorrupted;
  }
  return held;
}

Result<Vfs::HeldInode> Vfs::FindInode(std::string_view name) {
  if (!mounted_) {
    return Err::kInvalidArgument;
  }
  std::vector<uint8_t> block(dev_.block_size());
  for (uint32_t b = 0; b < InodeTableBlocks(); ++b) {
    UKVM_TRY(ReadBlock(1 + b, block));
    for (uint32_t idx = b * InodesPerBlock(); idx < TableEnd(b); ++idx) {
      const Inode inode = InodeAt(block, idx);
      if (inode.used && name == NameOf(inode)) {
        if (!SizeFits(inode)) {
          return Err::kCorrupted;
        }
        return HeldInode{idx, inode, std::move(block)};
      }
    }
  }
  return Err::kNotFound;
}

Err Vfs::StoreInode(HeldInode& held) {
  std::memcpy(held.table_block.data() + (held.idx % InodesPerBlock()) * kInodeSize, &held.inode,
              sizeof(Inode));
  return WriteBlock(1 + held.idx / InodesPerBlock(), held.table_block);
}

Result<std::vector<uint32_t>> Vfs::AllocBlocks(uint64_t n) {
  const uint64_t bits_per_block = uint64_t{dev_.block_size()} * 8;
  std::vector<uint32_t> lbas;
  // Bitmap blocks with newly set bits, written only once all n are found.
  std::vector<std::pair<uint32_t, std::vector<uint8_t>>> dirty;
  std::vector<uint8_t> block(dev_.block_size());
  for (uint32_t b = 0; b < BitmapBlocks() && lbas.size() < n; ++b) {
    UKVM_TRY(ReadBlock(BitmapStart() + b, block));
    const size_t found_before = lbas.size();
    for (uint64_t bit = 0; bit < bits_per_block && lbas.size() < n; ++bit) {
      const uint64_t lba = b * bits_per_block + bit;
      if (lba >= dev_.capacity_blocks()) {
        break;
      }
      if ((block[bit / 8] & (1u << (bit % 8))) == 0) {
        block[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
        lbas.push_back(static_cast<uint32_t>(lba));
      }
    }
    if (lbas.size() > found_before) {
      dirty.emplace_back(b, block);
    }
  }
  if (lbas.size() < n) {
    return Err::kNoMemory;
  }
  for (const auto& [b, bytes] : dirty) {
    UKVM_TRY(WriteBlock(BitmapStart() + b, bytes));
  }
  return lbas;
}

Err Vfs::FreeBlocks(std::span<const uint32_t> lbas) {
  const uint64_t bits_per_block = uint64_t{dev_.block_size()} * 8;
  std::vector<uint32_t> sorted(lbas.begin(), lbas.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<uint8_t> block(dev_.block_size());
  for (size_t i = 0; i < sorted.size();) {
    const auto b = static_cast<uint32_t>(sorted[i] / bits_per_block);
    UKVM_TRY(ReadBlock(BitmapStart() + b, block));
    for (; i < sorted.size() && sorted[i] / bits_per_block == b; ++i) {
      const uint64_t bit = sorted[i] % bits_per_block;
      block[bit / 8] &= static_cast<uint8_t>(~(1u << (bit % 8)));
    }
    UKVM_TRY(WriteBlock(BitmapStart() + b, block));
  }
  return Err::kNone;
}

Result<uint32_t> Vfs::Create(std::string_view name) {
  if (!mounted_) {
    return Err::kInvalidArgument;
  }
  if (name.empty() || name.size() > kMaxName) {
    return Err::kInvalidArgument;
  }
  // One pass over the whole table: the name must be absent, and the first
  // free inode, held with its block, takes it.
  std::optional<HeldInode> slot;
  std::vector<uint8_t> block(dev_.block_size());
  for (uint32_t b = 0; b < InodeTableBlocks(); ++b) {
    UKVM_TRY(ReadBlock(1 + b, block));
    for (uint32_t idx = b * InodesPerBlock(); idx < TableEnd(b); ++idx) {
      const Inode inode = InodeAt(block, idx);
      if (inode.used && name == NameOf(inode)) {
        return Err::kAlreadyExists;
      }
      if (!inode.used && !slot) {
        slot = HeldInode{idx, {}, block};
      }
    }
  }
  if (!slot) {
    return Err::kNoMemory;  // inode table full
  }
  slot->inode.used = 1;
  std::memcpy(slot->inode.name, name.data(), name.size());
  UKVM_TRY(StoreInode(*slot));
  return slot->idx;
}

Result<uint32_t> Vfs::LookUp(std::string_view name) {
  auto held = FindInode(name);
  UKVM_TRY(held);
  return held->idx;
}

Err Vfs::Unlink(std::string_view name) {
  auto held = FindInode(name);
  UKVM_TRY(held);
  const uint64_t used_blocks = (held->inode.size + dev_.block_size() - 1) / dev_.block_size();
  UKVM_TRY(FreeBlocks(std::span<const uint32_t>(held->inode.blocks, used_blocks)));
  held->inode = Inode{};
  return StoreInode(*held);
}

Result<VfsStat> Vfs::Stat(uint32_t inode_idx) {
  auto held = LoadInode(inode_idx);
  UKVM_TRY(held);
  if (!held->inode.used) {
    return Err::kNotFound;
  }
  VfsStat stat;
  stat.name = NameOf(held->inode);
  stat.size = held->inode.size;
  stat.inode = inode_idx;
  return stat;
}

namespace {

// The number of file blocks from `first` up to `last` whose lbas follow
// blocks[first] one by one: one extent, moved in one device request.
uint32_t ExtentLength(const uint32_t* blocks, uint32_t first, uint32_t last) {
  uint32_t n = 1;
  while (first + n <= last && blocks[first + n] == blocks[first] + n) {
    ++n;
  }
  return n;
}

}  // namespace

Result<uint32_t> Vfs::ReadAt(uint32_t inode_idx, uint64_t offset, std::span<uint8_t> out) {
  auto held = LoadInode(inode_idx);
  UKVM_TRY(held);
  const Inode& inode = held->inode;
  if (!inode.used) {
    return Err::kNotFound;
  }
  if (offset >= inode.size) {
    return uint32_t{0};
  }
  const uint32_t bs = dev_.block_size();
  const auto want = static_cast<uint32_t>(std::min<uint64_t>(out.size(), inode.size - offset));
  if (want == 0) {
    return uint32_t{0};
  }
  const uint64_t end = offset + want;
  const auto last = static_cast<uint32_t>((end - 1) / bs);
  std::vector<uint8_t> extent;
  for (auto blk = static_cast<uint32_t>(offset / bs); blk <= last;) {
    const uint32_t n = ExtentLength(inode.blocks, blk, last);
    extent.resize(uint64_t{n} * bs);
    UKVM_TRY(dev_.Read(inode.blocks[blk], n, extent));
    const uint64_t extent_start = uint64_t{blk} * bs;
    const uint64_t from = std::max(offset, extent_start);
    const uint64_t to = std::min(end, extent_start + extent.size());
    std::memcpy(out.data() + (from - offset), extent.data() + (from - extent_start), to - from);
    blk += n;
  }
  return want;
}

Result<uint32_t> Vfs::WriteAt(uint32_t inode_idx, uint64_t offset, std::span<const uint8_t> in) {
  auto held = LoadInode(inode_idx);
  UKVM_TRY(held);
  Inode& inode = held->inode;
  if (!inode.used) {
    return Err::kNotFound;
  }
  if (offset + in.size() > MaxFileSize()) {
    return Err::kOutOfRange;
  }
  const uint32_t bs = dev_.block_size();
  // Allocate any blocks the write will touch beyond the current allocation.
  const uint64_t have_blocks = (inode.size + bs - 1) / bs;
  const uint64_t need_blocks = (offset + in.size() + bs - 1) / bs;
  std::vector<uint32_t> fresh;
  if (need_blocks > have_blocks) {
    auto got = AllocBlocks(need_blocks - have_blocks);
    UKVM_TRY(got);
    fresh = std::move(*got);
    std::copy(fresh.begin(), fresh.end(), inode.blocks + have_blocks);
  }
  // The data, then the inode that points at it. Until the inode lands
  // nothing on disk points at the fresh blocks, so a failure frees them.
  const Err err = [&]() -> Err {
    const uint64_t end = offset + in.size();
    std::vector<uint8_t> extent;
    for (auto blk = static_cast<uint32_t>(offset / bs); !in.empty() && blk < need_blocks;) {
      const uint32_t n = ExtentLength(inode.blocks, blk, static_cast<uint32_t>(need_blocks - 1));
      extent.resize(uint64_t{n} * bs);
      const uint64_t extent_start = uint64_t{blk} * bs;
      const uint64_t extent_end = extent_start + extent.size();
      // An edge block the write covers only in part keeps its other bytes:
      // read-modify-write, in one request when both edges are in it.
      const bool head = offset > extent_start;
      const bool tail = end < extent_end;
      if (head && tail && n <= 2) {
        UKVM_TRY(dev_.Read(inode.blocks[blk], n, extent));
      } else {
        if (head) {
          UKVM_TRY(dev_.Read(inode.blocks[blk], 1, std::span(extent).first(bs)));
        }
        if (tail) {
          UKVM_TRY(dev_.Read(inode.blocks[blk + n - 1], 1, std::span(extent).last(bs)));
        }
      }
      const uint64_t from = std::max(offset, extent_start);
      const uint64_t to = std::min(end, extent_end);
      std::memcpy(extent.data() + (from - extent_start), in.data() + (from - offset), to - from);
      UKVM_TRY(dev_.Write(inode.blocks[blk], n, extent));
      blk += n;
    }
    inode.size = std::max<uint64_t>(inode.size, end);
    return StoreInode(*held);
  }();
  if (err != Err::kNone) {
    if (!fresh.empty()) {
      (void)FreeBlocks(fresh);
    }
    return err;
  }
  return static_cast<uint32_t>(in.size());
}

std::vector<VfsStat> Vfs::List() {
  std::vector<VfsStat> out;
  std::vector<uint8_t> block(dev_.block_size());
  for (uint32_t b = 0; b < InodeTableBlocks(); ++b) {
    if (ReadBlock(1 + b, block) != Err::kNone) {
      continue;
    }
    for (uint32_t idx = b * InodesPerBlock(); idx < TableEnd(b); ++idx) {
      const Inode inode = InodeAt(block, idx);
      if (inode.used) {
        out.push_back(VfsStat{std::string(NameOf(inode)), inode.size, idx});
      }
    }
  }
  return out;
}

}  // namespace minios
