#include "src/os/vfs.h"

#include <algorithm>
#include <cstring>

namespace minios {

using ukvm::Err;
using ukvm::Result;

namespace {

struct Superblock {
  uint32_t magic = 0;
  uint32_t block_size = 0;
  uint64_t capacity_blocks = 0;
  uint32_t inode_count = 0;
};

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

Result<Vfs::Inode> Vfs::LoadInode(uint32_t idx) {
  if (idx >= kInodeCount) {
    return Err::kOutOfRange;
  }
  std::vector<uint8_t> block(dev_.block_size());
  const uint32_t per = InodesPerBlock();
  UKVM_TRY(ReadBlock(1 + idx / per, block));
  Inode inode;
  std::memcpy(&inode, block.data() + (idx % per) * kInodeSize, sizeof(Inode));
  return inode;
}

Err Vfs::StoreInode(uint32_t idx, const Inode& inode) {
  if (idx >= kInodeCount) {
    return Err::kOutOfRange;
  }
  std::vector<uint8_t> block(dev_.block_size());
  const uint32_t per = InodesPerBlock();
  UKVM_TRY(ReadBlock(1 + idx / per, block));
  std::memcpy(block.data() + (idx % per) * kInodeSize, &inode, sizeof(Inode));
  return WriteBlock(1 + idx / per, block);
}

Result<uint32_t> Vfs::AllocBlock() {
  std::vector<uint8_t> block(dev_.block_size());
  for (uint32_t b = 0; b < BitmapBlocks(); ++b) {
    UKVM_TRY(ReadBlock(BitmapStart() + b, block));
    for (uint64_t bit = 0; bit < uint64_t{dev_.block_size()} * 8; ++bit) {
      const uint64_t lba = uint64_t{b} * dev_.block_size() * 8 + bit;
      if (lba >= dev_.capacity_blocks()) {
        break;
      }
      if ((block[bit / 8] & (1u << (bit % 8))) == 0) {
        block[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
        UKVM_TRY(WriteBlock(BitmapStart() + b, block));
        return static_cast<uint32_t>(lba);
      }
    }
  }
  return Err::kNoMemory;
}

Err Vfs::FreeBlock(uint32_t lba) {
  const uint64_t bits_per_block = uint64_t{dev_.block_size()} * 8;
  const uint32_t b = static_cast<uint32_t>(lba / bits_per_block);
  const uint64_t bit = lba % bits_per_block;
  std::vector<uint8_t> block(dev_.block_size());
  UKVM_TRY(ReadBlock(BitmapStart() + b, block));
  block[bit / 8] &= static_cast<uint8_t>(~(1u << (bit % 8)));
  return WriteBlock(BitmapStart() + b, block);
}

Result<uint32_t> Vfs::Create(std::string_view name) {
  if (!mounted_) {
    return Err::kInvalidArgument;
  }
  if (name.empty() || name.size() > kMaxName) {
    return Err::kInvalidArgument;
  }
  if (LookUp(name).ok()) {
    return Err::kAlreadyExists;
  }
  for (uint32_t idx = 0; idx < kInodeCount; ++idx) {
    auto inode = LoadInode(idx);
    UKVM_TRY(inode);
    if (!inode->used) {
      Inode fresh;
      fresh.used = 1;
      std::memcpy(fresh.name, name.data(), name.size());
      UKVM_TRY(StoreInode(idx, fresh));
      return idx;
    }
  }
  return Err::kNoMemory;  // inode table full
}

Result<uint32_t> Vfs::LookUp(std::string_view name) {
  if (!mounted_) {
    return Err::kInvalidArgument;
  }
  for (uint32_t idx = 0; idx < kInodeCount; ++idx) {
    auto inode = LoadInode(idx);
    UKVM_TRY(inode);
    if (inode->used && name == inode->name) {
      return idx;
    }
  }
  return Err::kNotFound;
}

Err Vfs::Unlink(std::string_view name) {
  auto idx = LookUp(name);
  UKVM_TRY(idx);
  auto inode = LoadInode(*idx);
  UKVM_TRY(inode);
  const uint64_t used_blocks = (inode->size + dev_.block_size() - 1) / dev_.block_size();
  for (uint64_t b = 0; b < used_blocks; ++b) {
    UKVM_TRY(FreeBlock(inode->blocks[b]));
  }
  return StoreInode(*idx, Inode{});
}

Result<VfsStat> Vfs::Stat(uint32_t inode_idx) {
  auto inode = LoadInode(inode_idx);
  UKVM_TRY(inode);
  if (!inode->used) {
    return Err::kNotFound;
  }
  VfsStat stat;
  stat.name = inode->name;
  stat.size = inode->size;
  stat.inode = inode_idx;
  return stat;
}

Result<uint32_t> Vfs::ReadAt(uint32_t inode_idx, uint64_t offset, std::span<uint8_t> out) {
  auto inode = LoadInode(inode_idx);
  UKVM_TRY(inode);
  if (!inode->used) {
    return Err::kNotFound;
  }
  if (offset >= inode->size) {
    return uint32_t{0};
  }
  const uint32_t bs = dev_.block_size();
  const auto want = static_cast<uint32_t>(std::min<uint64_t>(out.size(), inode->size - offset));
  std::vector<uint8_t> block(bs);
  uint32_t done = 0;
  while (done < want) {
    const uint64_t pos = offset + done;
    const auto blk = static_cast<uint32_t>(pos / bs);
    const auto off = static_cast<uint32_t>(pos % bs);
    const uint32_t chunk = std::min(want - done, bs - off);
    UKVM_TRY(ReadBlock(inode->blocks[blk], block));
    std::memcpy(out.data() + done, block.data() + off, chunk);
    done += chunk;
  }
  return want;
}

Result<uint32_t> Vfs::WriteAt(uint32_t inode_idx, uint64_t offset, std::span<const uint8_t> in) {
  auto inode = LoadInode(inode_idx);
  UKVM_TRY(inode);
  if (!inode->used) {
    return Err::kNotFound;
  }
  if (offset + in.size() > MaxFileSize()) {
    return Err::kOutOfRange;
  }
  const uint32_t bs = dev_.block_size();
  // Allocate any blocks the write will touch beyond the current allocation.
  const uint64_t have_blocks = (inode->size + bs - 1) / bs;
  const uint64_t need_blocks = (offset + in.size() + bs - 1) / bs;
  for (uint64_t b = have_blocks; b < need_blocks; ++b) {
    auto lba = AllocBlock();
    UKVM_TRY(lba);
    inode->blocks[b] = *lba;
  }
  std::vector<uint8_t> block(bs);
  uint32_t done = 0;
  while (done < in.size()) {
    const uint64_t pos = offset + done;
    const auto blk = static_cast<uint32_t>(pos / bs);
    const auto off = static_cast<uint32_t>(pos % bs);
    const uint32_t chunk = std::min(static_cast<uint32_t>(in.size() - done), bs - off);
    if (off != 0 || chunk != bs) {
      UKVM_TRY(ReadBlock(inode->blocks[blk], block));  // read-modify-write
    }
    std::memcpy(block.data() + off, in.data() + done, chunk);
    UKVM_TRY(WriteBlock(inode->blocks[blk], block));
    done += chunk;
  }
  inode->size = std::max<uint64_t>(inode->size, offset + in.size());
  UKVM_TRY(StoreInode(inode_idx, *inode));
  return static_cast<uint32_t>(in.size());
}

std::vector<VfsStat> Vfs::List() {
  std::vector<VfsStat> out;
  for (uint32_t idx = 0; idx < kInodeCount; ++idx) {
    auto inode = LoadInode(idx);
    if (inode.ok() && inode->used) {
      out.push_back(VfsStat{inode->name, inode->size, idx});
    }
  }
  return out;
}

}  // namespace minios
