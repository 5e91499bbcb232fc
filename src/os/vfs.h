// MiniFS: a small flat-namespace filesystem over a virtual block device.
//
// Cache-less across operations, minimum traffic within one: no block
// survives from one file operation to the next, so every operation turns
// into block-device traffic, which is the point — file workloads must
// exercise the storage path of whichever stack MiniOS runs on (IPC to the
// block server, or blkfront/blkback rings through Dom0/Parallax). Within
// one operation MiniFS never reads a block twice and never splits a run
// of consecutive blocks: a lookup reads each inode-table block once, an
// allocation or free does one read-modify-write per bitmap block, data
// moves in one request per contiguous extent, and an inode is written back
// from the table block read at the start of the operation.
//
// On-disk layout (block_size B blocks):
//   block 0                : superblock
//   blocks 1..inode_blocks : inode table (128-byte inodes)
//   then bitmap blocks     : one bit per data block
//   then data blocks.

#ifndef UKVM_SRC_OS_VFS_H_
#define UKVM_SRC_OS_VFS_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/core/error.h"
#include "src/os/arch_if.h"

namespace minios {

inline constexpr uint32_t kVfsMagic = 0x4D696E46;  // "MinF"
inline constexpr uint32_t kInodeSize = 128;
inline constexpr uint32_t kInodeCount = 64;
inline constexpr uint32_t kMaxName = 31;
inline constexpr uint32_t kDirectBlocks = 16;

struct VfsStat {
  std::string name;
  uint64_t size = 0;
  uint32_t inode = 0;
};

class Vfs {
 public:
  explicit Vfs(BlockDevice& dev) : dev_(dev) {}

  // Writes a fresh filesystem onto the device. Both return
  // kInvalidArgument, touching no block, if the device cannot hold the
  // layout (see GeometryFits).
  ukvm::Err Format();
  // Reads and validates the superblock.
  ukvm::Err Mount();
  bool mounted() const { return mounted_; }

  ukvm::Result<uint32_t> Create(std::string_view name);
  ukvm::Result<uint32_t> LookUp(std::string_view name);
  ukvm::Err Unlink(std::string_view name);
  ukvm::Result<VfsStat> Stat(uint32_t inode);

  // Reads up to out.size() bytes at `offset`; returns bytes read (0 at EOF).
  ukvm::Result<uint32_t> ReadAt(uint32_t inode, uint64_t offset, std::span<uint8_t> out);
  // Writes, extending the file as needed (up to kDirectBlocks blocks).
  ukvm::Result<uint32_t> WriteAt(uint32_t inode, uint64_t offset, std::span<const uint8_t> in);

  std::vector<VfsStat> List();

  uint64_t MaxFileSize() const { return uint64_t{kDirectBlocks} * dev_.block_size(); }

 private:
  // The on-disk inode, copied byte for byte. The padding is explicit, so
  // every byte written is a defined one.
  struct Inode {
    uint8_t used = 0;
    char name[kMaxName + 1] = {};
    uint8_t pad[7] = {};
    uint64_t size = 0;
    uint32_t blocks[kDirectBlocks] = {};
  };
  static_assert(sizeof(Inode) <= kInodeSize);
  static_assert(std::has_unique_object_representations_v<Inode>);

  // An inode with the inode-table block it was read from, so an operation
  // writes the inode back without reading the block again.
  struct HeldInode {
    uint32_t idx = 0;
    Inode inode;
    std::vector<uint8_t> table_block;
  };

  uint32_t InodesPerBlock() const { return dev_.block_size() / kInodeSize; }
  uint32_t InodeTableBlocks() const {
    return (kInodeCount + InodesPerBlock() - 1) / InodesPerBlock();
  }
  uint32_t BitmapStart() const { return 1 + InodeTableBlocks(); }
  uint32_t BitmapBlocks() const {
    const auto bits_per_block = dev_.block_size() * 8;
    return static_cast<uint32_t>((dev_.capacity_blocks() + bits_per_block - 1) / bits_per_block);
  }
  uint32_t DataStart() const { return BitmapStart() + BitmapBlocks(); }
  // Blocks hold an inode and the superblock, and the device holds the
  // metadata plus at least one data block. The layout math above divides
  // by InodesPerBlock(), so nothing may run before this check passes.
  bool GeometryFits() const;

  ukvm::Err ReadBlock(uint64_t lba, std::span<uint8_t> out);
  ukvm::Err WriteBlock(uint64_t lba, std::span<const uint8_t> in);

  // Table block `b` holds inodes [b * InodesPerBlock(), TableEnd(b)).
  uint32_t TableEnd(uint32_t b) const {
    return std::min((b + 1) * InodesPerBlock(), kInodeCount);
  }
  Inode InodeAt(std::span<const uint8_t> table_block, uint32_t idx) const;
  static std::string_view NameOf(const Inode& inode);
  bool SizeFits(const Inode& inode) const { return inode.size <= MaxFileSize(); }

  // Both return kCorrupted for a used inode whose size (read from disk, and
  // used to index `blocks`) does not fit its direct blocks.
  ukvm::Result<HeldInode> LoadInode(uint32_t idx);
  // The used inode named `name`; reads table blocks up to the one holding it.
  ukvm::Result<HeldInode> FindInode(std::string_view name);
  ukvm::Err StoreInode(HeldInode& held);

  // Marks the `n` lowest free blocks used and returns them in ascending
  // order, with one read-modify-write per bitmap block they lie in. All or
  // nothing: kNoMemory, and no bitmap block written, if fewer are free.
  ukvm::Result<std::vector<uint32_t>> AllocBlocks(uint64_t n);
  // Clears the bits of `lbas`, one read-modify-write per bitmap block.
  ukvm::Err FreeBlocks(std::span<const uint32_t> lbas);

  BlockDevice& dev_;
  bool mounted_ = false;
};

}  // namespace minios

#endif  // UKVM_SRC_OS_VFS_H_
