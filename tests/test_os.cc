// Tests for MiniOS: the VFS, the net stack, processes/fds, and the syscall
// surface, exercised on the native stack.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/hw/machine.h"
#include "src/os/block_client.h"
#include "src/os/netstack.h"
#include "src/os/vfs.h"
#include "src/stacks/native_stack.h"
#include "src/workloads/netio.h"
#include "src/workloads/oswork.h"

namespace minios {
namespace {

using ukvm::Err;
using ukvm::ProcessId;

std::span<const uint8_t> Bytes(const char* s) {
  return {reinterpret_cast<const uint8_t*>(s), strlen(s)};
}

// --- Packet format --------------------------------------------------------------

TEST(PacketFormat, BuildParseRoundTrip) {
  std::vector<uint8_t> payload = {1, 2, 3};
  auto packet = BuildPacket(80, 1024, payload);
  ParsedPacket parsed;
  ASSERT_TRUE(ParsePacket(packet, parsed));
  EXPECT_EQ(parsed.dst_port, 80);
  EXPECT_EQ(parsed.src_port, 1024);
  EXPECT_EQ(std::vector<uint8_t>(parsed.payload.begin(), parsed.payload.end()), payload);
}

TEST(PacketFormat, RejectsShortAndTruncated) {
  ParsedPacket parsed;
  std::vector<uint8_t> tiny = {1, 2, 3};
  EXPECT_FALSE(ParsePacket(tiny, parsed));
  auto packet = BuildPacket(80, 1024, std::vector<uint8_t>(10));
  packet.resize(packet.size() - 1);  // truncate payload
  EXPECT_FALSE(ParsePacket(packet, parsed));
}

TEST(PacketFormat, EmptyPayloadOk) {
  auto packet = BuildPacket(5, 6, {});
  ParsedPacket parsed;
  ASSERT_TRUE(ParsePacket(packet, parsed));
  EXPECT_TRUE(parsed.payload.empty());
}

// --- VFS and syscalls on the native stack ------------------------------------------

class OsTest : public ::testing::Test {
 protected:
  OsTest() {
    pid_ = *stack_.os().Spawn("tester");
  }

  ustack::NativeStack stack_;
  ProcessId pid_;
};

TEST_F(OsTest, NullGetPidGetTime) {
  EXPECT_EQ(stack_.os().Null(pid_), 0);
  EXPECT_EQ(stack_.os().GetPid(pid_), static_cast<SyscallRet>(pid_.value()));
  const SyscallRet t1 = stack_.os().GetTime(pid_);
  const SyscallRet t2 = stack_.os().GetTime(pid_);
  EXPECT_GT(t2, t1);  // syscalls consume simulated time
}

TEST_F(OsTest, ConsoleWrite) {
  EXPECT_EQ(stack_.os().Write(pid_, 1, Bytes("hello")), 5);
  const auto& log = stack_.port().console_log();
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.back(), "hello");
}

TEST_F(OsTest, FileCreateWriteReadUnlink) {
  auto& os = stack_.os();
  const SyscallRet fd = os.Create(pid_, "data.txt");
  ASSERT_GE(fd, 0);
  std::vector<uint8_t> content(1000);
  for (size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<uint8_t>(i % 251);
  }
  EXPECT_EQ(os.Write(pid_, fd, content), 1000);
  EXPECT_EQ(os.Seek(pid_, fd, 0), 0);
  std::vector<uint8_t> back(1000);
  EXPECT_EQ(os.Read(pid_, fd, back), 1000);
  EXPECT_EQ(back, content);
  EXPECT_EQ(os.Close(pid_, fd), 0);
  EXPECT_EQ(os.Unlink(pid_, "data.txt"), 0);
  EXPECT_LT(os.Open(pid_, "data.txt"), 0);
}

TEST_F(OsTest, OpenMissingFileFails) {
  EXPECT_EQ(ErrOf(stack_.os().Open(pid_, "ghost")), Err::kNotFound);
}

TEST_F(OsTest, CreateDuplicateFails) {
  ASSERT_GE(stack_.os().Create(pid_, "dup"), 0);
  EXPECT_EQ(ErrOf(stack_.os().Create(pid_, "dup")), Err::kAlreadyExists);
}

TEST_F(OsTest, ReadAtEofReturnsZero) {
  auto& os = stack_.os();
  const SyscallRet fd = os.Create(pid_, "empty");
  ASSERT_GE(fd, 0);
  std::vector<uint8_t> buf(10);
  EXPECT_EQ(os.Read(pid_, fd, buf), 0);
}

TEST_F(OsTest, PartialReadAtFileEnd) {
  auto& os = stack_.os();
  const SyscallRet fd = os.Create(pid_, "f");
  std::vector<uint8_t> data(100, 0xAA);
  ASSERT_EQ(os.Write(pid_, fd, data), 100);
  ASSERT_EQ(os.Seek(pid_, fd, 90), 90);
  std::vector<uint8_t> buf(50);
  EXPECT_EQ(os.Read(pid_, fd, buf), 10);
}

TEST_F(OsTest, SparseOffsetsAndOverwrite) {
  auto& os = stack_.os();
  const SyscallRet fd = os.Create(pid_, "sparse");
  std::vector<uint8_t> a(600, 0x11);
  ASSERT_EQ(os.Write(pid_, fd, a), 600);
  ASSERT_EQ(os.Seek(pid_, fd, 100), 100);
  std::vector<uint8_t> b(100, 0x22);
  ASSERT_EQ(os.Write(pid_, fd, b), 100);

  ASSERT_EQ(os.Seek(pid_, fd, 0), 0);
  std::vector<uint8_t> all(600);
  ASSERT_EQ(os.Read(pid_, fd, all), 600);
  EXPECT_EQ(all[99], 0x11);
  EXPECT_EQ(all[100], 0x22);
  EXPECT_EQ(all[199], 0x22);
  EXPECT_EQ(all[200], 0x11);
}

TEST_F(OsTest, BadFdRejected) {
  auto& os = stack_.os();
  std::vector<uint8_t> buf(4);
  EXPECT_EQ(ErrOf(os.Read(pid_, 99, buf)), Err::kBadHandle);
  EXPECT_EQ(ErrOf(os.Close(pid_, -1)), Err::kBadHandle);
}

TEST_F(OsTest, MaxFileSizeEnforced) {
  auto& os = stack_.os();
  const SyscallRet fd = os.Create(pid_, "big");
  ASSERT_GE(fd, 0);
  const uint64_t max = os.vfs().MaxFileSize();
  std::vector<uint8_t> chunk(static_cast<size_t>(max), 1);
  EXPECT_EQ(os.Write(pid_, fd, chunk), static_cast<SyscallRet>(max));
  std::vector<uint8_t> extra(1, 2);
  EXPECT_EQ(ErrOf(os.Write(pid_, fd, extra)), Err::kOutOfRange);
}

TEST_F(OsTest, ExitMakesProcessZombie) {
  auto& os = stack_.os();
  EXPECT_EQ(os.Exit(pid_, 3), 0);
  EXPECT_EQ(ErrOf(os.Null(pid_)), Err::kBadHandle);
  Process* proc = os.FindProcess(pid_);
  ASSERT_NE(proc, nullptr);
  EXPECT_EQ(proc->state, ProcState::kZombie);
  EXPECT_EQ(proc->exit_code, 3);
}

TEST_F(OsTest, UnknownProcessRejected) {
  EXPECT_EQ(ErrOf(stack_.os().Null(ProcessId(12345))), Err::kBadHandle);
}

TEST_F(OsTest, VfsSurvivesRemount) {
  auto& os = stack_.os();
  const SyscallRet fd = os.Create(pid_, "persist");
  std::vector<uint8_t> data = {42, 43, 44};
  ASSERT_EQ(os.Write(pid_, fd, data), 3);
  ASSERT_EQ(os.Close(pid_, fd), 0);

  // Re-mount a second VFS instance on the same device.
  Vfs vfs2(stack_.os().block());
  ASSERT_EQ(vfs2.Mount(), Err::kNone);
  auto inode = vfs2.LookUp("persist");
  ASSERT_TRUE(inode.ok());
  std::vector<uint8_t> back(3);
  ASSERT_TRUE(vfs2.ReadAt(*inode, 0, back).ok());
  EXPECT_EQ(back, data);
}

TEST_F(OsTest, VfsListAndStat) {
  auto& os = stack_.os();
  ASSERT_GE(os.Create(pid_, "a"), 0);
  const SyscallRet fd = os.Create(pid_, "b");
  std::vector<uint8_t> data(10, 1);
  ASSERT_EQ(os.Write(pid_, fd, data), 10);
  const auto list = os.vfs().List();
  EXPECT_EQ(list.size(), 2u);
  auto stat = os.vfs().Stat(static_cast<uint32_t>(0));
  ASSERT_TRUE(stat.ok());
}

TEST_F(OsTest, MountRejectsUnformattedDevice) {
  // A VFS on a fresh region of a device without a superblock must fail.
  ustack::NativeStack other;
  // Corrupt the superblock.
  std::vector<uint8_t> junk(512, 0xFF);
  ASSERT_EQ(other.disk().WriteBacking(0, junk), Err::kNone);
  Vfs vfs(other.os().block());
  EXPECT_EQ(vfs.Mount(), Err::kInvalidArgument);
}

// A RAM-backed block device that logs every call, so a test can pin the
// block traffic of each VFS operation (or see that it made none) and
// digest the resulting image.
class RamDevice : public BlockDevice {
 public:
  struct Call {
    bool write = false;
    uint64_t lba = 0;
    uint32_t count = 0;
    bool operator==(const Call&) const = default;
    friend std::ostream& operator<<(std::ostream& os, const Call& c) {
      return os << (c.write ? "write(" : "read(") << c.lba << ", " << c.count << ")";
    }
  };

  RamDevice(uint32_t block_size, uint64_t capacity_blocks)
      : block_size_(block_size),
        capacity_(capacity_blocks),
        image_(static_cast<size_t>(block_size * capacity_blocks), 0) {}

  uint32_t block_size() const override { return block_size_; }
  uint64_t capacity_blocks() const override { return capacity_; }
  Err Read(uint64_t lba, uint32_t count, std::span<uint8_t> out) override {
    calls.push_back({false, lba, count});
    if (lba + count > capacity_ || out.size() < uint64_t{count} * block_size_) {
      return Err::kOutOfRange;
    }
    std::memcpy(out.data(), image_.data() + lba * block_size_, uint64_t{count} * block_size_);
    return Err::kNone;
  }
  Err Write(uint64_t lba, uint32_t count, std::span<const uint8_t> in) override {
    calls.push_back({true, lba, count});
    if (lba + count > capacity_ || in.size() < uint64_t{count} * block_size_) {
      return Err::kOutOfRange;
    }
    if (lba + count > fail_writes_from) {
      return Err::kCorrupted;
    }
    std::memcpy(image_.data() + lba * block_size_, in.data(), uint64_t{count} * block_size_);
    return Err::kNone;
  }

  const std::vector<uint8_t>& image() const { return image_; }

  std::vector<Call> calls;
  // Writes that reach this block or any above it fail.
  uint64_t fail_writes_from = UINT64_MAX;

 private:
  uint32_t block_size_;
  uint64_t capacity_;
  std::vector<uint8_t> image_;
};

// FNV-1a.
uint64_t Fnv(std::span<const uint8_t> bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const uint8_t byte : bytes) {
    h = (h ^ byte) * 0x100000001b3ull;
  }
  return h;
}

std::vector<uint8_t> Pattern(size_t n, uint8_t seed) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(seed + i * 7 + i / 251);
  }
  return out;
}

TEST(VfsGeometry, ZeroBlockSizeIsInvalidArgument) {
  // A block-server slice past the end of the disk reports block_size() == 0;
  // the layout math would divide by zero and copy the superblock into an
  // empty buffer.
  RamDevice dev(/*block_size=*/0, /*capacity_blocks=*/0);
  Vfs vfs(dev);
  EXPECT_EQ(vfs.Format(), Err::kInvalidArgument);
  EXPECT_EQ(vfs.Mount(), Err::kInvalidArgument);
  EXPECT_FALSE(vfs.mounted());
  EXPECT_TRUE(dev.calls.empty());
}

TEST(VfsGeometry, TooSmallCapacityIsInvalidArgument) {
  // 512-byte blocks: superblock, 16 inode-table blocks and one bitmap block
  // come before the first data block, so 18 blocks hold no data at all.
  for (const uint64_t capacity : {uint64_t{2}, uint64_t{18}}) {
    RamDevice dev(512, capacity);
    Vfs vfs(dev);
    EXPECT_EQ(vfs.Format(), Err::kInvalidArgument) << capacity;
    EXPECT_EQ(vfs.Mount(), Err::kInvalidArgument) << capacity;
    EXPECT_TRUE(dev.calls.empty()) << capacity;
  }
  // One data block more and the layout fits.
  RamDevice dev(512, 19);
  Vfs vfs(dev);
  EXPECT_EQ(vfs.Format(), Err::kNone);
}

// --- VFS block traffic ---------------------------------------------------------------

// 512-byte blocks: superblock, 16 inode-table blocks (4 inodes each), then
// one bitmap block while the device holds at most 4096 blocks.
constexpr uint64_t kTableBlocks = 16;
constexpr uint64_t kBitmapLba = 1 + kTableBlocks;
constexpr uint64_t kDataLba = kBitmapLba + 1;

// Writes one-block files until the disk is full; returns how many took.
uint64_t FillWithBlockFiles(Vfs& vfs) {
  const auto block = Pattern(512, 7);
  for (uint64_t files = 0;; ++files) {
    const uint32_t idx = *vfs.Create("b" + std::to_string(files));
    if (auto n = vfs.WriteAt(idx, 0, block); !n.ok()) {
      EXPECT_EQ(n.error(), Err::kNoMemory);
      return files;
    }
  }
}

TEST(VfsTraffic, CreateReadsEachInodeTableBlockOnce) {
  RamDevice dev(512, 256);
  Vfs vfs(dev);
  ASSERT_EQ(vfs.Format(), Err::kNone);
  dev.calls.clear();
  auto idx = vfs.Create("first");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 0u);
  std::vector<RamDevice::Call> want;
  for (uint64_t b = 0; b < kTableBlocks; ++b) {
    want.push_back({false, 1 + b, 1});
  }
  want.push_back({true, 1, 1});
  EXPECT_EQ(dev.calls, want);

  // A duplicate ends the pass at the block holding it, writing nothing.
  dev.calls.clear();
  EXPECT_EQ(vfs.Create("first").error(), Err::kAlreadyExists);
  const std::vector<RamDevice::Call> want_dup = {{false, 1, 1}};
  EXPECT_EQ(dev.calls, want_dup);
}

TEST(VfsTraffic, WriteOfEightKibIsOneDataRequest) {
  RamDevice dev(512, 256);
  Vfs vfs(dev);
  ASSERT_EQ(vfs.Format(), Err::kNone);
  auto idx = vfs.Create("eight");
  ASSERT_TRUE(idx.ok());
  const auto data = Pattern(8192, 3);
  dev.calls.clear();
  auto n = vfs.WriteAt(*idx, 0, data);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 8192u);
  const std::vector<RamDevice::Call> want = {
      {false, 1, 1},          // inode
      {false, kBitmapLba, 1},  // bitmap read-modify-write
      {true, kBitmapLba, 1},
      {true, kDataLba, 16},  // the whole extent in one request
      {true, 1, 1},          // inode, from the copy read above
  };
  EXPECT_EQ(dev.calls, want);

  dev.calls.clear();
  std::vector<uint8_t> back(8192);
  n = vfs.ReadAt(*idx, 0, back);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(back, data);
  const std::vector<RamDevice::Call> want_read = {{false, 1, 1}, {false, kDataLba, 16}};
  EXPECT_EQ(dev.calls, want_read);
}

TEST(VfsTraffic, ReadIssuesOneRequestPerExtent) {
  RamDevice dev(512, 256);
  Vfs vfs(dev);
  ASSERT_EQ(vfs.Format(), Err::kNone);
  const uint32_t a = *vfs.Create("a");
  const uint32_t b = *vfs.Create("b");
  // Interleave allocations: a gets data blocks 0, 2, 3 and b gets block 1.
  const auto first = Pattern(512, 1);
  const auto rest = Pattern(1024, 2);
  ASSERT_TRUE(vfs.WriteAt(a, 0, first).ok());
  ASSERT_TRUE(vfs.WriteAt(b, 0, Pattern(512, 9)).ok());
  ASSERT_TRUE(vfs.WriteAt(a, 512, rest).ok());

  dev.calls.clear();
  std::vector<uint8_t> back(1536);
  auto n = vfs.ReadAt(a, 0, back);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1536u);
  EXPECT_TRUE(std::equal(first.begin(), first.end(), back.begin()));
  EXPECT_TRUE(std::equal(rest.begin(), rest.end(), back.begin() + 512));
  const std::vector<RamDevice::Call> want = {
      {false, 1, 1}, {false, kDataLba, 1}, {false, kDataLba + 2, 2}};
  EXPECT_EQ(dev.calls, want);

  // A read that starts and ends mid-block still takes one request per extent.
  dev.calls.clear();
  std::vector<uint8_t> middle(700);
  n = vfs.ReadAt(a, 300, middle);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 700u);
  EXPECT_TRUE(std::equal(middle.begin(), middle.begin() + 212, first.begin() + 300));
  EXPECT_TRUE(std::equal(middle.begin() + 212, middle.end(), rest.begin()));
  const std::vector<RamDevice::Call> want_mid = {
      {false, 1, 1}, {false, kDataLba, 1}, {false, kDataLba + 2, 1}};
  EXPECT_EQ(dev.calls, want_mid);
}

TEST(VfsTraffic, FullDiskWriteFailsWithoutLeakingBlocks) {
  // 40 data blocks: two 8 KiB files fit, a third 8 KiB write does not.
  RamDevice dev(512, kDataLba + 40);
  Vfs vfs(dev);
  ASSERT_EQ(vfs.Format(), Err::kNone);
  const auto data = Pattern(8192, 5);
  for (const char* name : {"f0", "f1"}) {
    const uint32_t idx = *vfs.Create(name);
    ASSERT_TRUE(vfs.WriteAt(idx, 0, data).ok()) << name;
  }
  const uint32_t third = *vfs.Create("f2");
  dev.calls.clear();
  EXPECT_EQ(vfs.WriteAt(third, 0, data).error(), Err::kNoMemory);
  for (const auto& call : dev.calls) {
    EXPECT_FALSE(call.write) << "lba " << call.lba;
  }
  for (const char* name : {"f0", "f1", "f2"}) {
    ASSERT_EQ(vfs.Unlink(name), Err::kNone) << name;
  }
  EXPECT_EQ(FillWithBlockFiles(vfs), 40u);  // every data block is free again
}

TEST(VfsTraffic, FailedDataWriteFreesItsBlocks) {
  // The bitmap write lands before the data write fails; the blocks it took
  // must come back (they leaked: 24 of 40 were reusable).
  RamDevice dev(512, kDataLba + 40);
  Vfs vfs(dev);
  ASSERT_EQ(vfs.Format(), Err::kNone);
  const uint32_t idx = *vfs.Create("f");
  dev.fail_writes_from = kDataLba;
  EXPECT_EQ(vfs.WriteAt(idx, 0, Pattern(8192, 5)).error(), Err::kCorrupted);
  dev.fail_writes_from = UINT64_MAX;
  ASSERT_EQ(vfs.Unlink("f"), Err::kNone);
  EXPECT_EQ(FillWithBlockFiles(vfs), 40u);
}

TEST(VfsNames, NameWithoutNulStaysInsideItsInode) {
  // A block written from outside the filesystem can leave a name with no
  // terminating NUL; reading it must stop at the name field.
  RamDevice dev(512, 256);
  Vfs vfs(dev);
  ASSERT_EQ(vfs.Format(), Err::kNone);
  std::vector<uint8_t> junk(512, 'B');
  ASSERT_EQ(dev.Write(1, 1, junk), Err::kNone);
  EXPECT_EQ(vfs.LookUp("B").error(), Err::kNotFound);
  const auto list = vfs.List();
  ASSERT_EQ(list.size(), 4u);  // every slot of the block now reads as used
  for (const VfsStat& stat : list) {
    EXPECT_EQ(stat.name, std::string(kMaxName + 1, 'B'));
  }
}

TEST(VfsNames, OversizedInodeIsCorrupted) {
  // A size read from disk indexes the direct blocks; one too large for them
  // is refused rather than walked past the inode.
  RamDevice dev(512, 256);
  Vfs vfs(dev);
  ASSERT_EQ(vfs.Format(), Err::kNone);
  const uint32_t idx = *vfs.Create("big");
  std::vector<uint8_t> block(512);
  ASSERT_EQ(dev.Read(1, 1, block), Err::kNone);
  std::fill(block.begin() + 40, block.begin() + 48, uint8_t{0xFF});  // inode 0's size
  ASSERT_EQ(dev.Write(1, 1, block), Err::kNone);
  std::vector<uint8_t> buf(16);
  EXPECT_EQ(vfs.ReadAt(idx, 0, buf).error(), Err::kCorrupted);
  EXPECT_EQ(vfs.WriteAt(idx, 0, buf).error(), Err::kCorrupted);
  EXPECT_EQ(vfs.Unlink("big"), Err::kCorrupted);
}

TEST(VfsTraffic, ScriptLeavesTheRecordedImage) {
  // The layout and bytes MiniFS writes are fixed: this script's image was
  // recorded before block requests were coalesced and must never drift.
  RamDevice dev(512, 256);
  Vfs vfs(dev);
  ASSERT_EQ(vfs.Format(), Err::kNone);
  const uint32_t alpha = *vfs.Create("alpha");
  ASSERT_TRUE(vfs.WriteAt(alpha, 0, Pattern(3000, 11)).ok());
  const uint32_t beta = *vfs.Create("beta");
  ASSERT_TRUE(vfs.WriteAt(beta, 0, Pattern(8192, 23)).ok());
  const uint32_t gamma = *vfs.Create("gamma");
  ASSERT_TRUE(vfs.WriteAt(gamma, 0, Pattern(700, 37)).ok());
  // Overwrite across block edges and extend; overwrite inside one block.
  ASSERT_TRUE(vfs.WriteAt(alpha, 1000, Pattern(2500, 41)).ok());
  ASSERT_TRUE(vfs.WriteAt(beta, 100, Pattern(50, 53)).ok());
  ASSERT_EQ(vfs.Unlink("gamma"), Err::kNone);
  // Reuses gamma's inode and blocks; the partial first block keeps the
  // stale bytes its read-modify-write found there.
  const uint32_t delta = *vfs.Create("delta");
  ASSERT_TRUE(vfs.WriteAt(delta, 300, Pattern(5000, 67)).ok());
  ASSERT_EQ(vfs.Unlink("alpha"), Err::kNone);
  const uint32_t epsilon = *vfs.Create("epsilon");
  ASSERT_TRUE(vfs.WriteAt(epsilon, 0, Pattern(1024, 79)).ok());
  ASSERT_TRUE(vfs.WriteAt(beta, 8000, Pattern(192, 83)).ok());
  // Superblock bytes 20..23 are its tail padding. They used to be copied
  // from an uninitialised stack object, so the digest was recorded with
  // them read as zero; MiniFS now writes them as zero.
  const std::vector<uint8_t>& image = dev.image();
  EXPECT_TRUE(std::all_of(image.begin() + 20, image.begin() + 24, [](uint8_t b) { return b == 0; }));
  EXPECT_EQ(Fnv(image), 0x32560768c3a12bd3ull);
}

// --- The block client over a scripted port ---------------------------------------

// A port over a RamDevice that carries at most 3 blocks per request and
// ends the submits a test scripts. Like a backend with a recovery log, it
// applies each journaled id at most once.
class FakePort : public BlockPort {
 public:
  explicit FakePort(RamDevice& dev) : dev_(dev) {}

  uint32_t block_size() const override { return dev_.block_size(); }
  uint64_t capacity_blocks() const override { return dev_.capacity_blocks(); }
  uint32_t max_blocks() const override { return 3; }
  ukvm::DomainId domain() const override { return ukvm::DomainId{7}; }
  Err Ready() override { return Err::kNone; }

  BlockCompletion Submit(const BlockRequest& req) override {
    seen.push_back(req);
    const auto it = outcomes.find(seen.size());
    const BlockCompletion done = it == outcomes.end() ? BlockCompletion{} : it->second;
    if (done.status == Err::kNone && (!req.journaled || applied_.insert(req.id).second)) {
      (void)(req.write ? dev_.Write(req.lba, req.count, req.in)
                       : dev_.Read(req.lba, req.count, req.out));
    }
    if (done.answered && req.on_answer) {
      req.on_answer(done);
    }
    return done;
  }

  std::vector<BlockRequest> seen;
  std::map<size_t, BlockCompletion> outcomes;  // by 1-based submit number

 private:
  RamDevice& dev_;
  std::set<uint64_t> applied_;
};

class BlockClientTest : public ::testing::Test {
 protected:
  BlockClientTest() : machine_(hwsim::MakeX86Platform(), 4ull * 1024 * 1024), dev_(64, 32) {
    ukvm::ReqTraceConfig config;
    config.enabled = true;
    machine_.EnableRequestTracing(config);
  }

  // Origin names of the completed requests the tracer retained.
  std::vector<std::string> CompletedOrigins() {
    std::vector<std::string> names;
    for (const ukvm::CompletedRequest& req : machine_.reqtrace().slowest()) {
      names.push_back(machine_.names().Name(req.nodes[0].name));
    }
    return names;
  }

  hwsim::Machine machine_;
  RamDevice dev_;
  FakePort port_{dev_};
  BlockClient client_{machine_, port_};
  const BlockCompletion lost_{Err::kDead, /*answered=*/false};
};

TEST_F(BlockClientTest, EightBlockWriteIsThreeSubmitsAndThreeOrigins) {
  const auto data = Pattern(8 * 64, 1);
  ASSERT_EQ(client_.Write(4, 8, data), Err::kNone);
  const std::vector<RamDevice::Call> want = {{true, 4, 3}, {true, 7, 3}, {true, 10, 2}};
  EXPECT_EQ(dev_.calls, want);
  EXPECT_EQ(machine_.reqtrace().requests_started(), 3u);
  EXPECT_EQ(CompletedOrigins(), std::vector<std::string>(3, "blk.write"));

  std::vector<uint8_t> back(data.size());
  ASSERT_EQ(client_.Read(4, 8, back), Err::kNone);
  EXPECT_EQ(back, data);
  EXPECT_EQ(port_.seen.size(), 6u);
  const std::vector<std::string> origins = CompletedOrigins();
  EXPECT_EQ(std::count(origins.begin(), origins.end(), "blk.read"), 3);
}

TEST_F(BlockClientTest, FailedSecondChunkAbandonsOnlyItsRequest) {
  port_.outcomes[2] = BlockCompletion{Err::kCorrupted, /*answered=*/true};
  EXPECT_EQ(client_.Write(0, 8, Pattern(8 * 64, 2)), Err::kCorrupted);
  EXPECT_EQ(port_.seen.size(), 2u);  // the third chunk is never sent
  EXPECT_EQ(machine_.reqtrace().requests_completed(), 1u);
  EXPECT_EQ(machine_.reqtrace().requests_abandoned(), 1u);
  EXPECT_EQ(client_.journal_depth(), 0u);
}

TEST_F(BlockClientTest, UnansweredWritesReplayOnceInIdOrder) {
  client_.SetCrashRecovery(true);
  port_.outcomes[2] = lost_;  // write A's second chunk
  port_.outcomes[3] = lost_;  // write B
  const auto a = Pattern(8 * 64, 10);
  const auto b = Pattern(64, 20);
  EXPECT_EQ(client_.Write(0, 8, a), Err::kDead);
  EXPECT_EQ(client_.Write(16, 1, b), Err::kDead);
  EXPECT_EQ(client_.journal_depth(), 2u);
  EXPECT_EQ(client_.writes_acked_ok(), 1u);
  // An unanswered journaled request stays live for its replay.
  EXPECT_EQ(machine_.reqtrace().requests_abandoned(), 0u);

  EXPECT_EQ(client_.ReplayJournal(RecoveryPhases{}), 2u);
  ASSERT_EQ(port_.seen.size(), 5u);
  EXPECT_EQ(port_.seen[3].id, port_.seen[1].id);  // original ids, in id order
  EXPECT_EQ(port_.seen[4].id, port_.seen[2].id);
  EXPECT_LT(port_.seen[3].id, port_.seen[4].id);
  EXPECT_TRUE(port_.seen[3].journaled && port_.seen[4].journaled);
  EXPECT_EQ(client_.journal_depth(), 0u);
  EXPECT_EQ(client_.writes_acked_ok(), 3u);
  EXPECT_EQ(machine_.reqtrace().requests_completed(), 3u);
  // Exactly once: a second replay sends nothing.
  EXPECT_EQ(client_.ReplayJournal(RecoveryPhases{}), 0u);
  EXPECT_EQ(port_.seen.size(), 5u);
  const std::vector<RamDevice::Call> want = {{true, 0, 3}, {true, 3, 3}, {true, 16, 1}};
  EXPECT_EQ(dev_.calls, want);

  // A replay the backend leaves unanswered keeps the rest of the journal.
  for (const size_t submit : {6, 7, 8}) {
    port_.outcomes[submit] = lost_;
  }
  EXPECT_EQ(client_.Write(20, 1, b), Err::kDead);
  EXPECT_EQ(client_.Write(21, 1, b), Err::kDead);
  EXPECT_EQ(client_.ReplayJournal(RecoveryPhases{}), 0u);
  EXPECT_EQ(client_.journal_depth(), 2u);
}

// --- Cooperative multi-process scheduling --------------------------------------

TEST_F(OsTest, ProgramsInterleaveRoundRobin) {
  auto& os = stack_.os();
  auto a = os.Spawn("a");
  auto b = os.Spawn("b");
  std::vector<char> order;
  int a_left = 3, b_left = 3;
  ASSERT_EQ(os.AttachProgram(*a, [&] {
    order.push_back('a');
    (void)os.Null(*a);
    return --a_left <= 0;
  }), Err::kNone);
  ASSERT_EQ(os.AttachProgram(*b, [&] {
    order.push_back('b');
    (void)os.Null(*b);
    return --b_left <= 0;
  }), Err::kNone);
  const uint64_t quanta = os.RunPrograms();
  EXPECT_EQ(quanta, 6u);
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'a', 'b', 'a', 'b'}));
  EXPECT_EQ(os.FindProcess(*a)->state, ProcState::kZombie);
  EXPECT_EQ(os.FindProcess(*b)->state, ProcState::kZombie);
}

TEST_F(OsTest, HigherPriorityProgramRunsFirst) {
  auto& os = stack_.os();
  auto low = os.Spawn("low", 10);
  auto high = os.Spawn("high", 200);
  std::vector<char> order;
  int l = 2, h = 2;
  ASSERT_EQ(os.AttachProgram(*low, [&] {
    order.push_back('l');
    return --l <= 0;
  }), Err::kNone);
  ASSERT_EQ(os.AttachProgram(*high, [&] {
    order.push_back('h');
    return --h <= 0;
  }), Err::kNone);
  (void)os.RunPrograms();
  EXPECT_EQ(order, (std::vector<char>{'h', 'h', 'l', 'l'}));
}

TEST_F(OsTest, ProgramExitingViaSyscallStopsScheduling) {
  auto& os = stack_.os();
  auto a = os.Spawn("a");
  int steps = 0;
  ASSERT_EQ(os.AttachProgram(*a, [&] {
    ++steps;
    if (steps == 2) {
      (void)os.Exit(*a, 7);  // process exits mid-program
    }
    return false;  // claims not done — the zombie state must win
  }), Err::kNone);
  const uint64_t quanta = os.RunPrograms();
  EXPECT_EQ(quanta, 2u);
  EXPECT_EQ(os.FindProcess(*a)->exit_code, 7);
}

TEST_F(OsTest, AttachValidation) {
  auto& os = stack_.os();
  EXPECT_EQ(os.AttachProgram(ukvm::ProcessId(999), [] { return true; }), Err::kBadHandle);
  auto a = os.Spawn("a");
  EXPECT_EQ(os.AttachProgram(*a, nullptr), Err::kInvalidArgument);
  (void)os.Exit(*a, 0);
  EXPECT_EQ(os.AttachProgram(*a, [] { return true; }), Err::kBadHandle);
}

TEST_F(OsTest, RunawayProgramHitsQuantaGuard) {
  auto& os = stack_.os();
  auto a = os.Spawn("a");
  ASSERT_EQ(os.AttachProgram(*a, [&] {
    (void)os.Null(*a);
    return false;  // never finishes
  }), Err::kNone);
  EXPECT_EQ(os.RunPrograms(/*max_quanta=*/100), 100u);
}

// --- Networking through the native stack -------------------------------------------

TEST_F(OsTest, UdpSendReachesWire) {
  uwork::WireHost wire(stack_.machine(), stack_.nic());
  wire.SetCapture(true);
  auto& os = stack_.os();
  std::vector<uint8_t> payload = {1, 2, 3, 4};
  EXPECT_EQ(os.NetSend(pid_, 80, 7, payload), 4);
  stack_.machine().RunUntilIdle();
  ASSERT_EQ(wire.packets_received(), 1u);
  ParsedPacket parsed;
  ASSERT_TRUE(ParsePacket(wire.captured()[0], parsed));
  EXPECT_EQ(parsed.dst_port, 80);
  EXPECT_EQ(std::vector<uint8_t>(parsed.payload.begin(), parsed.payload.end()), payload);
}

TEST_F(OsTest, UdpReceiveFromWire) {
  uwork::WireHost wire(stack_.machine(), stack_.nic());
  auto& os = stack_.os();
  ASSERT_EQ(os.NetBind(pid_, 40), 0);
  wire.StartStream(/*dst_port=*/40, /*payload_size=*/100, /*interval=*/1000, /*count=*/5);
  stack_.machine().RunUntilIdle();
  std::vector<uint8_t> buf(2048);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(os.NetRecv(pid_, 40, buf), 100) << "packet " << i;
  }
  EXPECT_EQ(ErrOf(os.NetRecv(pid_, 40, buf)), Err::kWouldBlock);
}

TEST_F(OsTest, UdpRecvUnboundPortFails) {
  std::vector<uint8_t> buf(16);
  EXPECT_EQ(ErrOf(stack_.os().NetRecv(pid_, 999, buf)), Err::kNotFound);
}

TEST_F(OsTest, UdpEchoRoundTrip) {
  uwork::WireHost wire(stack_.machine(), stack_.nic());
  wire.SetEcho(true);
  auto& os = stack_.os();
  ASSERT_EQ(os.NetBind(pid_, 7), 0);
  std::vector<uint8_t> payload = {9, 9, 9};
  ASSERT_EQ(os.NetSend(pid_, 80, 7, payload), 3);
  stack_.machine().RunUntilIdle();
  std::vector<uint8_t> buf(16);
  EXPECT_EQ(os.NetRecv(pid_, 7, buf), 3);
  EXPECT_EQ(buf[0], 9);
}

TEST_F(OsTest, OversizeDatagramRejected) {
  std::vector<uint8_t> big(3000);
  EXPECT_EQ(ErrOf(stack_.os().NetSend(pid_, 80, 7, big)), Err::kInvalidArgument);
}

TEST_F(OsTest, WorkloadHelpersAllSucceed) {
  uwork::WireHost wire(stack_.machine(), stack_.nic());
  auto r1 = uwork::RunNullSyscalls(stack_.machine(), stack_.os(), pid_, 50);
  EXPECT_EQ(r1.ops_succeeded, 50u);
  auto r2 = uwork::RunFileChurn(stack_.machine(), stack_.os(), pid_, 3, 1024, "wl");
  EXPECT_DOUBLE_EQ(r2.SuccessRate(), 1.0);
  auto r3 = uwork::RunUdpSend(stack_.machine(), stack_.os(), pid_, 80, 256, 10);
  EXPECT_EQ(r3.ops_succeeded, 10u);
  stack_.machine().RunUntilIdle();
  EXPECT_EQ(wire.packets_received(), 10u);
}

}  // namespace
}  // namespace minios
