// Unit and property tests for physical memory, page tables, and the TLB.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <unordered_map>

#include "src/hw/memory.h"
#include "src/hw/paging.h"
#include "src/hw/tlb.h"

namespace hwsim {
namespace {

using ukvm::DomainId;
using ukvm::Err;

TEST(PhysicalMemory, GeometryAndAllocation) {
  PhysicalMemory mem(1 << 20, 12);  // 1 MiB, 4 KiB pages
  EXPECT_EQ(mem.num_frames(), 256u);
  EXPECT_EQ(mem.free_frames(), 256u);
  auto frame = mem.AllocFrame(DomainId(1));
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(mem.free_frames(), 255u);
  EXPECT_EQ(mem.OwnerOf(*frame), DomainId(1));
}

TEST(PhysicalMemory, AllocationIsZeroed) {
  PhysicalMemory mem(1 << 16, 12);
  auto frame = mem.AllocFrame(DomainId(1));
  ASSERT_TRUE(frame.ok());
  auto data = mem.FrameData(*frame);
  data[0] = 0xAA;
  ASSERT_EQ(mem.FreeFrame(*frame), Err::kNone);
  auto again = mem.AllocFrame(DomainId(2));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *frame);  // LIFO free list hands the same frame back
  EXPECT_EQ(mem.FrameData(*again)[0], 0);
}

TEST(PhysicalMemory, ExhaustionAndDoubleFree) {
  PhysicalMemory mem(4 * 4096, 12);
  std::vector<Frame> frames;
  for (int i = 0; i < 4; ++i) {
    auto f = mem.AllocFrame(DomainId(1));
    ASSERT_TRUE(f.ok());
    frames.push_back(*f);
  }
  EXPECT_EQ(mem.AllocFrame(DomainId(1)).error(), Err::kNoMemory);
  EXPECT_EQ(mem.FreeFrame(frames[0]), Err::kNone);
  EXPECT_EQ(mem.FreeFrame(frames[0]), Err::kInvalidArgument);
  EXPECT_EQ(mem.FreeFrame(999), Err::kOutOfRange);
}

TEST(PhysicalMemory, TransferChangesOwner) {
  PhysicalMemory mem(1 << 16, 12);
  auto frame = mem.AllocFrame(DomainId(1));
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(mem.TransferFrame(*frame, DomainId(2)), Err::kNone);
  EXPECT_EQ(mem.OwnerOf(*frame), DomainId(2));
  EXPECT_EQ(mem.TransferFrame(12345, DomainId(2)), Err::kOutOfRange);
}

TEST(PhysicalMemory, ReadWriteBounds) {
  PhysicalMemory mem(8192, 12);
  std::vector<uint8_t> buf = {1, 2, 3, 4};
  EXPECT_EQ(mem.Write(0, buf), Err::kNone);
  std::vector<uint8_t> out(4);
  EXPECT_EQ(mem.Read(0, out), Err::kNone);
  EXPECT_EQ(out, buf);
  EXPECT_EQ(mem.Write(8190, buf), Err::kOutOfRange);
  EXPECT_EQ(mem.Read(8190, out), Err::kOutOfRange);
  // addr + size would wrap around to a small value; it must still fail.
  EXPECT_EQ(mem.Write(UINT64_MAX - 1, buf), Err::kOutOfRange);
  EXPECT_EQ(mem.Read(UINT64_MAX - 1, out), Err::kOutOfRange);
}

TEST(PhysicalMemory, UntouchedFramesReadAsZerosAndCostNothing) {
  PhysicalMemory mem(64 << 20, 12);
  EXPECT_EQ(mem.resident_frames(), 0u);
  std::vector<uint8_t> out(3 * 4096, 0xFF);
  EXPECT_EQ(mem.Read(5 * 4096 + 7, out), Err::kNone);
  EXPECT_EQ(out, std::vector<uint8_t>(out.size(), 0));
  EXPECT_EQ(mem.resident_frames(), 0u);  // reads materialise nothing
}

TEST(PhysicalMemory, WriteFreeAllocYieldsZeroedFrame) {
  PhysicalMemory mem(1 << 16, 12);
  auto frame = mem.AllocFrame(DomainId(1));
  ASSERT_TRUE(frame.ok());
  const std::vector<uint8_t> ones(4096, 1);
  ASSERT_EQ(mem.Write(mem.FrameBase(*frame), ones), Err::kNone);
  EXPECT_EQ(mem.resident_frames(), 1u);
  ASSERT_EQ(mem.FreeFrame(*frame), Err::kNone);
  auto again = mem.AllocFrame(DomainId(2));
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(*again, *frame);
  EXPECT_EQ(mem.resident_frames(), 0u);  // zero-on-allocate drops the chunk
  std::vector<uint8_t> out(4096, 0xFF);
  ASSERT_EQ(mem.Read(mem.FrameBase(*again), out), Err::kNone);
  EXPECT_EQ(out, std::vector<uint8_t>(4096, 0));
  // Writing after the drop materialises a fresh, zeroed chunk.
  mem.FrameData(*again)[0] = 7;
  EXPECT_EQ(mem.resident_frames(), 1u);
  ASSERT_EQ(mem.Read(mem.FrameBase(*again), out), Err::kNone);
  std::vector<uint8_t> expect(4096, 0);
  expect[0] = 7;
  EXPECT_EQ(out, expect);
}

TEST(PhysicalMemory, ReadWriteSpanFrameBoundaryWithOneSideUntouched) {
  PhysicalMemory mem(1 << 16, 12);
  // Frame 1 written, frame 2 untouched: a read across the boundary.
  const std::vector<uint8_t> ones(4096, 1);
  ASSERT_EQ(mem.Write(4096, ones), Err::kNone);
  std::vector<uint8_t> out(8);
  ASSERT_EQ(mem.Read(2 * 4096 - 4, out), Err::kNone);
  EXPECT_EQ(out, (std::vector<uint8_t>{1, 1, 1, 1, 0, 0, 0, 0}));
  EXPECT_EQ(mem.resident_frames(), 1u);
  // A write across the 2|3 boundary materialises both and lands intact.
  const std::vector<uint8_t> in = {9, 8, 7, 6, 5, 4};
  ASSERT_EQ(mem.Write(3 * 4096 - 3, in), Err::kNone);
  EXPECT_EQ(mem.resident_frames(), 3u);
  std::vector<uint8_t> back(6);
  ASSERT_EQ(mem.Read(3 * 4096 - 3, back), Err::kNone);
  EXPECT_EQ(back, in);
  EXPECT_EQ(mem.FrameData(2)[4095], 7);
  EXPECT_EQ(mem.FrameData(3)[0], 6);
}

TEST(PhysicalMemory, ConstFrameDataDoesNotMaterialise) {
  PhysicalMemory mem(1 << 16, 12);
  const PhysicalMemory& view = mem;
  auto zeros = view.FrameData(4);
  ASSERT_EQ(zeros.size(), 4096u);
  EXPECT_TRUE(std::all_of(zeros.begin(), zeros.end(), [](uint8_t b) { return b == 0; }));
  EXPECT_EQ(mem.resident_frames(), 0u);
  mem.FrameData(4)[0] = 0x5A;  // the mutable view materialises
  EXPECT_EQ(mem.resident_frames(), 1u);
  EXPECT_EQ(view.FrameData(4)[0], 0x5A);
}

TEST(PageTable, MapLookupUnmap) {
  PageTable pt(12, 32);
  EXPECT_EQ(pt.Map(0x1000, 42, PtePerms{true, true}), Err::kNone);
  auto pte = pt.Lookup(0x1234);  // same page, different offset
  ASSERT_TRUE(pte.ok());
  EXPECT_EQ(pte->frame, 42u);
  EXPECT_TRUE(pte->writable);
  EXPECT_EQ(pt.mapped_pages(), 1u);
  EXPECT_EQ(pt.Unmap(0x1000), Err::kNone);
  EXPECT_EQ(pt.Lookup(0x1000).error(), Err::kNotFound);
  EXPECT_EQ(pt.mapped_pages(), 0u);
}

TEST(PageTable, RemapOverwrites) {
  PageTable pt(12, 32);
  ASSERT_EQ(pt.Map(0x2000, 1, PtePerms{false, true}), Err::kNone);
  ASSERT_EQ(pt.Map(0x2000, 2, PtePerms{true, true}), Err::kNone);
  EXPECT_EQ(pt.mapped_pages(), 1u);
  EXPECT_EQ(pt.Lookup(0x2000)->frame, 2u);
}

TEST(PageTable, OutOfRangeVa) {
  PageTable pt(12, 32);
  EXPECT_EQ(pt.Map(uint64_t{1} << 33, 1, PtePerms{}), Err::kOutOfRange);
  EXPECT_EQ(pt.Lookup(uint64_t{1} << 33).error(), Err::kOutOfRange);
}

TEST(PageTable, UnmapMissing) {
  PageTable pt(12, 32);
  EXPECT_EQ(pt.Unmap(0x5000), Err::kNotFound);
}

TEST(PageTable, ForEachMappingVisitsAll) {
  PageTable pt(12, 32);
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_EQ(pt.Map(i * 0x10'0000, i + 100, PtePerms{}), Err::kNone);
  }
  size_t seen = 0;
  pt.ForEachMapping([&](Vaddr vpn, const Pte& pte) {
    EXPECT_EQ(pte.frame, (vpn << 12) / 0x10'0000 + 100);
    ++seen;
  });
  EXPECT_EQ(seen, 10u);
}

TEST(PageTable, SixtyFourBitAddresses) {
  PageTable pt(14, 64);  // Itanium-like: 16 KiB pages
  const Vaddr high = uint64_t{1} << 50;
  EXPECT_EQ(pt.Map(high, 7, PtePerms{true, true}), Err::kNone);
  ASSERT_TRUE(pt.Lookup(high + 123).ok());
  EXPECT_EQ(pt.Lookup(high)->frame, 7u);
}

// Property: a random sequence of map/unmap operations agrees with a model
// map, across page sizes.
class PageTableProperty : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PageTableProperty, AgreesWithModel) {
  const uint32_t page_shift = GetParam();
  PageTable pt(page_shift, 40);
  std::unordered_map<uint64_t, Frame> model;  // vpn -> frame
  std::mt19937_64 rng(1234 + page_shift);
  const uint64_t page = uint64_t{1} << page_shift;

  for (int step = 0; step < 2000; ++step) {
    const uint64_t vpn = rng() % 512;
    const Vaddr va = vpn * page + (rng() % page);
    if (rng() % 3 != 0) {
      const Frame frame = rng() % 100000;
      ASSERT_EQ(pt.Map(va, frame, PtePerms{true, true}), Err::kNone);
      model[vpn] = frame;
    } else {
      const Err err = pt.Unmap(va);
      EXPECT_EQ(err == Err::kNone, model.erase(vpn) > 0);
    }
    ASSERT_EQ(pt.mapped_pages(), model.size());
  }
  for (const auto& [vpn, frame] : model) {
    auto pte = pt.Lookup(vpn * page);
    ASSERT_TRUE(pte.ok());
    EXPECT_EQ(pte->frame, frame);
  }
}

INSTANTIATE_TEST_SUITE_P(PageSizes, PageTableProperty, ::testing::Values(12u, 13u, 14u));

TEST(Tlb, HitAfterInsert) {
  Tlb tlb(4);
  EXPECT_FALSE(tlb.Lookup(5).has_value());
  tlb.Insert(5, 99, true, true);
  auto hit = tlb.Lookup(5);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->frame, 99u);
  EXPECT_EQ(tlb.hits(), 1u);
  EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, FifoEviction) {
  Tlb tlb(2);
  tlb.Insert(1, 10, false, true);
  tlb.Insert(2, 20, false, true);
  tlb.Insert(3, 30, false, true);  // evicts vpn 1
  EXPECT_FALSE(tlb.Lookup(1).has_value());
  EXPECT_TRUE(tlb.Lookup(2).has_value());
  EXPECT_TRUE(tlb.Lookup(3).has_value());
}

TEST(Tlb, ReinsertUpdatesInPlace) {
  Tlb tlb(2);
  tlb.Insert(1, 10, false, true);
  tlb.Insert(1, 11, true, true);
  EXPECT_EQ(tlb.valid_entries(), 1u);
  EXPECT_EQ(tlb.Lookup(1)->frame, 11u);
}

TEST(Tlb, FlushAllAndPage) {
  Tlb tlb(8);
  tlb.Insert(1, 10, false, true);
  tlb.Insert(2, 20, false, true);
  tlb.FlushPage(1);
  EXPECT_FALSE(tlb.Lookup(1).has_value());
  EXPECT_TRUE(tlb.Lookup(2).has_value());
  tlb.FlushAll();
  EXPECT_EQ(tlb.valid_entries(), 0u);
  EXPECT_EQ(tlb.flushes(), 1u);
}

// Property: the TLB never reports a translation that was not inserted since
// the last flush of that page.
TEST(Tlb, PropertyNoStaleEntries) {
  Tlb tlb(16);
  std::unordered_map<Vaddr, Frame> model;
  std::mt19937_64 rng(77);
  for (int step = 0; step < 5000; ++step) {
    const Vaddr vpn = rng() % 64;
    switch (rng() % 4) {
      case 0:
      case 1:
        tlb.Insert(vpn, vpn * 2 + 1, true, true);
        model[vpn] = vpn * 2 + 1;
        break;
      case 2:
        tlb.FlushPage(vpn);
        model.erase(vpn);
        break;
      default: {
        auto hit = tlb.Lookup(vpn);
        if (hit.has_value()) {
          // Anything the TLB returns must match the model (a miss is always
          // acceptable: capacity eviction).
          ASSERT_TRUE(model.contains(vpn));
          EXPECT_EQ(hit->frame, model[vpn]);
        }
        break;
      }
    }
  }
}

}  // namespace
}  // namespace hwsim
