#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/vm/address_space.h"
#include "src/vm/heap.h"

namespace res {
namespace {

TEST(AddressSpaceTest, UnmappedReadsFault) {
  AddressSpace as;
  EXPECT_FALSE(as.ReadWord(kGlobalBase).ok());
  EXPECT_FALSE(as.IsMappedWord(kGlobalBase));
}

TEST(AddressSpaceTest, MapThenReadWrite) {
  AddressSpace as;
  ASSERT_TRUE(as.MapRegion(kGlobalBase, 4).ok());
  EXPECT_TRUE(as.IsMappedWord(kGlobalBase));
  EXPECT_TRUE(as.IsMappedWord(kGlobalBase + 24));
  EXPECT_FALSE(as.IsMappedWord(kGlobalBase + 32));
  EXPECT_EQ(as.ReadWord(kGlobalBase).value(), 0);
  ASSERT_TRUE(as.WriteWord(kGlobalBase + 8, -5).ok());
  EXPECT_EQ(as.ReadWord(kGlobalBase + 8).value(), -5);
}

TEST(AddressSpaceTest, UnalignedAccessFaults) {
  AddressSpace as;
  ASSERT_TRUE(as.MapRegion(kGlobalBase, 1).ok());
  EXPECT_FALSE(as.ReadWord(kGlobalBase + 1).ok());
  EXPECT_FALSE(as.WriteWord(kGlobalBase + 4, 1).ok());
  EXPECT_FALSE(as.MapRegion(kGlobalBase + 3, 1).ok());
}

TEST(AddressSpaceTest, CrossPageRegions) {
  AddressSpace as;
  uint64_t base = kGlobalBase + AddressSpace::kPageBytes - 2 * kWordSize;
  ASSERT_TRUE(as.MapRegion(base, 4).ok());  // straddles a page boundary
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(as.WriteWord(base + i * kWordSize, i).ok());
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(as.ReadWord(base + i * kWordSize).value(), i);
  }
  EXPECT_EQ(as.MappedWordCount(), 4u);
}

TEST(AddressSpaceTest, UnmapRegion) {
  AddressSpace as;
  ASSERT_TRUE(as.MapRegion(kHeapBase, 4).ok());
  as.UnmapRegion(kHeapBase, 2);
  EXPECT_FALSE(as.IsMappedWord(kHeapBase));
  EXPECT_TRUE(as.IsMappedWord(kHeapBase + 16));
}

TEST(AddressSpaceTest, CloneIsDeepAndEqual) {
  AddressSpace as;
  ASSERT_TRUE(as.MapRegion(kGlobalBase, 2).ok());
  ASSERT_TRUE(as.WriteWord(kGlobalBase, 11).ok());
  AddressSpace copy = as.Clone();
  EXPECT_TRUE(as == copy);
  ASSERT_TRUE(copy.WriteWord(kGlobalBase, 12).ok());
  EXPECT_FALSE(as == copy);
  EXPECT_EQ(as.ReadWord(kGlobalBase).value(), 11);
}

TEST(AddressSpaceTest, ForEachWordVisitsInOrder) {
  AddressSpace as;
  ASSERT_TRUE(as.MapRegion(kHeapBase, 2).ok());
  ASSERT_TRUE(as.MapRegion(kGlobalBase, 1).ok());
  std::vector<uint64_t> addrs;
  as.ForEachWord([&addrs](uint64_t a, int64_t) { addrs.push_back(a); });
  ASSERT_EQ(addrs.size(), 3u);
  EXPECT_EQ(addrs[0], kGlobalBase);  // ascending order
  EXPECT_EQ(addrs[1], kHeapBase);
}

TEST(AddressSpaceTest, SegmentEdgesAreMemory) {
  constexpr uint64_t kPage = AddressSpace::kPageBytes;
  AddressSpace as;
  ASSERT_TRUE(as.MapRegion(kGlobalLimit - kWordSize, 1).ok());
  ASSERT_TRUE(as.MapRegion(kHeapBase, AddressSpace::kPageWords).ok());
  ASSERT_TRUE(as.MapRegion(kHeapLimit - kPage, AddressSpace::kPageWords).ok());
  for (uint64_t addr : {kGlobalLimit - kWordSize, kHeapBase, kHeapBase + kPage - kWordSize,
                        kHeapLimit - kPage, kHeapLimit - kWordSize}) {
    ASSERT_TRUE(as.WriteWord(addr, static_cast<int64_t>(addr)).ok());
    EXPECT_EQ(as.ReadWord(addr).value(), static_cast<int64_t>(addr));
  }
  EXPECT_FALSE(as.IsMappedWord(kGlobalLimit));
  EXPECT_FALSE(as.IsMappedWord(kHeapBase - kWordSize));
  EXPECT_FALSE(as.IsMappedWord(kHeapBase + kPage));
  EXPECT_FALSE(as.IsMappedWord(kHeapLimit));
  EXPECT_FALSE(as.ReadWord(kHeapLimit).ok());
  EXPECT_EQ(as.MappedWordCount(), 1 + 2 * AddressSpace::kPageWords);
}

TEST(AddressSpaceTest, MapRegionStaysInsideOneSegment) {
  struct Region {
    uint64_t base;
    uint64_t words;
  };
  const Region outside[] = {
      {0, 1},
      {0x8, 1},
      {kGlobalBase - kWordSize, 2},   // runs into the globals
      {kGlobalLimit - kWordSize, 2},  // runs past the globals' end
      {kGlobalLimit, 1},
      {kHeapBase - kWordSize, 2},
      {kHeapLimit - kWordSize, 2},    // runs past the heap's end
      {kHeapLimit, 1},
      {kGlobalBase, (kHeapBase - kGlobalBase) / kWordSize + 1},  // spans the gap
      {kHeapBase, UINT64_MAX / kWordSize},
      {UINT64_MAX - 7, 2},            // wraps around
  };
  AddressSpace as;
  for (const Region& r : outside) {
    EXPECT_EQ(as.MapRegion(r.base, r.words).code(), StatusCode::kInvalidArgument)
        << std::hex << r.base << " + " << std::dec << r.words << " words";
  }
  EXPECT_EQ(as.MappedWordCount(), 0u);
  EXPECT_FALSE(as.IsMappedWord(kGlobalLimit - kWordSize));
  EXPECT_FALSE(as.IsMappedWord(kHeapLimit - kWordSize));
  EXPECT_TRUE(as == AddressSpace());
  // Nor does an unchecked write map a word outside both segments.
  for (uint64_t addr : {uint64_t{0x8}, kGlobalLimit, kHeapLimit}) {
    as.WriteWordUnchecked(addr, 1);
  }
  EXPECT_EQ(as.MappedWordCount(), 0u);
}

TEST(AddressSpaceTest, ForEachWordWalksBothTablesInOrder) {
  constexpr uint64_t kPage = AddressSpace::kPageBytes;
  // Across pages of both tables and across 64-word mask boundaries,
  // written out of order.
  const std::vector<uint64_t> addrs = {
      kHeapBase + 3 * kPage + 8, kGlobalBase + kPage, kHeapBase + 64 * kWordSize,
      kGlobalLimit - kWordSize,  kHeapBase,           kGlobalBase,
      kHeapBase + 63 * kWordSize};
  AddressSpace as;
  for (uint64_t addr : addrs) {
    as.WriteWordUnchecked(addr, static_cast<int64_t>(addr ^ 5));
  }
  std::vector<uint64_t> sorted = addrs;
  std::sort(sorted.begin(), sorted.end());
  std::vector<uint64_t> seen;
  as.ForEachWord([&seen](uint64_t a, int64_t value) {
    EXPECT_EQ(value, static_cast<int64_t>(a ^ 5));
    seen.push_back(a);
  });
  EXPECT_EQ(seen, sorted);
  EXPECT_EQ(as.MappedWordCount(), addrs.size());
}

TEST(AddressSpaceTest, CopyAssignmentIsDeepAndSelfSafe) {
  AddressSpace as;
  ASSERT_TRUE(as.MapRegion(kGlobalBase, 2).ok());
  ASSERT_TRUE(as.WriteWord(kGlobalBase, 11).ok());
  ASSERT_TRUE(as.MapRegion(kHeapBase, 1).ok());
  AddressSpace other;
  const uint64_t stale = kHeapBase + 5 * AddressSpace::kPageBytes;
  ASSERT_TRUE(other.MapRegion(stale, 4).ok());
  other = as;
  EXPECT_TRUE(other == as);
  EXPECT_FALSE(other.IsMappedWord(stale));
  EXPECT_EQ(other.MappedWordCount(), 3u);
  ASSERT_TRUE(other.WriteWord(kGlobalBase, 12).ok());
  EXPECT_EQ(as.ReadWord(kGlobalBase).value(), 11);
  EXPECT_FALSE(other == as);
  const AddressSpace& alias = other;
  other = alias;
  EXPECT_EQ(other.ReadWord(kGlobalBase).value(), 12);
  EXPECT_EQ(other.MappedWordCount(), 3u);
}

TEST(AddressSpaceTest, EqualityIgnoresPagesLeftEmpty) {
  AddressSpace as;
  ASSERT_TRUE(as.MapRegion(kGlobalBase, 1).ok());
  ASSERT_TRUE(as.WriteWord(kGlobalBase, 5).ok());
  AddressSpace other = as;
  for (uint64_t base : {kGlobalBase + 3 * AddressSpace::kPageBytes,
                        kHeapBase + 2 * AddressSpace::kPageBytes}) {
    ASSERT_TRUE(other.MapRegion(base, 3).ok());  // a page `as` never built
    ASSERT_TRUE(other.WriteWord(base + kWordSize, 7).ok());
    EXPECT_FALSE(as == other);
    EXPECT_FALSE(other == as);
    other.UnmapRegion(base, 3);
    EXPECT_TRUE(as == other);
    EXPECT_TRUE(other == as);
  }
  EXPECT_EQ(other.MappedWordCount(), 1u);
  // A mapped zero is not an unmapped word.
  ASSERT_TRUE(other.MapRegion(kHeapBase, 1).ok());
  EXPECT_FALSE(as == other);
}

TEST(HeapTest, BumpAllocation) {
  Heap heap;
  uint64_t a = heap.Allocate(24).value();
  uint64_t b = heap.Allocate(1).value();
  EXPECT_EQ(a, kHeapBase);
  EXPECT_EQ(b, a + 24);  // 24 bytes = 3 words
  EXPECT_EQ(heap.allocations().at(b).size_words, 1u);
}

TEST(HeapTest, ZeroByteAllocationGetsDistinctAddress) {
  Heap heap;
  uint64_t a = heap.Allocate(0).value();
  uint64_t b = heap.Allocate(0).value();
  EXPECT_NE(a, b);
}

TEST(HeapTest, FreeAndAccessVerdicts) {
  Heap heap;
  uint64_t a = heap.Allocate(16).value();
  EXPECT_EQ(heap.CheckAccess(a + 8), Heap::AccessVerdict::kOk);
  ASSERT_TRUE(heap.Free(a).ok());
  EXPECT_EQ(heap.CheckAccess(a + 8), Heap::AccessVerdict::kFreed);
  EXPECT_EQ(heap.CheckAccess(a + 64), Heap::AccessVerdict::kUnallocated);
}

TEST(HeapTest, DoubleFreeRejected) {
  Heap heap;
  uint64_t a = heap.Allocate(8).value();
  ASSERT_TRUE(heap.Free(a).ok());
  Status second = heap.Free(a);
  EXPECT_EQ(second.code(), StatusCode::kFailedPrecondition);
}

TEST(HeapTest, InvalidFreeRejected) {
  Heap heap;
  heap.Allocate(16).value();
  EXPECT_EQ(heap.Free(kHeapBase + 8).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(heap.Free(0x1234).code(), StatusCode::kInvalidArgument);
}

TEST(HeapTest, FindCoveringBoundaries) {
  Heap heap;
  uint64_t a = heap.Allocate(16).value();  // 2 words
  EXPECT_EQ(heap.FindCovering(a)->base, a);
  EXPECT_EQ(heap.FindCovering(a + 8)->base, a);
  EXPECT_EQ(heap.FindCovering(a + 16), nullptr);
  EXPECT_EQ(heap.FindCovering(a - 8), nullptr);
}

TEST(HeapTest, SequenceNumbersMonotone) {
  Heap heap;
  uint64_t a = heap.Allocate(8).value();
  uint64_t b = heap.Allocate(8).value();
  EXPECT_LT(heap.allocations().at(a).alloc_seq, heap.allocations().at(b).alloc_seq);
}

TEST(HeapTest, RestoreAllocationRebuildsCursors) {
  Heap heap;
  Allocation a;
  a.base = kHeapBase + 64;
  a.size_words = 2;
  a.alloc_seq = 9;
  heap.RestoreAllocation(a);
  EXPECT_GE(heap.next_free(), a.base + 16);
  EXPECT_GT(heap.next_seq(), 9u);
}

}  // namespace
}  // namespace res
