#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <utility>
#include <vector>

#include "mem/address_space.hpp"
#include "mem/allocator.hpp"
#include "run/thread_pool.hpp"
#include "util/check.hpp"

namespace sigvp {
namespace {

TEST(AddressSpace, TypedReadWriteRoundTrip) {
  AddressSpace mem(1024, "m");
  mem.write<double>(16, 3.5);
  mem.write<std::int32_t>(24, -7);
  mem.write<std::uint8_t>(28, 200);
  EXPECT_DOUBLE_EQ(mem.read<double>(16), 3.5);
  EXPECT_EQ(mem.read<std::int32_t>(24), -7);
  EXPECT_EQ(mem.read<std::uint8_t>(28), 200);
}

TEST(AddressSpace, BoundsChecked) {
  AddressSpace mem(64, "m");
  EXPECT_THROW(mem.read<double>(60), ContractError);
  EXPECT_THROW(mem.write<double>(64, 1.0), ContractError);
  EXPECT_NO_THROW(mem.write<double>(56, 1.0));
  // Overflowing address wraps must be caught too.
  EXPECT_THROW(mem.read<std::uint8_t>(~0ull), ContractError);
}

TEST(AddressSpace, BulkCopies) {
  AddressSpace mem(256, "m");
  const std::uint8_t src[4] = {1, 2, 3, 4};
  mem.copy_in(10, src, 4);
  std::uint8_t dst[4] = {};
  mem.copy_out(dst, 10, 4);
  EXPECT_EQ(dst[3], 4);
  mem.copy_within(100, 10, 4);
  EXPECT_EQ(mem.read<std::uint8_t>(103), 4);
  mem.fill(10, 9, 4);
  EXPECT_EQ(mem.read<std::uint8_t>(12), 9);
  EXPECT_THROW(mem.copy_in(254, src, 4), ContractError);
}

TEST(AddressSpace, OverlappingCopyWithinIsSafe) {
  AddressSpace mem(64, "m");
  for (std::uint8_t i = 0; i < 8; ++i) mem.write<std::uint8_t>(i, i);
  mem.copy_within(2, 0, 6);  // overlapping forward move
  EXPECT_EQ(mem.read<std::uint8_t>(2), 0);
  EXPECT_EQ(mem.read<std::uint8_t>(7), 5);
}

constexpr std::uint64_t kPage = AddressSpace::kPageBytes;

// Every byte, every page flag and a spread of equals/is_zero answers of
// `mem` against the dense model; a page that is not marked must hold only
// zeros.
void expect_matches_model(const AddressSpace& mem, const std::vector<std::uint8_t>& model,
                          std::mt19937_64& rng) {
  ASSERT_EQ(mem.size(), model.size());
  std::vector<std::uint8_t> bytes(model.size());
  mem.copy_out(bytes.data(), 0, bytes.size());
  ASSERT_TRUE(bytes == model);
  for (std::uint64_t p = 0; p < mem.page_count(); ++p) {
    if (mem.page_marked(p)) continue;
    const std::uint64_t end = std::min((p + 1) * kPage, mem.size());
    for (std::uint64_t a = p * kPage; a < end; ++a) ASSERT_EQ(model[a], 0) << "page " << p;
  }
  EXPECT_TRUE(mem.equals(0, model.data(), model.size()));
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t addr = rng() % model.size();
    const std::uint64_t len = 1 + rng() % (model.size() - addr);
    EXPECT_TRUE(mem.equals(addr, model.data() + addr, len));
    std::vector<std::uint8_t> other(model.begin() + addr, model.begin() + addr + len);
    other[rng() % len] ^= 0x5A;
    EXPECT_FALSE(mem.equals(addr, other.data(), len));
    const bool zero = std::all_of(model.begin() + addr, model.begin() + addr + len,
                                  [](std::uint8_t v) { return v == 0; });
    EXPECT_EQ(mem.is_zero(addr, len), zero);
  }
  // The digest depends on the bytes only: a space written densely from the
  // model (every page marked) digests the same.
  AddressSpace dense(model.size(), "dense");
  dense.copy_in(0, model.data(), model.size());
  EXPECT_EQ(mem.content_digest(3), dense.content_digest(3));
}

TEST(LazyAddressSpace, MatchesDenseModelOverRandomOperations) {
  // 40 pages and a partial last page: zeroing runs span many whole pages,
  // and the tail page is shorter than kPage.
  const std::uint64_t size = 40 * kPage + 1000;
  AddressSpace mem(size, "lazy");
  std::vector<std::uint8_t> model(size, 0);
  std::mt19937_64 rng(20150607);
  const auto range = [&](std::uint64_t max_len) {
    const std::uint64_t len = 1 + rng() % max_len;
    return std::pair{rng() % (size - len + 1), len};
  };
  // Starts of page-aligned or page-straddling accesses.
  const auto near_boundary = [&](std::uint64_t width) {
    const std::uint64_t page = 1 + rng() % (size / kPage - 1);
    return page * kPage - 1 - rng() % width;
  };

  for (int step = 0; step < 3000; ++step) {
    switch (rng() % 10) {
      case 0: {  // unaligned 8-byte write straddling a page boundary
        const std::uint64_t addr = near_boundary(7);
        const std::uint64_t v = rng();
        mem.write<std::uint64_t>(addr, v);
        std::memcpy(model.data() + addr, &v, 8);
        break;
      }
      case 1: {
        const std::uint64_t addr = rng() % (size - 3);
        const auto v = static_cast<std::uint32_t>(rng());
        mem.write<std::uint32_t>(addr, v);
        std::memcpy(model.data() + addr, &v, 4);
        break;
      }
      case 2: {
        const auto [addr, len] = range(2 * kPage);
        std::vector<std::uint8_t> src(len);
        for (std::uint8_t& b : src) b = static_cast<std::uint8_t>(rng());
        mem.copy_in(addr, src.data(), len);
        std::memcpy(model.data() + addr, src.data(), len);
        break;
      }
      case 3: {  // overlapping forward or backward move
        const auto [src, len] = range(3 * kPage);
        const auto page = static_cast<std::int64_t>(kPage);
        const std::int64_t shift = static_cast<std::int64_t>(rng() % (2 * kPage)) - page;
        const auto from = static_cast<std::int64_t>(src);
        const auto max_dst = static_cast<std::int64_t>(size - len);
        const std::int64_t dst = std::clamp<std::int64_t>(from + shift, 0, max_dst);
        mem.copy_within(dst, src, len);
        std::memmove(model.data() + dst, model.data() + src, len);
        break;
      }
      case 4: {  // from anywhere, unmarked and partial pages included
        const auto [src, len] = range(4 * kPage);
        const std::uint64_t dst = rng() % (size - len + 1);
        mem.copy_within(dst, src, len);
        std::memmove(model.data() + dst, model.data() + src, len);
        break;
      }
      case 5: {  // runs of whole pages, which end unmarked
        const std::uint64_t first = rng() % 20;
        const std::uint64_t pages = 1 + rng() % 20;
        mem.fill(first * kPage, 0, pages * kPage);
        std::memset(model.data() + first * kPage, 0, pages * kPage);
        break;
      }
      case 6: {
        const auto [addr, len] = range(3 * kPage);
        mem.fill(addr, 0, len);
        std::memset(model.data() + addr, 0, len);
        break;
      }
      case 7: {
        const auto [addr, len] = range(kPage / 2);
        const auto v = static_cast<std::uint8_t>(1 + rng() % 255);
        mem.fill(addr, v, len);
        std::memset(model.data() + addr, v, len);
        break;
      }
      case 8: {
        const auto v = static_cast<std::uint16_t>(rng());
        const std::uint64_t addr = near_boundary(1);
        mem.write<std::uint16_t>(addr, v);
        std::memcpy(model.data() + addr, &v, 2);
        break;
      }
      default: {
        if (step % 20 != 9) break;
        const AddressSpace copy = mem;
        expect_matches_model(copy, model, rng);
        if (HasFatalFailure()) return;
        break;
      }
    }
    if (step % 100 == 99) {
      expect_matches_model(mem, model, rng);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(LazyAddressSpace, ZeroingClearsOnlyMarkedPagesAndUnmarksCoveredOnes) {
  AddressSpace mem(32 * kPage, "m");
  for (std::uint64_t p = 0; p < mem.page_count(); ++p) EXPECT_FALSE(mem.page_marked(p));
  mem.fill(kPage / 2, 0xAB, 20 * kPage);  // pages 0..20, partial at both ends
  EXPECT_TRUE(mem.page_marked(0));
  EXPECT_TRUE(mem.page_marked(20));
  EXPECT_FALSE(mem.page_marked(21));

  // Whole pages 1..19 are covered, pages 0 and 20 only in part.
  mem.fill(kPage / 4, 0, 20 * kPage);
  EXPECT_TRUE(mem.page_marked(0));
  for (std::uint64_t p = 1; p < 20; ++p) EXPECT_FALSE(mem.page_marked(p)) << p;
  EXPECT_TRUE(mem.page_marked(20));
  EXPECT_EQ(mem.read<std::uint8_t>(kPage / 4 - 1), 0);
  EXPECT_EQ(mem.read<std::uint8_t>(20 * kPage + kPage / 4), 0xAB);

  // A copy from an unmarked source zeroes and unmarks the destination.
  mem.fill(24 * kPage, 0xCD, 4 * kPage);
  mem.copy_within(24 * kPage, 2 * kPage, 4 * kPage);
  for (std::uint64_t p = 24; p < 28; ++p) EXPECT_FALSE(mem.page_marked(p)) << p;
  std::vector<std::uint8_t> copied(4 * kPage, 0xFF);
  mem.copy_out(copied.data(), 24 * kPage, copied.size());
  EXPECT_TRUE(copied == std::vector<std::uint8_t>(4 * kPage, 0));

  // Equal bytes, equal digest, whatever the write history: only
  // [20.25, 20.5) pages of 0xAB are left, and page 0 is marked but zero.
  AddressSpace fresh(32 * kPage, "fresh");
  fresh.fill(20 * kPage + kPage / 4, 0xAB, kPage / 4);
  EXPECT_EQ(mem.content_digest(9), fresh.content_digest(9));
  fresh.write<std::uint8_t>(0, 1);
  EXPECT_NE(mem.content_digest(9), fresh.content_digest(9));
}

TEST(LazyAddressSpace, EqualsAndIsZeroAreExactOnMarkedAndUnmarkedPages) {
  AddressSpace mem(8 * kPage, "m");
  EXPECT_TRUE(mem.is_zero(0, mem.size()));
  EXPECT_TRUE(mem.is_zero(5, 0));
  // A page written with zeros is marked but still all zero.
  mem.write<std::uint64_t>(2 * kPage + 8, 0);
  ASSERT_TRUE(mem.page_marked(2));
  EXPECT_TRUE(mem.is_zero(0, mem.size()));
  // One nonzero byte straddling pages 4 and 5.
  mem.write<std::uint16_t>(5 * kPage - 1, 0x0100);
  EXPECT_TRUE(mem.is_zero(0, 5 * kPage - 1));
  EXPECT_TRUE(mem.is_zero(5 * kPage + 1, 3 * kPage - 1));
  EXPECT_TRUE(mem.is_zero(5 * kPage - 1, 1));
  EXPECT_FALSE(mem.is_zero(5 * kPage, 1));
  EXPECT_FALSE(mem.is_zero(kPage, 7 * kPage));

  std::vector<std::uint8_t> want(3 * kPage, 0);
  want[kPage] = 1;
  EXPECT_TRUE(mem.equals(4 * kPage, want.data(), want.size()));
  want[kPage] = 0;
  EXPECT_FALSE(mem.equals(4 * kPage, want.data(), want.size()));
  EXPECT_TRUE(mem.equals(0, nullptr, 0));

  EXPECT_THROW(mem.is_zero(mem.size() - 1, 2), ContractError);
  EXPECT_THROW(mem.equals(mem.size(), want.data(), 1), ContractError);
}

TEST(LazyAddressSpace, ConcurrentTypedWritesFromParallelFor) {
  // 512 tasks, eight per page, each writing 1024 unaligned u64 values. The
  // layout is shifted by 3 bytes, so every eighth task's last write
  // straddles into the page the next task is writing.
  constexpr std::uint64_t kSlice = kPage / 8;
  constexpr std::size_t kTasks = 512;
  AddressSpace mem(65 * kPage, "m");
  const auto value = [](std::size_t task, std::uint64_t k) {
    return (static_cast<std::uint64_t>(task) << 32) ^ (k * 0x9E3779B97F4A7C15ull);
  };
  run::ThreadPool pool(4);
  run::parallel_for(pool, kTasks, [&](std::size_t i) {
    for (std::uint64_t k = 0; k < kSlice / 8; ++k) {
      mem.write<std::uint64_t>(3 + i * kSlice + 8 * k, value(i, k));
    }
  });
  std::vector<std::uint8_t> model(mem.size(), 0);
  for (std::size_t i = 0; i < kTasks; ++i) {
    for (std::uint64_t k = 0; k < kSlice / 8; ++k) {
      const std::uint64_t v = value(i, k);
      std::memcpy(model.data() + 3 + i * kSlice + 8 * k, &v, 8);
    }
  }
  for (std::uint64_t p = 0; p < mem.page_count(); ++p) EXPECT_TRUE(mem.page_marked(p)) << p;
  std::mt19937_64 rng(4);
  expect_matches_model(mem, model, rng);
}

TEST(Allocator, AllocatesAlignedDistinctBlocks) {
  FreeListAllocator a(4096, 1 << 20);
  const auto p1 = a.allocate(100, 256);
  const auto p2 = a.allocate(100, 256);
  ASSERT_TRUE(p1 && p2);
  EXPECT_NE(*p1, *p2);
  EXPECT_EQ(*p1 % 256, 0u);
  EXPECT_EQ(*p2 % 256, 0u);
  EXPECT_EQ(a.bytes_allocated(), 200u);
  EXPECT_EQ(a.live_blocks(), 2u);
}

TEST(Allocator, FreeMergesNeighbors) {
  FreeListAllocator a(0, 4096);
  const auto p1 = a.allocate(512, 1);
  const auto p2 = a.allocate(512, 1);
  const auto p3 = a.allocate(512, 1);
  ASSERT_TRUE(p1 && p2 && p3);
  a.free(*p1);
  a.free(*p3);
  EXPECT_GE(a.free_ranges(), 2u);
  a.free(*p2);
  // Everything merged back into one range.
  EXPECT_EQ(a.free_ranges(), 1u);
  const auto big = a.allocate(4096, 1);
  EXPECT_TRUE(big.has_value());
}

TEST(Allocator, ExhaustionReturnsNullopt) {
  FreeListAllocator a(0, 1024);
  EXPECT_FALSE(a.allocate(2048).has_value());
  const auto p = a.allocate(512, 1);
  ASSERT_TRUE(p.has_value());
  EXPECT_FALSE(a.allocate(1024, 1).has_value());
}

TEST(Allocator, DoubleFreeAndForeignFreeThrow) {
  FreeListAllocator a(0, 4096);
  const auto p = a.allocate(64, 1);
  ASSERT_TRUE(p.has_value());
  a.free(*p);
  EXPECT_THROW(a.free(*p), ContractError);
  EXPECT_THROW(a.free(12345), ContractError);
}

TEST(Allocator, ReusesFreedSpace) {
  FreeListAllocator a(0, 1024);
  const auto p1 = a.allocate(1024, 1);
  ASSERT_TRUE(p1.has_value());
  a.free(*p1);
  const auto p2 = a.allocate(1024, 1);
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(*p1, *p2);
}

TEST(Allocator, FirstFitSkipsTooSmallHoles) {
  FreeListAllocator a(0, 4096);
  const auto p1 = a.allocate(128, 1);
  const auto p2 = a.allocate(128, 1);
  ASSERT_TRUE(p1 && p2);
  a.free(*p1);  // 128-byte hole at the front
  const auto p3 = a.allocate(512, 1);
  ASSERT_TRUE(p3.has_value());
  EXPECT_GT(*p3, *p2);  // hole skipped
  const auto p4 = a.allocate(64, 1);
  ASSERT_TRUE(p4.has_value());
  EXPECT_EQ(*p4, *p1);  // hole reused for a fitting request
}

TEST(Allocator, RejectsBadArguments) {
  FreeListAllocator a(0, 1024);
  EXPECT_THROW(a.allocate(0), ContractError);
  EXPECT_THROW(a.allocate(16, 3), ContractError);  // non-power-of-two alignment
}

TEST(MemChunk, EndAndEquality) {
  const MemChunk c{100, 50};
  EXPECT_EQ(c.end(), 150u);
  EXPECT_EQ(c, (MemChunk{100, 50}));
  EXPECT_NE(c, (MemChunk{100, 51}));
}

}  // namespace
}  // namespace sigvp
