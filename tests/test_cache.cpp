#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "gpu/prob_cache.hpp"
#include "mem/cache.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sigvp {
namespace {

CacheConfig small_cache() {
  return CacheConfig{1024, 64, 2};  // 16 lines, 8 sets, 2-way
}

TEST(Cache, ColdMissThenHit) {
  CacheModel c(small_cache());
  EXPECT_EQ(c.access(0, 4), 1u);   // miss
  EXPECT_EQ(c.access(4, 4), 0u);   // same line: hit
  EXPECT_EQ(c.stats().accesses, 2u);
  EXPECT_EQ(c.stats().misses, 1u);
  EXPECT_EQ(c.stats().hits, 1u);
}

TEST(Cache, AccessSpanningLinesTouchesEach) {
  CacheModel c(small_cache());
  EXPECT_EQ(c.access(60, 8), 2u);  // crosses the 64-byte boundary
  EXPECT_EQ(c.stats().accesses, 2u);
}

TEST(Cache, LruEvictionWithinSet) {
  CacheModel c(small_cache());
  // Three lines mapping to the same set of a 2-way cache: set = line % 8.
  const std::uint64_t a = 0 * 64, b2 = 8 * 64, d = 16 * 64;
  c.access(a, 4);
  c.access(b2, 4);
  c.access(a, 4);   // refresh a -> b2 is LRU
  c.access(d, 4);   // evicts b2
  c.reset_stats();
  c.access(a, 4);
  EXPECT_EQ(c.stats().misses, 0u);
  c.access(b2, 4);
  EXPECT_EQ(c.stats().misses, 1u);  // b2 was evicted
}

TEST(Cache, FlushInvalidatesEverything) {
  CacheModel c(small_cache());
  c.access(0, 4);
  c.flush();
  c.reset_stats();
  c.access(0, 4);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, WorkingSetLargerThanCacheThrashes) {
  CacheModel c(small_cache());  // 1 KiB
  // Stream 8 KiB twice; second pass still misses (capacity).
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t addr = 0; addr < 8192; addr += 64) c.access(addr, 4);
  }
  EXPECT_GT(c.stats().miss_rate(), 0.9);
}

TEST(Cache, WorkingSetSmallerThanCacheMostlyHits) {
  CacheModel c(small_cache());
  for (int pass = 0; pass < 10; ++pass) {
    for (std::uint64_t addr = 0; addr < 512; addr += 64) c.access(addr, 4);
  }
  EXPECT_LT(c.stats().miss_rate(), 0.15);
}

TEST(Cache, RejectsBadConfig) {
  EXPECT_THROW(CacheModel(CacheConfig{1024, 48, 2}), ContractError);   // non-pow2 line
  EXPECT_THROW(CacheModel(CacheConfig{1024, 64, 0}), ContractError);   // zero ways
  CacheModel ok(small_cache());
  EXPECT_THROW(ok.access(0, 0), ContractError);
}

/// The per-set vector LRU that CacheModel's flat tag array replaced, kept as
/// the oracle: per set, line tags in MRU-first order, move-to-front on a hit,
/// insert at the front and drop the back on a miss.
class VectorLru {
 public:
  explicit VectorLru(const CacheConfig& config) : config_(config), sets_(config.num_sets()) {}

  std::uint32_t access(std::uint64_t addr, std::uint32_t bytes) {
    std::uint32_t misses = 0;
    for (std::uint64_t line = addr / config_.line_bytes;
         line <= (addr + bytes - 1) / config_.line_bytes; ++line) {
      ++stats.accesses;
      auto& set = sets_[line % sets_.size()];
      auto it = std::find(set.begin(), set.end(), line);
      if (it != set.end()) {
        ++stats.hits;
        set.erase(it);
      } else {
        ++stats.misses;
        ++misses;
      }
      set.insert(set.begin(), line);
      if (set.size() > config_.associativity) set.pop_back();
    }
    return misses;
  }

  void flush() {
    for (auto& set : sets_) set.clear();
  }

  CacheStats stats;

 private:
  CacheConfig config_;
  std::vector<std::vector<std::uint64_t>> sets_;
};

TEST(Cache, FlatLruMatchesVectorReferenceOnRandomStreams) {
  // Direct-mapped, 8-way with power-of-two and non-power-of-two set counts,
  // and the L2 geometry the device model uses.
  const CacheConfig configs[] = {{1024, 64, 1}, {4096, 64, 8}, {1536, 64, 8}, {512 << 10, 128, 8}};
  for (std::size_t c = 0; c < std::size(configs); ++c) {
    const CacheConfig& cfg = configs[c];
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("config " + std::to_string(c) + ", seed " + std::to_string(seed));
      CacheModel model(cfg);
      VectorLru ref(cfg);
      Rng rng(seed);
      // Addresses span four cache capacities; half the accesses revisit the
      // neighbourhood of the previous one so hits, move-to-front and
      // eviction all occur. Sizes reach three lines, so accesses cross line
      // boundaries.
      const std::uint64_t span = 4 * cfg.size_bytes;
      std::uint64_t addr = 0;
      for (int i = 0; i < 20000; ++i) {
        if (i % 7000 == 6999) {
          model.flush();
          ref.flush();
        }
        if (rng.next_double() < 0.5) {
          addr = rng.next_below(span);
        } else {
          addr = (addr + rng.next_below(4 * cfg.line_bytes)) % span;
        }
        const auto bytes = static_cast<std::uint32_t>(1 + rng.next_below(3 * cfg.line_bytes));
        ASSERT_EQ(model.access(addr, bytes), ref.access(addr, bytes)) << "access " << i;
      }
      EXPECT_EQ(model.stats().accesses, ref.stats.accesses);
      EXPECT_EQ(model.stats().hits, ref.stats.hits);
      EXPECT_EQ(model.stats().misses, ref.stats.misses);
      EXPECT_GT(ref.stats.hits, 0u);
      EXPECT_GT(ref.stats.misses, 0u);
    }
  }
}

TEST(Cache, StatsAreInvariantUnderACommonLineMultipleShift) {
  // The launch cache relocates a hit by one common shift δ of every pointer:
  // line l moves to l + δ/line, so set s becomes (s + δ/line) mod sets — a
  // permutation of sets under which every access hits or misses as before.
  const CacheConfig configs[] = {{4096, 64, 2}, {1536, 64, 8}, {512 << 10, 128, 8}};
  for (std::size_t c = 0; c < std::size(configs); ++c) {
    const CacheConfig& cfg = configs[c];
    for (const std::uint64_t seed : {11u, 12u, 13u}) {
      SCOPED_TRACE("config " + std::to_string(c) + ", seed " + std::to_string(seed));
      Rng rng(seed);
      // Two streams over buffers 8 capacities apart, the shift up to ±2^20
      // lines either way (addresses stay positive).
      const std::uint64_t base = std::uint64_t{1} << 40;
      const std::uint64_t bufs[2] = {base, base + 8 * cfg.size_bytes};
      const auto lines = static_cast<std::int64_t>(rng.next_below(std::uint64_t{1} << 21)) -
                         (std::int64_t{1} << 20);
      const std::uint64_t delta =
          static_cast<std::uint64_t>(lines * static_cast<std::int64_t>(cfg.line_bytes));
      CacheModel original(cfg), moved(cfg);
      for (int i = 0; i < 20000; ++i) {
        const std::uint64_t addr =
            bufs[rng.next_below(2)] + rng.next_below(2 * cfg.size_bytes);
        const auto bytes = static_cast<std::uint32_t>(1 + rng.next_below(2 * cfg.line_bytes));
        ASSERT_EQ(original.access(addr, bytes), moved.access(addr + delta, bytes))
            << "access " << i;
      }
      EXPECT_EQ(original.stats().hits, moved.stats().hits);
      EXPECT_EQ(original.stats().misses, moved.stats().misses);
      EXPECT_GT(original.stats().hits, 0u);
      EXPECT_GT(original.stats().misses, 0u);
    }
  }
}

TEST(Cache, ShiftingOneOfTwoStreamsChangesTheStats) {
  // Direct-mapped, 16 sets of 64 B. Streams A and B one capacity apart
  // share every set and evict each other; moving B alone by half the
  // capacity separates them. This is why a relocated launch-cache hit
  // needs one common shift for all pointers.
  const CacheConfig cfg{1024, 64, 1};
  auto run = [&](std::uint64_t a, std::uint64_t b) {
    CacheModel model(cfg);
    for (int rep = 0; rep < 2; ++rep) {
      for (std::uint64_t i = 0; i < 8; ++i) {
        model.access(a + 64 * i, 4);
        model.access(b + 64 * i, 4);
      }
    }
    return model.stats();
  };
  const CacheStats aligned = run(0, 1024);
  EXPECT_EQ(aligned.accesses, 32u);
  EXPECT_EQ(aligned.hits, 0u);
  const CacheStats both_moved = run(512, 1536);
  EXPECT_EQ(both_moved.hits, 0u);
  EXPECT_EQ(both_moved.misses, 32u);
  const CacheStats b_moved = run(0, 1536);
  EXPECT_EQ(b_moved.hits, 16u);
  EXPECT_EQ(b_moved.misses, 16u);
}

TEST(ProbCache, ColdMissesMatchFootprint) {
  ProbCacheModel p(CacheConfig{512 * 1024, 128, 8});
  MemoryBehavior b;
  b.footprint_bytes = 128 * 1000;
  b.accesses = 1000;
  b.reuse_fraction = 1.0;
  b.coalescing = 0.0;
  // Footprint fits in cache: only compulsory misses.
  EXPECT_NEAR(p.expected_misses(b), 1000.0, 1.0);
}

TEST(ProbCache, CapacityMissesGrowWithFootprint) {
  ProbCacheModel p(CacheConfig{64 * 1024, 128, 8});
  MemoryBehavior small_fp{32 * 1024, 100000, 0.5, 0.5};
  MemoryBehavior large_fp{4 * 1024 * 1024, 100000, 0.5, 0.5};
  EXPECT_LT(p.expected_misses(small_fp), p.expected_misses(large_fp));
}

TEST(ProbCache, CoalescingReducesEffectiveAccesses) {
  ProbCacheModel p(CacheConfig{64 * 1024, 128, 8});
  MemoryBehavior scattered{8 * 1024 * 1024, 1000000, 0.2, 0.0};
  MemoryBehavior coalesced = scattered;
  coalesced.coalescing = 1.0;
  EXPECT_LT(p.expected_misses(coalesced), p.expected_misses(scattered));
}

TEST(ProbCache, ZeroTrafficMeansZeroMisses) {
  ProbCacheModel p(CacheConfig{64 * 1024, 128, 8});
  EXPECT_DOUBLE_EQ(p.expected_misses(MemoryBehavior{}), 0.0);
  EXPECT_DOUBLE_EQ(p.expected_miss_rate(MemoryBehavior{}), 0.0);
}

TEST(ProbCache, MissRateBoundedByOne) {
  ProbCacheModel p(CacheConfig{1024, 128, 8});
  MemoryBehavior b{1 << 30, 100, 0.0, 0.0};
  EXPECT_LE(p.expected_miss_rate(b), 1.0);
}

TEST(CacheStats, Accumulates) {
  CacheStats a{10, 6, 4};
  CacheStats b{10, 10, 0};
  a += b;
  EXPECT_EQ(a.accesses, 20u);
  EXPECT_DOUBLE_EQ(a.miss_rate(), 0.2);
}

}  // namespace
}  // namespace sigvp
