// Randomized stress / property tests of the foundational substrates.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "mem/allocator.hpp"
#include "mem/cache.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace sigvp {
namespace {

TEST(StressAllocator, RandomAllocFreeNeverOverlapsAndAlwaysMerges) {
  Rng rng(20260707);
  FreeListAllocator alloc(0, 1 << 20);
  std::map<std::uint64_t, std::uint64_t> live;  // addr -> size

  for (int step = 0; step < 5000; ++step) {
    const bool do_alloc = live.empty() || rng.next_double() < 0.6;
    if (do_alloc) {
      const std::uint64_t size = 1 + rng.next_below(4096);
      const std::uint64_t align = 1ull << rng.next_below(8);
      const auto addr = alloc.allocate(size, align);
      if (!addr.has_value()) continue;  // fragmentation — legal
      EXPECT_EQ(*addr % align, 0u);
      // No overlap with any live block.
      for (const auto& [a, s] : live) {
        EXPECT_TRUE(*addr + size <= a || a + s <= *addr)
            << "overlap at step " << step;
      }
      live[*addr] = size;
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.next_below(live.size())));
      alloc.free(it->first);
      live.erase(it);
    }
  }
  // Free everything: the allocator must coalesce back to one range able to
  // satisfy a full-capacity request.
  for (const auto& [a, s] : live) alloc.free(a);
  EXPECT_EQ(alloc.free_ranges(), 1u);
  EXPECT_EQ(alloc.bytes_allocated(), 0u);
  EXPECT_TRUE(alloc.allocate(1 << 20, 1).has_value());
}

TEST(StressCache, MatchesReferenceLruModel) {
  // Cross-check the cache simulator against a brute-force per-set LRU list.
  const CacheConfig cfg{4096, 64, 4};  // 16 sets, 4 ways
  CacheModel cache(cfg);
  std::vector<std::vector<std::uint64_t>> ref(cfg.num_sets());
  Rng rng(99);
  std::uint64_t ref_misses = 0, ref_accesses = 0;

  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t addr = rng.next_below(1 << 16);
    cache.access(addr, 1);
    const std::uint64_t line = addr / cfg.line_bytes;
    auto& set = ref[line % ref.size()];
    ++ref_accesses;
    auto it = std::find(set.begin(), set.end(), line);
    if (it != set.end()) {
      set.erase(it);
    } else {
      ++ref_misses;
      if (set.size() == cfg.associativity) set.pop_back();
    }
    set.insert(set.begin(), line);
  }
  EXPECT_EQ(cache.stats().accesses, ref_accesses);
  EXPECT_EQ(cache.stats().misses, ref_misses);
}

TEST(StressEventQueue, RandomScheduleRunsInNondecreasingTimeOrder) {
  EventQueue q;
  Rng rng(7);
  std::vector<SimTime> fired;
  // Seed events that recursively schedule more events at random offsets.
  std::function<void(int)> spawn = [&](int depth) {
    fired.push_back(q.now());
    if (depth >= 3) return;
    const int fanout = 1 + static_cast<int>(rng.next_below(3));
    for (int i = 0; i < fanout; ++i) {
      q.schedule_after(rng.next_double() * 100.0, [&spawn, depth] { spawn(depth + 1); });
    }
  };
  for (int i = 0; i < 50; ++i) {
    q.schedule_at(rng.next_double() * 1000.0, [&spawn] { spawn(0); });
  }
  q.run();
  EXPECT_GT(fired.size(), 50u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

TEST(StressEngine, ManyJobsBackToBackConserveBusyTime) {
  EventQueue q;
  Engine e(q, "stress");
  Rng rng(3);
  double total = 0.0;
  SimTime last_end = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const double dur = rng.next_double() * 10.0;
    total += dur;
    e.submit(dur, [&last_end](SimTime end) { last_end = end; });
  }
  q.run();
  EXPECT_NEAR(e.busy_time(), total, 1e-6);
  // All submitted at t=0: a FIFO server finishes exactly at the work sum.
  EXPECT_NEAR(last_end, total, 1e-6);
}

}  // namespace
}  // namespace sigvp
