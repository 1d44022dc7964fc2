#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/check.hpp"

namespace sigvp {

/// Cache geometry (the simulated L2 of a GPU).
struct CacheConfig {
  std::uint64_t size_bytes = 512 * 1024;
  std::uint32_t line_bytes = 128;
  std::uint32_t associativity = 8;

  std::uint64_t num_lines() const { return size_bytes / line_bytes; }
  std::uint64_t num_sets() const { return num_lines() / associativity; }
};

/// Hit/miss counters of a cache simulation run.
struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  double miss_rate() const {
    return accesses == 0 ? 0.0 : static_cast<double>(misses) / static_cast<double>(accesses);
  }

  CacheStats& operator+=(const CacheStats& o) {
    accesses += o.accesses;
    hits += o.hits;
    misses += o.misses;
    return *this;
  }

  bool operator==(const CacheStats&) const = default;
};

/// Set-associative LRU cache simulator.
///
/// This is the "measured" data-cache behaviour of a device-model GPU: the
/// kernel execution engine calls its chunk's ChunkObserver (capture.hpp) on
/// every global access, which feeds the access here, and the cost model
/// turns the resulting miss count into data-dependency stall cycles — the
/// Υ^[data] term of the paper's Eq. 5, as observed rather than predicted.
///
/// Storage is flat: one tag array of `num_sets × associativity` slots plus a
/// fill count per set. Set s keeps its resident lines in slots
/// [s·ways, s·ways + fill[s]) in MRU-first order, so the hit/miss sequence is
/// exactly that of a per-set list with move-to-front and LRU eviction. Slots
/// past a set's fill count are never read, so construction zeroes only the
/// fill counts. Each model fills whole host cache lines, so the per-chunk
/// shards of one launch, updated by different interpreter workers, never
/// share one.
class alignas(64) CacheModel {
 public:
  explicit CacheModel(const CacheConfig& config);

  /// Simulates one access of `bytes` starting at `addr` (accesses crossing a
  /// line boundary touch every covered line). Returns the number of misses
  /// this access caused.
  std::uint32_t access(std::uint64_t addr, std::uint32_t bytes) {
    SIGVP_REQUIRE(bytes > 0, "cache access must cover at least one byte");
    const std::uint64_t first_line = addr >> line_shift_;
    const std::uint64_t last_line = (addr + bytes - 1) >> line_shift_;
    std::uint32_t misses = 0;
    for (std::uint64_t line = first_line; line <= last_line; ++line) {
      ++stats_.accesses;
      if (touch_line(line)) {
        ++stats_.hits;
      } else {
        ++stats_.misses;
        ++misses;
      }
    }
    return misses;
  }

  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }

  /// Invalidates all lines (e.g. between independent kernel launches).
  void flush();

  const CacheConfig& config() const { return config_; }

 private:
  /// Moves `line` to the MRU slot of its set; true on a hit. A miss inserts
  /// it there and, when the set is full, drops the LRU line.
  bool touch_line(std::uint64_t line) {
    const std::uint64_t set = pow2_sets_ ? (line & (num_sets_ - 1)) : (line % num_sets_);
    std::uint64_t* const slots = tags_.get() + set * ways_;
    std::uint32_t& fill = fill_[set];
    std::uint32_t i = 0;
    while (i < fill && slots[i] != line) ++i;
    const bool hit = i < fill;
    if (!hit) {
      if (fill < ways_) ++fill;
      i = fill - 1;  // a miss shifts every kept line down one slot
    }
    for (; i > 0; --i) slots[i] = slots[i - 1];
    slots[0] = line;
    return hit;
  }

  CacheConfig config_;
  std::uint32_t ways_;
  std::uint32_t line_shift_;
  std::uint64_t num_sets_;
  bool pow2_sets_;
  std::unique_ptr<std::uint64_t[]> tags_;  // num_sets_ × ways_, uninitialized
  std::vector<std::uint32_t> fill_;        // resident lines per set
  CacheStats stats_;
};

}  // namespace sigvp
