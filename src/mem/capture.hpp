#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <vector>

#include "mem/address_space.hpp"
#include "mem/cache.hpp"

namespace sigvp {

/// Ordered, coalesced set of [start, end) byte intervals; intervals never
/// overlap or touch. add() reports the previously-uncovered gaps so the
/// store path can snapshot pre-store bytes exactly once per byte
/// (first-write-wins undo log).
///
/// Guest access streams revisit or extend a few intervals at a time (one
/// per buffer a thread walks), so add() first consults a small MRU of the
/// intervals it touched last. An access one of them covers returns at once,
/// and one that starts inside or at the end of one grows it in place: a
/// contiguous append reports the new bytes as one gap and allocates
/// nothing. Each MRU slot remembers where the next interval starts, so an
/// append that stays short of it needs no tree walk at all. Otherwise the
/// interval to grow is found next to an MRU entry when it is one's map
/// neighbour, and from the ordered map only when it is not. The resulting
/// set and the reported gaps do not depend on the MRU's contents.
class IntervalSet {
 public:
  IntervalSet() = default;
  // The MRU holds iterators into this set's own map: the set never moves.
  IntervalSet(const IntervalSet&) = delete;
  IntervalSet& operator=(const IntervalSet&) = delete;

  void add(std::uint64_t addr, std::uint64_t size, std::vector<MemChunk>* gaps) {
    if (size == 0) return;
    const std::uint64_t end = addr + size;
    for (std::size_t i = 0; i < mru_size_; ++i) {
      const Map::iterator h = mru_[i].it;
      if (h->first > addr || h->second < addr) continue;
      if (end > h->second) {
        if (end >= mru_[i].next_start) {
          grow(h, addr, end, gaps);
          return;
        }
        if (gaps) gaps->push_back({h->second, end - h->second});
        h->second = end;
      }
      if (i != 0) promote(i);
      return;
    }
    grow(first_reaching(addr), addr, end, gaps);
  }

  /// The intervals in ascending order.
  std::vector<MemChunk> ranges() const;

  const std::map<std::uint64_t, std::uint64_t>& raw() const { return map_; }

 private:
  using Map = std::map<std::uint64_t, std::uint64_t>;  // start -> end
  static constexpr std::size_t kMruSize = 4;
  struct Slot {
    Map::iterator it;
    /// Start of the interval after `it` (UINT64_MAX when it is the last),
    /// or 0 when not known; growing `it` short of it merges nothing.
    std::uint64_t next_start = 0;
  };

  /// The first interval whose end is >= addr: the only one [addr, ...) can
  /// start inside or at the end of.
  Map::iterator first_reaching(std::uint64_t addr);
  /// Adds [addr, end) given `it` = first_reaching(addr).
  void grow(Map::iterator it, std::uint64_t addr, std::uint64_t end, std::vector<MemChunk>* gaps);
  void promote(std::size_t i) {
    const Slot slot = mru_[i];
    for (; i > 0; --i) mru_[i] = mru_[i - 1];
    mru_[0] = slot;
  }
  /// Makes `it` the most recent entry, with `next_start` as its successor's.
  void touch(Map::iterator it, std::uint64_t next_start);
  void forget(Map::iterator it);
  /// Records that the interval before `it`, if in the MRU, is now followed
  /// by `it`.
  void note_predecessor(Map::iterator it);

  Map map_;
  std::array<Slot, kMruSize> mru_{};  // most recent first
  std::size_t mru_size_ = 0;
};

/// Read-set/write-set capture of one canonical interpreter chunk. Each
/// chunk owns one, so recording needs no synchronization even when chunks
/// run on different interpreter workers (and one fills whole host cache
/// lines, so neighbours do not share one). record() must see each access
/// before it is applied, so a store can still read its pre-store bytes.
struct alignas(64) ChunkCapture {
  IntervalSet reads;
  IntervalSet writes;
  /// Pre-store bytes of each byte this chunk wrote, first write wins:
  /// `undo_ranges[i]` holds bytes at offset Σ size of earlier ranges.
  std::vector<MemChunk> undo_ranges;
  std::vector<std::uint8_t> undo_bytes;
  std::vector<MemChunk> gap_scratch;

  void record(std::uint64_t addr, std::uint32_t bytes, bool is_store, const AddressSpace& mem) {
    if (!is_store) {
      reads.add(addr, bytes, nullptr);
      return;
    }
    gap_scratch.clear();
    writes.add(addr, bytes, &gap_scratch);
    for (const MemChunk& gap : gap_scratch) {
      // Memory still holds the pre-store bytes of every not-yet-written
      // gap. A gap that continues the previous one extends it, so the log
      // holds one range per written run.
      if (!undo_ranges.empty() && undo_ranges.back().end() == gap.addr) {
        undo_ranges.back().size += gap.size;
      } else {
        undo_ranges.push_back(gap);
      }
      const std::size_t off = undo_bytes.size();
      undo_bytes.resize(off + gap.size);
      mem.copy_out(undo_bytes.data() + off, gap.addr, gap.size);
    }
  }
};

/// The observer of one canonical interpreter chunk: its cold L2 shard and,
/// on a launch-cache fill, its capture. The kernel execution engine calls
/// access() directly on every global access of the chunk, in the chunk's
/// deterministic order and before the access is applied.
struct ChunkObserver {
  CacheModel l2;
  ChunkCapture* capture = nullptr;

  void access(std::uint64_t addr, std::uint32_t bytes, bool is_store, const AddressSpace& mem) {
    if (capture != nullptr) capture->record(addr, bytes, is_store, mem);
    l2.access(addr, bytes);
  }
};

}  // namespace sigvp
