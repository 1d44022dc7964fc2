#include "mem/capture.hpp"

#include <algorithm>

namespace sigvp {

std::vector<MemChunk> IntervalSet::ranges() const {
  std::vector<MemChunk> out;
  out.reserve(map_.size());
  for (const auto& [start, end] : map_) out.push_back({start, end - start});
  return out;
}

IntervalSet::Map::iterator IntervalSet::first_reaching(std::uint64_t addr) {
  // An MRU entry decides when the answer is the entry itself or its
  // successor (a stream moving on to the next interval up).
  for (std::size_t i = 0; i < mru_size_; ++i) {
    const Map::iterator h = mru_[i].it;
    if (h->second < addr) {
      const Map::iterator next = std::next(h);
      if (next == map_.end() || next->second >= addr) return next;
    } else if (h->first <= addr || h == map_.begin()) {
      return h;
    }
  }
  auto it = map_.upper_bound(addr);
  if (it != map_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= addr) it = prev;
  }
  return it;
}

void IntervalSet::grow(Map::iterator it, std::uint64_t addr, std::uint64_t end,
                       std::vector<MemChunk>* gaps) {
  if (it == map_.end() || it->first > end) {  // touches nothing: a new interval
    if (gaps) gaps->push_back({addr, end - addr});
    const std::uint64_t next_start = it == map_.end() ? UINT64_MAX : it->first;
    it = map_.emplace_hint(it, addr, end);
    note_predecessor(it);
    touch(it, next_start);
    return;
  }
  // Grow `it` over [addr, end), absorbing every later interval the range
  // reaches; the gaps are the bytes no interval held.
  if (gaps && it->first > addr) gaps->push_back({addr, it->first - addr});
  std::uint64_t cursor = std::max(addr, it->second);
  std::uint64_t new_end = std::max(end, it->second);
  Map::iterator next = std::next(it);
  while (next != map_.end() && next->first <= end) {
    if (gaps && next->first > cursor) gaps->push_back({cursor, next->first - cursor});
    cursor = std::max(cursor, next->second);
    new_end = std::max(new_end, next->second);
    forget(next);
    next = map_.erase(next);
  }
  if (gaps && cursor < end) gaps->push_back({cursor, end - cursor});
  it->second = new_end;
  if (addr < it->first) {
    // The start moves down: re-key the same node, which keeps its place.
    forget(it);
    auto node = map_.extract(it);
    node.key() = addr;
    it = map_.insert(next, std::move(node));
    note_predecessor(it);
  }
  touch(it, next == map_.end() ? UINT64_MAX : next->first);
}

void IntervalSet::touch(Map::iterator it, std::uint64_t next_start) {
  std::size_t i = 0;
  while (i < mru_size_ && mru_[i].it != it) ++i;
  if (i == mru_size_) {
    if (mru_size_ < kMruSize) ++mru_size_;
    i = mru_size_ - 1;
    mru_[i].it = it;
  }
  mru_[i].next_start = next_start;
  promote(i);
}

void IntervalSet::forget(Map::iterator it) {
  for (std::size_t i = 0; i < mru_size_; ++i) {
    if (mru_[i].it != it) continue;
    for (; i + 1 < mru_size_; ++i) mru_[i] = mru_[i + 1];
    --mru_size_;
    return;
  }
}

void IntervalSet::note_predecessor(Map::iterator it) {
  if (it == map_.begin()) return;
  const Map::iterator prev = std::prev(it);
  for (std::size_t i = 0; i < mru_size_; ++i) {
    if (mru_[i].it == prev) mru_[i].next_start = it->first;
  }
}

}  // namespace sigvp
