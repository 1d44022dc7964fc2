#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace sigvp {

/// A flat byte-addressed memory space with bounds-checked access.
///
/// Used for both the device global memory of each simulated GPU and the
/// guest RAM of each virtual platform. Addresses are plain 64-bit offsets
/// into the space; address 0 is never handed out by the allocator so it can
/// serve as a null device pointer.
///
/// The space is lazily backed (DESIGN.md §18): the modelled capacity is one
/// anonymous MAP_NORESERVE reservation that the OS zero-fills on first
/// touch, so an untouched 2 GiB device costs neither RSS nor time. Next to
/// it sits a "may be nonzero" map with one flag per kPageBytes page. Every
/// write marks the pages it touches; a page that is not marked holds only
/// zeros. Zeroing (fill with 0, copy_within from an unmarked source) clears
/// only marked pages, and copies, digests and divergence checks over the
/// whole space visit only marked pages, so they cost O(touched pages).
/// Reads stay a flat `base + addr` access.
class AddressSpace {
 public:
  /// Granularity of the "may be nonzero" map. A 2 GiB space has 32 Ki
  /// pages, so scanning the map is cheap next to touching one page.
  static constexpr std::uint64_t kPageBytes = std::uint64_t{1} << 16;

  AddressSpace(std::uint64_t size_bytes, std::string name);
  /// Copies only the marked pages; the rest of the copy reads as zero.
  AddressSpace(const AddressSpace& other);
  AddressSpace(AddressSpace&& other) noexcept;
  AddressSpace& operator=(const AddressSpace&) = delete;
  ~AddressSpace();

  std::uint64_t size() const { return size_; }
  const std::string& name() const { return name_; }

  template <typename T>
  T read(std::uint64_t addr) const {
    check_range(addr, sizeof(T));
    T out;
    std::memcpy(&out, base_ + addr, sizeof(T));
    return out;
  }

  /// Safe to call from several threads at once on disjoint bytes (the
  /// block-parallel interpreter): the page flags are relaxed atomics.
  template <typename T>
  void write(std::uint64_t addr, T value) {
    check_range(addr, sizeof(T));
    const std::uint64_t page = addr / kPageBytes;
    mark_page(page);
    if ((addr + sizeof(T) - 1) / kPageBytes != page) mark_page(page + 1);
    std::memcpy(base_ + addr, &value, sizeof(T));
  }

  void copy_in(std::uint64_t dst, const void* src, std::size_t n);
  void copy_out(void* dst, std::uint64_t src, std::size_t n) const {
    if (n == 0) return;
    check_range(src, n);
    std::memcpy(dst, base_ + src, n);
  }
  void copy_within(std::uint64_t dst, std::uint64_t src, std::size_t n);
  void fill(std::uint64_t dst, std::uint8_t value, std::size_t n);

  /// True when [addr, addr+n) lies entirely inside the space.
  bool in_bounds(std::uint64_t addr, std::uint64_t n) const {
    return addr + n <= size_ && addr + n >= addr;
  }

  /// True when [addr, addr+n) holds exactly the n bytes at `bytes`.
  bool equals(std::uint64_t addr, const void* bytes, std::size_t n) const {
    if (n == 0) return true;
    check_range(addr, n);
    return std::memcmp(base_ + addr, bytes, n) == 0;
  }

  /// True when [addr, addr+n) holds only zeros. Pages that are not marked
  /// hold only zeros and are not read, so an untouched range costs O(pages).
  bool is_zero(std::uint64_t addr, std::uint64_t n) const;

  /// Page-sparse digest of the whole space: folds (page index,
  /// mem_hash_bytes(page)) into `seed` for every marked page whose bytes are
  /// not all zero. Equal contents give equal digests whatever the write
  /// history; the cost is O(marked pages).
  std::uint64_t content_digest(std::uint64_t seed) const;

  std::uint64_t page_count() const { return (size_ + kPageBytes - 1) / kPageBytes; }
  /// False when page `page` is known to hold only zeros.
  bool page_marked(std::uint64_t page) const {
    return dirty_[page].load(std::memory_order_relaxed) != 0;
  }

 private:
  void check_range(std::uint64_t addr, std::size_t n) const {
    if (!in_bounds(addr, n)) [[unlikely]] throw_out_of_bounds(addr, n);
  }
  [[noreturn, gnu::cold]] void throw_out_of_bounds(std::uint64_t addr, std::size_t n) const;
  void mark_page(std::uint64_t page) {
    std::atomic<std::uint8_t>& flag = dirty_[page];
    // Load first so concurrent writers to one page keep its line shared.
    if (flag.load(std::memory_order_relaxed) == 0) flag.store(1, std::memory_order_relaxed);
  }
  void mark_range(std::uint64_t addr, std::uint64_t n);
  bool any_marked(std::uint64_t addr, std::uint64_t n) const;
  /// Zeroes [addr, addr+n): skips unmarked pages, memsets the covered part
  /// of each marked page and unmarks the fully covered ones.
  void zero_range(std::uint64_t addr, std::uint64_t n);

  std::uint8_t* base_;
  std::uint64_t size_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> dirty_;
  std::string name_;
};

// GpuDevice holds an AddressSpace by value, and sizeof(GpuDevice) feeds the
// modelled fleet.resident_bytes, so the lazy layout keeps the footprint of
// the dense one (a byte vector and a name: 56 bytes with libstdc++).
static_assert(sizeof(AddressSpace) == sizeof(std::vector<std::uint8_t>) + sizeof(std::string));

/// A contiguous region inside some address space; the unit the kernel
/// coalescer merges and scatters (paper Fig. 5).
struct MemChunk {
  std::uint64_t addr = 0;
  std::uint64_t size = 0;

  std::uint64_t end() const { return addr + size; }
  bool operator==(const MemChunk&) const = default;
};

/// Seed for mem_hash_bytes chains.
inline constexpr std::uint64_t kMemHashSeed = 0x9E3779B97F4A7C15ull;

/// Folds `size` bytes at `data` into `seed`: 8 bytes per step with
/// multiply-xor-rotate mixing (order-sensitive, position-dependent), so
/// hashing a range in one call equals hashing it in any contiguous pieces
/// only when the piece boundaries match — callers chain whole ranges.
std::uint64_t mem_hash_bytes(const std::uint8_t* data, std::uint64_t size, std::uint64_t seed);

/// A sparse memory delta: `ranges` (ascending, non-overlapping) plus the
/// concatenation of each range's bytes. The launch-evaluation cache records
/// a kernel's write-set this way and replays it on a hit.
struct MemDelta {
  std::vector<MemChunk> ranges;
  std::vector<std::uint8_t> bytes;  // sum of range sizes

  std::uint64_t total_bytes() const { return bytes.size(); }
};

/// Captures the current contents of `ranges` from `space` into a MemDelta.
MemDelta extract_delta(const AddressSpace& space, std::vector<MemChunk> ranges);

/// Writes `delta` back into `space`, each range at its address + `shift`
/// (mod 2^64; bounds-checked per range).
void apply_delta(AddressSpace& space, const MemDelta& delta, std::uint64_t shift);

}  // namespace sigvp
