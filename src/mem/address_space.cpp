#include "mem/address_space.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <utility>

namespace sigvp {

namespace {

std::uint8_t* reserve(std::uint64_t size, const std::string& name) {
  constexpr int kProt = PROT_READ | PROT_WRITE;
  constexpr int kFlags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE;
  void* p = ::mmap(nullptr, size, kProt, kFlags, -1, 0);
  SIGVP_REQUIRE(p != MAP_FAILED, name + ": cannot reserve " + std::to_string(size) + " bytes");
  return static_cast<std::uint8_t*>(p);
}

bool all_zero(const std::uint8_t* p, std::uint64_t n) {
  return p[0] == 0 && std::memcmp(p, p + 1, n - 1) == 0;
}

}  // namespace

AddressSpace::AddressSpace(std::uint64_t size_bytes, std::string name)
    : base_(nullptr), size_(size_bytes), name_(std::move(name)) {
  SIGVP_REQUIRE(size_bytes > 0, "address space must be non-empty");
  dirty_ = std::make_unique<std::atomic<std::uint8_t>[]>(page_count());
  base_ = reserve(size_, name_);
}

AddressSpace::AddressSpace(const AddressSpace& other)
    : base_(reserve(other.size_, other.name_)),
      size_(other.size_),
      dirty_(std::make_unique<std::atomic<std::uint8_t>[]>(other.page_count())),
      name_(other.name_) {
  const std::uint64_t pages = page_count();
  for (std::uint64_t p = 0; p < pages;) {
    if (!other.page_marked(p)) {
      ++p;
      continue;
    }
    const std::uint64_t first = p;
    for (; p < pages && other.page_marked(p); ++p) dirty_[p].store(1, std::memory_order_relaxed);
    const std::uint64_t begin = first * kPageBytes;
    const std::uint64_t end = std::min(p * kPageBytes, size_);
    std::memcpy(base_ + begin, other.base_ + begin, end - begin);
  }
}

AddressSpace::AddressSpace(AddressSpace&& other) noexcept
    : base_(std::exchange(other.base_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      dirty_(std::move(other.dirty_)),
      name_(std::move(other.name_)) {}

AddressSpace::~AddressSpace() {
  if (base_ != nullptr) ::munmap(base_, size_);
}

void AddressSpace::throw_out_of_bounds(std::uint64_t addr, std::size_t n) const {
  SIGVP_REQUIRE(addr + n <= size_ && addr + n >= addr,
                name_ + ": access [" + std::to_string(addr) + ", " +
                    std::to_string(addr + n) + ") out of bounds (size " +
                    std::to_string(size_) + ")");
  __builtin_unreachable();  // called only for out-of-bounds ranges
}

void AddressSpace::mark_range(std::uint64_t addr, std::uint64_t n) {
  const std::uint64_t last = (addr + n - 1) / kPageBytes;
  for (std::uint64_t p = addr / kPageBytes; p <= last; ++p) mark_page(p);
}

bool AddressSpace::any_marked(std::uint64_t addr, std::uint64_t n) const {
  const std::uint64_t last = (addr + n - 1) / kPageBytes;
  for (std::uint64_t p = addr / kPageBytes; p <= last; ++p) {
    if (page_marked(p)) return true;
  }
  return false;
}

void AddressSpace::zero_range(std::uint64_t addr, std::uint64_t n) {
  const std::uint64_t end = addr + n;
  const std::uint64_t last = (end - 1) / kPageBytes;
  for (std::uint64_t p = addr / kPageBytes; p <= last; ++p) {
    if (!page_marked(p)) continue;
    const std::uint64_t page_begin = p * kPageBytes;
    const std::uint64_t page_end = std::min(page_begin + kPageBytes, size_);
    const std::uint64_t lo = std::max(page_begin, addr);
    const std::uint64_t hi = std::min(page_end, end);
    std::memset(base_ + lo, 0, hi - lo);
    // A fully covered page now holds only zeros; a partial one stays marked.
    if (lo == page_begin && hi == page_end) dirty_[p].store(0, std::memory_order_relaxed);
  }
}

void AddressSpace::copy_in(std::uint64_t dst, const void* src, std::size_t n) {
  if (n == 0) return;
  check_range(dst, n);
  std::memcpy(base_ + dst, src, n);
  mark_range(dst, n);
}

void AddressSpace::copy_within(std::uint64_t dst, std::uint64_t src, std::size_t n) {
  if (n == 0) return;
  check_range(dst, n);
  check_range(src, n);
  if (!any_marked(src, n)) {
    zero_range(dst, n);  // the source is all zeros: copy none of them
    return;
  }
  std::memmove(base_ + dst, base_ + src, n);
  mark_range(dst, n);
}

void AddressSpace::fill(std::uint64_t dst, std::uint8_t value, std::size_t n) {
  if (n == 0) return;
  check_range(dst, n);
  if (value == 0) {
    zero_range(dst, n);
    return;
  }
  std::memset(base_ + dst, value, n);
  mark_range(dst, n);
}

bool AddressSpace::is_zero(std::uint64_t addr, std::uint64_t n) const {
  if (n == 0) return true;
  check_range(addr, n);
  const std::uint64_t end = addr + n;
  const std::uint64_t last = (end - 1) / kPageBytes;
  for (std::uint64_t p = addr / kPageBytes; p <= last; ++p) {
    if (!page_marked(p)) continue;
    const std::uint64_t lo = std::max(p * kPageBytes, addr);
    const std::uint64_t hi = std::min((p + 1) * kPageBytes, end);
    if (!all_zero(base_ + lo, hi - lo)) return false;
  }
  return true;
}

std::uint64_t AddressSpace::content_digest(std::uint64_t seed) const {
  std::uint64_t h = seed;
  const std::uint64_t pages = page_count();
  for (std::uint64_t p = 0; p < pages; ++p) {
    if (!page_marked(p)) continue;
    const std::uint64_t begin = p * kPageBytes;
    const std::uint64_t len = std::min(kPageBytes, size_ - begin);
    if (all_zero(base_ + begin, len)) continue;
    const std::uint64_t pair[2] = {p, mem_hash_bytes(base_ + begin, len, kMemHashSeed)};
    h = mem_hash_bytes(reinterpret_cast<const std::uint8_t*>(pair), sizeof(pair), h);
  }
  return h;
}

std::uint64_t mem_hash_bytes(const std::uint8_t* data, std::uint64_t size, std::uint64_t seed) {
  // xor-multiply-rotate over 64-bit words; the tail is zero-padded into one
  // final word tagged with the length so "abc" and "abc\0" differ.
  std::uint64_t h = seed;
  std::uint64_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, data + i, 8);
    h ^= w * 0xFF51AFD7ED558CCDull;
    h = (h << 29) | (h >> 35);
    h *= 0xC4CEB9FE1A85EC53ull;
  }
  if (i < size) {
    std::uint64_t w = 0;
    std::memcpy(&w, data + i, size - i);
    h ^= w * 0xFF51AFD7ED558CCDull;
    h = (h << 29) | (h >> 35);
    h *= 0xC4CEB9FE1A85EC53ull;
  }
  h ^= size;
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return h;
}

MemDelta extract_delta(const AddressSpace& space, std::vector<MemChunk> ranges) {
  MemDelta out;
  out.ranges = std::move(ranges);
  std::uint64_t total = 0;
  for (const MemChunk& r : out.ranges) total += r.size;
  out.bytes.resize(total);
  std::uint64_t off = 0;
  for (const MemChunk& r : out.ranges) {
    space.copy_out(out.bytes.data() + off, r.addr, r.size);
    off += r.size;
  }
  return out;
}

void apply_delta(AddressSpace& space, const MemDelta& delta, std::uint64_t shift) {
  std::uint64_t off = 0;
  for (const MemChunk& r : delta.ranges) {
    space.copy_in(r.addr + shift, delta.bytes.data() + off, r.size);
    off += r.size;
  }
}

}  // namespace sigvp
