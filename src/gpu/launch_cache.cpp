#include "gpu/launch_cache.hpp"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <utility>

#include "interp/tier2.hpp"
#include "snapshot/serial.hpp"
#include "util/check.hpp"

namespace sigvp {

namespace {

// --- key derivation ----------------------------------------------------------

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  h ^= v * 0xFF51AFD7ED558CCDull;
  h = (h << 29) | (h >> 35);
  h *= 0xC4CEB9FE1A85EC53ull;
  return h;
}

std::uint64_t mix_double(std::uint64_t h, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return mix64(h, bits);
}

std::uint64_t mix_class_values(std::uint64_t h, const ClassValues& v) {
  for (double x : v.values) h = mix_double(h, x);
  return h;
}

/// Every arch parameter that feeds evaluate_functional's pricing (cost
/// model, L2 geometry, energy) — two archs with equal fingerprints produce
/// bit-identical LaunchEvaluations for the same launch.
std::uint64_t arch_fingerprint(const GpuArch& a) {
  std::uint64_t h = kMemHashSeed;
  h = mix64(h, a.num_sms);
  h = mix64(h, a.warp_width);
  h = mix64(h, a.max_threads_per_sm);
  h = mix64(h, a.max_blocks_per_sm);
  h = mix_double(h, a.clock_ghz);
  h = mix_class_values(h, a.lanes_per_sm);
  h = mix_double(h, a.block_overhead_cycles);
  h = mix_double(h, a.other_stall_fraction);
  h = mix64(h, a.l2.size_bytes);
  h = mix64(h, a.l2.line_bytes);
  h = mix64(h, a.l2.associativity);
  h = mix_double(h, a.mem_latency_cycles);
  h = mix_double(h, a.mem_bandwidth_gbps);
  h = mix_double(h, a.copy_bandwidth_gbps);
  h = mix_double(h, a.copy_latency_us);
  h = mix_double(h, a.launch_overhead_us);
  h = mix_class_values(h, a.compile_expansion);
  h = mix_double(h, a.static_power_w);
  h = mix_class_values(h, a.instr_energy_nj);
  return h;
}

bool is_pointer(std::uint64_t mask, std::size_t param) {
  return param < 64 && ((mask >> param) & 1) != 0;
}

/// Pointer arguments are left out: they locate the launch, the entry's
/// fill-time arguments and the shift rule decide whether it matches. With
/// an empty mask this is the key over every raw argument bit.
std::uint64_t base_key_of(const GpuArch& arch, std::uint64_t fingerprint, std::uint64_t mask,
                          const LaunchDims& dims, const KernelArgs& args) {
  std::uint64_t h = arch_fingerprint(arch);
  h = mix64(h, fingerprint);
  h = mix64(h, (static_cast<std::uint64_t>(dims.grid_x) << 32) | dims.grid_y);
  h = mix64(h, (static_cast<std::uint64_t>(dims.block_x) << 32) | dims.block_y);
  h = mix64(h, args.values.size());
  for (std::size_t i = 0; i < args.values.size(); ++i) {
    if (!is_pointer(mask, i)) h = mix64(h, args.values[i]);
  }
  return h;
}

/// The shift δ that maps a launch filled with `filled` arguments onto one
/// with `args`: every scalar equal and every pointer moved by one common δ,
/// a multiple of the L2 line so that each L2 set maps onto set
/// (s + δ/line) mod sets and every hit/miss stays what it was.
std::optional<std::uint64_t> relocation(std::uint64_t mask, const KernelArgs& filled,
                                        const KernelArgs& args, std::uint64_t line_bytes) {
  if (filled.values.size() != args.values.size()) return std::nullopt;
  std::optional<std::uint64_t> shift;
  for (std::size_t i = 0; i < args.values.size(); ++i) {
    const std::uint64_t d = args.values[i] - filled.values[i];
    if (!is_pointer(mask, i)) {
      if (d != 0) return std::nullopt;
    } else if (!shift) {
      shift = d;
    } else if (*shift != d) {
      return std::nullopt;
    }
  }
  const std::uint64_t delta = shift.value_or(0);
  if (static_cast<std::int64_t>(delta) % static_cast<std::int64_t>(line_bytes) != 0) {
    return std::nullopt;
  }
  return delta;
}

bool all_in_bounds(const AddressSpace& mem, const std::vector<MemChunk>& ranges,
                   std::uint64_t shift) {
  return std::all_of(ranges.begin(), ranges.end(), [&](const MemChunk& r) {
    return mem.in_bounds(r.addr + shift, r.size);
  });
}

// --- read/write-set capture --------------------------------------------------

/// Merges per-chunk interval sets into one sorted, coalesced range list.
std::vector<MemChunk> merge_ranges(const std::vector<ChunkCapture>& chunks,
                                   IntervalSet ChunkCapture::*which) {
  IntervalSet merged;
  for (const ChunkCapture& c : chunks) {
    for (const auto& [start, end] : (c.*which).raw()) {
      merged.add(start, end - start, nullptr);
    }
  }
  return merged.ranges();
}

/// Reconstructs the pre-launch bytes of `ranges` from post-launch memory
/// plus the per-chunk undo logs: start from the post bytes, then overlay
/// undo entries in reverse canonical chunk order so the earliest-recorded
/// (oldest) value of every byte wins — exactly the pre-launch value under
/// the interpreter's determinism contract.
std::vector<std::uint8_t> pre_image_of(const AddressSpace& mem,
                                       const std::vector<MemChunk>& ranges,
                                       const std::vector<ChunkCapture>& chunks) {
  std::uint64_t total = 0;
  std::vector<std::uint64_t> offsets;
  offsets.reserve(ranges.size());
  for (const MemChunk& r : ranges) {
    offsets.push_back(total);
    total += r.size;
  }
  std::vector<std::uint8_t> bytes(total);
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    mem.copy_out(bytes.data() + offsets[i], ranges[i].addr, ranges[i].size);
  }
  for (std::size_t c = chunks.size(); c-- > 0;) {
    const ChunkCapture& cap = chunks[c];
    std::uint64_t undo_off = 0;
    for (const MemChunk& u : cap.undo_ranges) {
      // Overlay u ∩ each read range (ranges are sorted and disjoint).
      auto it = std::upper_bound(ranges.begin(), ranges.end(), u.addr,
                                 [](std::uint64_t a, const MemChunk& r) { return a < r.end(); });
      for (; it != ranges.end() && it->addr < u.end(); ++it) {
        const std::uint64_t lo = std::max(u.addr, it->addr);
        const std::uint64_t hi = std::min(u.end(), it->end());
        const std::size_t ri = static_cast<std::size_t>(it - ranges.begin());
        std::memcpy(bytes.data() + offsets[ri] + (lo - it->addr),
                    cap.undo_bytes.data() + undo_off + (lo - u.addr), hi - lo);
      }
      undo_off += u.size;
    }
    SIGVP_ASSERT(undo_off == cap.undo_bytes.size(), "undo log ranges/bytes out of sync");
  }
  return bytes;
}

bool all_zero(const std::uint8_t* p, std::size_t n) {
  return p[0] == 0 && std::memcmp(p, p + 1, n - 1) == 0;
}

bool env_flag(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return !(v[0] == '0' && v[1] == '\0');
}

}  // namespace

// --- cache structure ---------------------------------------------------------

struct LaunchCache::Block {
  std::vector<std::uint8_t> bytes;  // kBlockBytes, fewer only at an entry's end
};

struct LaunchCache::Entry {
  std::uint64_t base_key = 0;
  std::uint64_t pointer_mask = 0;     // of the kernel, as proved at fill time
  KernelArgs args;                    // fill-time arguments: the ranges' frame
  std::vector<MemChunk> read_ranges;  // sorted, coalesced
  /// Pre-launch content of read_ranges, concatenated and cut into
  /// kBlockBytes blocks; a null block holds only zeros.
  std::vector<BlockRef> pre_image;
  KernelExecStats stats;
  DynamicProfile profile;
  MemDelta writes;  // post-launch content of the write-set
  std::uint64_t footprint = 0;

  /// True when `mem` holds the pre-image at every read range + `shift`
  /// (all in bounds): a byte compare per block piece, and for a null block
  /// a zero check that skips the caller's unmarked pages.
  bool matches(const AddressSpace& mem, std::uint64_t shift) const {
    std::uint64_t off = 0;  // offset into the concatenated pre-image
    for (const MemChunk& r : read_ranges) {
      for (std::uint64_t done = 0; done < r.size;) {
        const Block* block = pre_image[off / kBlockBytes].get();
        const std::uint64_t in = off % kBlockBytes;
        const std::uint64_t n = std::min(r.size - done, kBlockBytes - in);
        const std::uint64_t addr = r.addr + shift + done;
        if (block == nullptr ? !mem.is_zero(addr, n)
                             : !mem.equals(addr, block->bytes.data() + in, n)) {
          return false;
        }
        done += n;
        off += n;
      }
    }
    return true;
  }

  /// The persisted field list (export_state, import_state). `block_ids`
  /// stands in for pre_image: a block's position in the export's block
  /// table + 1, or 0 for an all-zero block.
  template <typename IO>
  static void fields(IO& io, snapshot::Rec<IO, Entry>& e,
                     snapshot::Rec<IO, std::vector<std::uint64_t>>& block_ids) {
    io(e.base_key, e.pointer_mask, e.args.values, e.read_ranges, block_ids, e.stats, e.profile,
       e.writes.ranges, e.writes.bytes);
  }

  /// Write-set and nonzero pre-image bytes plus a fixed cost per range.
  /// Shared blocks are charged to every entry holding them, so the charge
  /// depends on the entry alone.
  void set_footprint() {
    footprint = writes.total_bytes() + 64 * (read_ranges.size() + writes.ranges.size());
    for (const BlockRef& b : pre_image) footprint += b ? b->bytes.size() : 0;
  }
};

LaunchCache::BlockRef LaunchCache::BlockStore::intern(const std::uint8_t* p, std::size_t n) {
  if (all_zero(p, n)) return nullptr;
  const std::uint64_t hash = mem_hash_bytes(p, n, kMemHashSeed);
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, end] = index_.equal_range(hash);
  while (it != end) {
    if (BlockRef b = it->second.lock()) {
      if (b->bytes.size() == n && std::memcmp(b->bytes.data(), p, n) == 0) return b;
      ++it;
    } else {
      it = index_.erase(it);
    }
  }
  auto block = std::make_shared<Block>();
  block->bytes.assign(p, p + n);
  index_.emplace(hash, block);
  // Slots of blocks that died with their entries are dropped in bulk once
  // the index has doubled since the last sweep: amortized O(1) per intern.
  if (index_.size() >= 2 * std::max<std::size_t>(swept_size_, 1024)) {
    std::erase_if(index_, [](const auto& slot) { return slot.second.expired(); });
    swept_size_ = index_.size();
  }
  return block;
}

namespace {
constexpr std::uint64_t kDefaultMaxEntries = 1024;
constexpr std::uint64_t kDefaultMaxBytes = 512ull << 20;  // resident footprint bytes
}  // namespace

LaunchCache::LaunchCache() : max_entries_(kDefaultMaxEntries), max_bytes_(kDefaultMaxBytes) {
  enabled_ = env_flag("SIGVP_LAUNCH_CACHE", true);
  verify_ = env_flag("SIGVP_LAUNCH_CACHE_VERIFY", false);
}

LaunchCache::~LaunchCache() = default;

LaunchCache& LaunchCache::instance() {
  static LaunchCache cache;
  return cache;
}

std::unique_ptr<LaunchCache> LaunchCache::create_shard() {
  return std::unique_ptr<LaunchCache>(new LaunchCache());
}

void LaunchCache::set_capacity(std::uint64_t max_entries, std::uint64_t max_bytes) {
  SIGVP_REQUIRE(max_entries > 0 && max_bytes > 0, "launch cache capacity must be positive");
  std::lock_guard<std::mutex> lock(mutex_);
  max_entries_ = max_entries;
  max_bytes_ = max_bytes;
}

void LaunchCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  buckets_.clear();
  fifo_.clear();
  resident_entries_ = 0;
  resident_bytes_ = 0;
}

LaunchCacheStats LaunchCache::stats() const {
  LaunchCacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.bypasses = bypasses_.load(std::memory_order_relaxed);
  out.bytes_replayed = bytes_replayed_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  out.entries = resident_entries_;
  out.bytes = resident_bytes_;
  return out;
}

LaunchEvaluation LaunchCache::evaluate(const GpuArch& arch, const KernelIR& kernel,
                                       const LaunchDims& dims, const KernelArgs& args,
                                       AddressSpace& memory, Bypass bypass) {
  if (!enabled_.load(std::memory_order_relaxed)) {
    // Disabled: the plain path, not a counted bypass — zero-hit runs stay
    // byte-identical to a build without the cache.
    return evaluate_functional(arch, kernel, dims, args, memory);
  }
  // The engine's program carries the kernel's fingerprint, atomics flag and
  // pointer mask; a miss runs that same program.
  const std::shared_ptr<const interp_detail::Tier2Program> prog =
      Tier2Engine::instance().program(kernel, dims.threads_per_block());
  if (bypass == Bypass::kNone && prog->has_global_atomics) bypass = Bypass::kAtomics;
  if (bypass != Bypass::kNone) {
    bypasses_.fetch_add(1, std::memory_order_relaxed);
    LaunchEvaluation out = evaluate_functional(arch, kernel, dims, args, memory);
    out.cache = LaunchCacheOutcome::kBypass;
    return out;
  }

  const std::uint64_t mask = prog->pointer_mask;
  const std::uint64_t base_key = base_key_of(arch, prog->fingerprint, mask, dims, args);

  // Copy the bucket under the lock, validate outside it: comparing read
  // sets with caller memory can be expensive, and entries (and the blocks
  // they hold) are immutable shared_ptrs, so a concurrent eviction cannot
  // free them mid-validate.
  std::vector<std::shared_ptr<const Entry>> candidates;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = buckets_.find(base_key);
    if (it != buckets_.end()) candidates = it->second;
  }
  for (const std::shared_ptr<const Entry>& e : candidates) {
    if (e->pointer_mask != mask) continue;
    const std::optional<std::uint64_t> shift =
        relocation(mask, e->args, args, arch.l2.line_bytes);
    if (!shift || !all_in_bounds(memory, e->read_ranges, *shift) ||
        !all_in_bounds(memory, e->writes.ranges, *shift) || !e->matches(memory, *shift)) {
      continue;
    }

    if (verify_.load(std::memory_order_relaxed)) {
      verify_hit(*e, *shift, arch, kernel, dims, args, memory);
    }
    apply_delta(memory, e->writes, *shift);
    hits_.fetch_add(1, std::memory_order_relaxed);
    bytes_replayed_.fetch_add(e->writes.total_bytes(), std::memory_order_relaxed);
    LaunchEvaluation out;
    out.stats = e->stats;
    out.profile = e->profile;
    out.cache = LaunchCacheOutcome::kHit;
    return out;
  }

  misses_.fetch_add(1, std::memory_order_relaxed);
  LaunchEvaluation out = execute_and_fill(arch, kernel, dims, args, memory, base_key, mask);
  out.cache = LaunchCacheOutcome::kMiss;
  return out;
}

LaunchEvaluation LaunchCache::execute_and_fill(const GpuArch& arch, const KernelIR& kernel,
                                               const LaunchDims& dims, const KernelArgs& args,
                                               AddressSpace& memory, std::uint64_t base_key,
                                               std::uint64_t pointer_mask) {
  std::vector<ChunkCapture> capture;
  LaunchEvaluation out = evaluate_functional(arch, kernel, dims, args, memory, &capture);

  auto entry = std::make_shared<Entry>();
  entry->base_key = base_key;
  entry->pointer_mask = pointer_mask;
  entry->args = args;
  entry->read_ranges = merge_ranges(capture, &ChunkCapture::reads);
  const std::vector<std::uint8_t> image = pre_image_of(memory, entry->read_ranges, capture);
  for (std::uint64_t off = 0; off < image.size(); off += kBlockBytes) {
    const std::uint64_t n = std::min<std::uint64_t>(kBlockBytes, image.size() - off);
    entry->pre_image.push_back(blocks_.intern(image.data() + off, n));
  }
  entry->stats = out.stats;
  entry->profile = out.profile;
  entry->writes = extract_delta(memory, merge_ranges(capture, &ChunkCapture::writes));
  entry->set_footprint();
  insert(std::move(entry));
  return out;
}

void LaunchCache::insert(std::shared_ptr<const Entry> entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<const Entry>>& bucket = buckets_[entry->base_key];
  for (const std::shared_ptr<const Entry>& e : bucket) {
    // Interned blocks are canonical, so equal pre-images hold equal block
    // pointers.
    if (e->args == entry->args && e->read_ranges == entry->read_ranges &&
        e->pre_image == entry->pre_image) {
      return;  // a concurrent miss on the same launch already filled it
    }
  }
  fifo_.push_back(entry.get());
  resident_entries_ += 1;
  resident_bytes_ += entry->footprint;
  bucket.push_back(std::move(entry));

  while (resident_entries_ > 0 &&
         (resident_entries_ > max_entries_ || resident_bytes_ > max_bytes_)) {
    SIGVP_ASSERT(!fifo_.empty(), "launch cache FIFO out of sync");
    const Entry* victim = fifo_.front();
    fifo_.pop_front();
    auto it = buckets_.find(victim->base_key);
    SIGVP_ASSERT(it != buckets_.end(), "launch cache victim bucket missing");
    auto& victims = it->second;
    auto pos = std::find_if(victims.begin(), victims.end(),
                            [&](const std::shared_ptr<const Entry>& e) {
                              return e.get() == victim;
                            });
    SIGVP_ASSERT(pos != victims.end(), "launch cache victim entry missing");
    resident_entries_ -= 1;
    resident_bytes_ -= (*pos)->footprint;
    victims.erase(pos);
    if (victims.empty()) buckets_.erase(it);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

// --- checkpoint export/import ------------------------------------------------

namespace snapshot {

template <typename IO>
void fields(IO& io, Rec<IO, MemChunk>& c) {
  io(c.addr, c.size);
}

template <typename IO>
void fields(IO& io, Rec<IO, ClassCounts>& c) {
  io(c.counts);
}

template <typename IO>
void fields(IO& io, Rec<IO, CacheStats>& c) {
  io(c.accesses, c.hits, c.misses);
}

template <typename IO>
void fields(IO& io, Rec<IO, KernelExecStats>& s) {
  io(s.sigma, s.num_blocks, s.serial_blocks, s.issue_cycles, s.block_overhead_cycles,
     s.stall_cycles_data, s.stall_cycles_other, s.total_cycles, s.duration_us,
     s.dynamic_energy_j, s.cache);
}

template <typename IO>
void fields(IO& io, Rec<IO, DynamicProfile>& p) {
  io(p.block_visits, p.instr_counts, p.global_load_bytes, p.global_store_bytes,
     p.barriers_waited, p.sfu_instrs, p.sqrt_instrs);
}

}  // namespace snapshot

void LaunchCache::export_state(snapshot::Writer& w) const {
  // Holding mutex_ pins every resident entry: insert and evict take it too,
  // so the FIFO's raw pointers stay valid for the whole walk.
  std::lock_guard<std::mutex> lock(mutex_);
  // Each distinct nonzero block once, in first-use order; an entry refers
  // to its blocks by table position + 1, and to an all-zero block by 0.
  std::unordered_map<const Block*, std::uint64_t> ids;
  std::vector<const Block*> table;
  for (const Entry* e : fifo_) {
    for (const BlockRef& b : e->pre_image) {
      if (b && ids.emplace(b.get(), table.size() + 1).second) table.push_back(b.get());
    }
  }
  w.u64(table.size());
  for (const Block* b : table) w.byte_vec(b->bytes);
  w(resident_entries_);
  std::vector<std::uint64_t> block_ids;
  for (const Entry* e : fifo_) {
    block_ids.clear();
    for (const BlockRef& b : e->pre_image) block_ids.push_back(b ? ids.at(b.get()) : 0);
    Entry::fields(w, *e, block_ids);
  }
}

void LaunchCache::import_state(snapshot::Reader& r) {
  auto total_size = [](const std::vector<MemChunk>& ranges) {
    std::uint64_t total = 0;
    for (const MemChunk& c : ranges) total += c.size;
    return total;
  };
  std::vector<BlockRef> table = {nullptr};  // id 0: the all-zero block
  for (std::uint64_t i = r.u64(); i > 0; --i) {
    const std::vector<std::uint8_t> bytes = r.byte_vec();
    if (bytes.empty() || bytes.size() > kBlockBytes) {
      throw snapshot::SnapshotError("launch cache: pre-image block of bad size");
    }
    table.push_back(blocks_.intern(bytes.data(), bytes.size()));
  }
  const std::uint64_t n = r.u64();
  std::vector<std::uint64_t> block_ids;
  for (std::uint64_t i = 0; i < n; ++i) {
    auto entry = std::make_shared<Entry>();
    Entry::fields(r, *entry, block_ids);
    const std::uint64_t read_bytes = total_size(entry->read_ranges);
    if (block_ids.size() != (read_bytes + kBlockBytes - 1) / kBlockBytes) {
      throw snapshot::SnapshotError("launch cache entry: pre-image does not cover the read set");
    }
    for (std::uint64_t b = 0; b < block_ids.size(); ++b) {
      const std::uint64_t id = block_ids[b];
      const std::uint64_t size = std::min(kBlockBytes, read_bytes - b * kBlockBytes);
      if (id >= table.size() || (table[id] && table[id]->bytes.size() != size)) {
        throw snapshot::SnapshotError("launch cache entry: bad pre-image block reference");
      }
      entry->pre_image.push_back(table[id]);
    }
    if (entry->writes.total_bytes() != total_size(entry->writes.ranges)) {
      throw snapshot::SnapshotError("launch cache entry: write-set ranges/bytes out of sync");
    }
    entry->set_footprint();
    insert(std::move(entry));  // re-takes fifo order, dedups duplicates
  }
}

void LaunchCache::verify_hit(const Entry& entry, std::uint64_t shift, const GpuArch& arch,
                             const KernelIR& kernel, const LaunchDims& dims,
                             const KernelArgs& args, const AddressSpace& memory) const {
  // Re-execute against a copy of the caller's memory and demand bit-for-bit
  // agreement with the stored outcome, at the ranges the hit replays to.
  // Opt-in (SIGVP_LAUNCH_CACHE_VERIFY=1): the copy proves replay ==
  // recompute without disturbing the caller, and it copies only the pages
  // the caller has touched.
  AddressSpace scratch = memory;
  LaunchEvaluation fresh = evaluate_functional(arch, kernel, dims, args, scratch);
  SIGVP_REQUIRE(fresh.stats == entry.stats,
                kernel.name + ": launch cache verify: stats diverge from recomputation");
  SIGVP_REQUIRE(fresh.profile == entry.profile,
                kernel.name + ": launch cache verify: profile diverges from recomputation");
  std::vector<MemChunk> ranges = entry.writes.ranges;
  for (MemChunk& r : ranges) r.addr += shift;
  const MemDelta recomputed = extract_delta(scratch, std::move(ranges));
  SIGVP_REQUIRE(recomputed.bytes == entry.writes.bytes,
                kernel.name + ": launch cache verify: write-set bytes diverge");
}

}  // namespace sigvp
