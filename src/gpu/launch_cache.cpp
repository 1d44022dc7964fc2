#include "gpu/launch_cache.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <utility>

#include "gpu/cache.hpp"
#include "interp/decoded.hpp"
#include "interp/interpreter.hpp"
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

std::uint64_t base_key_of(const GpuArch& arch, const KernelIR& kernel,
                          const LaunchDims& dims, const KernelArgs& args) {
  std::uint64_t h = arch_fingerprint(arch);
  h = mix64(h, interp_detail::kernel_fingerprint(kernel));
  h = mix64(h, (static_cast<std::uint64_t>(dims.grid_x) << 32) | dims.grid_y);
  h = mix64(h, (static_cast<std::uint64_t>(dims.block_x) << 32) | dims.block_y);
  h = mix64(h, args.values.size());
  for (std::uint64_t v : args.values) h = mix64(h, v);
  return h;
}

// --- read/write-set capture --------------------------------------------------

/// Ordered, coalesced set of [start, end) byte intervals. add() reports the
/// previously-uncovered gaps so the store path can snapshot pre-store bytes
/// exactly once per byte (first-write-wins undo log).
class IntervalSet {
 public:
  void add(std::uint64_t addr, std::uint64_t size, std::vector<MemChunk>* gaps) {
    if (size == 0) return;
    const std::uint64_t end = addr + size;
    auto it = map_.upper_bound(addr);
    if (it != map_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= addr) it = prev;
    }
    // Fast path: the whole range is already covered (repeated access
    // patterns — by far the common case after the first block).
    if (it != map_.end() && it->first <= addr && it->second >= end) return;
    std::uint64_t new_start = addr;
    std::uint64_t new_end = end;
    std::uint64_t cursor = addr;
    while (it != map_.end() && it->first <= end) {
      if (gaps && it->first > cursor) gaps->push_back({cursor, it->first - cursor});
      cursor = std::max(cursor, it->second);
      new_start = std::min(new_start, it->first);
      new_end = std::max(new_end, it->second);
      it = map_.erase(it);
    }
    if (gaps && cursor < end) gaps->push_back({cursor, end - cursor});
    map_.emplace(new_start, new_end);
  }

  std::vector<MemChunk> ranges() const {
    std::vector<MemChunk> out;
    out.reserve(map_.size());
    for (const auto& [start, end] : map_) out.push_back({start, end - start});
    return out;
  }

  const std::map<std::uint64_t, std::uint64_t>& raw() const { return map_; }

 private:
  std::map<std::uint64_t, std::uint64_t> map_;  // start -> end
};

/// Per-canonical-chunk capture state; chunk-private, so recording needs no
/// synchronization even when chunks run on different interpreter workers.
struct ChunkCapture {
  IntervalSet reads;
  IntervalSet writes;
  /// Pre-store bytes of each byte this chunk wrote, first write wins:
  /// `undo_ranges[i]` holds bytes at offset Σ size of earlier ranges.
  std::vector<MemChunk> undo_ranges;
  std::vector<std::uint8_t> undo_bytes;
  std::vector<MemChunk> gap_scratch;
};

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

/// Chained content hash over `ranges` of `mem` — the validation-time side.
/// Range addresses are folded in too, so the chain is well-defined even for
/// an empty read-set.
std::uint64_t hash_ranges_in(const AddressSpace& mem, const std::vector<MemChunk>& ranges) {
  std::uint64_t h = kMemHashSeed;
  for (const MemChunk& r : ranges) {
    h = mix64(h, r.addr);
    h = mem.hash_range(r.addr, r.size, h);
  }
  return h;
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

/// Fill-time twin of hash_ranges_in, over the reconstructed pre-image
/// buffer. Byte-for-byte the same chain: per range, fold the address, then
/// hash the range's bytes as one contiguous call.
std::uint64_t hash_ranges_buf(const std::vector<MemChunk>& ranges,
                              const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = kMemHashSeed;
  std::uint64_t off = 0;
  for (const MemChunk& r : ranges) {
    h = mix64(h, r.addr);
    h = mem_hash_bytes(bytes.data() + off, r.size, h);
    off += r.size;
  }
  return h;
}

bool profiles_equal(const DynamicProfile& a, const DynamicProfile& b) {
  return a.block_visits == b.block_visits && a.instr_counts == b.instr_counts &&
         a.global_load_bytes == b.global_load_bytes &&
         a.global_store_bytes == b.global_store_bytes &&
         a.barriers_waited == b.barriers_waited && a.sfu_instrs == b.sfu_instrs &&
         a.sqrt_instrs == b.sqrt_instrs;
}

bool stats_equal(const KernelExecStats& a, const KernelExecStats& b) {
  return a.sigma == b.sigma && a.num_blocks == b.num_blocks &&
         a.serial_blocks == b.serial_blocks && a.issue_cycles == b.issue_cycles &&
         a.block_overhead_cycles == b.block_overhead_cycles &&
         a.stall_cycles_data == b.stall_cycles_data &&
         a.stall_cycles_other == b.stall_cycles_other && a.total_cycles == b.total_cycles &&
         a.duration_us == b.duration_us && a.dynamic_energy_j == b.dynamic_energy_j &&
         a.cache.accesses == b.cache.accesses && a.cache.hits == b.cache.hits &&
         a.cache.misses == b.cache.misses;
}

bool env_flag(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return !(v[0] == '0' && v[1] == '\0');
}

}  // namespace

// --- cache structure ---------------------------------------------------------

struct LaunchCache::Entry {
  std::uint64_t base_key = 0;
  std::vector<MemChunk> read_ranges;  // sorted, coalesced
  std::uint64_t input_hash = 0;       // pre-launch content of read_ranges
  KernelExecStats stats;
  DynamicProfile profile;
  MemDelta writes;  // post-launch content of the write-set
  std::uint64_t footprint = 0;
};

struct LaunchCache::Shard {
  std::mutex mutex;
  /// base key -> entries; one bucket holds multiple entries differing only
  /// in read-set content (key-collision safety).
  std::unordered_map<std::uint64_t, std::vector<std::shared_ptr<const Entry>>> buckets;
};

namespace {
constexpr std::uint64_t kDefaultMaxEntries = 1024;
constexpr std::uint64_t kDefaultMaxBytes = 512ull << 20;  // resident write-set bytes
}  // namespace

LaunchCache::LaunchCache()
    : shards_(kNumShards), max_entries_(kDefaultMaxEntries), max_bytes_(kDefaultMaxBytes) {
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
  std::lock_guard<std::mutex> lock(fifo_mutex_);
  max_entries_ = max_entries;
  max_bytes_ = max_bytes;
}

void LaunchCache::clear() {
  std::lock_guard<std::mutex> fifo_lock(fifo_mutex_);
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    s.buckets.clear();
  }
  fifo_.clear();
  fifo_head_ = 0;
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
  std::lock_guard<std::mutex> lock(fifo_mutex_);
  out.entries = resident_entries_;
  out.bytes = resident_bytes_;
  return out;
}

LaunchEvaluation LaunchCache::evaluate(const GpuArch& arch, const KernelIR& kernel,
                                       const LaunchDims& dims, const KernelArgs& args,
                                       AddressSpace& memory, Bypass bypass,
                                       const ObserverFactory& observer) {
  if (observer) bypass = Bypass::kHook;
  if (!enabled_.load(std::memory_order_relaxed)) {
    // Disabled: the plain path, not a counted bypass — zero-hit runs stay
    // byte-identical to a build without the cache.
    return evaluate_functional(arch, kernel, dims, args, memory, observer);
  }
  if (bypass == Bypass::kNone && Interpreter::uses_global_atomics(kernel)) {
    bypass = Bypass::kAtomics;
  }
  if (bypass != Bypass::kNone) {
    bypasses_.fetch_add(1, std::memory_order_relaxed);
    LaunchEvaluation out = evaluate_functional(arch, kernel, dims, args, memory, observer);
    out.cache = LaunchCacheOutcome::kBypass;
    return out;
  }

  const std::uint64_t base_key = base_key_of(arch, kernel, dims, args);
  const std::size_t shard_idx = (base_key >> 58) % kNumShards;
  Shard& shard = shards_[shard_idx];

  // Snapshot the bucket under the shard lock, validate outside it: read-set
  // hashing over caller memory can be expensive, and entries are immutable
  // shared_ptrs so a concurrent eviction cannot free them mid-validate.
  std::vector<std::shared_ptr<const Entry>> candidates;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.buckets.find(base_key);
    if (it != shard.buckets.end()) candidates = it->second;
  }
  for (const std::shared_ptr<const Entry>& e : candidates) {
    bool fits = true;
    for (const MemChunk& r : e->read_ranges) {
      if (!memory.in_bounds(r.addr, r.size)) {
        fits = false;
        break;
      }
    }
    for (const MemChunk& r : e->writes.ranges) {
      if (!fits || !memory.in_bounds(r.addr, r.size)) {
        fits = false;
        break;
      }
    }
    if (!fits || hash_ranges_in(memory, e->read_ranges) != e->input_hash) continue;

    if (verify_.load(std::memory_order_relaxed)) {
      verify_hit(*e, arch, kernel, dims, args, memory);
    }
    apply_delta(memory, e->writes);
    hits_.fetch_add(1, std::memory_order_relaxed);
    bytes_replayed_.fetch_add(e->writes.total_bytes(), std::memory_order_relaxed);
    LaunchEvaluation out;
    out.stats = e->stats;
    out.profile = e->profile;
    out.cache = LaunchCacheOutcome::kHit;
    return out;
  }

  misses_.fetch_add(1, std::memory_order_relaxed);
  LaunchEvaluation out = execute_and_fill(arch, kernel, dims, args, memory, base_key);
  out.cache = LaunchCacheOutcome::kMiss;
  return out;
}

LaunchEvaluation LaunchCache::execute_and_fill(const GpuArch& arch, const KernelIR& kernel,
                                               const LaunchDims& dims, const KernelArgs& args,
                                               AddressSpace& memory, std::uint64_t base_key) {
  const std::size_t chunks = Interpreter::canonical_chunks(dims);
  std::vector<ChunkCapture> capture(chunks);
  AddressSpace* mem = &memory;
  ObserverFactory recorder = [&capture, mem](std::size_t chunk) -> MemAccessHook {
    ChunkCapture* cap = &capture[chunk];
    return [cap, mem](std::uint64_t addr, std::uint32_t bytes, bool is_store) {
      if (!is_store) {
        cap->reads.add(addr, bytes, nullptr);
        return;
      }
      cap->gap_scratch.clear();
      cap->writes.add(addr, bytes, &cap->gap_scratch);
      for (const MemChunk& gap : cap->gap_scratch) {
        // The hook fires before the store, so memory still holds the
        // pre-store bytes of every not-yet-written gap.
        cap->undo_ranges.push_back(gap);
        const std::size_t off = cap->undo_bytes.size();
        cap->undo_bytes.resize(off + gap.size);
        mem->copy_out(cap->undo_bytes.data() + off, gap.addr, gap.size);
      }
    };
  };

  LaunchEvaluation out = evaluate_functional(arch, kernel, dims, args, memory, recorder);

  auto entry = std::make_shared<Entry>();
  entry->base_key = base_key;
  entry->read_ranges = merge_ranges(capture, &ChunkCapture::reads);
  entry->input_hash =
      hash_ranges_buf(entry->read_ranges, pre_image_of(memory, entry->read_ranges, capture));
  entry->stats = out.stats;
  entry->profile = out.profile;
  entry->writes = extract_delta(memory, merge_ranges(capture, &ChunkCapture::writes));
  entry->footprint = entry->writes.total_bytes() +
                     64 * (entry->read_ranges.size() + entry->writes.ranges.size());
  insert(base_key, std::move(entry));
  return out;
}

void LaunchCache::insert(std::uint64_t base_key, std::shared_ptr<const Entry> entry) {
  const std::size_t shard_idx = (base_key >> 58) % kNumShards;
  // Lock order everywhere: fifo_mutex_ first, then one shard mutex at a
  // time — fills and evictions serialize on the FIFO, lookups only touch
  // shard locks.
  std::lock_guard<std::mutex> fifo_lock(fifo_mutex_);
  {
    Shard& shard = shards_[shard_idx];
    std::lock_guard<std::mutex> lock(shard.mutex);
    std::vector<std::shared_ptr<const Entry>>& bucket = shard.buckets[base_key];
    for (const std::shared_ptr<const Entry>& e : bucket) {
      if (e->input_hash == entry->input_hash && e->read_ranges == entry->read_ranges) {
        return;  // a concurrent miss on the same launch already filled it
      }
    }
    bucket.push_back(entry);
  }
  fifo_.push_back({base_key, shard_idx, entry.get()});
  resident_entries_ += 1;
  resident_bytes_ += entry->footprint;

  while (resident_entries_ > 0 &&
         (resident_entries_ > max_entries_ || resident_bytes_ > max_bytes_)) {
    SIGVP_ASSERT(fifo_head_ < fifo_.size(), "launch cache FIFO out of sync");
    const FifoRef victim = fifo_[fifo_head_++];
    Shard& shard = shards_[victim.shard];
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.buckets.find(victim.base_key);
    SIGVP_ASSERT(it != shard.buckets.end(), "launch cache victim bucket missing");
    auto& bucket = it->second;
    auto pos = std::find_if(bucket.begin(), bucket.end(),
                            [&](const std::shared_ptr<const Entry>& e) {
                              return e.get() == victim.entry;
                            });
    SIGVP_ASSERT(pos != bucket.end(), "launch cache victim entry missing");
    resident_entries_ -= 1;
    resident_bytes_ -= (*pos)->footprint;
    bucket.erase(pos);
    if (bucket.empty()) shard.buckets.erase(it);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  // Compact the FIFO once the dead prefix dominates.
  if (fifo_head_ > 64 && fifo_head_ * 2 > fifo_.size()) {
    fifo_.erase(fifo_.begin(), fifo_.begin() + static_cast<std::ptrdiff_t>(fifo_head_));
    fifo_head_ = 0;
  }
}

// --- checkpoint export/import ------------------------------------------------

namespace {

void save_chunks(snapshot::Writer& w, const std::vector<MemChunk>& ranges) {
  w.u64(ranges.size());
  for (const MemChunk& r : ranges) {
    w.u64(r.addr);
    w.u64(r.size);
  }
}

std::vector<MemChunk> load_chunks(snapshot::Reader& r) {
  const std::uint64_t n = r.u64();
  std::vector<MemChunk> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    MemChunk c;
    c.addr = r.u64();
    c.size = r.u64();
    out.push_back(c);
  }
  return out;
}

void save_class_counts(snapshot::Writer& w, const ClassCounts& c) {
  w.u64(c.counts.size());
  for (std::uint64_t v : c.counts) w.u64(v);
}

void load_class_counts(snapshot::Reader& r, ClassCounts& c) {
  const std::uint64_t n = r.u64();
  if (n != c.counts.size()) {
    throw snapshot::SnapshotError("launch cache entry: instruction class count mismatch");
  }
  for (auto& v : c.counts) v = r.u64();
}

void save_stats(snapshot::Writer& w, const KernelExecStats& s) {
  save_class_counts(w, s.sigma);
  w.u64(s.num_blocks);
  w.u64(s.serial_blocks);
  w.f64(s.issue_cycles);
  w.f64(s.block_overhead_cycles);
  w.f64(s.stall_cycles_data);
  w.f64(s.stall_cycles_other);
  w.f64(s.total_cycles);
  w.f64(s.duration_us);
  w.f64(s.dynamic_energy_j);
  w.u64(s.cache.accesses);
  w.u64(s.cache.hits);
  w.u64(s.cache.misses);
}

void load_stats(snapshot::Reader& r, KernelExecStats& s) {
  load_class_counts(r, s.sigma);
  s.num_blocks = r.u64();
  s.serial_blocks = r.u64();
  s.issue_cycles = r.f64();
  s.block_overhead_cycles = r.f64();
  s.stall_cycles_data = r.f64();
  s.stall_cycles_other = r.f64();
  s.total_cycles = r.f64();
  s.duration_us = r.f64();
  s.dynamic_energy_j = r.f64();
  s.cache.accesses = r.u64();
  s.cache.hits = r.u64();
  s.cache.misses = r.u64();
}

void save_profile(snapshot::Writer& w, const DynamicProfile& p) {
  w.u64_vec(p.block_visits);
  save_class_counts(w, p.instr_counts);
  w.u64(p.global_load_bytes);
  w.u64(p.global_store_bytes);
  w.u64(p.barriers_waited);
  w.u64(p.sfu_instrs);
  w.u64(p.sqrt_instrs);
}

void load_profile(snapshot::Reader& r, DynamicProfile& p) {
  p.block_visits = r.u64_vec();
  load_class_counts(r, p.instr_counts);
  p.global_load_bytes = r.u64();
  p.global_store_bytes = r.u64();
  p.barriers_waited = r.u64();
  p.sfu_instrs = r.u64();
  p.sqrt_instrs = r.u64();
}

}  // namespace

void LaunchCache::export_state(snapshot::Writer& w) const {
  // Holding fifo_mutex_ pins every resident entry: insert/evict also take
  // it first, so the raw FifoRef pointers stay valid for the whole walk.
  std::lock_guard<std::mutex> lock(fifo_mutex_);
  w.u64(resident_entries_);
  for (std::size_t i = fifo_head_; i < fifo_.size(); ++i) {
    const Entry& e = *fifo_[i].entry;
    w.u64(e.base_key);
    save_chunks(w, e.read_ranges);
    w.u64(e.input_hash);
    save_stats(w, e.stats);
    save_profile(w, e.profile);
    save_chunks(w, e.writes.ranges);
    w.byte_vec(e.writes.bytes);
    w.u64(e.footprint);
  }
}

void LaunchCache::import_state(snapshot::Reader& r) {
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    auto entry = std::make_shared<Entry>();
    entry->base_key = r.u64();
    entry->read_ranges = load_chunks(r);
    entry->input_hash = r.u64();
    load_stats(r, entry->stats);
    load_profile(r, entry->profile);
    entry->writes.ranges = load_chunks(r);
    entry->writes.bytes = r.byte_vec();
    if (entry->writes.total_bytes() !=
        [&] {
          std::uint64_t total = 0;
          for (const MemChunk& c : entry->writes.ranges) total += c.size;
          return total;
        }()) {
      throw snapshot::SnapshotError("launch cache entry: write-set ranges/bytes out of sync");
    }
    entry->footprint = r.u64();
    const std::uint64_t key = entry->base_key;
    insert(key, std::move(entry));  // re-takes fifo order, dedups duplicates
  }
}

void LaunchCache::verify_hit(const Entry& entry, const GpuArch& arch, const KernelIR& kernel,
                             const LaunchDims& dims, const KernelArgs& args,
                             const AddressSpace& memory) const {
  // Re-execute against a copy of the caller's memory and demand bit-for-bit
  // agreement with the stored outcome. Opt-in (SIGVP_LAUNCH_CACHE_VERIFY=1):
  // copying the whole space per hit is the point — it proves replay ==
  // recompute without disturbing the caller.
  AddressSpace scratch = memory;
  LaunchEvaluation fresh = evaluate_functional(arch, kernel, dims, args, scratch, nullptr);
  SIGVP_REQUIRE(stats_equal(fresh.stats, entry.stats),
                kernel.name + ": launch cache verify: stats diverge from recomputation");
  SIGVP_REQUIRE(profiles_equal(fresh.profile, entry.profile),
                kernel.name + ": launch cache verify: profile diverges from recomputation");
  const MemDelta recomputed = extract_delta(scratch, entry.writes.ranges);
  SIGVP_REQUIRE(recomputed.bytes == entry.writes.bytes,
                kernel.name + ": launch cache verify: write-set bytes diverge");
}

}  // namespace sigvp
