#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "gpu/arch.hpp"
#include "gpu/offline.hpp"
#include "interp/launch.hpp"
#include "ir/program.hpp"
#include "mem/address_space.hpp"

namespace sigvp {

/// Monotonic counters of the process-wide launch cache. `stats()` deltas
/// are what the sweep runner reports as the BENCH JSON `cache` block.
struct LaunchCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t bypasses = 0;
  std::uint64_t bytes_replayed = 0;  // write-set bytes applied on hits
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;  // current resident entries
  std::uint64_t bytes = 0;    // current resident footprint (see LaunchCache)

  LaunchCacheStats operator-(const LaunchCacheStats& base) const {
    LaunchCacheStats d;
    d.hits = hits - base.hits;
    d.misses = misses - base.misses;
    d.bypasses = bypasses - base.bypasses;
    d.bytes_replayed = bytes_replayed - base.bytes_replayed;
    d.evictions = evictions - base.evictions;
    d.entries = entries;  // resident counts are levels, not deltas
    d.bytes = bytes;
    return d;
  }
};

/// Process-wide content-addressed memoization of functional kernel launches.
///
/// The fleet premise of the paper (ΣVP coalesces launches precisely because
/// VPs run *identical* kernels) means an N-VP scenario interprets the same
/// (kernel, dims, args, input bytes) N times. This cache executes it once,
/// records the complete outcome — KernelExecStats, DynamicProfile, and the
/// write-set (address ranges + bytes) that each chunk's ChunkObserver
/// captures during evaluate_functional — and replays the memory effects into
/// the caller's AddressSpace on every subsequent identical launch.
///
/// Key derivation (see DESIGN.md §11):
///   base key  = mix(arch fingerprint, kernel structural fingerprint
///               via interp_detail::kernel_fingerprint, launch dims,
///               bits of every argument that is not a pointer)
///   pre-image = the exact *pre-launch* bytes of every memory range the
///               launch read (reconstructed on the fill path from an undo
///               log, since reads interleave with writes), concatenated and
///               cut into kBlockBytes blocks
/// The fingerprint, the atomics flag and the pointer parameters come from
/// the engine's lowered program for the launch (Tier2Engine::program); the
/// pointer parameters are prove_translation_invariant's (a refused kernel
/// has none, so all its arguments are keyed). An entry keeps its fill-time
/// arguments. A candidate matches when every scalar is equal and every pointer moved by
/// one common shift δ, a multiple of the L2 line; the lookup then compares
/// the caller's bytes at each read range + δ with the pre-image and only
/// hits when every byte is equal — so launches with equal keys but different
/// input bytes are distinct entries in one bucket, and no chosen input can
/// alias another. A hit replays the write-set at + δ: identical VPs whose
/// buffers sit at different addresses share entries.
///
/// Pre-image blocks live in a per-cache content-addressed store. An
/// all-zero block is not stored (a null reference, validated against the
/// caller's page flags where it can be); any other block is interned, so
/// entries that read the same bytes share one copy. The store's index holds
/// weak references: a block dies with the last entry using it.
///
/// Determinism contract: a hit is byte-identical in memory and bit-identical
/// in stats/profile to recomputation for any interpreter worker count,
/// because the interpreter itself guarantees worker-independent results and
/// the write-set is captured from one such execution. The opt-in
/// SIGVP_LAUNCH_CACHE_VERIFY=1 mode re-executes every hit against a copy of
/// memory and throws ContractError on any divergence at the relocated
/// write ranges.
///
/// Bypass rules (never cached, never replayed):
///  - kFault: the device has an active FaultPlan — fault rolls and
///    injected hangs must see real executions;
///  - kAtomics: kernels with global atomics (accumulation order is
///    observable and their access stream under-reports reads).
///
/// The resident set lives only in this process. A sweep checkpoint holds
/// finished results, never entries: a resumed sweep starts with a cold
/// cache and refills it, which changes no result byte (a hit is identical
/// to recomputation).
///
/// Capacity is bounded; eviction is strict global insertion order (FIFO by
/// fill sequence, never clock- or recency-based), so the resident set after
/// any fixed launch sequence is reproducible run-to-run. Each entry is
/// charged its write-set bytes plus its nonzero pre-image bytes (counted
/// per entry, not after sharing), so eviction stays a pure function of the
/// launch stream.
class LaunchCache {
 public:
  /// Pre-images are cut into blocks of this many bytes; an entry's last
  /// block may be shorter.
  static constexpr std::uint64_t kBlockBytes = 4096;

  enum class Bypass {
    kNone,
    kFault,    // active fault plan on the device
    kAtomics,  // kernel uses global atomics (detected internally)
  };

  /// Singleton; first use reads SIGVP_LAUNCH_CACHE ("0" disables) and
  /// SIGVP_LAUNCH_CACHE_VERIFY ("1" enables recompute-and-diff on hits).
  static LaunchCache& instance();

  /// A private cache instance for one fleet domain (launch-cache sharding by
  /// VP slice, DESIGN.md §16): same environment-derived configuration as the
  /// singleton, but an independent resident set and counters, so a sharded
  /// domain's hit/miss sequence is a pure function of its own launch stream
  /// no matter how shard threads interleave.
  static std::unique_ptr<LaunchCache> create_shard();

  ~LaunchCache();  // public so create_shard() shards can be owned by callers

  /// Evaluates one functional launch through the cache: lookup → replay on
  /// hit, execute-with-capture → fill on miss, or plain execution when
  /// disabled/bypassed. `bypass` carries the caller-known reason (kFault);
  /// atomics are detected here.
  LaunchEvaluation evaluate(const GpuArch& arch, const KernelIR& kernel,
                            const LaunchDims& dims, const KernelArgs& args,
                            AddressSpace& memory, Bypass bypass = Bypass::kNone);

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  bool verify() const { return verify_; }
  void set_verify(bool on) { verify_ = on; }

  /// Bounds the resident set; evicts oldest-inserted entries first until
  /// both limits hold. Takes effect on the next fill.
  void set_capacity(std::uint64_t max_entries, std::uint64_t max_bytes);

  /// Drops every entry (stat counters keep accumulating).
  void clear();

  /// Monotonic counters + current residency, coherent snapshot.
  LaunchCacheStats stats() const;

  struct Block;
  using BlockRef = std::shared_ptr<const Block>;

  /// Content-addressed store of nonzero pre-image blocks. A block's hash
  /// only indexes it: intern shares a block after comparing its bytes. The
  /// index holds weak references, so equal bytes intern to one canonical
  /// block for as long as some entry holds it. intern takes only the
  /// store's own mutex and is never called under the cache's mutex_.
  class BlockStore {
   public:
    /// The canonical block holding the n bytes at p; null when all are zero.
    BlockRef intern(const std::uint8_t* p, std::size_t n);

   private:
    std::mutex mutex_;
    std::unordered_multimap<std::uint64_t, std::weak_ptr<const Block>> index_;
    std::size_t swept_size_ = 0;  // index size after the last sweep of dead slots
  };

 private:
  struct Entry;

  LaunchCache();  // out-of-line: Entry is incomplete here
  LaunchCache(const LaunchCache&) = delete;
  LaunchCache& operator=(const LaunchCache&) = delete;

  LaunchEvaluation execute_and_fill(const GpuArch& arch, const KernelIR& kernel,
                                    const LaunchDims& dims, const KernelArgs& args,
                                    AddressSpace& memory, std::uint64_t base_key,
                                    std::uint64_t pointer_mask);
  void verify_hit(const Entry& entry, std::uint64_t shift, const GpuArch& arch,
                  const KernelIR& kernel, const LaunchDims& dims, const KernelArgs& args,
                  const AddressSpace& memory) const;
  void insert(std::shared_ptr<const Entry> entry);

  BlockStore blocks_;

  /// One lock over the buckets, the FIFO, the residency totals and the
  /// capacity. A fleet domain's private cache is used by one thread at a
  /// time; the process cache's concurrent users hold it for a hash lookup
  /// plus a bucket copy, or for an insert with its evictions.
  mutable std::mutex mutex_;
  /// base key -> entries; one bucket holds multiple entries differing only
  /// in read-set content (key-collision safety).
  std::unordered_map<std::uint64_t, std::vector<std::shared_ptr<const Entry>>> buckets_;
  std::deque<const Entry*> fifo_;  // live entries in fill order; buckets own them
  std::uint64_t resident_entries_ = 0;
  std::uint64_t resident_bytes_ = 0;
  std::uint64_t max_entries_;
  std::uint64_t max_bytes_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> bypasses_{0};
  std::atomic<std::uint64_t> bytes_replayed_{0};
  std::atomic<std::uint64_t> evictions_{0};

  std::atomic<bool> enabled_{true};
  std::atomic<bool> verify_{false};
};

}  // namespace sigvp
