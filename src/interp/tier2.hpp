#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "interp/superinst.hpp"

namespace sigvp {

/// Process-wide engine counters. All fields except `lowered_entries` are
/// monotonically increasing totals; `lowered_entries` is the current level
/// of the program cache. `operator-` yields a delta (levels pass through),
/// mirroring LaunchCacheStats.
///
/// Every count is a pure function of the sim-domain launch stream, so two
/// runs of the same fleet produce identical deltas at any `--workers`.
struct Tier2Stats {
  std::uint64_t launches_tier2 = 0;    ///< launches executed (every launch)
  std::uint64_t launches_warming = 0;  ///< always 0; kept for perfbench's JSON
  std::uint64_t launches_tier1 = 0;    ///< always 0; kept for perfbench's JSON
  std::uint64_t compiles = 0;          ///< (fingerprint, stride) decodes + lowers
  std::uint64_t fused_superinsts = 0;  ///< static fused pairs across compiles
  std::uint64_t verify_launches = 0;   ///< launches cross-checked on the reference
  std::uint64_t evictions = 0;         ///< program-cache FIFO evictions
  std::uint64_t lowered_entries = 0;   ///< current program-cache size (level)

  Tier2Stats operator-(const Tier2Stats& base) const {
    Tier2Stats d;
    d.launches_tier2 = launches_tier2 - base.launches_tier2;
    d.launches_warming = launches_warming - base.launches_warming;
    d.launches_tier1 = launches_tier1 - base.launches_tier1;
    d.compiles = compiles - base.compiles;
    d.fused_superinsts = fused_superinsts - base.fused_superinsts;
    d.verify_launches = verify_launches - base.verify_launches;
    d.evictions = evictions - base.evictions;
    d.lowered_entries = lowered_entries;  // level, not a delta
    return d;
  }
  bool operator==(const Tier2Stats&) const = default;
};

/// The kernel execution engine's process-wide state: the program cache and
/// the SIGVP_TIER_VERIFY flag. Every Interpreter::run launch executes lowered
/// threaded code obtained here (DESIGN.md §15).
///
/// The cache holds one decoded-and-lowered program per (kernel structural
/// fingerprint, SoA stride): structurally equal kernels share one program,
/// and a kernel rebuilt in place (same KernelIR object, new body) simply
/// looks up its new fingerprint. It is bounded by a deterministic
/// entries/bytes cap with FIFO eviction in insertion order (the launch
/// cache's policy); an evicted program is merely lowered again on its next
/// lookup. Entries are shared_ptrs, so eviction never pulls a program out
/// from under a running launch.
class Tier2Engine {
 public:
  static constexpr std::size_t kMaxEntries = 1024;
  static constexpr std::size_t kMaxBytes = 64u << 20;

  /// Singleton; first use reads SIGVP_TIER_VERIFY.
  static Tier2Engine& instance();

  bool verify() const { return verify_.load(std::memory_order_relaxed); }
  void set_verify(bool v) { verify_.store(v, std::memory_order_relaxed); }

  Tier2Stats stats() const;

  /// Drops the program cache and zeroes every counter (the verify flag is
  /// left as configured).
  void reset();

  /// The program a launch of `ir` with `threads_per_block` threads per block
  /// executes: cached, or decoded and lowered now. It also carries the
  /// kernel's fingerprint, global-atomics flag and pointer-parameter mask,
  /// which the launch cache keys on.
  std::shared_ptr<const interp_detail::Tier2Program> program(const KernelIR& ir,
                                                             std::uint64_t threads_per_block);

  void note_launch() { launches_.fetch_add(1, std::memory_order_relaxed); }
  void note_verified() { verify_launches_.fetch_add(1, std::memory_order_relaxed); }

 private:
  Tier2Engine();

  std::atomic<bool> verify_{false};

  std::atomic<std::uint64_t> launches_{0};
  std::atomic<std::uint64_t> compiles_{0};
  std::atomic<std::uint64_t> fused_superinsts_{0};
  std::atomic<std::uint64_t> verify_launches_{0};
  std::atomic<std::uint64_t> evictions_{0};

  using Key = std::pair<std::uint64_t, unsigned>;  // (fingerprint, stride shift)
  mutable std::mutex mutex_;                       // guards programs_, fifo_, cur_bytes_
  std::map<Key, std::shared_ptr<const interp_detail::Tier2Program>> programs_;
  std::deque<Key> fifo_;  // resident keys in insertion order
  std::size_t cur_bytes_ = 0;
};

namespace interp_detail {

/// Per-thread Tier-2 state. Registers live in the block-wide SoA slab
/// (`slab[slot + lane]`), so the struct is just control state.
struct T2Thread {
  std::uint32_t pc = 0;
  std::uint32_t lane = 0;
  std::uint32_t tid_x = 0;
  std::uint32_t tid_y = 0;
  bool done = false;
  bool at_barrier = false;
  std::uint64_t instrs_executed = 0;
};

/// Reusable per-worker scratch for Tier-2 blocks (SoA slab + thread states +
/// shared-memory image), the engine's twin of ExecArena.
struct Tier2Arena {
  std::vector<RegValue> slab;
  std::vector<T2Thread> threads;
  std::vector<std::uint8_t> shared;
};

/// Executes one thread block of the lowered program, byte-exact vs the
/// reference run_decoded_block: same thread-serial barrier-phase scheduling,
/// same λ bumps, same budget semantics (one tick per micro-op, checked
/// before the op body), same error behavior. `observer` (may be null) sees
/// each global access before it is applied.
void run_tier2_block(const Tier2Program& prog2, const KernelIR& ir, const LaunchDims& dims,
                     const KernelArgs& args, AddressSpace& global, ChunkObserver* observer,
                     std::uint64_t max_instrs_per_thread, Tier2Arena& arena,
                     DynamicProfile& profile, std::uint32_t ctaid_x, std::uint32_t ctaid_y);

/// SIGVP_TIER_VERIFY oracle: compares the engine run's profile and post-run
/// memory (the 1 MiB windows holding a page marked in either space) against
/// the reference run's; throws ContractError naming the first divergent
/// field or memory window.
void check_tier_divergence(const KernelIR& ir, const DynamicProfile& ref,
                           const DynamicProfile& got, const AddressSpace& ref_mem,
                           const AddressSpace& got_mem);

}  // namespace interp_detail
}  // namespace sigvp
