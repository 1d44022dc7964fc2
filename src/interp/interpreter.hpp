#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "interp/launch.hpp"
#include "interp/profile.hpp"
#include "ir/program.hpp"
#include "mem/address_space.hpp"

namespace sigvp {

/// One 64-bit architectural register. Typed views go through std::bit_cast;
/// f32 values occupy the low 32 bits (zero-extended), matching how the
/// stores/loads of the IR move them.
struct RegValue {
  std::uint64_t bits = 0;

  std::int64_t i() const { return std::bit_cast<std::int64_t>(bits); }
  void set_i(std::int64_t v) { bits = std::bit_cast<std::uint64_t>(v); }

  double f64() const { return std::bit_cast<double>(bits); }
  void set_f64(double v) { bits = std::bit_cast<std::uint64_t>(v); }

  float f32() const { return std::bit_cast<float>(static_cast<std::uint32_t>(bits)); }
  void set_f32(float v) { bits = std::bit_cast<std::uint32_t>(v); }

  bool truthy() const { return bits != 0; }
};

/// Callback invoked for a global-memory access; the GPU device model plugs
/// its cache simulator in here.
using MemAccessHook =
    std::function<void(std::uint64_t addr, std::uint32_t bytes, bool is_store)>;

/// Functional executor for KernelIR programs. Every launch runs the lowered
/// threaded code of the execution engine (interp/tier2.hpp, DESIGN.md §15);
/// `run_reference` keeps the plain decoded block loop as a serial oracle.
///
/// Semantics (identical for every worker count — see the determinism
/// contract in DESIGN.md):
///  - the grid is partitioned into `canonical_chunks(dims)` contiguous
///    row-major chunks whose boundaries depend only on the grid, never on
///    the worker count; chunks execute concurrently, blocks within a chunk
///    serially in row-major order, threads in row-major block order;
///  - per-chunk profiles are merged in canonical chunk order and the
///    per-class/byte counters are reconstructed from λ·µ, so the returned
///    DynamicProfile is bit-identical for any `Options::workers`;
///  - kernels containing global atomics run their chunks serially in
///    canonical order (floating-point accumulation order is part of the
///    observable result), which is exactly the reference's serial row-major
///    block order;
///  - `bar.sync` suspends a thread until every other non-retired thread of
///    the same block reaches a barrier (threads that already returned do not
///    participate, mirroring CUDA's exited-thread rule);
///  - conditional terminators fall through to the lexically next block.
///
/// The interpreter doubles as the paper's instrumentation pass: it returns a
/// DynamicProfile with exact per-block iteration counts λ_b and per-class
/// instruction counts.
class Interpreter {
 public:
  static constexpr std::uint64_t kDefaultMaxInstrsPerThread = 100'000'000;

  struct Options {
    /// Abort threshold against runaway kernels (per-thread dynamic instrs).
    std::uint64_t max_instrs_per_thread = kDefaultMaxInstrsPerThread;

    /// Parallel-friendly observer factory: called once per canonical chunk
    /// (`shard_hook(chunk)`), and the returned hook sees that chunk's
    /// accesses in deterministic intra-chunk order. Chunks run concurrently,
    /// so the factory and the hooks it returns must be safe to invoke from
    /// different threads for *different* chunks. The GPU cost model uses
    /// this for per-chunk cold L2 shards merged in chunk order.
    std::function<MemAccessHook(std::size_t chunk)> shard_hook;

    /// Read-set/write-set capture factory, composable with `shard_hook`:
    /// called once per canonical chunk, and the returned recorder observes
    /// that chunk's global accesses (before each access is applied, so a
    /// store recorder can still read the pre-store bytes). Same threading
    /// contract as shard_hook. The launch-evaluation cache uses this to
    /// record which memory a launch consumed and produced.
    std::function<MemAccessHook(std::size_t chunk)> capture_hook;

    /// Worker threads for grid-level parallelism. 0 = automatic: the host
    /// default, collapsed to 1 inside an outer ThreadPool worker (nested
    /// sweeps stay serial). 1 = serial. Any value yields bit-identical
    /// results; only wall-clock changes.
    std::size_t workers = 0;
  };

  /// Executes `ir` over `global` memory and returns the dynamic profile.
  /// Throws ContractError on invalid launches, out-of-bounds accesses,
  /// integer division by zero, or budget exhaustion; with several failing
  /// chunks the error of the lowest-numbered chunk wins, so error reporting
  /// is deterministic too.
  DynamicProfile run(const KernelIR& ir, const LaunchDims& dims, const KernelArgs& args,
                     AddressSpace& global, const Options& options);
  DynamicProfile run(const KernelIR& ir, const LaunchDims& dims, const KernelArgs& args,
                     AddressSpace& global) {
    return run(ir, dims, args, global, Options{});
  }

  /// The reference executor: decodes `ir` afresh and runs every block
  /// serially in row-major order on the plain decoded block loop, without
  /// hooks. Same results and errors as `run`; the SIGVP_TIER_VERIFY oracle,
  /// the differential tests and bench/tier_throughput compare against it.
  static DynamicProfile run_reference(const KernelIR& ir, const LaunchDims& dims,
                                      const KernelArgs& args, AddressSpace& global,
                                      std::uint64_t max_instrs_per_thread =
                                          kDefaultMaxInstrsPerThread);

  /// Number of canonical chunks the grid of `dims` is partitioned into:
  /// `min(num_blocks, 64)` contiguous row-major ranges. Depends only on the
  /// launch geometry — this is what makes per-chunk cache shards and profile
  /// merges independent of the worker count.
  static std::size_t canonical_chunks(const LaunchDims& dims);

  /// True when `ir` contains a global atomic (kAtomAddGlobal*); such
  /// kernels execute their chunks serially in canonical order.
  static bool uses_global_atomics(const KernelIR& ir);
};

}  // namespace sigvp
