#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "interp/launch.hpp"
#include "interp/profile.hpp"
#include "ir/program.hpp"
#include "mem/address_space.hpp"
#include "mem/capture.hpp"

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

/// Guest integer arithmetic wraps modulo 2^64, as a GPU's integer units do:
/// each i64 add/sub/mul/neg/abs goes through uint64_t, so overflow is
/// defined (two's complement) and both engines share one definition; so do
/// div/rem below.
inline std::int64_t wrap_add_i(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) + static_cast<std::uint64_t>(b));
}
inline std::int64_t wrap_sub_i(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) - static_cast<std::uint64_t>(b));
}
inline std::int64_t wrap_mul_i(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(b));
}
inline std::int64_t wrap_neg_i(std::int64_t a) {
  return wrap_sub_i(0, a);
}
inline std::int64_t wrap_abs_i(std::int64_t a) {
  return a < 0 ? wrap_neg_i(a) : a;
}
/// Division truncates toward zero. Its one overflowing case wraps too:
/// INT64_MIN / -1 is INT64_MIN and INT64_MIN % -1 is 0. A zero divisor is
/// not handled here; each engine traps it before calling these.
inline std::int64_t wrap_div_i(std::int64_t a, std::int64_t b) {
  return b == -1 ? wrap_neg_i(a) : a / b;
}
inline std::int64_t wrap_rem_i(std::int64_t a, std::int64_t b) {
  return b == -1 ? 0 : a % b;
}
/// Float-to-integer conversion truncates toward zero. NaN and values whose
/// truncation lies outside the i64 range give INT64_MIN, the "integer
/// indefinite" value x86-64's cvttss2si/cvttsd2si return; a plain
/// static_cast is undefined behaviour there. Every float converts to double
/// exactly, so the f32 form shares the f64 definition.
inline std::int64_t cvt_f64_to_i(double x) {
  return x >= -0x1p63 && x < 0x1p63 ? static_cast<std::int64_t>(x)
                                    : std::numeric_limits<std::int64_t>::min();
}
inline std::int64_t cvt_f32_to_i(float x) { return cvt_f64_to_i(static_cast<double>(x)); }

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

    /// Per-chunk access observers: empty, or exactly one per canonical
    /// chunk. `observers[c]` sees chunk c's global accesses in deterministic
    /// intra-chunk order, each before it is applied (so a store recorder can
    /// still read the pre-store bytes). Chunks run concurrently, each on its
    /// own observer. evaluate_functional uses them for per-chunk cold L2
    /// shards merged in chunk order, plus the launch cache's capture.
    std::span<ChunkObserver> observers;

    /// Worker threads for grid-level parallelism. 0 = automatic: the host
    /// default, collapsed to 1 inside an outer ThreadPool worker (nested
    /// sweeps stay serial). 1 = serial. Any value yields bit-identical
    /// results; only wall-clock changes.
    std::size_t workers = 0;
  };

  /// Executes `ir` over `global` memory and returns the dynamic profile.
  /// Throws ContractError on invalid launches (`observers` of the wrong
  /// size included), out-of-bounds accesses, integer division by zero, or
  /// budget exhaustion; with several failing chunks the error of the
  /// lowest-numbered chunk wins, so error reporting is deterministic too.
  DynamicProfile run(const KernelIR& ir, const LaunchDims& dims, const KernelArgs& args,
                     AddressSpace& global, const Options& options);
  DynamicProfile run(const KernelIR& ir, const LaunchDims& dims, const KernelArgs& args,
                     AddressSpace& global) {
    return run(ir, dims, args, global, Options{});
  }

  /// The reference executor: decodes `ir` afresh and runs every block
  /// serially in row-major order on the plain decoded block loop, without
  /// observers. Same results and errors as `run`; the SIGVP_TIER_VERIFY oracle,
  /// the differential tests and bench/interp_throughput compare against it.
  static DynamicProfile run_reference(const KernelIR& ir, const LaunchDims& dims,
                                      const KernelArgs& args, AddressSpace& global,
                                      std::uint64_t max_instrs_per_thread =
                                          kDefaultMaxInstrsPerThread);

  /// Number of canonical chunks the grid of `dims` is partitioned into:
  /// `min(num_blocks, 64)` contiguous row-major ranges. Depends only on the
  /// launch geometry — this is what makes per-chunk cache shards and profile
  /// merges independent of the worker count.
  static std::size_t canonical_chunks(const LaunchDims& dims);

  /// True when `ir` contains a global atomic (is_atomic_op); such
  /// kernels execute their chunks serially in canonical order.
  static bool uses_global_atomics(const KernelIR& ir);
};

}  // namespace sigvp
