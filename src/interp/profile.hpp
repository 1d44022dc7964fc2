#pragma once

#include <cstdint>
#include <vector>

#include "ir/instr_class.hpp"
#include "ir/program.hpp"

namespace sigvp {

/// Dynamic execution profile of one kernel launch, produced either by the
/// instrumented interpreter (exact, like the paper's PTX instrumentation)
/// or analytically by a workload's profile function (like the paper's
/// probabilistic estimation of iteration counts).
struct DynamicProfile {
  /// λ_b: number of times each basic block was entered, summed over all
  /// threads of the launch (indexed by block id).
  std::vector<std::uint64_t> block_visits;

  /// Dynamic per-class instruction counts σ (kNop excluded).
  ClassCounts instr_counts;

  std::uint64_t global_load_bytes = 0;
  std::uint64_t global_store_bytes = 0;
  std::uint64_t barriers_waited = 0;

  /// Dynamic count of hard transcendental (SFU) instructions (exp, log,
  /// sin, cos) — emulators execute these via full libm calls.
  std::uint64_t sfu_instrs = 0;
  /// Dynamic count of sqrt/rsqrt instructions — cheap SSE ops on a CPU.
  std::uint64_t sqrt_instrs = 0;

  std::uint64_t total_instrs() const { return instr_counts.total(); }

  /// Recomputes per-class counts from λ and the static µ of each block:
  /// σ_i = Σ_b λ_b · µ{b,i} (paper Eq. 1 with the host ISA's µ).
  /// The interpreter guarantees this equals `instr_counts` exactly; the
  /// equality is exercised by property tests.
  static ClassCounts counts_from_visits(const KernelIR& ir,
                                        const std::vector<std::uint64_t>& visits);

  bool operator==(const DynamicProfile&) const = default;
};

}  // namespace sigvp
