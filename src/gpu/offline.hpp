#pragma once

#include <vector>

#include "gpu/arch.hpp"
#include "gpu/cost_model.hpp"
#include "gpu/prob_cache.hpp"
#include "interp/interpreter.hpp"
#include "interp/profile.hpp"
#include "mem/capture.hpp"

namespace sigvp {

/// How the launch cache was involved in producing a LaunchEvaluation.
/// kUncached = the cache never looked at the launch (disabled, or a direct
/// evaluate_functional call); the others are the counted cache outcomes.
enum class LaunchCacheOutcome { kUncached, kHit, kMiss, kBypass };

inline const char* launch_cache_outcome_name(LaunchCacheOutcome outcome) {
  switch (outcome) {
    case LaunchCacheOutcome::kUncached: return "uncached";
    case LaunchCacheOutcome::kHit: return "hit";
    case LaunchCacheOutcome::kMiss: return "miss";
    case LaunchCacheOutcome::kBypass: return "bypass";
  }
  return "?";
}

/// Result of evaluating one kernel launch outside the event loop.
struct LaunchEvaluation {
  KernelExecStats stats;
  DynamicProfile profile;
  LaunchCacheOutcome cache = LaunchCacheOutcome::kUncached;
};

/// Functionally executes `kernel` on `memory` with a cycle-accurate L2 cache
/// simulation for `arch`, then prices the run with the cost model. This is
/// the "execute on the host GPU and profile it" step of the paper's
/// Profile-Based Execution Analysis (Fig. 7, step 2).
LaunchEvaluation evaluate_functional(const GpuArch& arch, const KernelIR& kernel,
                                     const LaunchDims& dims, const KernelArgs& args,
                                     AddressSpace& memory);

/// As above, and records the launch's read-set/write-set into `capture`
/// (resized to one ChunkCapture per canonical interpreter chunk). Each
/// chunk's ChunkObserver updates that chunk's L2 shard and its capture;
/// stats and profile are the same as without capture.
/// The launch cache's fill path uses this.
LaunchEvaluation evaluate_functional(const GpuArch& arch, const KernelIR& kernel,
                                     const LaunchDims& dims, const KernelArgs& args,
                                     AddressSpace& memory, std::vector<ChunkCapture>* capture);

/// Prices a launch from an analytic profile (per-block λ counts and byte
/// traffic) plus a locality summary, without touching data — used for
/// workload sizes too large to interpret functionally.
KernelExecStats evaluate_analytic(const GpuArch& arch, const KernelIR& kernel,
                                  const LaunchDims& dims, const DynamicProfile& profile,
                                  const MemoryBehavior& behavior);

}  // namespace sigvp
