#include "gpu/offline.hpp"

#include <cmath>
#include <vector>

#include "util/check.hpp"

namespace sigvp {

LaunchEvaluation evaluate_functional(const GpuArch& arch, const KernelIR& kernel,
                                     const LaunchDims& dims, const KernelArgs& args,
                                     AddressSpace& memory) {
  return evaluate_functional(arch, kernel, dims, args, memory, nullptr);
}

LaunchEvaluation evaluate_functional(const GpuArch& arch, const KernelIR& kernel,
                                     const LaunchDims& dims, const KernelArgs& args,
                                     AddressSpace& memory, std::vector<ChunkCapture>* capture) {
  // One ChunkObserver per canonical interpreter chunk: a cold L2 shard, plus
  // the chunk's capture when one is asked for. The shard layout depends
  // only on the launch geometry, so the merged stats are identical for any
  // worker count; on a GPU the chunks would run on different SMs against
  // cold cache state anyway, so per-shard cold misses model the hardware at
  // least as faithfully as one globally warm cache did.
  const std::size_t chunks = Interpreter::canonical_chunks(dims);
  if (capture != nullptr) *capture = std::vector<ChunkCapture>(chunks);
  std::vector<ChunkObserver> observers;
  observers.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    observers.push_back({CacheModel(arch.l2), capture != nullptr ? &(*capture)[c] : nullptr});
  }

  Interpreter::Options options;
  options.observers = observers;
  Interpreter interp;
  LaunchEvaluation out;
  out.profile = interp.run(kernel, dims, args, memory, options);

  // Merge in canonical chunk order (additive counters, but keep the order
  // canonical on principle: determinism bugs hide in "it's commutative").
  CacheStats l2_stats;
  for (const ChunkObserver& o : observers) l2_stats += o.l2.stats();

  KernelCostModel model(arch);
  out.stats = model.evaluate(dims, out.profile.instr_counts, l2_stats);
  return out;
}

KernelExecStats evaluate_analytic(const GpuArch& arch, const KernelIR& kernel,
                                  const LaunchDims& dims, const DynamicProfile& profile,
                                  const MemoryBehavior& behavior) {
  SIGVP_REQUIRE(profile.block_visits.size() == kernel.blocks.size() ||
                    profile.block_visits.empty(),
                "analytic profile shape does not match the kernel");

  // σ from λ·µ when per-block visits are provided (Eq. 1); otherwise the
  // profile's own class counts must already be filled in.
  ClassCounts sigma = profile.instr_counts;
  if (sigma.total() == 0 && !profile.block_visits.empty()) {
    sigma = DynamicProfile::counts_from_visits(kernel, profile.block_visits);
  }
  SIGVP_REQUIRE(sigma.total() > 0, "analytic profile carries no instructions");

  ProbCacheModel prob(arch.l2);
  CacheStats cache;
  cache.accesses = behavior.accesses;
  // Round to nearest rather than truncate: 99.7 expected misses should
  // price as 100, not 99.
  cache.misses = static_cast<std::uint64_t>(std::llround(prob.expected_misses(behavior)));
  cache.hits = cache.accesses > cache.misses ? cache.accesses - cache.misses : 0;

  KernelCostModel model(arch);
  return model.evaluate(dims, sigma, cache);
}

}  // namespace sigvp
