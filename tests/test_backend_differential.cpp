// Cross-backend differential tests through the FULL scenario path: with
// ScenarioConfig::functional_io set, each app fills real host buffers, the
// setup copies upload them, kernels execute functionally, and the teardown
// copies bring the results back. The optimized ΣVP backend (interleaving +
// coalescing + async launches) must produce byte-identical output buffers to
// the software-emulation-on-VP baseline: the paper's speedups come from
// scheduling, never from changing what the kernels compute.

#include <gtest/gtest.h>

#include <vector>

#include "core/scenario.hpp"
#include "workloads/suite.hpp"

namespace sigvp {
namespace {

constexpr std::size_t kNumVps = 2;

// Single-launch traits: one iteration, one launch, no per-iteration
// streaming — the output bytes are then exactly the kernel's result on the
// fill_inputs data, comparable across backends.
workloads::AppTraits single_launch(const workloads::Workload& w) {
  workloads::AppTraits t = w.traits;
  t.iterations = 1;
  t.launches_per_iter = 1;
  t.iter_h2d_bytes = 0;
  t.iter_d2h_bytes = 0;
  return t;
}

ScenarioResult run_functional(const workloads::Workload& w, Backend backend,
                              bool optimized) {
  ScenarioConfig cfg;
  cfg.backend = backend;
  cfg.mode = ExecMode::kFunctional;
  cfg.functional_io = true;
  if (optimized) {
    cfg.dispatch.interleave = true;
    cfg.dispatch.coalesce = true;
    cfg.dispatch.coalesce_eager_peers = kNumVps - 1;
    cfg.async_launches = true;
  }
  std::vector<AppInstance> apps;
  const workloads::AppTraits t = single_launch(w);
  for (std::size_t i = 0; i < kNumVps; ++i) {
    apps.push_back(AppInstance{.workload = &w, .n = w.test_n, .traits = t});
  }
  return run_scenario(cfg, apps);
}

TEST(BackendDifferential, SigmaVpMatchesEmulationByteExact) {
  const auto suite = workloads::make_suite();
  std::size_t tested = 0;
  for (const auto& w : suite) {
    if (!w.fill_inputs) continue;  // validated by dedicated kernel tests only
    SCOPED_TRACE(w.app);
    ++tested;

    const ScenarioResult ref = run_functional(w, Backend::kEmulationOnVp, false);
    const ScenarioResult opt = run_functional(w, Backend::kSigmaVp, true);

    ASSERT_EQ(ref.app_outputs.size(), kNumVps);
    ASSERT_EQ(opt.app_outputs.size(), kNumVps);
    for (std::size_t vp = 0; vp < kNumVps; ++vp) {
      ASSERT_FALSE(ref.app_outputs[vp].empty()) << "vp " << vp << " produced no output";
      EXPECT_EQ(ref.app_outputs[vp].size(), opt.app_outputs[vp].size()) << "vp " << vp;
      EXPECT_TRUE(ref.app_outputs[vp] == opt.app_outputs[vp])
          << "vp " << vp << ": optimized SigmaVP diverged from emulation";
    }
  }
  // Every workload with deterministic input fills participates; this count
  // only grows as fills are added to the suite.
  EXPECT_GE(tested, 7u);
}

TEST(BackendDifferential, PlainSigmaVpAlsoMatchesEmulation) {
  // The plain (un-optimized) multiplexing path must be functionally
  // transparent too — catches regressions hiding behind the optimizations.
  const auto suite = workloads::make_suite();
  const workloads::Workload& w = workloads::find(suite, "vectorAdd");
  const ScenarioResult ref = run_functional(w, Backend::kEmulationOnVp, false);
  const ScenarioResult plain = run_functional(w, Backend::kSigmaVp, false);
  ASSERT_EQ(ref.app_outputs.size(), plain.app_outputs.size());
  for (std::size_t vp = 0; vp < ref.app_outputs.size(); ++vp) {
    EXPECT_TRUE(ref.app_outputs[vp] == plain.app_outputs[vp]) << "vp " << vp;
  }
}

TEST(BackendDifferential, OutputsOnlyCollectedWhenRequested) {
  const auto suite = workloads::make_suite();
  const workloads::Workload& w = workloads::find(suite, "vectorAdd");
  ScenarioConfig cfg;
  cfg.backend = Backend::kSigmaVp;
  cfg.mode = ExecMode::kFunctional;  // functional but without functional_io
  const ScenarioResult r =
      run_scenario(cfg, {AppInstance{.workload = &w, .n = w.test_n, .traits = single_launch(w)}});
  EXPECT_TRUE(r.app_outputs.empty());
}

}  // namespace
}  // namespace sigvp
