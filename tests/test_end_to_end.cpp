// End-to-end property tests across the whole stack.

#include <gtest/gtest.h>

#include "core/scenario.hpp"
#include "interp/interpreter.hpp"
#include "mem/allocator.hpp"
#include "util/check.hpp"
#include "workloads/suite.hpp"

namespace sigvp {
namespace {

using workloads::Workload;

TEST(EndToEnd, FunctionalScenarioRunsRealKernelsOnEveryBackend) {
  // The same app instance, functional mode, on all four backends: every
  // backend must complete, and the relative timing ordering must hold even
  // at this tiny size.
  const Workload w = workloads::make_vector_add();
  workloads::AppTraits traits;
  traits.iterations = 3;
  traits.launches_per_iter = 2;
  traits.noncuda_guest_instrs = 1000;

  std::map<Backend, SimTime> times;
  for (Backend backend : {Backend::kNativeGpu, Backend::kEmulationHostCpu,
                          Backend::kEmulationOnVp, Backend::kSigmaVp}) {
    ScenarioConfig cfg;
    cfg.backend = backend;
    cfg.mode = ExecMode::kFunctional;
    AppInstance app{.workload = &w, .n = 2048, .traits = traits};
    const ScenarioResult r = run_scenario(cfg, {app});
    EXPECT_GT(r.makespan_us, 0.0) << backend_name(backend);
    times[backend] = r.makespan_us;
  }
  EXPECT_LT(times[Backend::kNativeGpu], times[Backend::kSigmaVp]);
  EXPECT_LT(times[Backend::kEmulationHostCpu], times[Backend::kEmulationOnVp]);
}

TEST(EndToEnd, AsyncCascadeMatchesSyncResultsFunctionally) {
  // mergeSort-style cascade issued async vs sync must produce identical
  // simulated side effects (the kernels see the same per-VP order).
  const Workload w = workloads::make_vector_add();
  workloads::AppTraits traits;
  traits.iterations = 2;
  traits.launches_per_iter = 5;

  auto run = [&](bool async) {
    ScenarioConfig cfg;
    cfg.backend = Backend::kSigmaVp;
    cfg.mode = ExecMode::kFunctional;
    cfg.dispatch.interleave = true;
    cfg.async_launches = async;
    AppInstance app{.workload = &w, .n = 1024, .traits = traits};
    return run_scenario(cfg, {app});
  };
  const ScenarioResult sync_r = run(false);
  const ScenarioResult async_r = run(true);
  EXPECT_EQ(sync_r.jobs_dispatched, async_r.jobs_dispatched);
  // Async submission amortizes the per-call round trips.
  EXPECT_LE(async_r.makespan_us, sync_r.makespan_us);
}

class ProfileSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProfileSweep, AnalyticProfileExactAtEverySize) {
  // The λ·µ identity must hold at sizes other than the canned test size —
  // including awkward non-power-of-two, non-block-multiple sizes.
  const Workload w = workloads::make_black_scholes();
  const std::uint64_t n = GetParam();

  AddressSpace mem(64ull << 20, "m");
  FreeListAllocator alloc(4096, mem.size() - 4096);
  std::vector<std::uint64_t> addrs;
  for (const auto& b : w.buffers(n)) addrs.push_back(*alloc.allocate(b.bytes));
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::uint64_t off = 0; off + 4 <= 4 * n; off += 4) {
      mem.write<float>(addrs[i] + off, 1.0f);
    }
  }
  Interpreter interp;
  const DynamicProfile measured = interp.run(w.kernel, w.dims(n), w.args(addrs, n), mem);
  const DynamicProfile analytic = w.profile(n);
  EXPECT_EQ(measured.instr_counts, analytic.instr_counts) << "n=" << n;
  EXPECT_EQ(measured.sfu_instrs, analytic.sfu_instrs) << "n=" << n;
  EXPECT_EQ(measured.sqrt_instrs, analytic.sqrt_instrs) << "n=" << n;
  EXPECT_EQ(measured.global_load_bytes, analytic.global_load_bytes) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, ProfileSweep,
                         ::testing::Values(1, 7, 255, 256, 257, 1000, 4096, 5000));

TEST(EndToEnd, CoalescedFleetProducesPerVpCorrectResultsThroughIpc) {
  // Full path: guest stacks → IPC → re-scheduler → coalescer → device →
  // responses, functional mode, with coalescing forced on. Every VP's data
  // must come back correct despite the merged execution.
  const Workload w = workloads::make_vector_add();
  workloads::AppTraits traits;
  traits.iterations = 2;
  traits.launches_per_iter = 1;
  traits.coalescable = true;

  ScenarioConfig cfg;
  cfg.backend = Backend::kSigmaVp;
  cfg.mode = ExecMode::kFunctional;
  cfg.dispatch.interleave = true;
  cfg.dispatch.coalesce = true;
  cfg.dispatch.coalesce_eager_peers = 3;
  // Setup copies serialize on the dispatcher service thread and skew the
  // VPs by several ms; a generous window lets the first round re-align.
  cfg.dispatch.coalesce_window_us = 20000.0;
  std::vector<AppInstance> apps;
  const AppInstance app{.workload = &w, .n = 777, .traits = traits};
  for (int i = 0; i < 4; ++i) apps.push_back(app);
  const ScenarioResult r = run_scenario(cfg, apps);
  EXPECT_EQ(r.app_done_us.size(), 4u);
  EXPECT_GT(r.coalesced_groups, 0u);
}

TEST(EndToEnd, DeterministicAcrossRuns) {
  // The whole simulation is deterministic: two identical scenario runs give
  // bit-identical makespans and statistics.
  const Workload w = workloads::make_merge_sort();
  ScenarioConfig cfg;
  cfg.backend = Backend::kSigmaVp;
  cfg.mode = ExecMode::kAnalytic;
  cfg.dispatch.interleave = true;
  cfg.dispatch.coalesce = true;
  const auto a = run_scenario(cfg, replicate(w, 4096, 4));
  const auto b = run_scenario(cfg, replicate(w, 4096, 4));
  EXPECT_EQ(a.makespan_us, b.makespan_us);
  EXPECT_EQ(a.jobs_dispatched, b.jobs_dispatched);
  EXPECT_EQ(a.coalesced_groups, b.coalesced_groups);
  EXPECT_EQ(a.gpu_dynamic_energy_j, b.gpu_dynamic_energy_j);
  EXPECT_EQ(a.app_done_us, b.app_done_us);
}

TEST(EndToEnd, EnergyConservationAcrossDispatchPolicies) {
  // Scheduling changes when kernels run, not what they execute: the GPU's
  // dynamic energy must be invariant across policies (without coalescing,
  // which legitimately removes per-launch work).
  const Workload w = workloads::make_black_scholes();
  auto energy = [&](bool interleave) {
    ScenarioConfig cfg;
    cfg.backend = Backend::kSigmaVp;
    cfg.mode = ExecMode::kAnalytic;
    cfg.dispatch.interleave = interleave;
    return run_scenario(cfg, replicate(w, 1u << 16, 4)).gpu_dynamic_energy_j;
  };
  EXPECT_DOUBLE_EQ(energy(false), energy(true));
}

}  // namespace
}  // namespace sigvp
