#include <gtest/gtest.h>

#include "core/scenario.hpp"
#include "util/check.hpp"
#include "workloads/suite.hpp"

namespace sigvp {
namespace {

using workloads::AppTraits;
using workloads::Workload;

ScenarioConfig base_config(Backend backend) {
  ScenarioConfig cfg;
  cfg.backend = backend;
  cfg.mode = ExecMode::kAnalytic;
  return cfg;
}

/// The paper's Table 1 loop: per iteration, upload both inputs, run the
/// kernel once, download the result.
AppTraits table1_traits(std::uint64_t m, std::uint32_t iterations) {
  AppTraits t;
  t.iterations = iterations;
  t.launches_per_iter = 1;
  t.iter_h2d_bytes = 2 * 8 * m * m;
  t.iter_d2h_bytes = 8 * m * m;
  t.noncuda_guest_instrs = 0;
  t.coalescable = false;
  return t;
}

TEST(Scenario, Table1OrderingHolds) {
  const Workload w = workloads::make_matrix_mul();
  const std::uint64_t m = 320;
  AppInstance app{.workload = &w, .n = m, .traits = table1_traits(m, 10)};

  const SimTime native = run_scenario(base_config(Backend::kNativeGpu), {app}).makespan_us;
  const SimTime sigma = run_scenario(base_config(Backend::kSigmaVp), {app}).makespan_us;
  const SimTime emul_cpu =
      run_scenario(base_config(Backend::kEmulationHostCpu), {app}).makespan_us;
  const SimTime emul_vp =
      run_scenario(base_config(Backend::kEmulationOnVp), {app}).makespan_us;

  // Paper Table 1 ordering: GPU < ΣVP << emul-on-CPU < emul-on-VP.
  EXPECT_LT(native, sigma);
  EXPECT_LT(sigma, emul_cpu);
  EXPECT_LT(emul_cpu, emul_vp);

  // ΣVP stays within a single-digit factor of native (paper: 3.32x)…
  EXPECT_LT(sigma / native, 10.0);
  // …while emulation on the VP is orders of magnitude slower (paper: 660x).
  EXPECT_GT(emul_vp / sigma, 100.0);
  // Binary translation slows the emulator by the calibrated ~41x.
  EXPECT_NEAR(emul_vp / emul_cpu, 32.86 * 1.247, 8.0);
}

TEST(Scenario, InterleavingOverlapsCopiesWithKernels) {
  // Two VPs looping {upload, kernel, download} — the Fig. 9 setup. The
  // interleaved dispatcher must beat the serial baseline.
  const Workload w = workloads::make_matrix_mul();
  const std::uint64_t m = 320;
  const auto apps = [&] {
    std::vector<AppInstance> v;
    const AppInstance app{.workload = &w, .n = m, .traits = table1_traits(m, 8)};
    for (int i = 0; i < 2; ++i) v.push_back(app);
    return v;
  }();

  ScenarioConfig serial = base_config(Backend::kSigmaVp);
  ScenarioConfig inter = serial;
  inter.dispatch.interleave = true;

  const auto r_serial = run_scenario(serial, apps);
  const auto r_inter = run_scenario(inter, apps);
  EXPECT_LT(r_inter.makespan_us, r_serial.makespan_us);
}

TEST(Scenario, CoalescingMergesIdenticalKernels) {
  // Small per-VP launches (launch-overhead-bound), full optimized stack:
  // async cascades + interleaving + coalescing — the paper's Fig. 10/11
  // optimized configuration.
  const Workload w = workloads::make_vector_add();
  const auto apps = replicate(w, 4096, 8);

  ScenarioConfig plain = base_config(Backend::kSigmaVp);
  ScenarioConfig opt = plain;
  opt.dispatch.interleave = true;
  opt.dispatch.coalesce = true;
  opt.dispatch.coalesce_eager_peers = 7;  // homogeneous 8-VP fleet
  opt.async_launches = true;

  const auto r_plain = run_scenario(plain, apps);
  const auto r_opt = run_scenario(opt, apps);
  EXPECT_GT(r_opt.coalesced_groups, 0u);
  EXPECT_GT(r_opt.coalesced_jobs, r_opt.coalesced_groups);
  // Coalescing strips launch overhead and alignment waste: the GPU does
  // measurably less work and the fleet finishes sooner.
  EXPECT_LT(r_opt.gpu_compute_busy_us, r_plain.gpu_compute_busy_us);
  EXPECT_LT(r_opt.makespan_us, r_plain.makespan_us);
}

TEST(Scenario, SigmaVpCrushesEmulationOnVp) {
  // The Fig. 11 headline: multiplexing the host GPU beats software GPU
  // emulation on the VPs by orders of magnitude.
  const Workload w = workloads::make_black_scholes();
  const auto apps = replicate(w, w.default_n, 4);

  const SimTime emul = run_scenario(base_config(Backend::kEmulationOnVp), apps).makespan_us;
  const SimTime sigma = run_scenario(base_config(Backend::kSigmaVp), apps).makespan_us;
  EXPECT_GT(emul / sigma, 100.0);
}

TEST(Scenario, EmulationVpsContendForHostCores) {
  // VPs emulate concurrently (one guest CPU context each), but the Mesa-like
  // emulators oversubscribe the host cores: 4 VPs slow each other down by
  // the calibrated contention factor, not by 4x.
  const Workload w = workloads::make_vector_add();
  const SimTime one = run_scenario(base_config(Backend::kEmulationOnVp),
                                   replicate(w, w.default_n, 1))
                          .makespan_us;
  const SimTime four = run_scenario(base_config(Backend::kEmulationOnVp),
                                    replicate(w, w.default_n, 4))
                           .makespan_us;
  const double contention = Calibration{}.emulation_contention(4);
  EXPECT_NEAR(four / one, contention, 0.25);
  EXPECT_LT(four / one, 4.0);
}

TEST(Scenario, ResultFieldsPopulated) {
  const Workload w = workloads::make_vector_add();
  ScenarioConfig cfg = base_config(Backend::kSigmaVp);
  cfg.dispatch.interleave = true;
  const auto r = run_scenario(cfg, replicate(w, 1u << 16, 2));
  EXPECT_EQ(r.app_done_us.size(), 2u);
  EXPECT_GT(r.makespan_us, 0.0);
  EXPECT_GT(r.jobs_dispatched, 0u);
  EXPECT_GT(r.ipc_messages, 0u);
  EXPECT_GT(r.gpu_compute_busy_us, 0.0);
  EXPECT_GT(r.gpu_dynamic_energy_j, 0.0);
}

TEST(Scenario, RejectsMalformedInput) {
  EXPECT_THROW(run_scenario(ScenarioConfig{}, {}), ContractError);
  AppInstance bad;
  EXPECT_THROW(run_scenario(ScenarioConfig{}, {bad}), ContractError);
}

TEST(Scenario, BackendNamesDistinct) {
  EXPECT_EQ(backend_name(Backend::kNativeGpu), "native-gpu");
  EXPECT_EQ(backend_name(Backend::kSigmaVp), "sigma-vp");
  EXPECT_NE(backend_name(Backend::kEmulationOnVp), backend_name(Backend::kEmulationHostCpu));
}

TEST(Scenario, MixedWorkloadFleet) {
  const auto suite = workloads::make_suite();
  std::vector<AppInstance> apps;
  apps.push_back({.workload = &workloads::find(suite, "vectorAdd"), .n = 1u << 16});
  apps.push_back({.workload = &workloads::find(suite, "BlackScholes"), .n = 1u << 16});
  apps.push_back({.workload = &workloads::find(suite, "mergeSort"), .n = 1u << 14});
  ScenarioConfig cfg = base_config(Backend::kSigmaVp);
  cfg.dispatch.interleave = true;
  cfg.dispatch.coalesce = true;
  const auto r = run_scenario(cfg, apps);
  EXPECT_EQ(r.app_done_us.size(), 3u);
  // Different kernels must not coalesce with each other.
  EXPECT_EQ(r.coalesced_groups, 0u);
}

}  // namespace
}  // namespace sigvp
