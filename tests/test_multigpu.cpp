// Tests of the multi-GPU host backend (DESIGN.md §17): the placement layer
// (initial LPT assignment, migration cost model, runtime migration), the
// HostGpuSet device complement, the single-device byte-identity contract,
// determinism across workers and shards, capture replay and checkpoint
// resume with device assignments intact, and the sweep-JSON "host_gpus"
// block.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "gpu/host_gpu_set.hpp"
#include "run/json_writer.hpp"
#include "run/sweep.hpp"
#include "run/thread_pool.hpp"
#include "sched/placement.hpp"
#include "sim/event_queue.hpp"
#include "snapshot/serial.hpp"
#include "snapshot/state.hpp"
#include "util/check.hpp"
#include "workloads/suite.hpp"

namespace sigvp {
namespace {

// --- placement primitives ----------------------------------------------------

TEST(Placement, RoundRobinIgnoresWeightsAndSpeeds) {
  const std::vector<std::uint64_t> weights{100, 1, 1, 100, 1, 1};
  const std::vector<double> speeds{1.0, 4.0, 2.0};
  const auto a = initial_placement(PlacementPolicy::kRoundRobin, weights, speeds);
  ASSERT_EQ(a.size(), weights.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], static_cast<std::uint32_t>(i % speeds.size()));
  }
}

TEST(Placement, AffinitySplitsHeavyVpsAcrossDevices) {
  // Two heavy VPs at indices 0 and 4: round-robin on 2 devices stacks both
  // onto device 0; LPT must split them.
  const std::vector<std::uint64_t> weights{8, 1, 1, 1, 8, 1};
  const std::vector<double> speeds{1.0, 1.0};
  const auto rr = initial_placement(PlacementPolicy::kRoundRobin, weights, speeds);
  EXPECT_EQ(rr[0], rr[4]);
  const auto lpt = initial_placement(PlacementPolicy::kAffinity, weights, speeds);
  EXPECT_NE(lpt[0], lpt[4]);
  // Balanced totals: 8+1+1 vs 8+1+1.
  std::uint64_t load[2] = {0, 0};
  for (std::size_t i = 0; i < weights.size(); ++i) load[lpt[i]] += weights[i];
  EXPECT_EQ(load[0], load[1]);
}

TEST(Placement, AffinityScalesLoadByDeviceSpeed) {
  // Device 1 is 3x faster: both equal-weight VPs finish earlier there even
  // when stacked ((w + w) / 3 < w / 1).
  const std::vector<std::uint64_t> weights{4, 4};
  const std::vector<double> speeds{1.0, 3.0};
  const auto a = initial_placement(PlacementPolicy::kAffinity, weights, speeds);
  EXPECT_EQ(a[0], 1u);
  EXPECT_EQ(a[1], 1u);
}

TEST(Placement, AffinityBreaksTiesDeterministically) {
  // All-equal weights and speeds: descending-weight sort is stable (ties by
  // ascending index) and finish-time ties go to the lowest device index, so
  // the assignment degenerates to round-robin — and is repeatable.
  const std::vector<std::uint64_t> weights(8, 5);
  const std::vector<double> speeds{1.0, 1.0, 1.0, 1.0};
  const auto a = initial_placement(PlacementPolicy::kAffinity, weights, speeds);
  const auto b = initial_placement(PlacementPolicy::kAffinity, weights, speeds);
  EXPECT_EQ(a, b);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    EXPECT_EQ(a[i], static_cast<std::uint32_t>(i % speeds.size()));
  }
}

TEST(Placement, EmptyAndSingleDeviceDegenerate) {
  EXPECT_TRUE(
      initial_placement(PlacementPolicy::kAffinity, {}, {1.0, 1.0}).empty());
  const auto one =
      initial_placement(PlacementPolicy::kAffinity, {3, 9, 1}, {2.0});
  EXPECT_EQ(one, (std::vector<std::uint32_t>{0, 0, 0}));
}

TEST(Placement, MigrationCostIsFixedPlusBytesOverBandwidth) {
  PlacementConfig cfg;
  cfg.migration_fixed_us = 250.0;
  cfg.migration_gbps = 8.0;  // 8 GB/s == 8000 bytes/us
  EXPECT_DOUBLE_EQ(migration_cost_us(cfg, 0), 250.0);
  EXPECT_DOUBLE_EQ(migration_cost_us(cfg, 8000), 251.0);
  EXPECT_DOUBLE_EQ(migration_cost_us(cfg, 80'000'000), 250.0 + 10'000.0);
}

// --- HostGpuSet --------------------------------------------------------------

TEST(HostGpuSet, NamingPreservesSingleDeviceContractAndNumbersMulti) {
  EventQueue q;
  HostGpuSet one(q, {HostGpuSpec{}}, /*private_caches=*/false);
  EXPECT_EQ(one.count(), 1u);
  EXPECT_EQ(one.device(0).name(), "hostGPU");
  EXPECT_FALSE(one.has_private_caches());

  HostGpuSet two(q, {HostGpuSpec{}, HostGpuSpec{}}, /*private_caches=*/false);
  EXPECT_EQ(two.count(), 2u);
  EXPECT_EQ(two.device(0).name(), "hostGPU0");
  EXPECT_EQ(two.device(1).name(), "hostGPU1");
  // Multi-device sets always shard the launch cache per device.
  EXPECT_TRUE(two.has_private_caches());
  EXPECT_GT(two.resident_bytes(), one.resident_bytes());
}

TEST(HostGpuSet, RelativeSpeedsRankHeterogeneousMixes) {
  EventQueue q;
  HostGpuSpec fast;  // quadro4000 default
  HostGpuSpec slow;
  slow.arch = make_tegrak1();
  HostGpuSet set(q, {fast, slow}, false);
  const auto speeds = set.relative_speeds();
  ASSERT_EQ(speeds.size(), 2u);
  EXPECT_GT(speeds[0], 0.0);
  EXPECT_GT(speeds[1], 0.0);
  EXPECT_NE(speeds[0], speeds[1]);

  // Affinity placement then leans toward the faster device with equal
  // weights: the device with more VPs must be the faster one.
  const auto a = initial_placement(PlacementPolicy::kAffinity,
                                   std::vector<std::uint64_t>(6, 7), speeds);
  std::size_t on[2] = {0, 0};
  for (const auto d : a) ++on[d];
  const std::size_t faster = speeds[0] > speeds[1] ? 0 : 1;
  EXPECT_GT(on[faster], on[1 - faster]);
}

// --- scenario integration ----------------------------------------------------

ScenarioConfig mg_config(std::size_t devices) {
  ScenarioConfig cfg;
  cfg.backend = Backend::kSigmaVp;
  cfg.mode = ExecMode::kAnalytic;
  cfg.gpu_mem_bytes = 16ull * 1024 * 1024;
  HostGpuSpec spec;
  spec.mem_bytes = cfg.gpu_mem_bytes;
  for (std::size_t i = 0; i < devices; ++i) cfg.host_gpus.push_back(spec);
  return cfg;
}

// A skewed 16-VP fleet: every 4th VP is heavy, so round-robin at 4 devices
// stacks all four heavy VPs onto device 0 while LPT spreads them.
std::vector<AppInstance> skewed_apps(int heavy_iters = 10, int light_iters = 2) {
  static const auto suite = workloads::make_suite();
  const workloads::Workload& w = workloads::find(suite, "vectorAdd");
  std::vector<AppInstance> apps;
  for (int i = 0; i < 16; ++i) {
    workloads::AppTraits t = w.traits;
    t.iterations = (i % 4 == 0) ? heavy_iters : light_iters;
    apps.push_back(AppInstance{&w, w.test_n, t});
    apps.back().jitter = static_cast<std::uint64_t>(i);
  }
  return apps;
}

TEST(MultiGpu, ValidatesConfiguration) {
  const auto apps = skewed_apps();

  ScenarioConfig bad_backend = mg_config(2);
  bad_backend.backend = Backend::kEmulationOnVp;
  EXPECT_THROW(run_scenario(bad_backend, apps), ContractError);

  ScenarioConfig bad_fault = mg_config(2);
  bad_fault.fault.device_reset_at_us = {1000.0};
  EXPECT_THROW(run_scenario(bad_fault, apps), ContractError);
}

TEST(MultiGpu, SingleDeclaredDeviceMatchesLegacyByteForByte) {
  const auto apps = skewed_apps(4, 2);

  ScenarioConfig legacy = mg_config(0);
  ScenarioConfig declared = mg_config(1);

  auto probe = [&](const ScenarioConfig& cfg) {
    run::SweepResult one;
    one.jobs.push_back(run::SweepJobResult{"probe", "multigpu", run_scenario(cfg, apps)});
    one.workers = 1;
    one.wall_ms = 0.0;
    return run::sweep_to_json(one, "multigpu-probe");
  };

  const std::string a = probe(legacy);
  const std::string b = probe(declared);
  EXPECT_EQ(a, b);
  // Neither run turns on the multi-GPU observables or the JSON block.
  EXPECT_EQ(run_scenario(declared, apps).gpus.devices, 0u);
  EXPECT_EQ(a.find("\"host_gpus\""), std::string::npos);
}

TEST(MultiGpu, SpeedupIsMonotoneOnDispatchBoundFleet) {
  auto apps = skewed_apps();

  auto run_with = [&](std::size_t devices) {
    ScenarioConfig cfg = mg_config(devices);
    cfg.dispatch.interleave = true;
    cfg.async_launches = true;
    return run_scenario(cfg, apps);
  };

  const ScenarioResult r1 = run_with(1);
  const ScenarioResult r2 = run_with(2);
  const ScenarioResult r4 = run_with(4);

  EXPECT_GE(r1.makespan_us, r2.makespan_us);
  EXPECT_GE(r2.makespan_us, r4.makespan_us);
  EXPECT_LT(r4.makespan_us, r1.makespan_us);  // strictly faster at 4 devices

  ASSERT_EQ(r4.gpus.devices, 4u);
  ASSERT_EQ(r4.gpus.per_device.size(), 4u);
  std::uint32_t vps = 0;
  std::uint64_t jobs = 0;
  for (const auto& d : r4.gpus.per_device) {
    vps += d.vps;
    jobs += d.jobs;
    EXPECT_GT(d.vps, 0u);  // LPT spread the fleet across every device
    EXPECT_GT(d.jobs, 0u);
  }
  EXPECT_EQ(vps, 16u);
  EXPECT_EQ(jobs, r4.jobs_dispatched);
  EXPECT_EQ(r4.jobs_dispatched, r1.jobs_dispatched);  // same work, spread out
}

TEST(MultiGpu, AffinityBeatsRoundRobinOnSkewedFleet) {
  const auto apps = skewed_apps();

  auto run_with = [&](PlacementPolicy policy) {
    ScenarioConfig cfg = mg_config(4);
    cfg.dispatch.interleave = true;
    cfg.async_launches = true;
    cfg.placement.policy = policy;
    return run_scenario(cfg, apps);
  };

  const ScenarioResult rr = run_with(PlacementPolicy::kRoundRobin);
  const ScenarioResult aff = run_with(PlacementPolicy::kAffinity);
  EXPECT_LT(aff.makespan_us, rr.makespan_us);

  // Round-robin stacked the heavy VPs: its busiest device dispatched more
  // jobs than affinity's busiest device.
  auto max_jobs = [](const ScenarioResult& r) {
    std::uint64_t m = 0;
    for (const auto& d : r.gpus.per_device) m = std::max(m, d.jobs);
    return m;
  };
  EXPECT_GT(max_jobs(rr), max_jobs(aff));
}

TEST(MultiGpu, IdleVpsMigrateOffBackloggedDevicesDeterministically) {
  // Equal per-VP weights make the initial LPT assignment round-robin-like,
  // but VPs 0 and 4 (both landing on device 0 of 4) are heavy at runtime:
  // once the light VPs drain, the heavy ones find idle lanes elsewhere and
  // the affinity re-scheduler must move at least one of them.
  static const auto suite = workloads::make_suite();
  const workloads::Workload& w = workloads::find(suite, "vectorAdd");
  std::vector<AppInstance> apps;
  for (int i = 0; i < 8; ++i) {
    workloads::AppTraits t = w.traits;
    t.iterations = (i == 0 || i == 4) ? 16 : 2;
    apps.push_back(AppInstance{&w, w.test_n, t});
  }

  ScenarioConfig cfg = mg_config(4);
  cfg.dispatch.interleave = true;  // synchronous launches: VP idle per submit

  const ScenarioResult first = run_scenario(cfg, apps);
  EXPECT_GE(first.gpus.migrations, 1u);
  EXPECT_GT(first.gpus.migrated_bytes, 0u);

  const ScenarioResult second = run_scenario(cfg, apps);
  EXPECT_EQ(first.makespan_us, second.makespan_us);
  EXPECT_EQ(first.gpus, second.gpus);
  EXPECT_EQ(first.app_done_us, second.app_done_us);

  // Turning migration off keeps the counters inert.
  ScenarioConfig pinned = cfg;
  pinned.placement.allow_migration = false;
  const ScenarioResult still = run_scenario(pinned, apps);
  EXPECT_EQ(still.gpus.migrations, 0u);
  EXPECT_EQ(still.gpus.migrated_bytes, 0u);
}

TEST(MultiGpu, JsonCarriesHostGpusBlock) {
  ScenarioConfig cfg = mg_config(2);
  cfg.host_gpus[1].arch = make_gridk520();
  const ScenarioResult r = run_scenario(cfg, skewed_apps(4, 2));
  ASSERT_EQ(r.gpus.devices, 2u);

  run::SweepResult one;
  one.jobs.push_back(run::SweepJobResult{"hetero", "multigpu", r});
  one.workers = 1;
  one.wall_ms = 0.0;
  const std::string json = run::sweep_to_json(one, "multigpu-json");
  EXPECT_NE(json.find("\"host_gpus\": {\"devices\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"per_device\""), std::string::npos);
  EXPECT_NE(json.find("\"migrations\""), std::string::npos);
  EXPECT_NE(json.find("Quadro 4000"), std::string::npos);
  EXPECT_NE(json.find("Grid K520"), std::string::npos);
}

TEST(MultiGpu, ScenarioResultCodecRoundTripsMultiGpuStats) {
  ScenarioConfig cfg = mg_config(2);
  const ScenarioResult r = run_scenario(cfg, skewed_apps(6, 2));
  ASSERT_EQ(r.gpus.devices, 2u);

  snapshot::Writer w;
  snapshot::save_scenario_result(w, r);
  snapshot::Reader reader(w.buffer());
  const ScenarioResult back = snapshot::load_scenario_result(reader);
  EXPECT_EQ(back.gpus, r.gpus);
  EXPECT_EQ(back.makespan_us, r.makespan_us);
}

// --- determinism across workers and shards -----------------------------------

std::vector<run::SweepJob> make_multigpu_jobs() {
  std::vector<run::SweepJob> jobs;

  run::SweepJob quad;
  quad.name = "quad-affinity";
  quad.group = "multigpu";
  quad.config = mg_config(4);
  quad.config.dispatch.interleave = true;
  quad.config.async_launches = true;
  quad.apps = skewed_apps();
  jobs.push_back(quad);

  run::SweepJob hetero;
  hetero.name = "hetero-mix";
  hetero.group = "multigpu";
  hetero.config = mg_config(4);
  hetero.config.host_gpus[2].arch = make_gridk520();
  hetero.config.host_gpus[3].arch = make_gridk520();
  hetero.config.dispatch.interleave = true;
  hetero.apps = skewed_apps(6, 2);
  jobs.push_back(hetero);

  // Sharded fleet of multi-GPU domains: two shards, two devices each.
  run::SweepJob sharded;
  sharded.name = "sharded-multigpu";
  sharded.group = "multigpu";
  sharded.config = mg_config(2);
  sharded.config.fleet.domains = 2;
  sharded.config.dispatch.interleave = true;
  sharded.apps = skewed_apps(6, 2);
  jobs.push_back(sharded);

  return jobs;
}

TEST(MultiGpu, BenchJsonByteIdenticalAcrossWorkersAndShards) {
  const auto jobs = make_multigpu_jobs();

  auto canonical = [](run::SweepResult r) {
    r.wall_ms = 0.0;
    r.workers = 1;
    return run::sweep_to_json(r, "multigpu-battery");
  };

  run::set_fleet_shards(1);
  const run::SweepResult base = run::SweepRunner(1).run(jobs);
  const std::string base_json = canonical(base);
  ASSERT_NE(base_json.find("\"host_gpus\""), std::string::npos);

  for (const std::size_t shards : {1u, 2u}) {
    for (const std::size_t workers : {1u, 4u}) {
      run::set_fleet_shards(shards);
      const run::SweepResult got = run::SweepRunner(workers).run(jobs);
      EXPECT_EQ(canonical(got), base_json)
          << "multi-GPU JSON diverged at shards=" << shards << " workers=" << workers;
    }
  }
  run::set_fleet_shards(1);
}

// --- captures, checkpoint, resume --------------------------------------------

TEST(MultiGpu, CapturesReplayAcrossDeviceLanes) {
  // Sharded multi-GPU domains exercise the multi-lane dispatcher capture
  // layout; a replay must verify and a tampered digest must be caught.
  ScenarioConfig cfg = mg_config(2);
  cfg.fleet.domains = 2;
  cfg.dispatch.interleave = true;
  const auto apps = skewed_apps(6, 2);

  CaptureOptions cap;
  cap.every_us = 5000.0;
  std::vector<FleetCapture> captures;
  const ScenarioResult first = run_scenario(cfg, apps, cap, &captures);
  ASSERT_GT(captures.size(), 1u);

  CaptureOptions verify = cap;
  verify.expect = captures;
  std::vector<FleetCapture> replayed;
  const ScenarioResult second = run_scenario(cfg, apps, verify, &replayed);
  EXPECT_EQ(replayed.size(), captures.size());
  EXPECT_EQ(first.makespan_us, second.makespan_us);
  EXPECT_EQ(first.gpus, second.gpus);

  CaptureOptions tampered = cap;
  tampered.expect = captures;
  tampered.expect[1].digest ^= 0x1;
  EXPECT_THROW(run_scenario(cfg, apps, tampered, nullptr), snapshot::SnapshotError);
}

TEST(MultiGpu, CheckpointResumePreservesDeviceAssignments) {
  const auto jobs = make_multigpu_jobs();
  const std::string dir = "test_multigpu_ckpt";
  std::filesystem::remove_all(dir);

  run::SweepSnapshotOptions snap;
  snap.dir = dir;
  snap.every_us = 5000.0;

  run::SweepResumeInfo cold_info;
  run::set_fleet_shards(1);
  const run::SweepResult cold = run::SweepRunner(2).run(jobs, snap, &cold_info);
  EXPECT_TRUE(cold_info.resumed_from.empty());

  run::SweepResumeInfo warm_info;
  const run::SweepResult warm = run::SweepRunner(2).run(jobs, snap, &warm_info);
  EXPECT_FALSE(warm_info.resumed_from.empty());
  EXPECT_EQ(warm_info.jobs_resumed, jobs.size());

  ASSERT_EQ(cold.jobs.size(), warm.jobs.size());
  for (std::size_t i = 0; i < cold.jobs.size(); ++i) {
    EXPECT_EQ(cold.jobs[i].result.gpus, warm.jobs[i].result.gpus) << cold.jobs[i].name;
    EXPECT_EQ(cold.jobs[i].result.makespan_us, warm.jobs[i].result.makespan_us);
    EXPECT_EQ(cold.jobs[i].result.app_done_us, warm.jobs[i].result.app_done_us);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sigvp
