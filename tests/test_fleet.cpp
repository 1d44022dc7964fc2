// Tests of the fleet executor (DESIGN.md §16): the FleetTopology parser, the
// conservative-horizon scheduler over per-domain event queues, the fabric
// completion protocol, the --shards execution knob's byte-identity
// contract, per-shard capture folding / checkpoint resume, mid-run capture
// publication and exception safety at one and several domains, and the
// fleet metrics/resident-bytes accounting.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "gpu/launch_cache.hpp"
#include "run/json_writer.hpp"
#include "run/sweep.hpp"
#include "run/thread_pool.hpp"
#include "sim/topology.hpp"
#include "snapshot/serial.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "workloads/suite.hpp"

namespace sigvp {
namespace {

// --- FleetTopology -----------------------------------------------------------

TEST(FleetTopology, FlatStarDefaults) {
  const FleetTopology t = FleetTopology::parse("", 4, 25.0);
  EXPECT_EQ(t.domains(), 4u);
  EXPECT_DOUBLE_EQ(t.to_root_us(0), 0.0);
  EXPECT_EQ(t.hops_to_root(0), 0u);
  for (std::uint32_t d = 1; d < 4; ++d) {
    EXPECT_DOUBLE_EQ(t.to_root_us(d), 25.0);
    EXPECT_EQ(t.hops_to_root(d), 1u);
  }
  EXPECT_DOUBLE_EQ(t.lookahead_us(), 25.0);
}

TEST(FleetTopology, NewickTreeAccumulatesEdgeLatencies) {
  // Domain 1 directly on the root switch; 2 and 3 behind an intermediate
  // switch whose uplink costs 10; 3 overrides its own leaf edge to 5.
  const FleetTopology t = FleetTopology::parse("(1,(2,3:5):10)", 4, 50.0);
  EXPECT_DOUBLE_EQ(t.to_root_us(1), 50.0);
  EXPECT_EQ(t.hops_to_root(1), 1u);
  EXPECT_DOUBLE_EQ(t.to_root_us(2), 60.0);  // 50 leaf + 10 uplink
  EXPECT_EQ(t.hops_to_root(2), 2u);
  EXPECT_DOUBLE_EQ(t.to_root_us(3), 15.0);  // 5 leaf + 10 uplink
  EXPECT_EQ(t.hops_to_root(3), 2u);
  EXPECT_DOUBLE_EQ(t.lookahead_us(), 15.0);  // min over domains 1..3
}

TEST(FleetTopology, SiblingGroupsKeepIndependentUplinks) {
  // Two sibling switches: the second group's uplink must not leak into the
  // first group's domains.
  const FleetTopology t = FleetTopology::parse("((1,2):10,(3,4):20)", 5, 50.0);
  EXPECT_DOUBLE_EQ(t.to_root_us(1), 60.0);
  EXPECT_DOUBLE_EQ(t.to_root_us(2), 60.0);
  EXPECT_DOUBLE_EQ(t.to_root_us(3), 70.0);
  EXPECT_DOUBLE_EQ(t.to_root_us(4), 70.0);
  EXPECT_EQ(t.hops_to_root(1), 2u);
  EXPECT_EQ(t.hops_to_root(4), 2u);
}

TEST(FleetTopology, RejectsMalformedSpecs) {
  EXPECT_THROW(FleetTopology::parse("(1,2", 3, 50.0), ContractError);     // unclosed
  EXPECT_THROW(FleetTopology::parse("(1,1)", 3, 50.0), ContractError);    // dup id
  EXPECT_THROW(FleetTopology::parse("(1)", 3, 50.0), ContractError);      // 2 missing
  EXPECT_THROW(FleetTopology::parse("(1,2,3)", 3, 50.0), ContractError);  // 3 oob
  EXPECT_THROW(FleetTopology::parse("(0,1,2)", 3, 50.0), ContractError);  // root listed
  EXPECT_THROW(FleetTopology::parse("(1,2):5", 3, 50.0), ContractError);  // trailing
  EXPECT_THROW(FleetTopology::parse("(1,2:-4)", 3, 50.0), ContractError); // negative
  EXPECT_THROW(FleetTopology::parse("(1,2:x)", 3, 50.0), ContractError);  // not a number
  EXPECT_THROW(FleetTopology::parse("", 1, 50.0), ContractError);         // < 2 domains
}

TEST(FleetTopology, SingleDomainHasNoFabric) {
  const FleetTopology t = FleetTopology::single();
  EXPECT_EQ(t.domains(), 1u);
  EXPECT_DOUBLE_EQ(t.to_root_us(0), 0.0);
  EXPECT_EQ(t.hops_to_root(0), 0u);
  EXPECT_TRUE(std::isinf(t.lookahead_us()));
}

// --- sharded scenario execution ----------------------------------------------

ScenarioConfig fleet_config(std::uint32_t domains) {
  ScenarioConfig cfg;
  cfg.backend = Backend::kSigmaVp;
  cfg.mode = ExecMode::kAnalytic;
  cfg.fleet.domains = domains;
  return cfg;
}

TEST(ShardedFleet, ValidatesConfiguration) {
  const auto suite = workloads::make_suite();
  const workloads::Workload& w = workloads::find(suite, "vectorAdd");
  const auto apps = replicate(w, w.test_n, 2);

  ScenarioConfig cfg = fleet_config(4);  // more domains than apps
  EXPECT_THROW(run_scenario(cfg, apps), ContractError);

  cfg = fleet_config(2);
  cfg.backend = Backend::kEmulationOnVp;  // sharding requires ΣVP
  EXPECT_THROW(run_scenario(cfg, apps), ContractError);

  cfg = fleet_config(2);
  cfg.fleet.topology = "(1,2)";  // id 2 out of range for D=2
  EXPECT_THROW(run_scenario(cfg, apps), ContractError);
}

TEST(ShardedFleet, DomainsMatchIndependentSliceRuns) {
  // The fabric only *observes* completions; it never feeds back into app
  // execution. So a D-domain fleet's per-app results must equal the
  // concatenation of D independent single-domain runs over the slices.
  const auto suite = workloads::make_suite();
  const workloads::Workload& w = workloads::find(suite, "vectorAdd");
  workloads::AppTraits quick = w.traits;
  quick.iterations = 2;

  std::vector<AppInstance> apps;
  for (int i = 0; i < 6; ++i) {
    apps.push_back(AppInstance{.workload = &w, .n = w.test_n, .traits = quick});
    apps.back().jitter = static_cast<std::uint64_t>(i + 1);
  }

  const ScenarioResult fleet = run_scenario(fleet_config(2), apps);

  ScenarioConfig solo = fleet_config(1);
  const std::vector<AppInstance> lo(apps.begin(), apps.begin() + 3);
  const std::vector<AppInstance> hi(apps.begin() + 3, apps.end());
  const ScenarioResult r_lo = run_scenario(solo, lo);
  const ScenarioResult r_hi = run_scenario(solo, hi);

  ASSERT_EQ(fleet.app_done_us.size(), 6u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(fleet.app_done_us[static_cast<std::size_t>(i)],
              r_lo.app_done_us[static_cast<std::size_t>(i)])
        << i;
    EXPECT_EQ(fleet.app_done_us[static_cast<std::size_t>(i + 3)],
              r_hi.app_done_us[static_cast<std::size_t>(i)])
        << i;
  }
  EXPECT_EQ(fleet.makespan_us, std::max(r_lo.makespan_us, r_hi.makespan_us));
  EXPECT_EQ(fleet.jobs_dispatched, r_lo.jobs_dispatched + r_hi.jobs_dispatched);
  EXPECT_EQ(fleet.ipc_messages, r_lo.ipc_messages + r_hi.ipc_messages);
  EXPECT_EQ(fleet.gpu_compute_busy_us, r_lo.gpu_compute_busy_us + r_hi.gpu_compute_busy_us);
}

TEST(ShardedFleet, FabricAccountingAndFleetDone) {
  const auto suite = workloads::make_suite();
  const workloads::Workload& w = workloads::find(suite, "vectorAdd");
  workloads::AppTraits quick = w.traits;
  quick.iterations = 2;
  std::vector<AppInstance> apps;
  const AppInstance app{.workload = &w, .n = w.test_n, .traits = quick};
  for (int i = 0; i < 8; ++i) apps.push_back(app);

  ScenarioConfig cfg = fleet_config(4);
  cfg.fleet.edge_latency_us = 40.0;
  const ScenarioResult r = run_scenario(cfg, apps);

  EXPECT_EQ(r.fleet.domains, 4u);
  EXPECT_DOUBLE_EQ(r.fleet.lookahead_us, 40.0);
  EXPECT_GT(r.fleet.sync_rounds, 0u);
  // 6 remote apps (domains 1..3 own 2 each): one report + one ack per app,
  // each crossing one flat-star edge.
  EXPECT_EQ(r.fleet.fabric_messages, 12u);
  EXPECT_EQ(r.fleet.fabric_hops, 12u);
  // The root hears about the last remote completion one flight time late.
  EXPECT_GE(r.fleet.fleet_done_us, r.makespan_us);
  EXPECT_LE(r.fleet.fleet_done_us, r.makespan_us + 40.0 + 1e-9);
  EXPECT_GT(r.fleet.resident_bytes, 0u);

  // Single-domain runs keep the fleet block inert.
  const ScenarioResult solo = run_scenario(fleet_config(1), apps);
  EXPECT_EQ(solo.fleet.domains, 0u);
  EXPECT_EQ(solo.fleet.fabric_messages, 0u);
}

TEST(ShardedFleet, TreeTopologyDelaysFleetDone) {
  const auto suite = workloads::make_suite();
  const workloads::Workload& w = workloads::find(suite, "vectorAdd");
  workloads::AppTraits quick = w.traits;
  quick.iterations = 1;
  std::vector<AppInstance> apps;
  const AppInstance app{.workload = &w, .n = w.test_n, .traits = quick};
  for (int i = 0; i < 6; ++i) apps.push_back(app);

  ScenarioConfig flat = fleet_config(3);
  flat.fleet.edge_latency_us = 30.0;
  ScenarioConfig tree = flat;
  tree.fleet.topology = "(1,(2):170)";  // domain 2 sits 200 µs from the root

  const ScenarioResult r_flat = run_scenario(flat, apps);
  const ScenarioResult r_tree = run_scenario(tree, apps);
  // Same simulation inside every domain...
  EXPECT_EQ(r_flat.app_done_us, r_tree.app_done_us);
  // ...but the deeper fabric path defers the root's all-done instant and
  // doubles domain 2's per-message hop count.
  EXPECT_GT(r_tree.fleet.fleet_done_us, r_flat.fleet.fleet_done_us);
  EXPECT_GT(r_tree.fleet.fabric_hops, r_flat.fleet.fabric_hops);
  EXPECT_EQ(r_tree.fleet.fabric_messages, r_flat.fleet.fabric_messages);
}

// --- --shards execution knob: byte-identity battery --------------------------

std::vector<run::SweepJob> make_fleet_jobs() {
  static const auto suite = workloads::make_suite();
  const workloads::Workload& va = workloads::find(suite, "vectorAdd");
  const workloads::Workload& bs = workloads::find(suite, "BlackScholes");
  workloads::AppTraits quick_va = va.traits;
  quick_va.iterations = 2;
  workloads::AppTraits quick_bs = bs.traits;
  quick_bs.iterations = 2;

  std::vector<run::SweepJob> jobs;

  run::SweepJob solo;
  solo.name = "solo";
  solo.group = "legacy";
  solo.config = fleet_config(1);
  solo.apps = replicate(va, va.test_n, 3);
  jobs.push_back(solo);

  run::SweepJob fleet4;
  fleet4.name = "fleet4";
  fleet4.group = "fleet";
  fleet4.config = fleet_config(4);
  fleet4.config.dispatch.interleave = true;
  fleet4.config.async_launches = true;
  for (int i = 0; i < 8; ++i) {
    fleet4.apps.push_back(AppInstance{.workload = &va, .n = va.test_n, .traits = quick_va});
    fleet4.apps.back().jitter = static_cast<std::uint64_t>(i);
  }
  jobs.push_back(fleet4);

  run::SweepJob tree;
  tree.name = "fleet-tree";
  tree.group = "fleet";
  tree.config = fleet_config(3);
  tree.config.fleet.topology = "(1,(2):25)";
  tree.apps = replicate(bs, bs.test_n, 6);
  for (auto& a : tree.apps) a.traits = quick_bs;
  jobs.push_back(tree);

  // Fault injection across shard boundaries: lossy transport everywhere,
  // a device reset mid-run, and a stalling VP that lands in domain 1.
  run::SweepJob faulty;
  faulty.name = "fleet-faulty";
  faulty.group = "fleet";
  faulty.config = fleet_config(2);
  faulty.config.fault.seed = 42;
  faulty.config.fault.drop_rate = 0.05;
  faulty.config.fault.dup_rate = 0.02;
  faulty.config.fault.device_reset_at_us = {30000.0};
  faulty.config.fault.stall_vp = 4;
  faulty.apps = replicate(va, va.test_n, 6);
  for (auto& a : faulty.apps) a.traits = quick_va;
  jobs.push_back(faulty);

  // Functional fleet: real data through per-domain launch-cache shards.
  run::SweepJob func;
  func.name = "fleet-func";
  func.group = "fleet";
  func.config = fleet_config(2);
  func.config.mode = ExecMode::kFunctional;
  func.config.functional_io = true;
  func.apps = replicate(va, va.test_n, 4);
  for (auto& a : func.apps) {
    a.traits = va.traits;
    a.traits->iterations = 1;
  }
  jobs.push_back(func);
  return jobs;
}

TEST(ShardedFleet, BenchJsonByteIdenticalAcrossShardsAndWorkers) {
  const auto jobs = make_fleet_jobs();

  run::set_fleet_shards(1);
  const run::SweepResult base = run::SweepRunner(1).run(jobs);
  std::string base_json = run::sweep_to_json(base, "fleet-battery");
  // wall_ms is host wall-clock — the one legitimately varying field.
  ASSERT_NE(base_json.find("\"wall_ms\""), std::string::npos);

  // wall_ms and workers are host-execution descriptors, the only fields the
  // JSON is *supposed* to vary by; every simulation byte must be identical.
  auto canonical = [](run::SweepResult r) {
    r.wall_ms = 0.0;
    r.workers = 1;
    return run::sweep_to_json(r, "fleet-battery");
  };
  base_json = canonical(base);

  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    for (const std::size_t workers : {1u, 4u}) {
      run::set_fleet_shards(shards);
      const run::SweepResult got = run::SweepRunner(workers).run(jobs);
      EXPECT_EQ(canonical(got), base_json)
          << "BENCH JSON diverged at shards=" << shards << " workers=" << workers;
      // The executor stats kept out of sweep JSON (see json_writer.cpp) are
      // still shard/worker invariant — the round structure is pure sim.
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        EXPECT_EQ(got.jobs[j].result.fleet.sync_rounds, base.jobs[j].result.fleet.sync_rounds)
            << jobs[j].name << " at shards=" << shards << " workers=" << workers;
        EXPECT_EQ(got.jobs[j].result.fleet.resident_bytes,
                  base.jobs[j].result.fleet.resident_bytes)
            << jobs[j].name << " at shards=" << shards << " workers=" << workers;
      }
    }
  }
  run::set_fleet_shards(1);

  // The faulty job really exercised the fault machinery, sharded.
  const ScenarioResult& faulty = base.find("fleet-faulty").result;
  EXPECT_TRUE(faulty.fault.active);
  EXPECT_GT(faulty.fault.retransmits + faulty.fault.duplicates_suppressed, 0u);
  EXPECT_GE(faulty.fault.vp_stalls, 1u);
  EXPECT_EQ(faulty.fault.unrecovered_jobs, 0u);
  // The functional job produced outputs and hit its private cache shards.
  const ScenarioResult& func = base.find("fleet-func").result;
  ASSERT_EQ(func.app_outputs.size(), 4u);
  EXPECT_FALSE(func.app_outputs[0].empty());
  EXPECT_GT(func.fleet.cache_hits + func.fleet.cache_misses, 0u);
}

TEST(FleetPool, HasExactlyTheRequestedWorkers) {
  // A smaller request after a larger one must not keep the larger pool: a
  // 2-shard pass would otherwise run on eight threads.
  EXPECT_EQ(run::fleet_pool(8).size(), 8u);
  EXPECT_EQ(run::fleet_pool(2).size(), 2u);
}

TEST(FleetPool, ConcurrentShardedJobsOfDifferentDomainCountsShareOnePool) {
  // Concurrent jobs with D = 2, 3 and 4 all ask for fleet_shards() threads,
  // so none of them rebuilds the pool another job is advancing domains on.
  const auto suite = workloads::make_suite();
  const workloads::Workload& w = workloads::find(suite, "vectorAdd");
  std::vector<run::SweepJob> jobs;
  for (const std::uint32_t d : {2u, 3u, 4u}) {
    run::SweepJob job;
    job.name = "d" + std::to_string(d);
    job.group = "fleet";
    job.config = fleet_config(d);
    job.apps = replicate(w, w.test_n, 2 * d);
    jobs.push_back(std::move(job));
  }
  run::set_fleet_shards(4);
  run::ThreadPool* const pool = &run::fleet_pool(4);
  run::SweepRunner(4).run(jobs);
  EXPECT_EQ(&run::fleet_pool(4), pool);
  EXPECT_EQ(run::fleet_pool(4).size(), 4u);
  run::set_fleet_shards(1);
}

// --- captures, checkpoint, resume --------------------------------------------

TEST(ShardedFleet, CapturesReplayAndDetectTampering) {
  const auto suite = workloads::make_suite();
  const workloads::Workload& w = workloads::find(suite, "vectorAdd");
  workloads::AppTraits quick = w.traits;
  quick.iterations = 2;
  std::vector<AppInstance> apps;
  const AppInstance app{.workload = &w, .n = w.test_n, .traits = quick};
  for (int i = 0; i < 6; ++i) apps.push_back(app);

  const ScenarioConfig cfg = fleet_config(3);
  CaptureOptions cap;
  cap.every_us = 5000.0;

  std::vector<FleetCapture> captures;
  const ScenarioResult first = run_scenario(cfg, apps, cap, &captures);
  ASSERT_GT(captures.size(), 1u);
  for (std::size_t i = 1; i < captures.size(); ++i) {
    EXPECT_GT(captures[i].at_us, captures[i - 1].at_us);
  }

  // Replay under verification: same digests, same result.
  CaptureOptions verify = cap;
  verify.expect = captures;
  std::vector<FleetCapture> replayed;
  const ScenarioResult second = run_scenario(cfg, apps, verify, &replayed);
  EXPECT_EQ(replayed.size(), captures.size());
  EXPECT_EQ(first.makespan_us, second.makespan_us);
  EXPECT_EQ(first.fleet.sync_rounds, second.fleet.sync_rounds);

  // A tampered digest is caught at its capture position.
  CaptureOptions tampered = cap;
  tampered.expect = captures;
  tampered.expect[1].digest ^= 0x1;
  EXPECT_THROW(run_scenario(cfg, apps, tampered, nullptr), snapshot::SnapshotError);
}

// --- the one executor's capture contract ---------------------------------------

TEST(FleetExecutor, SingleDomainPublishesEachCaptureMidRun) {
  // A single domain runs through the fleet executor too: with captures on,
  // each capture reaches on_capture while the scenario is still running,
  // not at its end. The process launch cache's lookup count (hits +
  // misses), sampled inside the hook, must therefore strictly increase
  // across the captures taken before the makespan (launches continue
  // between them), and stay below the count the whole run reaches.
  const auto suite = workloads::make_suite();
  const workloads::Workload& w = workloads::find(suite, "vectorAdd");
  workloads::AppTraits traits = w.traits;
  traits.iterations = 8;
  std::vector<AppInstance> apps;
  const AppInstance app{.workload = &w, .n = w.test_n, .traits = traits};
  for (int i = 0; i < 2; ++i) apps.push_back(app);
  ScenarioConfig cfg = fleet_config(1);
  cfg.mode = ExecMode::kFunctional;

  const SimTime makespan = run_scenario(cfg, apps).makespan_us;
  CaptureOptions cap;
  cap.every_us = makespan / 4.0;
  std::vector<std::uint64_t> lookups;
  cap.on_capture = [&lookups](const FleetCapture&) {
    const LaunchCacheStats s = LaunchCache::instance().stats();
    lookups.push_back(s.hits + s.misses);
  };
  std::vector<FleetCapture> captures;
  const ScenarioResult r = run_scenario(cfg, apps, cap, &captures);
  EXPECT_EQ(r.makespan_us, makespan);
  EXPECT_EQ(r.fleet.domains, 0u);
  const LaunchCacheStats end = LaunchCache::instance().stats();
  ASSERT_EQ(lookups.size(), captures.size());
  std::size_t mid_run = 0;
  while (mid_run < captures.size() && captures[mid_run].at_us < makespan) ++mid_run;
  ASSERT_EQ(mid_run, 3u);
  for (std::size_t i = 1; i < mid_run; ++i) {
    EXPECT_GT(lookups[i], lookups[i - 1]) << "capture " << i << " was not published mid-run";
  }
  EXPECT_LT(lookups[mid_run - 1], end.hits + end.misses);
}

TEST(FleetExecutor, ThrowingCaptureHookPropagatesAtOneAndThreeDomains) {
  // An exception from on_capture unwinds the executor with every domain
  // still mid-run; it must reach the caller (and, under LeakSanitizer, the
  // abandoned apps must be freed with their domains).
  struct HookFailure {};
  const auto suite = workloads::make_suite();
  const workloads::Workload& w = workloads::find(suite, "vectorAdd");
  workloads::AppTraits quick = w.traits;
  quick.iterations = 2;
  std::vector<AppInstance> apps;
  const AppInstance app{.workload = &w, .n = w.test_n, .traits = quick};
  for (int i = 0; i < 6; ++i) apps.push_back(app);

  for (const std::uint32_t domains : {1u, 3u}) {
    CaptureOptions cap;
    cap.every_us = 5000.0;
    std::size_t seen = 0;
    cap.on_capture = [&seen](const FleetCapture&) {
      if (++seen == 2) throw HookFailure{};
    };
    EXPECT_THROW(run_scenario(fleet_config(domains), apps, cap, nullptr), HookFailure)
        << "domains=" << domains;
    EXPECT_EQ(seen, 2u) << "domains=" << domains;
  }
}

TEST(ShardedFleet, CheckpointRoundTripsFleetStats) {
  // SweepRunner checkpoints serialize ScenarioResult — including the new
  // FleetStats block — and a warm rerun must splice bit-identical results.
  const auto jobs = make_fleet_jobs();
  const std::string dir = "test_fleet_ckpt";
  std::filesystem::remove_all(dir);

  run::SweepSnapshotOptions snap;
  snap.dir = dir;
  snap.every_us = 5000.0;

  run::SweepResumeInfo cold_info;
  const run::SweepResult cold = run::SweepRunner(2).run(jobs, snap, &cold_info);
  EXPECT_TRUE(cold_info.resumed_from.empty());

  run::SweepResumeInfo warm_info;
  const run::SweepResult warm = run::SweepRunner(2).run(jobs, snap, &warm_info);
  EXPECT_FALSE(warm_info.resumed_from.empty());
  EXPECT_EQ(warm_info.jobs_resumed, jobs.size());

  ASSERT_EQ(cold.jobs.size(), warm.jobs.size());
  for (std::size_t i = 0; i < cold.jobs.size(); ++i) {
    EXPECT_EQ(cold.jobs[i].result.fleet, warm.jobs[i].result.fleet) << cold.jobs[i].name;
    EXPECT_EQ(cold.jobs[i].result.makespan_us, warm.jobs[i].result.makespan_us);
    EXPECT_EQ(cold.jobs[i].result.app_done_us, warm.jobs[i].result.app_done_us);
  }
  std::filesystem::remove_all(dir);
}

// --- metrics / resident-bytes ------------------------------------------------

TEST(ShardedFleet, MetricsCarryFleetGaugesWhenCollecting) {
  trace::set_metrics_forced(true);
  const auto suite = workloads::make_suite();
  const workloads::Workload& w = workloads::find(suite, "vectorAdd");
  workloads::AppTraits quick = w.traits;
  quick.iterations = 2;
  std::vector<AppInstance> apps;
  const AppInstance app{.workload = &w, .n = w.test_n, .traits = quick};
  for (int i = 0; i < 6; ++i) apps.push_back(app);

  const ScenarioResult r = run_scenario(fleet_config(3), apps);
  trace::set_metrics_forced(false);

  ASSERT_NE(r.metrics, nullptr);
  const auto& gauges = r.metrics->gauges();
  const auto res = gauges.find("fleet.resident_bytes");
  ASSERT_NE(res, gauges.end());
  EXPECT_DOUBLE_EQ(res->second.value, static_cast<double>(r.fleet.resident_bytes));
  EXPECT_GT(r.fleet.resident_bytes, 0u);

  const auto& counters = r.metrics->counters();
  const auto msgs = counters.find("fleet.fabric_messages");
  ASSERT_NE(msgs, counters.end());
  EXPECT_EQ(msgs->second.value, r.fleet.fabric_messages);
  const auto rounds = counters.find("fleet.sync_rounds");
  ASSERT_NE(rounds, counters.end());
  EXPECT_EQ(rounds->second.value, r.fleet.sync_rounds);
  EXPECT_NE(gauges.find("run.makespan_us"), gauges.end());
}

// --- CLI ---------------------------------------------------------------------

TEST(SweepCliShards, ParsesAndInstallsShardKnob) {
  const char* argv_full[] = {"bench", "--shards", "4"};
  run::SweepCli cli =
      run::parse_sweep_cli(3, const_cast<char**>(argv_full), "BENCH_default.json");
  EXPECT_EQ(cli.shards, 4u);
  EXPECT_EQ(run::fleet_shards(), 4u);

  const char* argv_defaults[] = {"bench"};
  cli = run::parse_sweep_cli(1, const_cast<char**>(argv_defaults), "BENCH_default.json");
  EXPECT_EQ(cli.shards, 1u);
  EXPECT_EQ(run::fleet_shards(), 1u);
}

}  // namespace
}  // namespace sigvp
