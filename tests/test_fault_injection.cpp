// Tests of the deterministic fault-injection layer and the fault-tolerant
// host stack (PR 2): zero-fault identity, bit-identical faulty sweeps across
// worker counts, byte-exact functional results under loss/retry/fallback,
// per-VP order across device resets, coalesced-group recovery, quarantine
// threshold edges, stalled-VP restart, and the diagnostics satellites
// (bounds checks, dispatcher stall report).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/scenario.hpp"
#include "fault/health.hpp"
#include "run/sweep.hpp"
#include "util/check.hpp"
#include "workloads/suite.hpp"

namespace sigvp {
namespace {

// --- scenario-level helpers ------------------------------------------------------

FaultConfig lossy_faults() {
  FaultConfig f;
  f.drop_rate = 0.3;  // high enough that a short functional run sees faults
  f.dup_rate = 0.1;
  f.latency_spike_rate = 0.1;
  f.launch_fail_rate = 0.1;
  return f;
}

workloads::AppTraits chatty(const workloads::Workload& w) {
  workloads::AppTraits t = w.traits;
  t.iterations = 4;
  t.launches_per_iter = 2;
  t.iter_h2d_bytes = 0;
  t.iter_d2h_bytes = 0;
  return t;
}

ScenarioConfig sigma_config(bool optimized, std::size_t vps) {
  ScenarioConfig cfg;
  cfg.backend = Backend::kSigmaVp;
  cfg.mode = ExecMode::kAnalytic;
  if (optimized) {
    cfg.dispatch.interleave = true;
    cfg.dispatch.coalesce = true;
    cfg.dispatch.coalesce_eager_peers = static_cast<std::uint32_t>(vps - 1);
    cfg.async_launches = true;
  }
  return cfg;
}

std::vector<AppInstance> chatty_apps(const workloads::Workload& w, std::size_t vps) {
  std::vector<AppInstance> apps;
  for (std::size_t i = 0; i < vps; ++i) {
    apps.push_back(AppInstance{.workload = &w, .n = w.test_n, .traits = chatty(w)});
  }
  return apps;
}

void expect_same_result(const ScenarioResult& a, const ScenarioResult& b) {
  EXPECT_EQ(a.makespan_us, b.makespan_us);
  EXPECT_EQ(a.app_done_us, b.app_done_us);
  EXPECT_EQ(a.jobs_dispatched, b.jobs_dispatched);
  EXPECT_EQ(a.reorders, b.reorders);
  EXPECT_EQ(a.coalesced_groups, b.coalesced_groups);
  EXPECT_EQ(a.coalesced_jobs, b.coalesced_jobs);
  EXPECT_EQ(a.ipc_messages, b.ipc_messages);
  EXPECT_EQ(a.gpu_dynamic_energy_j, b.gpu_dynamic_energy_j);
  EXPECT_EQ(a.gpu_compute_busy_us, b.gpu_compute_busy_us);
  EXPECT_EQ(a.gpu_copy_busy_us, b.gpu_copy_busy_us);
  EXPECT_TRUE(a.fault == b.fault);
}

// --- zero-fault identity ---------------------------------------------------------

TEST(FaultInjection, ZeroFaultPlanIsInertAndSeedIndependent) {
  const auto suite = workloads::make_suite();
  const workloads::Workload& w = workloads::find(suite, "vectorAdd");

  // Default config: the zero-fault plan. Nothing may consult the plan or the
  // recovery knobs, so changing either must not perturb a single field.
  ScenarioConfig base = sigma_config(true, 4);
  ScenarioConfig tweaked = base;
  tweaked.fault.seed = 0xdeadbeef;  // still zero-fault: all rates 0
  tweaked.recovery.max_retries = 1;
  tweaked.recovery.ack_timeout_us = 1.0;

  const ScenarioResult a = run_scenario(base, chatty_apps(w, 4));
  const ScenarioResult b = run_scenario(tweaked, chatty_apps(w, 4));
  expect_same_result(a, b);
  EXPECT_TRUE(a.fault == FaultStats{});  // inactive, every counter zero
}

// --- determinism across worker counts --------------------------------------------

TEST(FaultInjection, FaultySweepIsBitIdenticalAcrossWorkerCounts) {
  const auto suite = workloads::make_suite();
  const workloads::Workload& w = workloads::find(suite, "vectorAdd");

  std::vector<run::SweepJob> jobs;
  for (bool optimized : {false, true}) {
    for (double drop : {0.05, 0.6}) {
      run::SweepJob job;
      job.name = std::string(optimized ? "opt" : "plain") + "/" + std::to_string(drop);
      job.config = sigma_config(optimized, 4);
      job.config.fault = lossy_faults();
      job.config.fault.drop_rate = drop;  // 0.6 exhausts budgets -> fallback
      job.config.fault.launch_fail_rate = 0.02;
      job.config.fault.device_reset_at_us = {400.0};
      job.apps = chatty_apps(w, 4);
      jobs.push_back(std::move(job));
    }
  }

  const run::SweepResult serial = run::SweepRunner(1).run(jobs);
  const run::SweepResult sharded = run::SweepRunner(4).run(jobs);
  ASSERT_EQ(serial.jobs.size(), sharded.jobs.size());
  for (std::size_t i = 0; i < serial.jobs.size(); ++i) {
    SCOPED_TRACE(serial.jobs[i].name);
    expect_same_result(serial.jobs[i].result, sharded.jobs[i].result);
    EXPECT_TRUE(serial.jobs[i].result.fault.active);
    EXPECT_EQ(serial.jobs[i].result.fault.unrecovered_jobs, 0u);
  }
  // The heavy-drop points must actually exercise the degradation machinery.
  bool saw_faults = false, saw_fallback = false;
  for (const auto& j : serial.jobs) {
    if (j.result.fault.messages_dropped > 0) saw_faults = true;
    if (j.result.fault.fallbacks > 0) saw_fallback = true;
  }
  EXPECT_TRUE(saw_faults);
  EXPECT_TRUE(saw_fallback);
}

// --- functional differential under faults ----------------------------------------

ScenarioResult run_functional(const workloads::Workload& w, Backend backend,
                              bool optimized, FaultConfig fault) {
  ScenarioConfig cfg = sigma_config(optimized, 2);
  cfg.backend = backend;
  cfg.mode = ExecMode::kFunctional;
  cfg.functional_io = true;
  cfg.fault = fault;
  workloads::AppTraits t = w.traits;
  t.iterations = 1;
  t.launches_per_iter = 1;
  t.iter_h2d_bytes = 0;
  t.iter_d2h_bytes = 0;
  std::vector<AppInstance> apps;
  const AppInstance app{.workload = &w, .n = w.test_n, .traits = t};
  for (std::size_t i = 0; i < 2; ++i) apps.push_back(app);
  return run_scenario(cfg, apps);
}

TEST(FaultInjection, OutputsMatchEmulationByteExactUnderFaults) {
  // Retries, duplications and re-queues must never change what is computed:
  // the faulty SigmaVP backend must still be byte-identical to the clean
  // emulation reference.
  const auto suite = workloads::make_suite();
  std::size_t tested = 0;
  for (const auto& w : suite) {
    if (!w.fill_inputs) continue;
    if (tested == 3) break;  // three workloads keep the test fast
    SCOPED_TRACE(w.app);
    ++tested;
    const ScenarioResult ref = run_functional(w, Backend::kEmulationOnVp, false, {});
    const ScenarioResult faulty =
        run_functional(w, Backend::kSigmaVp, true, lossy_faults());
    EXPECT_GT(faulty.fault.messages_dropped + faulty.fault.retransmits, 0u);
    EXPECT_EQ(faulty.fault.unrecovered_jobs, 0u);
    ASSERT_EQ(ref.app_outputs.size(), faulty.app_outputs.size());
    for (std::size_t vp = 0; vp < ref.app_outputs.size(); ++vp) {
      ASSERT_FALSE(ref.app_outputs[vp].empty());
      EXPECT_TRUE(ref.app_outputs[vp] == faulty.app_outputs[vp]) << "vp " << vp;
    }
  }
  EXPECT_EQ(tested, 3u);
}

TEST(FaultInjection, EmulationFallbackPreservesOutputsByteExact) {
  // A drop storm exhausts the retry budget, degrades both VPs to the
  // EmulationDriver fallback, and the run still terminates with the exact
  // reference bytes — graceful degradation end to end.
  const auto suite = workloads::make_suite();
  const workloads::Workload& w = workloads::find(suite, "vectorAdd");
  FaultConfig storm = lossy_faults();
  storm.drop_rate = 0.9;
  storm.launch_fail_rate = 0.0;
  const ScenarioResult ref = run_functional(w, Backend::kEmulationOnVp, false, {});
  const ScenarioResult faulty = run_functional(w, Backend::kSigmaVp, false, storm);
  EXPECT_GT(faulty.fault.fallbacks, 0u);
  EXPECT_GT(faulty.fault.fallback_jobs, 0u);
  EXPECT_EQ(faulty.fault.unrecovered_jobs, 0u);
  ASSERT_EQ(ref.app_outputs.size(), faulty.app_outputs.size());
  for (std::size_t vp = 0; vp < ref.app_outputs.size(); ++vp) {
    EXPECT_TRUE(ref.app_outputs[vp] == faulty.app_outputs[vp]) << "vp " << vp;
  }
}

// --- dispatcher rig: order across resets, group recovery -------------------------

constexpr std::uint64_t kMem = 256ull * 1024 * 1024;

struct Completion {
  std::uint32_t vp;
  std::uint64_t seq;
  SimTime end;
};

struct FaultRig {
  EventQueue q;
  GpuDevice dev;
  Dispatcher disp;
  FaultPlan plan;
  FaultStats stats;
  HealthPolicy health;

  FaultRig(DispatchConfig cfg, std::size_t vps, FaultConfig fault,
           RecoveryConfig recovery = {})
      : dev(q, make_quadro4000(), kMem, "gpu"),
        disp(q, dev, zero_overhead(cfg)),
        plan(fault),
        stats{},
        health(recovery, stats) {
    stats.active = true;
    dev.set_fault(&plan, &stats);
    disp.set_fault(&plan, &stats, &health, recovery);
    for (std::size_t i = 0; i < vps; ++i) {
      disp.register_vp();
      health.register_vp();
    }
  }

  static DispatchConfig zero_overhead(DispatchConfig cfg) {
    cfg.dispatch_overhead_us = 0.0;
    return cfg;
  }
};

Job analytic_kernel(const workloads::Workload& va, std::uint32_t vp, std::uint64_t seq,
                    std::vector<Completion>* log) {
  Job j;
  j.vp_id = vp;
  j.seq_in_vp = seq;
  j.kind = JobKind::kKernel;
  j.launch.request.kernel = &va.kernel;
  j.launch.request.dims.block_x = 128;
  j.launch.request.dims.grid_x = 4;
  j.launch.request.mode = ExecMode::kAnalytic;
  j.launch.request.analytic_profile.instr_counts[InstrClass::kFp32] = 300'000;
  j.launch.request.mem_behavior = MemoryBehavior{1 << 12, 500, 0.5, 0.9};
  j.on_complete = [log, vp, seq](SimTime end, const KernelExecStats*) {
    log->push_back({vp, seq, end});
  };
  return j;
}

void expect_per_vp_order(const std::vector<Completion>& log, std::size_t vps,
                         std::size_t jobs_per_vp) {
  std::vector<std::uint64_t> next(vps, 0);
  for (const Completion& c : log) {
    EXPECT_EQ(c.seq, next[c.vp]) << "vp " << c.vp << " completed out of order";
    ++next[c.vp];
  }
  for (std::size_t vp = 0; vp < vps; ++vp) {
    EXPECT_EQ(next[vp], jobs_per_vp) << "vp " << vp << " lost jobs";
  }
}

TEST(FaultInjection, PerVpOrderSurvivesDeviceReset) {
  const workloads::Workload va = workloads::make_vector_add();
  constexpr std::size_t kVps = 4, kJobs = 6;
  FaultConfig f;
  f.device_reset_at_us = {40.0};  // mid-flight: kernels are tens of us long

  DispatchConfig cfg;
  cfg.interleave = true;
  FaultRig rig(cfg, kVps, f);
  std::vector<Completion> log;
  for (std::uint64_t seq = 0; seq < kJobs; ++seq) {
    for (std::uint32_t vp = 0; vp < kVps; ++vp) {
      rig.disp.submit(analytic_kernel(va, vp, seq, &log));
    }
  }
  rig.q.schedule_at(40.0, [&rig] { rig.disp.inject_device_reset(); });
  rig.q.run();

  EXPECT_TRUE(rig.disp.idle());
  EXPECT_EQ(rig.stats.device_resets, 1u);
  EXPECT_GE(rig.stats.ops_killed_by_reset, 1u);
  EXPECT_EQ(rig.stats.reset_requeues, rig.stats.ops_killed_by_reset);
  EXPECT_EQ(rig.stats.unrecovered_jobs, 0u);
  expect_per_vp_order(log, kVps, kJobs);
}

Job functional_vadd(const workloads::Workload& va, FaultRig& rig, std::uint32_t vp,
                    std::uint64_t seq, std::uint64_t n, std::vector<std::uint64_t>* addrs,
                    std::vector<Completion>* log) {
  for (const auto& spec : va.buffers(n)) addrs->push_back(rig.dev.malloc(spec.bytes));
  for (std::uint64_t i = 0; i < n; ++i) {
    rig.dev.memory().write<float>((*addrs)[0] + 4 * i, static_cast<float>(vp) + 0.25f);
    rig.dev.memory().write<float>((*addrs)[1] + 4 * i, static_cast<float>(i));
  }
  Job j;
  j.vp_id = vp;
  j.seq_in_vp = seq;
  j.kind = JobKind::kKernel;
  j.launch.request.kernel = &va.kernel;
  j.launch.request.dims = va.dims(n);
  j.launch.request.args = va.args(*addrs, n);
  j.launch.request.mode = ExecMode::kFunctional;
  j.launch.coalesce = va.coalesce(n);
  j.on_complete = [log, vp, seq](SimTime end, const KernelExecStats*) {
    log->push_back({vp, seq, end});
  };
  return j;
}

void expect_vadd_outputs(FaultRig& rig, const std::vector<std::vector<std::uint64_t>>& bufs,
                         std::uint64_t n) {
  for (std::uint32_t vp = 0; vp < bufs.size(); ++vp) {
    for (std::uint64_t i = 0; i < n; ++i) {
      const float expect = (static_cast<float>(vp) + 0.25f) + static_cast<float>(i);
      EXPECT_EQ(rig.dev.memory().read<float>(bufs[vp][2] + 4 * i), expect)
          << "vp " << vp << " elem " << i;
    }
  }
}

TEST(FaultInjection, CoalescedGroupResplitsOnMergedLaunchAbort) {
  // Every VP submits one coalescable functional vectorAdd; the merged launch
  // aborts (transient failure), the group re-splits to singles, the singles
  // retry and complete — with the exact expected output bytes.
  const workloads::Workload va = workloads::make_vector_add();
  constexpr std::size_t kVps = 4;
  constexpr std::uint64_t kN = 64;

  FaultConfig f;
  f.seed = 7;
  f.launch_fail_rate = 0.45;  // seeded: the merged launch aborts, retries pass
  RecoveryConfig rec;
  rec.max_launch_retries = 64;
  rec.quarantine_threshold = 1000;  // keep coalescing eligible throughout

  DispatchConfig cfg;
  cfg.interleave = true;
  cfg.coalesce = true;
  cfg.coalesce_eager_peers = kVps - 1;
  FaultRig rig(cfg, kVps, f, rec);

  std::vector<Completion> log;
  std::vector<std::vector<std::uint64_t>> bufs(kVps);
  for (std::uint32_t vp = 0; vp < kVps; ++vp) {
    rig.disp.submit(functional_vadd(va, rig, vp, 0, kN, &bufs[vp], &log));
  }
  rig.q.run();

  EXPECT_TRUE(rig.disp.idle());
  EXPECT_GE(rig.stats.launch_failures, 1u);
  EXPECT_GE(rig.stats.group_resplits, 1u);
  EXPECT_EQ(rig.stats.unrecovered_jobs, 0u);
  expect_per_vp_order(log, kVps, 1);
  expect_vadd_outputs(rig, bufs, kN);
}

TEST(FaultInjection, DeviceResetDuringCoalescedGroupRequeuesKilledMembers) {
  // First run the group cleanly to learn when it completes, then re-run with
  // a reset in the middle of that window: killed members re-queue, complete
  // in order, and the output bytes still match.
  const workloads::Workload va = workloads::make_vector_add();
  constexpr std::size_t kVps = 4;
  constexpr std::uint64_t kN = 64;

  DispatchConfig cfg;
  cfg.interleave = true;
  cfg.coalesce = true;
  cfg.coalesce_eager_peers = kVps - 1;

  SimTime clean_end = 0.0;
  {
    FaultConfig probe;  // enabled (reset listed) but the reset never fires
    probe.device_reset_at_us = {1e9};
    FaultRig rig(cfg, kVps, probe);
    std::vector<Completion> log;
    std::vector<std::vector<std::uint64_t>> bufs(kVps);
    for (std::uint32_t vp = 0; vp < kVps; ++vp) {
      rig.disp.submit(functional_vadd(va, rig, vp, 0, kN, &bufs[vp], &log));
    }
    rig.q.run();
    ASSERT_EQ(log.size(), kVps);
    EXPECT_GE(rig.stats.active ? rig.disp.coalesced_groups() : 0u, 1u);
    for (const Completion& c : log) clean_end = std::max(clean_end, c.end);
  }

  FaultConfig f;
  f.device_reset_at_us = {clean_end / 2.0};
  FaultRig rig(cfg, kVps, f);
  std::vector<Completion> log;
  std::vector<std::vector<std::uint64_t>> bufs(kVps);
  for (std::uint32_t vp = 0; vp < kVps; ++vp) {
    rig.disp.submit(functional_vadd(va, rig, vp, 0, kN, &bufs[vp], &log));
  }
  rig.q.schedule_at(clean_end / 2.0, [&rig] { rig.disp.inject_device_reset(); });
  rig.q.run();

  EXPECT_TRUE(rig.disp.idle());
  EXPECT_EQ(rig.stats.device_resets, 1u);
  EXPECT_GE(rig.stats.ops_killed_by_reset, 1u);
  EXPECT_GE(rig.stats.reset_requeues + rig.stats.group_resplits, 1u);
  EXPECT_EQ(rig.stats.unrecovered_jobs, 0u);
  expect_per_vp_order(log, kVps, 1);
  expect_vadd_outputs(rig, bufs, kN);
}

TEST(FaultInjection, DeviceResetDuringMergedLaunchAbortResplitsTheGroupOnce) {
  // The merged launch aborts (as in CoalescedGroupResplitsOnMergedLaunchAbort)
  // and a device reset lands while the abort still holds the compute engine:
  // the reset kills the abort op, whose kill action re-splits the group, and
  // the abort's own callback never fires.
  const workloads::Workload va = workloads::make_vector_add();
  constexpr std::size_t kVps = 4;
  constexpr std::uint64_t kN = 64;

  FaultConfig f;
  f.seed = 7;
  f.launch_fail_rate = 0.45;  // seeded: the merged launch aborts, retries pass
  RecoveryConfig rec;
  rec.max_launch_retries = 64;
  rec.quarantine_threshold = 1000;

  DispatchConfig cfg;
  cfg.interleave = true;
  cfg.coalesce = true;
  cfg.coalesce_eager_peers = kVps - 1;
  FaultRig rig(cfg, kVps, f, rec);

  std::vector<Completion> log;
  std::vector<std::vector<std::uint64_t>> bufs(kVps);
  for (std::uint32_t vp = 0; vp < kVps; ++vp) {
    rig.disp.submit(functional_vadd(va, rig, vp, 0, kN, &bufs[vp], &log));
  }
  // The group dispatches at t = 0 and its merged launch is submitted then.
  SimTime reset_at = 0.0;
  rig.q.schedule_at(1.0, [&rig, &reset_at] {
    ASSERT_TRUE(rig.dev.last_launch_faulted());
    const SimTime abort_end = rig.dev.compute_engine_free_at();
    ASSERT_GT(abort_end, rig.q.now());
    reset_at = (rig.q.now() + abort_end) / 2.0;
    rig.q.schedule_at(reset_at, [&rig] { rig.disp.inject_device_reset(); });
  });
  rig.q.run();

  EXPECT_GT(reset_at, 0.0);
  EXPECT_TRUE(rig.disp.idle());
  EXPECT_EQ(rig.stats.device_resets, 1u);
  EXPECT_GE(rig.stats.ops_killed_by_reset, 1u);
  EXPECT_GE(rig.stats.launch_failures, 1u);
  EXPECT_EQ(rig.stats.group_resplits, 1u);
  EXPECT_EQ(rig.stats.unrecovered_jobs, 0u);
  expect_per_vp_order(log, kVps, 1);
  expect_vadd_outputs(rig, bufs, kN);
  // No kill action is left: the dispatcher's resident size counts one per
  // pending action, so an idle rig that never dispatched matches it.
  FaultRig fresh(cfg, kVps, f, rec);
  EXPECT_EQ(rig.disp.resident_bytes(), fresh.disp.resident_bytes());
}

// --- quarantine threshold edges --------------------------------------------------

TEST(FaultInjection, QuarantineTriggersExactlyAtThreshold) {
  FaultStats stats;
  RecoveryConfig rec;
  rec.quarantine_threshold = 3;
  HealthPolicy health(rec, stats);
  health.register_vp();
  health.register_vp();

  int quarantine_calls = 0;
  health.on_quarantine = [&](std::uint32_t vp) {
    EXPECT_EQ(vp, 0u);
    ++quarantine_calls;
  };

  health.report_incident(0);
  health.report_incident(0);
  EXPECT_FALSE(health.quarantined(0));  // one below the threshold: still in
  EXPECT_EQ(stats.vps_quarantined, 0u);

  health.report_incident(0);
  EXPECT_TRUE(health.quarantined(0));  // exactly at the threshold: out
  EXPECT_EQ(quarantine_calls, 1);
  EXPECT_EQ(stats.vps_quarantined, 1u);

  health.report_incident(0);  // past the threshold: no re-fire
  EXPECT_EQ(quarantine_calls, 1);
  EXPECT_EQ(stats.vps_quarantined, 1u);

  EXPECT_FALSE(health.quarantined(1));  // the neighbour is untouched
  EXPECT_FALSE(health.failed(0));       // quarantine is not failure
}

TEST(FaultInjection, MarkFailedIsOneShotAndImpliesQuarantine) {
  FaultStats stats;
  HealthPolicy health(RecoveryConfig{}, stats);
  health.register_vp();
  int failed_calls = 0;
  health.on_failed = [&](std::uint32_t) { ++failed_calls; };

  EXPECT_TRUE(health.mark_failed(0));
  EXPECT_TRUE(health.failed(0));
  EXPECT_TRUE(health.quarantined(0));
  EXPECT_EQ(stats.fallbacks, 1u);

  EXPECT_FALSE(health.mark_failed(0));  // one-shot
  EXPECT_EQ(failed_calls, 1);
  EXPECT_EQ(stats.fallbacks, 1u);
}

// --- stalled VP restart ----------------------------------------------------------

TEST(FaultInjection, StalledVpIsRestartedByWatchdog) {
  const auto suite = workloads::make_suite();
  const workloads::Workload& w = workloads::find(suite, "vectorAdd");
  ScenarioConfig cfg = sigma_config(false, 2);
  cfg.fault.stall_vp = 1;
  cfg.fault.stall_after_completions = 2;
  const ScenarioResult r = run_scenario(cfg, chatty_apps(w, 2));
  EXPECT_EQ(r.fault.vp_stalls, 1u);
  EXPECT_EQ(r.fault.vp_restarts, 1u);
  EXPECT_EQ(r.fault.unrecovered_jobs, 0u);
  EXPECT_EQ(r.app_done_us.size(), 2u);
}

// --- diagnostics satellites ------------------------------------------------------

TEST(FaultInjection, VpControlBoundsChecksThrow) {
  EventQueue q;
  IpcManager ipc(q, IpcCostModel::shared_memory());
  ipc.register_vp("vp0");
  EXPECT_THROW(ipc.stop_vp(5), ContractError);
  EXPECT_THROW(ipc.resume_vp(5), ContractError);
  EXPECT_THROW(ipc.is_stopped(5), ContractError);
  EXPECT_NO_THROW(ipc.stop_vp(0));
  EXPECT_NO_THROW(ipc.resume_vp(0));
}

TEST(FaultInjection, DispatcherSubmitRejectsUnregisteredVp) {
  EventQueue q;
  GpuDevice dev(q, make_quadro4000(), kMem, "gpu");
  Dispatcher disp(q, dev, DispatchConfig{});
  disp.register_vp();
  Job j;
  j.vp_id = 3;  // only vp0 exists
  j.kind = JobKind::kMemcpyH2D;
  j.bytes = 16;
  EXPECT_THROW(disp.submit(std::move(j)), ContractError);
}

TEST(FaultInjection, StallReportNamesStuckVps) {
  EventQueue q;
  GpuDevice dev(q, make_quadro4000(), kMem, "gpu");
  DispatchConfig cfg;
  cfg.dispatch_overhead_us = 0.0;
  Dispatcher disp(q, dev, cfg);
  disp.register_vp();
  disp.register_vp();
  // A job submitted out of sequence order can never dispatch: the dispatcher
  // is stuck and the report must say which VP and what it waits for.
  Job j;
  j.vp_id = 1;
  j.seq_in_vp = 5;
  j.kind = JobKind::kMemcpyH2D;
  j.bytes = 16;
  disp.submit(std::move(j));
  q.run();
  EXPECT_FALSE(disp.idle());
  const std::string report = disp.stall_report();
  EXPECT_NE(report.find("1 job(s) queued"), std::string::npos) << report;
  EXPECT_NE(report.find("vp1"), std::string::npos) << report;
  EXPECT_NE(report.find("next_seq: 0"), std::string::npos) << report;
}

}  // namespace
}  // namespace sigvp
