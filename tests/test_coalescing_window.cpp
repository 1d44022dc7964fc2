// Edge cases of the Kernel Coalescing window: the expiry timer firing at
// exactly enqueue_time + coalesce_window_us, eager-peer early dispatch well
// before the window, VP control (IpcManager::stop_vp) holding a completion
// without deadlocking the window-timer pump, merge identity in the
// almost-identical-kernel regime (structural fingerprints vs per-VP scalar
// jitter), and the armed-timer guard (front re-queues of unmergeable peers,
// fault-mode re-queues and quarantine while a window timer is pending).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fault/health.hpp"
#include "ipc/ipc_manager.hpp"
#include "sched/dispatcher.hpp"
#include "workloads/suite.hpp"

namespace sigvp {
namespace {

constexpr std::uint64_t kMem = 256ull * 1024 * 1024;

struct Rig {
  EventQueue q;
  GpuDevice dev;
  Dispatcher disp;

  explicit Rig(DispatchConfig cfg, std::size_t vps)
      : dev(q, make_quadro4000(), kMem, "gpu"), disp(q, dev, zero_overhead(cfg)) {
    for (std::size_t i = 0; i < vps; ++i) disp.register_vp();
  }

  static DispatchConfig zero_overhead(DispatchConfig cfg) {
    cfg.dispatch_overhead_us = 0.0;
    return cfg;
  }
};

// A coalescing-eligible functional vectorAdd job with its own device
// buffers; deterministic inputs so repeated runs are time-identical.
Job va_job(GpuDevice& dev, const workloads::Workload& w, std::uint32_t vp, std::uint64_t seq,
           SimTime* end_out) {
  const std::uint64_t n = 128;
  std::vector<std::uint64_t> addrs;
  for (const auto& spec : w.buffers(n)) addrs.push_back(dev.malloc(spec.bytes));
  for (std::uint64_t i = 0; i < n; ++i) {
    dev.memory().write<float>(addrs[0] + 4 * i, static_cast<float>(i));
    dev.memory().write<float>(addrs[1] + 4 * i, 2.0f * static_cast<float>(i));
  }
  Job j;
  j.vp_id = vp;
  j.seq_in_vp = seq;
  j.kind = JobKind::kKernel;
  j.launch.request.kernel = &w.kernel;
  j.launch.request.dims = w.dims(n);
  j.launch.request.args = w.args(addrs, n);
  j.launch.request.mode = ExecMode::kFunctional;
  j.launch.coalesce = w.coalesce(n);
  j.on_complete = [end_out](SimTime end, const KernelExecStats*) {
    if (end_out) *end_out = end;
  };
  return j;
}

TEST(CoalescingWindow, ExpiryFiresExactlyAtDeadline) {
  const workloads::Workload w = workloads::make_vector_add();
  constexpr SimTime kWindow = 40.0;

  auto completion_time = [&](bool coalesce) {
    DispatchConfig cfg{false, coalesce};
    cfg.coalesce_window_us = kWindow;
    cfg.coalesce_eager_peers = 99;  // peers never trigger; only the timer can
    Rig rig(cfg, 1);
    SimTime end = -1.0;
    rig.disp.submit(va_job(rig.dev, w, 0, 0, &end));
    rig.q.run();
    EXPECT_GE(end, 0.0);
    EXPECT_EQ(rig.disp.coalesced_groups(), 0u);  // dispatched alone either way
    return end;
  };

  const SimTime without_window = completion_time(false);
  const SimTime with_window = completion_time(true);
  // The lone eligible job is held for exactly the window — the expiry timer
  // fires at enqueue_time + coalesce_window_us, not an event-loop tick later.
  EXPECT_DOUBLE_EQ(with_window - without_window, kWindow);
}

TEST(CoalescingWindow, EagerPeersDispatchEarly) {
  const workloads::Workload w = workloads::make_vector_add();
  DispatchConfig cfg{false, true};
  cfg.coalesce_window_us = 1e6;  // a window nothing should ever wait out
  cfg.coalesce_eager_peers = 2;
  Rig rig(cfg, 3);

  SimTime ends[3] = {-1.0, -1.0, -1.0};
  rig.disp.submit(va_job(rig.dev, w, 0, 0, &ends[0]));
  rig.disp.submit(va_job(rig.dev, w, 1, 0, &ends[1]));  // 1 ready peer: still held
  rig.disp.submit(va_job(rig.dev, w, 2, 0, &ends[2]));  // 2 ready peers: go
  rig.q.run();

  EXPECT_EQ(rig.disp.coalesced_groups(), 1u);
  EXPECT_EQ(rig.disp.coalesced_jobs(), 3u);
  for (int i = 0; i < 3; ++i) {
    ASSERT_GE(ends[i], 0.0) << "vp " << i;
    // Early dispatch: completion long before the window could have expired.
    EXPECT_LT(ends[i], 1e5) << "vp " << i;
  }
}

// A coalescing-eligible camPipeline gain-stage job with per-VP scalar
// jitter: same kernel structure, f32 gain perturbed when `jitter` != 0.
Job cam_gain_job(GpuDevice& dev, const workloads::Workload& cam, std::uint32_t vp,
                 std::uint64_t jitter, std::vector<std::uint64_t>* addrs_out) {
  const std::uint64_t n = 128;
  const workloads::PipelineStage& st = cam.stages.front();
  std::vector<std::uint64_t> addrs;
  for (const auto& spec : cam.buffers(n)) addrs.push_back(dev.malloc(spec.bytes));
  for (std::uint64_t i = 0; i < n; ++i) {
    dev.memory().write<float>(addrs[0] + 4 * i, static_cast<float>(i % 29));
  }
  Job j;
  j.vp_id = vp;
  j.seq_in_vp = 0;
  j.kind = JobKind::kKernel;
  j.launch.request.kernel = &st.kernel;
  j.launch.request.dims = st.dims(n);
  j.launch.request.args = st.args(addrs, n, jitter);
  j.launch.request.mode = ExecMode::kFunctional;
  j.launch.coalesce = st.coalesce(n);
  if (addrs_out) *addrs_out = std::move(addrs);
  return j;
}

TEST(CoalescingWindow, FingerprintEqualKernelsFromDistinctBuildsMerge) {
  // Two separately-built suites: pointer-distinct KernelIR instances with
  // identical structure, as when every VP builds its own kernel image.
  const auto suite_a = workloads::make_app_suite();
  const auto suite_b = workloads::make_app_suite();
  auto cam_of = [](const std::vector<workloads::Workload>& s) {
    for (const auto& w : s) {
      if (w.app == "camPipeline") return &w;
    }
    ADD_FAILURE() << "camPipeline missing from app suite";
    return &s.front();
  };
  const workloads::Workload& cam_a = *cam_of(suite_a);
  const workloads::Workload& cam_b = *cam_of(suite_b);
  ASSERT_NE(&cam_a.stages.front().kernel, &cam_b.stages.front().kernel);

  DispatchConfig cfg{false, true};
  cfg.coalesce_window_us = 1e6;  // only eager peers may trigger dispatch
  cfg.coalesce_eager_peers = 1;
  Rig rig(cfg, 2);
  std::vector<std::uint64_t> addrs_a, addrs_b;
  rig.disp.submit(cam_gain_job(rig.dev, cam_a, 0, 0, &addrs_a));
  rig.disp.submit(cam_gain_job(rig.dev, cam_b, 1, 0, &addrs_b));
  rig.q.run();

  // Canonical scalars + equal fingerprints: one merged group of both jobs.
  EXPECT_EQ(rig.disp.coalesced_groups(), 1u);
  EXPECT_EQ(rig.disp.coalesced_jobs(), 2u);

  // Each member's output landed in its own work buffer: work[i] = raw[i]*gain.
  for (const auto& addrs : {addrs_a, addrs_b}) {
    for (std::uint64_t i = 0; i < 128; ++i) {
      const float raw = static_cast<float>(i % 29);
      EXPECT_EQ(rig.dev.memory().read<float>(addrs[1] + 4 * i), raw * 0.75f)
          << "elem " << i;
    }
  }
}

TEST(CoalescingWindow, ScalarJitterBlocksMergingDespiteEqualFingerprints) {
  const auto suite = workloads::make_app_suite();
  const workloads::Workload* cam = nullptr;
  for (const auto& w : suite) {
    if (w.app == "camPipeline") cam = &w;
  }
  ASSERT_NE(cam, nullptr);

  DispatchConfig cfg{false, true};
  cfg.coalesce_window_us = 50.0;
  cfg.coalesce_eager_peers = 1;
  auto groups_with = [&](std::uint64_t j0, std::uint64_t j1) {
    Rig rig(cfg, 2);
    rig.disp.submit(cam_gain_job(rig.dev, *cam, 0, j0, nullptr));
    rig.disp.submit(cam_gain_job(rig.dev, *cam, 1, j1, nullptr));
    rig.q.run();
    EXPECT_EQ(rig.disp.jobs_dispatched(), 2u);
    return rig.disp.coalesced_groups();
  };

  EXPECT_EQ(groups_with(0, 0), 1u) << "canonical scalars must merge";
  EXPECT_EQ(groups_with(1001, 1001), 1u)
      << "identical jitter seeds give byte-equal scalars and must merge";
  // Distinct per-VP jitter: the almost-identical regime. Same structural
  // fingerprint, different f32 gain — merging would run VP1 with VP0's
  // parameters, so the coalescer must refuse, deterministically.
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_EQ(groups_with(1001, 1002), 0u) << "rep " << rep;
  }
}

TEST(CoalescingWindow, StoppedVpHoldsCompletionWithoutDeadlock) {
  const workloads::Workload w = workloads::make_vector_add();
  DispatchConfig cfg{false, true};
  cfg.coalesce_window_us = 50.0;
  cfg.coalesce_eager_peers = 99;  // force the window-timer path
  Rig rig(cfg, 1);

  IpcManager ipc(rig.q, IpcCostModel::shared_memory());
  ipc.set_sink([&rig](Job job) { rig.disp.submit(std::move(job)); });
  const std::uint32_t vp = ipc.register_vp("vp0");

  SimTime end = -1.0;
  ipc.stop_vp(vp);
  EXPECT_TRUE(ipc.is_stopped(vp));
  ipc.send_job(vp, va_job(rig.dev, w, vp, 0, &end), 0);

  // The event queue must drain: the window timer fires once, the job
  // dispatches and completes on the device, and the completion notification
  // parks in the IPC manager — a stopped VP must not wedge the timer pump.
  rig.q.run();
  EXPECT_TRUE(rig.disp.idle());
  EXPECT_EQ(rig.disp.jobs_dispatched(), 1u);
  EXPECT_EQ(rig.q.pending(), 0u);
  EXPECT_LT(end, 0.0) << "completion leaked through a stopped VP";

  // Resuming delivers the held notification immediately.
  ipc.resume_vp(vp);
  EXPECT_FALSE(ipc.is_stopped(vp));
  EXPECT_GE(end, 0.0);
}

// --- the armed-timer guard --------------------------------------------------------
//
// While a strictly-future window timer is armed, arm_window_timer returns
// without scanning the queue. The cases below are the ways a job can enter
// or re-enter the queue, or change eligibility, while such a timer is
// pending. Dispatch times and event counts were recorded with the unguarded
// scan; an extra, missing or late timer event changes them.

/// Steps `q` dry, returning the simulated time of every dispatch (one entry
/// per job, group members and retries included) in order.
std::vector<SimTime> drain_dispatch_times(EventQueue& q, const Dispatcher& disp) {
  std::vector<SimTime> times;
  std::uint64_t seen = disp.jobs_dispatched();
  while (q.step()) {
    for (; seen < disp.jobs_dispatched(); ++seen) times.push_back(q.now());
  }
  return times;
}

TEST(CoalescingWindow, TimerGuardFrontRequeueOfUnmergeablePeers) {
  const workloads::Workload va = workloads::make_vector_add();
  const auto suite = workloads::make_app_suite();
  const workloads::Workload& cam = workloads::find(suite, "camPipeline");
  DispatchConfig cfg{false, true};
  cfg.coalesce_window_us = 50.0;
  cfg.coalesce_eager_peers = 1;
  Rig rig(cfg, 4);
  // t=0: a lone vectorAdd arms the timer at 50. t=5 and t=10: two
  // camPipeline gain stages with distinct scalar jitter: the second makes the
  // first eager, the sweep finds the second, the merge is refused, and the
  // peer goes back to the queue front with its t=10 enqueue time while the
  // t=50 timer is still pending. t=20: a second vectorAdd peer.
  rig.q.schedule_at(0.0, [&] { rig.disp.submit(va_job(rig.dev, va, 0, 0, nullptr)); });
  rig.q.schedule_at(5.0, [&] { rig.disp.submit(cam_gain_job(rig.dev, cam, 1, 1001, nullptr)); });
  rig.q.schedule_at(10.0, [&] { rig.disp.submit(cam_gain_job(rig.dev, cam, 2, 1002, nullptr)); });
  rig.q.schedule_at(20.0, [&] { rig.disp.submit(va_job(rig.dev, va, 3, 0, nullptr)); });
  const std::vector<SimTime> times = drain_dispatch_times(rig.q, rig.disp);

  EXPECT_EQ(rig.disp.jobs_dispatched(), 4u);
  EXPECT_EQ(rig.disp.coalesced_groups(), 1u);  // the two vectorAdds
  EXPECT_TRUE(rig.disp.idle());
  EXPECT_EQ(times, (std::vector<SimTime>{10.0, 20.0, 20.0, 60.0}));
  EXPECT_EQ(rig.q.events_processed(), 14u);
}

struct FaultWindowRig {
  EventQueue q;
  GpuDevice dev;
  Dispatcher disp;
  FaultPlan plan;
  FaultStats stats;
  HealthPolicy health;

  FaultWindowRig(DispatchConfig cfg, std::size_t vps, FaultConfig fault,
                 RecoveryConfig recovery)
      : dev(q, make_quadro4000(), kMem, "gpu"),
        disp(q, dev, Rig::zero_overhead(cfg)),
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
};

struct FaultyWindowRun {
  std::vector<SimTime> dispatch_times;
  std::uint64_t events = 0;
  FaultStats stats;
  bool any_quarantined = false;
};

// Coalescable vectorAdd jobs arriving every 7 us from 4 VPs under a 40 us
// window, with transient launch aborts. A fault-mode re-queue restarts a
// job's window at the re-queue time, while earlier jobs' timers are armed.
// With `quarantine_threshold` 1 each VP's first abort also strips its queued
// jobs of coalescing eligibility under a pending timer.
FaultyWindowRun faulty_window_run(std::uint32_t quarantine_threshold) {
  const workloads::Workload va = workloads::make_vector_add();
  DispatchConfig cfg{false, true};
  cfg.coalesce_window_us = 40.0;
  cfg.coalesce_eager_peers = 3;
  FaultConfig f;
  f.seed = 11;
  f.launch_fail_rate = 0.3;
  RecoveryConfig rec;
  rec.max_launch_retries = 64;
  rec.quarantine_threshold = quarantine_threshold;
  constexpr std::uint32_t kVps = 4;
  constexpr std::uint64_t kJobs = 3;
  FaultWindowRig rig(cfg, kVps, f, rec);
  for (std::uint64_t seq = 0; seq < kJobs; ++seq) {
    for (std::uint32_t vp = 0; vp < kVps; ++vp) {
      const SimTime at = 7.0 * static_cast<SimTime>(seq * kVps + vp);
      Job j = va_job(rig.dev, va, vp, seq, nullptr);
      rig.q.schedule_at(at, [&rig, job = std::make_shared<Job>(std::move(j))] {
        rig.disp.submit(std::move(*job));
      });
    }
  }
  FaultyWindowRun out;
  out.dispatch_times = drain_dispatch_times(rig.q, rig.disp);
  EXPECT_TRUE(rig.disp.idle());
  EXPECT_EQ(rig.stats.unrecovered_jobs, 0u);
  out.events = rig.q.events_processed();
  out.stats = rig.stats;
  for (std::uint32_t vp = 0; vp < kVps; ++vp) out.any_quarantined |= rig.health.quarantined(vp);
  return out;
}

TEST(CoalescingWindow, TimerGuardFaultModeRequeue) {
  const FaultyWindowRun r = faulty_window_run(1000);
  EXPECT_GE(r.stats.launch_retries + r.stats.group_resplits, 1u);
  EXPECT_FALSE(r.any_quarantined);
  // clang-format off
  const std::vector<SimTime> expect = {
      21.0, 21.0, 21.0, 21.0, 47.645714285714284, 72.645714285714291, 81.111566917293231,
      89.577419548872172, 114.57741954887217, 123.04327218045111, 123.04327218045111,
      149.66612932330827, 158.13198195488721, 183.13198195488721, 191.59783458646615,
      191.59783458646615, 203.44416240601501, 203.44416240601501, 215.29049022556387,
      223.75634285714281, 248.75634285714281, 288.75634285714284};
  // clang-format on
  EXPECT_EQ(r.dispatch_times, expect);
  EXPECT_EQ(r.events, 67u);
}

TEST(CoalescingWindow, TimerGuardQuarantinedVp) {
  const FaultyWindowRun r = faulty_window_run(1);
  EXPECT_GE(r.stats.launch_retries + r.stats.group_resplits, 1u);
  EXPECT_TRUE(r.any_quarantined);
  // clang-format off
  const std::vector<SimTime> expect = {
      21.0, 21.0, 21.0, 21.0, 47.645714285714284, 72.645714285714291, 81.111566917293231,
      89.577419548872172, 114.57741954887217, 123.04327218045111, 123.04327218045111,
      149.66612932330827, 158.13198195488721, 183.13198195488721, 191.59783458646615,
      200.06368721804509, 208.52953984962403, 216.99539248120297, 241.99539248120297,
      250.46124511278191, 258.92709774436088, 267.39295037593985, 292.39295037593985};
  // clang-format on
  EXPECT_EQ(r.dispatch_times, expect);
  EXPECT_EQ(r.events, 62u);
}

}  // namespace
}  // namespace sigvp
