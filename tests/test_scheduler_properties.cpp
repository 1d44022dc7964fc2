// Property tests of the Re-scheduler/Dispatcher: randomized multi-VP job
// streams (seeded util/rng, so every failure is reproducible from the seed)
// driven through every interleave x coalesce configuration. Invariants:
//
//  1. Every submitted job completes — no job is lost or duplicated.
//  2. Per-VP partial order: each VP's jobs complete in sequence order, with
//     non-decreasing completion times (the paper's Re-scheduler contract).
//  3. interleave == false  =>  reorders() == 0, and with coalescing also
//     off the global completion order equals the submission order exactly
//     (the serial multiplexing baseline).
//  4. Cross-VP reordering only ever shows up in the reorders() counter —
//     never as a per-VP order violation.
//
// A differential at the end pins every dispatch decision, and the number of
// simulated events, of seeded streams over one, two and four device lanes,
// fault plans and a 4-domain fleet to digests recorded with the plain
// front-to-back pick, before the pump's gates existed.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "fault/health.hpp"
#include "sched/dispatcher.hpp"
#include "snapshot/serial.hpp"
#include "snapshot/state.hpp"
#include "util/rng.hpp"
#include "workloads/suite.hpp"

namespace sigvp {
namespace {

constexpr std::uint64_t kMem = 256ull * 1024 * 1024;
constexpr std::uint32_t kVps = 4;
constexpr std::size_t kJobsPerVp = 10;

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

struct Completion {
  std::uint32_t vp;
  std::uint64_t seq;
  SimTime end;
};

// One randomized job: an H2D copy, a D2H copy, or a small analytic kernel.
// With `coalescable`, some jobs become functional vectorAdds carrying the
// workload's coalescing descriptor, so the coalescer's window/eager-peer
// machinery participates in the randomized schedule too.
Job random_job(Rng& rng, Rig& rig, const workloads::Workload& va, std::uint32_t vp,
               std::uint64_t seq, bool coalescable, std::vector<Completion>* log) {
  Job j;
  j.vp_id = vp;
  j.seq_in_vp = seq;
  const std::uint64_t roll = rng.next_below(coalescable ? 4 : 3);
  if (roll == 0 || roll == 1) {
    j.kind = roll == 0 ? JobKind::kMemcpyH2D : JobKind::kMemcpyD2H;
    j.bytes = 1024 + rng.next_below(64 * 1024);
    j.device_addr = rig.dev.malloc(j.bytes);
  } else if (roll == 2) {
    j.kind = JobKind::kKernel;
    j.launch.request.kernel = &va.kernel;  // any kernel body works analytically
    j.launch.request.dims.block_x = 128;
    j.launch.request.dims.grid_x = 1 + static_cast<std::uint32_t>(rng.next_below(8));
    j.launch.request.mode = ExecMode::kAnalytic;
    j.launch.request.analytic_profile.instr_counts[InstrClass::kFp32] =
        100'000 + rng.next_below(400'000);
    j.launch.request.mem_behavior = MemoryBehavior{1 << 12, 500, 0.5, 0.9};
  } else {
    // Functional, coalescing-eligible vectorAdd with its own device buffers.
    const std::uint64_t n = 64;
    std::vector<std::uint64_t> addrs;
    for (const auto& spec : va.buffers(n)) addrs.push_back(rig.dev.malloc(spec.bytes));
    for (std::uint64_t i = 0; i < n; ++i) {
      rig.dev.memory().write<float>(addrs[0] + 4 * i, static_cast<float>(rng.uniform(-2, 2)));
      rig.dev.memory().write<float>(addrs[1] + 4 * i, static_cast<float>(rng.uniform(-2, 2)));
    }
    j.kind = JobKind::kKernel;
    j.launch.request.kernel = &va.kernel;
    j.launch.request.dims = va.dims(n);
    j.launch.request.args = va.args(addrs, n);
    j.launch.request.mode = ExecMode::kFunctional;
    j.launch.coalesce = va.coalesce(n);
  }
  j.on_complete = [log, vp, seq](SimTime end, const KernelExecStats*) {
    log->push_back({vp, seq, end});
  };
  return j;
}

// Submits kVps * kJobsPerVp randomized jobs in a random global order that
// respects each VP's sequence order, runs the simulation, and returns the
// completion log plus the submission order.
struct StreamResult {
  std::vector<Completion> completions;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> submitted;  // (vp, seq)
  std::uint64_t reorders = 0;
  std::uint64_t dispatched = 0;
  bool idle = false;
};

StreamResult run_stream(DispatchConfig cfg, std::uint64_t seed) {
  const workloads::Workload va = workloads::make_vector_add();
  Rig rig(cfg, kVps);
  Rng rng(seed);
  std::vector<Completion> log;

  // Pre-generate each VP's job list, then merge-shuffle.
  std::vector<std::vector<Job>> per_vp(kVps);
  for (std::uint32_t vp = 0; vp < kVps; ++vp) {
    for (std::uint64_t seq = 0; seq < kJobsPerVp; ++seq) {
      per_vp[vp].push_back(random_job(rng, rig, va, vp, seq, cfg.coalesce, &log));
    }
  }

  StreamResult out;
  std::vector<std::size_t> cursor(kVps, 0);
  std::size_t remaining = kVps * kJobsPerVp;
  while (remaining > 0) {
    std::uint32_t vp = static_cast<std::uint32_t>(rng.next_below(kVps));
    while (cursor[vp] == kJobsPerVp) vp = (vp + 1) % kVps;
    out.submitted.emplace_back(vp, cursor[vp]);
    rig.disp.submit(std::move(per_vp[vp][cursor[vp]]));
    ++cursor[vp];
    --remaining;
  }
  rig.q.run();

  out.completions = std::move(log);
  out.reorders = rig.disp.reorders();
  out.dispatched = rig.disp.jobs_dispatched();
  out.idle = rig.disp.idle();
  return out;
}

void check_invariants(const StreamResult& r, const DispatchConfig& cfg,
                      std::uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " interleave=" + std::to_string(cfg.interleave) +
               " coalesce=" + std::to_string(cfg.coalesce));

  // 1. All jobs complete exactly once.
  ASSERT_EQ(r.completions.size(), kVps * kJobsPerVp);
  EXPECT_EQ(r.dispatched, kVps * kJobsPerVp);
  EXPECT_TRUE(r.idle);

  // 2. Per-VP partial order: completion subsequence is exactly seq 0,1,2,...
  //    with non-decreasing times.
  for (std::uint32_t vp = 0; vp < kVps; ++vp) {
    std::uint64_t expect_seq = 0;
    SimTime last_end = -1.0;
    for (const Completion& c : r.completions) {
      if (c.vp != vp) continue;
      EXPECT_EQ(c.seq, expect_seq) << "vp " << vp << " completed out of order";
      EXPECT_GE(c.end, last_end) << "vp " << vp << " time went backwards";
      ++expect_seq;
      last_end = c.end;
    }
    EXPECT_EQ(expect_seq, kJobsPerVp) << "vp " << vp << " lost jobs";
  }

  // 3. Without interleaving there is no Fig. 4(a) reordering, ever.
  if (!cfg.interleave) {
    EXPECT_EQ(r.reorders, 0u);
    if (!cfg.coalesce) {
      // Pure serial baseline: completions replay the submission order.
      ASSERT_EQ(r.submitted.size(), r.completions.size());
      for (std::size_t i = 0; i < r.completions.size(); ++i) {
        EXPECT_EQ(r.completions[i].vp, r.submitted[i].first) << "position " << i;
        EXPECT_EQ(r.completions[i].seq, r.submitted[i].second) << "position " << i;
      }
    }
  }
}

TEST(SchedulerProperties, RandomStreamsSerialBaseline) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    const DispatchConfig cfg{false, false};
    check_invariants(run_stream(cfg, seed), cfg, seed);
  }
}

TEST(SchedulerProperties, RandomStreamsInterleaveOnly) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    const DispatchConfig cfg{true, false};
    check_invariants(run_stream(cfg, seed), cfg, seed);
  }
}

TEST(SchedulerProperties, RandomStreamsCoalesceOnly) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    DispatchConfig cfg{false, true};
    cfg.coalesce_window_us = 30.0;
    cfg.coalesce_eager_peers = 2;
    check_invariants(run_stream(cfg, seed), cfg, seed);
  }
}

TEST(SchedulerProperties, RandomStreamsBothOptimizations) {
  std::uint64_t total_reorders = 0;
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull, 6ull}) {
    DispatchConfig cfg{true, true};
    cfg.coalesce_window_us = 30.0;
    cfg.coalesce_eager_peers = 2;
    const StreamResult r = run_stream(cfg, seed);
    check_invariants(r, cfg, seed);
    total_reorders += r.reorders;
  }
  // Randomized mixed copy/kernel streams across 4 VPs must hit the
  // cross-VP reordering path at least once over the seed set; a permanently
  // zero counter would mean interleaving silently stopped reordering.
  EXPECT_GT(total_reorders, 0u);
}

// --- differential: every dispatch pinned ------------------------------------------
//
// Each VP issues a seeded job stream over time: every job either follows its
// predecessor's submission after a random gap (asynchronous) or its
// predecessor's completion (synchronous, so the VP is idle when it submits
// and the affinity policy may migrate it). After every simulated event the
// run folds the simulated time and the dispatcher's captured state (queue
// contents, per-VP cursors and in-flight counts, lane counters, the window
// timer, placement) into one FNV digest, plus every completion's (vp, seq,
// time). A dispatch of another job, at another time or through another lane
// changes the digest; a timer event more or less changes events_processed.

constexpr std::uint32_t kDiffVps = 8;
constexpr std::uint64_t kDiffJobsPerVp = 8;

enum class Policy { kSerial, kInterleave, kCoalesce, kBoth };

struct DiffSetup {
  Policy policy = Policy::kSerial;
  std::size_t lanes = 1;
  bool migrate = false;
  bool faults = false;
  std::uint32_t quarantine_threshold = 3;
};

struct DiffResult {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t migrations = 0;
};

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return snapshot::fnv1a64(&v, sizeof v, h);
}

DispatchConfig diff_dispatch(Policy p, std::uint64_t seed) {
  DispatchConfig cfg;
  cfg.interleave = p == Policy::kInterleave || p == Policy::kBoth;
  cfg.coalesce = p == Policy::kCoalesce || p == Policy::kBoth;
  cfg.coalesce_window_us = 30.0;
  cfg.coalesce_eager_peers = 2;
  // Odd seeds charge a service slot per dispatch; even seeds make it free.
  cfg.dispatch_overhead_us = seed % 2 == 1 ? 25.0 : 0.0;
  return cfg;
}

DiffResult run_differential(const DiffSetup& setup, std::uint64_t seed) {
  const workloads::Workload va = workloads::make_vector_add();
  EventQueue q;
  std::vector<std::unique_ptr<GpuDevice>> devices;
  std::vector<GpuDevice*> device_ptrs;
  for (std::size_t d = 0; d < setup.lanes; ++d) {
    const std::string name = "gpu" + std::to_string(d);
    devices.push_back(std::make_unique<GpuDevice>(q, make_quadro4000(), kMem, name));
    device_ptrs.push_back(devices.back().get());
  }
  PlacementConfig placement;
  placement.allow_migration = setup.migrate;
  placement.migration_fixed_us = 5.0;
  placement.hysteresis_us = 10.0;
  Dispatcher disp(q, device_ptrs, diff_dispatch(setup.policy, seed), placement);

  FaultConfig fault;
  fault.seed = seed;
  fault.launch_fail_rate = 0.15;
  RecoveryConfig recovery;
  recovery.max_launch_retries = 64;
  recovery.quarantine_threshold = setup.quarantine_threshold;
  FaultPlan plan(fault);
  FaultStats stats;
  HealthPolicy health(recovery, stats);
  if (setup.faults) {
    stats.active = true;
    devices.front()->set_fault(&plan, &stats);
    disp.set_fault(&plan, &stats, &health, recovery);
  }
  // Initial placement skews toward lane 0 so migrations have somewhere to go.
  for (std::uint32_t vp = 0; vp < kDiffVps; ++vp) {
    disp.register_vp(vp < kDiffVps / 2 ? 0 : vp % static_cast<std::uint32_t>(setup.lanes));
    health.register_vp();
  }

  // Every buffer is allocated on every device: allocators are deterministic,
  // so the address is the same everywhere and a migrated VP's jobs stay valid.
  auto alloc = [&](std::uint64_t bytes) {
    const std::uint64_t addr = devices.front()->malloc(bytes);
    for (std::size_t d = 1; d < devices.size(); ++d) {
      EXPECT_EQ(devices[d]->malloc(bytes), addr);
    }
    return addr;
  };

  Rng rng(seed);
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::uint64_t completed = 0;
  struct Stream {
    std::vector<Job> jobs;
    std::vector<bool> after_completion;  // submit job k after job k-1 completes
    std::vector<SimTime> gap;
  };
  std::vector<Stream> streams(kDiffVps);
  std::function<void(std::uint32_t, std::uint64_t)> submit;
  for (std::uint32_t vp = 0; vp < kDiffVps; ++vp) {
    Stream& st = streams[vp];
    for (std::uint64_t seq = 0; seq < kDiffJobsPerVp; ++seq) {
      Job j;
      j.vp_id = vp;
      j.seq_in_vp = seq;
      const std::uint64_t roll = rng.next_below(4);
      if (roll <= 1) {
        j.kind = roll == 0 ? JobKind::kMemcpyH2D : JobKind::kMemcpyD2H;
        j.bytes = 1024 + rng.next_below(64 * 1024);
        j.device_addr = alloc(j.bytes);
      } else if (roll == 2) {
        j.kind = JobKind::kKernel;
        j.launch.request.kernel = &va.kernel;
        j.launch.request.dims.block_x = 128;
        j.launch.request.dims.grid_x = 1 + static_cast<std::uint32_t>(rng.next_below(8));
        j.launch.request.mode = ExecMode::kAnalytic;
        j.launch.request.analytic_profile.instr_counts[InstrClass::kFp32] =
            100'000 + rng.next_below(400'000);
        j.launch.request.mem_behavior = MemoryBehavior{1 << 12, 500, 0.5, 0.9};
      } else {
        const std::uint64_t n = 64;
        std::vector<std::uint64_t> addrs;
        for (const auto& spec : va.buffers(n)) addrs.push_back(alloc(spec.bytes));
        j.kind = JobKind::kKernel;
        j.launch.request.kernel = &va.kernel;
        j.launch.request.dims = va.dims(n);
        j.launch.request.args = va.args(addrs, n);
        j.launch.request.mode = ExecMode::kFunctional;
        j.launch.coalesce = va.coalesce(n);
      }
      st.after_completion.push_back(seq > 0 && rng.next_below(2) == 0);
      st.gap.push_back(seq == 0 ? rng.uniform(0.0, 100.0) : rng.uniform(0.0, 60.0));
      j.on_complete = [&, vp, seq](SimTime end, const KernelExecStats*) {
        digest = fold(fold(fold(digest, vp), seq), std::bit_cast<std::uint64_t>(end));
        ++completed;
        if (seq + 1 < kDiffJobsPerVp && streams[vp].after_completion[seq + 1]) {
          q.schedule_at(end + streams[vp].gap[seq + 1], [&, vp, seq] { submit(vp, seq + 1); });
        }
      };
      st.jobs.push_back(std::move(j));
    }
  }
  submit = [&](std::uint32_t vp, std::uint64_t seq) {
    disp.submit(std::move(streams[vp].jobs[seq]));
    if (seq + 1 < kDiffJobsPerVp && !streams[vp].after_completion[seq + 1]) {
      q.schedule_after(streams[vp].gap[seq + 1], [&, vp, seq] { submit(vp, seq + 1); });
    }
  };
  for (std::uint32_t vp = 0; vp < kDiffVps; ++vp) {
    q.schedule_at(streams[vp].gap[0], [&, vp] { submit(vp, 0); });
  }
  if (setup.faults) q.schedule_at(150.0, [&] { disp.inject_device_reset(); });

  while (q.step()) {
    snapshot::Writer w;
    w.f64(q.now());
    disp.capture_state(w);
    digest = snapshot::fnv1a64(w.buffer().data(), w.buffer().size(), digest);
  }
  EXPECT_EQ(completed, kDiffVps * kDiffJobsPerVp);
  EXPECT_TRUE(disp.idle());
  if (setup.faults) {
    EXPECT_EQ(stats.device_resets, 1u);
    EXPECT_GT(stats.launch_retries, 0u);
    EXPECT_EQ(stats.unrecovered_jobs, 0u);
  }
  return {digest, q.events_processed(), disp.migrations()};
}

// A 4-domain analytic fleet of 8 vectorAdd VPs with asynchronous launches,
// interleaving and coalescing, captured every 100 us of sim time: the
// digest folds every capture (each holds every domain's dispatcher state)
// and the serialized result.
DiffResult run_fleet_differential() {
  static const auto suite = workloads::make_suite();
  const workloads::Workload& va = workloads::find(suite, "vectorAdd");
  ScenarioConfig cfg;
  cfg.backend = Backend::kSigmaVp;
  cfg.mode = ExecMode::kAnalytic;
  cfg.fleet.domains = 4;
  cfg.dispatch.interleave = true;
  cfg.dispatch.coalesce = true;
  cfg.dispatch.coalesce_eager_peers = 1;
  cfg.async_launches = true;
  workloads::AppTraits traits = va.traits;
  traits.iterations = 3;
  std::vector<AppInstance> apps;
  for (std::uint64_t vp = 0; vp < 8; ++vp) {
    apps.push_back(AppInstance{.workload = &va, .n = va.test_n, .traits = traits});
  }
  CaptureOptions capture;
  capture.every_us = 100.0;
  std::vector<FleetCapture> captures;
  const ScenarioResult result = run_scenario(cfg, apps, capture, &captures);
  EXPECT_GT(result.coalesced_groups, 0u);
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const FleetCapture& c : captures) {
    digest = fold(digest, std::bit_cast<std::uint64_t>(c.at_us));
    digest = fold(fold(digest, c.events_processed), c.digest);
  }
  snapshot::Writer w;
  snapshot::save_scenario_result(w, result);
  digest = snapshot::fnv1a64(w.buffer().data(), w.buffer().size(), digest);
  return {digest, captures.empty() ? 0 : captures.back().events_processed};
}

TEST(SchedulerProperties, DispatchDigestsMatchRecordedScan) {
  struct Case {
    Policy policy;
    std::size_t lanes;
    bool faults;
    std::uint32_t quarantine_threshold;
    std::uint64_t seed;
    std::uint64_t digest;
    std::uint64_t events;
  };
  // clang-format off
  const Case cases[] = {
      {Policy::kSerial, 1, false, 3, 1, 0x091d4218ce5d9a86ull, 192},
      {Policy::kSerial, 1, false, 3, 2, 0x6cf707492a68cc13ull, 192},
      {Policy::kSerial, 2, false, 3, 1, 0xfd01272fabf6973full, 192},
      {Policy::kSerial, 2, false, 3, 2, 0xa93456bbc1a395e2ull, 192},
      {Policy::kSerial, 4, false, 3, 1, 0x16ca43a200f37f57ull, 205},
      {Policy::kSerial, 4, false, 3, 2, 0x180c748c305c0c58ull, 192},
      {Policy::kInterleave, 1, false, 3, 1, 0x9c701f3ffb10b99eull, 192},
      {Policy::kInterleave, 1, false, 3, 2, 0xb05a848f48189365ull, 192},
      {Policy::kInterleave, 2, false, 3, 1, 0x22e0fb5cd59c5065ull, 192},
      {Policy::kInterleave, 2, false, 3, 2, 0xb5ef01b6bb3d1de0ull, 192},
      {Policy::kInterleave, 4, false, 3, 1, 0x6c0ecd465226fc4full, 204},
      {Policy::kInterleave, 4, false, 3, 2, 0x50ff2ded2f664e4bull, 193},
      {Policy::kCoalesce, 1, false, 3, 1, 0x51f7e980aae50a8eull, 205},
      {Policy::kCoalesce, 1, false, 3, 2, 0xbe7540d7f5af1f08ull, 205},
      {Policy::kCoalesce, 2, false, 3, 1, 0x7010db06a960c7daull, 206},
      {Policy::kCoalesce, 2, false, 3, 2, 0xd8b66aee2dd3a1ceull, 206},
      {Policy::kCoalesce, 4, false, 3, 1, 0xaa3163ca8ad7b013ull, 220},
      {Policy::kCoalesce, 4, false, 3, 2, 0xb46547d691a5442full, 207},
      {Policy::kBoth, 1, false, 3, 1, 0x426b64a2bcadb18dull, 203},
      {Policy::kBoth, 1, false, 3, 2, 0xd9540c9a294a5a8aull, 202},
      {Policy::kBoth, 2, false, 3, 1, 0x6c4377a3ab175e2eull, 205},
      {Policy::kBoth, 2, false, 3, 2, 0xfc1832a043ce8d75ull, 202},
      {Policy::kBoth, 4, false, 3, 1, 0xf4af6ef02f0f15e2ull, 220},
      {Policy::kBoth, 4, false, 3, 2, 0xeea38e2e5b9d3e93ull, 204},
      {Policy::kBoth, 1, true, 1, 1, 0xa78950af78c04ebeull, 226},
      {Policy::kBoth, 1, true, 1, 2, 0xb700d38913e1339bull, 226},
      {Policy::kInterleave, 1, true, 1000, 1, 0x8d3f34f65fd5db3dull, 212},
      {Policy::kInterleave, 1, true, 1000, 2, 0x21a096fe172246f6ull, 210},
      {Policy::kBoth, 1, true, 1000, 1, 0x1ace9f0386abd948ull, 235},
      {Policy::kBoth, 1, true, 1000, 2, 0xa3bf5a43e2d7fe3full, 233},
  };
  // clang-format on
  std::uint64_t migrations = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE("case " + std::to_string(&c - cases));
    const DiffSetup setup{c.policy, c.lanes, c.lanes == 4, c.faults, c.quarantine_threshold};
    const DiffResult r = run_differential(setup, c.seed);
    EXPECT_EQ(r.digest, c.digest);
    EXPECT_EQ(r.events, c.events);
    migrations += r.migrations;
  }
  // The 4-lane runs must exercise affinity migration somewhere.
  EXPECT_GT(migrations, 0u);

  const DiffResult fleet = run_fleet_differential();
  EXPECT_EQ(fleet.digest, 0x06c36592d7e73973ull);
  EXPECT_EQ(fleet.events, 1888u);
}

}  // namespace
}  // namespace sigvp
