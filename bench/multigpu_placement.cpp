// Multi-GPU placement bench (DESIGN.md §17): a skewed 16-VP dispatch-bound
// fleet run against host GPU sets of 1 / 2 / 4 / 8 devices (plus a 2+2
// heterogeneous mix), reporting the sim-domain makespan speedup of each set
// over the single-device host, the affinity-vs-round-robin placement win,
// and the migration counters of a runtime-skewed fleet.
//
// Everything gated here lives in the sim domain, so the gates are hard:
//
//   * monotone non-degradation — makespan must not increase as devices are
//     added along {1, 2, 4, 8}.
//   * dispatch-bound speedup — the 4-device set must complete the skewed
//     fleet >= 1.5x faster (sim makespan) than the single device.
//   * placement win — affinity (LPT + runtime migration) must beat
//     round-robin on the skewed fleet at 4 devices, where round-robin
//     stacks every heavy VP onto device 0.
//   * placement determinism — the 4-device job's full BENCH JSON must be
//     byte-identical at --workers {1, 4}, and the sharded variant
//     (2 domains x 2 devices) byte-identical at --shards {1, 2}.
//
//   multigpu_placement [--reps R] [--json PATH]
//
// scripts/bench_regression_check.py compares every sim-domain field
// (makespans, speedups, job/migration counters) exactly and only reports
// the wall-clock ones (wall_ms, jobs/s).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "run/json_writer.hpp"
#include "run/sweep.hpp"
#include "run/thread_pool.hpp"
#include "util/table.hpp"
#include "workloads/suite.hpp"

namespace sigvp {
namespace {

ScenarioConfig multigpu_config(const std::vector<GpuArch>& archs) {
  ScenarioConfig cfg;
  cfg.backend = Backend::kSigmaVp;
  cfg.mode = ExecMode::kAnalytic;
  cfg.dispatch.interleave = true;
  cfg.async_launches = true;
  for (const GpuArch& arch : archs) {
    HostGpuSpec spec;
    spec.arch = arch;
    cfg.host_gpus.push_back(spec);
  }
  return cfg;
}

/// The skewed fleet: every 4th VP is heavy, so at 4 devices round-robin
/// stacks all four heavy VPs onto device 0 while LPT placement spreads them.
std::vector<AppInstance> skewed_fleet(const workloads::Workload& w) {
  std::vector<AppInstance> apps;
  for (int i = 0; i < 16; ++i) {
    workloads::AppTraits t = w.traits;
    t.iterations = (i % 4 == 0) ? 12 : 3;
    apps.push_back(AppInstance{.workload = &w, .n = w.test_n, .traits = t});
    apps.back().jitter = static_cast<std::uint64_t>(i);
  }
  return apps;
}

ScenarioResult timed_run(const ScenarioConfig& cfg, const std::vector<AppInstance>& apps,
                         std::size_t reps, double& best_ms) {
  ScenarioResult result;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    ScenarioResult got = run_scenario(cfg, apps);
    const double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    if (r == 0) {
      result = std::move(got);
      best_ms = ms;
    } else if (ms < best_ms) {
      best_ms = ms;
    }
  }
  return result;
}

struct Point {
  std::string label;
  std::size_t devices = 0;
  double makespan_us = 0.0;
  double speedup_vs_1 = 0.0;
  std::uint64_t jobs = 0;
  std::uint64_t migrations = 0;
  std::uint64_t migrated_bytes = 0;
  double wall_ms = 0.0;
  double jobs_per_sec = 0.0;
};

}  // namespace
}  // namespace sigvp

int main(int argc, char** argv) {
  using namespace sigvp;

  std::size_t reps = 1;
  std::string json_path = "BENCH_multigpu_placement.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--reps" && i + 1 < argc) {
      reps = std::max<std::size_t>(1, std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  const auto suite = workloads::make_suite();
  const workloads::Workload& w = workloads::find(suite, "vectorAdd");
  const auto apps = skewed_fleet(w);
  bool failed = false;

  std::cout << "== multigpu_placement: skewed 16-VP fleet across host GPU sets ==\n\n";

  // --- device ladder ----------------------------------------------------------
  struct Config {
    std::string label;
    std::vector<GpuArch> archs;
  };
  std::vector<Config> ladder;
  for (const std::size_t d : {1u, 2u, 4u, 8u}) {
    ladder.push_back({"quadro4000 x" + std::to_string(d),
                      std::vector<GpuArch>(d, make_quadro4000())});
  }
  ladder.push_back({"quadro4000 x2 + gridk520 x2",
                    {make_quadro4000(), make_quadro4000(), make_gridk520(),
                     make_gridk520()}});

  std::vector<Point> points;
  TablePrinter table({"Host GPUs", "Devices", "Makespan us", "Speedup", "Migr",
                      "Wall ms", "Jobs/s"});
  for (const Config& c : ladder) {
    Point p;
    p.label = c.label;
    p.devices = c.archs.size();
    const ScenarioResult r = timed_run(multigpu_config(c.archs), apps, reps, p.wall_ms);
    p.makespan_us = r.makespan_us;
    p.jobs = r.jobs_dispatched;
    p.migrations = r.gpus.migrations;
    p.migrated_bytes = r.gpus.migrated_bytes;
    p.speedup_vs_1 = points.empty() ? 1.0 : points.front().makespan_us / p.makespan_us;
    p.jobs_per_sec =
        p.wall_ms > 0.0 ? static_cast<double>(p.jobs) / (p.wall_ms / 1e3) : 0.0;
    table.add_row({p.label, fmt_int(static_cast<long long>(p.devices)),
                   fmt_fixed(p.makespan_us, 1), fmt_ratio(p.speedup_vs_1) + "x",
                   fmt_int(static_cast<long long>(p.migrations)), fmt_fixed(p.wall_ms, 1),
                   fmt_fixed(p.jobs_per_sec, 0)});
    points.push_back(p);
  }
  table.print(std::cout);

  // Monotone non-degradation along the homogeneous ladder (points 0..3).
  for (std::size_t i = 1; i < 4; ++i) {
    if (points[i].makespan_us > points[i - 1].makespan_us) {
      std::cerr << "MULTIGPU REGRESSION: makespan grew from " << points[i - 1].label
                << " to " << points[i].label << " (" << points[i - 1].makespan_us
                << " -> " << points[i].makespan_us << " us)\n";
      failed = true;
    }
  }
  // Dispatch-bound speedup target at 4 devices (sim-domain, deterministic).
  if (points[2].speedup_vs_1 < 1.5) {
    std::cerr << "MULTIGPU REGRESSION: 4-device speedup " << points[2].speedup_vs_1
              << "x < 1.5x target on the skewed fleet\n";
    failed = true;
  }

  // --- placement win: affinity vs round-robin at 4 devices --------------------
  ScenarioConfig rr_cfg = multigpu_config(std::vector<GpuArch>(4, make_quadro4000()));
  rr_cfg.placement.policy = PlacementPolicy::kRoundRobin;
  double rr_ms = 0.0;
  const ScenarioResult rr = timed_run(rr_cfg, apps, reps, rr_ms);
  const double affinity_makespan = points[2].makespan_us;
  const double win = affinity_makespan > 0.0 ? rr.makespan_us / affinity_makespan : 0.0;
  std::cout << "\nplacement at 4 devices: round-robin " << fmt_fixed(rr.makespan_us, 1)
            << " us vs affinity " << fmt_fixed(affinity_makespan, 1) << " us ("
            << fmt_ratio(win) << "x win)\n";
  if (rr.makespan_us <= affinity_makespan) {
    std::cerr << "MULTIGPU REGRESSION: affinity placement lost to round-robin on the "
                 "skewed fleet\n";
    failed = true;
  }

  // --- runtime migration: equal initial weights, skewed runtime load ----------
  // Equal per-VP weights make the initial placement round-robin-like, but VPs
  // 0 and 4 (both on device 0 of 4) are heavy at runtime; once the light VPs
  // drain, the re-scheduler must migrate work off the backlogged device.
  std::vector<AppInstance> mig_apps;
  for (int i = 0; i < 8; ++i) {
    workloads::AppTraits t = w.traits;
    t.iterations = (i == 0 || i == 4) ? 16 : 2;
    mig_apps.push_back(AppInstance{.workload = &w, .n = w.test_n, .traits = t});
  }
  ScenarioConfig mig_cfg = multigpu_config(std::vector<GpuArch>(4, make_quadro4000()));
  mig_cfg.async_launches = false;  // synchronous: VPs go idle between jobs
  double mig_ms = 0.0;
  const ScenarioResult mig = timed_run(mig_cfg, mig_apps, reps, mig_ms);
  std::cout << "runtime migration: " << mig.gpus.migrations << " migrations, "
            << mig.gpus.migrated_bytes << " bytes restaged\n";
  if (mig.gpus.migrations == 0) {
    std::cerr << "MULTIGPU REGRESSION: runtime-skewed fleet triggered no migrations\n";
    failed = true;
  }

  // --- placement determinism: workers x shards byte-identity ------------------
  run::SweepJob quad;
  quad.name = "quad";
  quad.group = "multigpu";
  quad.config = multigpu_config(std::vector<GpuArch>(4, make_quadro4000()));
  quad.apps = apps;
  run::SweepJob sharded;
  sharded.name = "sharded";
  sharded.group = "multigpu";
  sharded.config = multigpu_config(std::vector<GpuArch>(2, make_quadro4000()));
  sharded.config.fleet.domains = 2;
  sharded.apps = apps;
  const std::vector<run::SweepJob> jobs{quad, sharded};

  auto canonical = [](run::SweepResult r) {
    r.wall_ms = 0.0;
    r.workers = 1;
    return run::sweep_to_json(r, "multigpu_placement");
  };
  run::set_fleet_shards(1);
  const std::string golden = canonical(run::SweepRunner(1).run(jobs));
  bool determinism = true;
  for (const std::size_t shards : {1u, 2u}) {
    for (const std::size_t workers : {1u, 4u}) {
      run::set_fleet_shards(shards);
      if (canonical(run::SweepRunner(workers).run(jobs)) != golden) {
        std::cerr << "PLACEMENT DIVERGENCE: simulation bytes changed at shards="
                  << shards << " workers=" << workers << "\n";
        determinism = false;
        failed = true;
      }
    }
  }
  run::set_fleet_shards(1);
  std::cout << "placement determinism: "
            << (determinism ? "byte-identical at workers {1, 4} x shards {1, 2}"
                            : "FAILED")
            << "\n";

  // --- JSON -------------------------------------------------------------------
  using run::json::number;
  std::ostringstream os;
  os << "{\n  \"bench\": \"multigpu_placement\",\n";
  os << "  \"placement_determinism\": " << (determinism ? "true" : "false") << ",\n";
  os << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    os << "    {\"label\": \"" << p.label << "\", \"devices\": " << p.devices
       << ", \"makespan_us\": " << number(p.makespan_us)
       << ", \"speedup_vs_1\": " << number(p.speedup_vs_1) << ", \"jobs\": " << p.jobs
       << ", \"migrations\": " << p.migrations
       << ", \"migrated_bytes\": " << p.migrated_bytes
       << ", \"wall_ms\": " << number(p.wall_ms)
       << ", \"jobs_per_sec\": " << number(p.jobs_per_sec) << "}"
       << (i + 1 != points.size() ? ",\n" : "\n");
  }
  os << "  ],\n";
  os << "  \"placement\": {\"devices\": 4, \"rr_makespan_us\": " << number(rr.makespan_us)
     << ", \"affinity_makespan_us\": " << number(affinity_makespan)
     << ", \"win\": " << number(win) << "},\n";
  os << "  \"migration\": {\"migrations\": " << mig.gpus.migrations
     << ", \"migrated_bytes\": " << mig.gpus.migrated_bytes
     << ", \"makespan_us\": " << number(mig.makespan_us) << "}\n";
  os << "}\n";

  if (!run::try_write_json_file(os.str(), json_path)) {
    std::cerr << "error: failed writing JSON results file: " << json_path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << json_path << "\n";

  if (failed) {
    std::cerr << "\nmultigpu_placement: contract checks FAILED\n";
    return 1;
  }
  return 0;
}
