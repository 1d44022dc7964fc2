// Measures the content-addressed launch cache (DESIGN.md §11): host
// wall-clock of functional fleet scenarios at VP counts {1, 2, 4, 8, 16},
// cache-disabled vs cache-enabled, plus a sweep-sharing phase where
// identical single-scenario jobs on different sweep workers hit each
// other's fills.
//
// The fleet premise makes the win structural: every VP launches the same
// kernels on the same input bytes, so of the VPs x iterations functional
// interpretations per scenario only the first launch of each kernel must
// execute — the rest replay recorded write-sets, relocated to each VP's
// own buffer addresses.
//
//   launch_cache_speedup [--workers N] [--json PATH]
//
// Exits nonzero if any cached run's outputs or makespans diverge from the
// uncached run, or if the cache never hit — the determinism contract is the
// bench's precondition, not an aspiration.
//
// Each VP point's hits, misses, bypasses and replayed bytes are sim-domain
// counters, and so is the shared sweep's lookup count (hits + misses);
// scripts/bench_regression_check.py compares them exactly. The shared
// sweep's hit/miss split depends on which concurrent job fills an entry
// first, and the speedups are wall-clock: both are only reported.

#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "gpu/launch_cache.hpp"
#include "run/json_writer.hpp"
#include "run/sweep.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workloads/suite.hpp"

namespace sigvp {
namespace {

/// Iterations per app: uncached work scales with VPs x iterations, cached
/// work with the number of distinct launches (one per kernel, whatever the
/// VP count) plus one replay per launch.
constexpr std::uint32_t kIterations = 8;

/// Workloads with deterministic fill_inputs and read/write-disjoint buffers
/// (every iteration re-reads unchanged inputs, so iterations 2..k hit),
/// each at a size where interpretation cost is meaningful. An app that
/// rewrites its own inputs (e.g. nbody integrating positions) would
/// honestly miss every iteration — the hook/fault bypass tests cover that
/// behavior; this bench measures the fleet-identical case the paper's
/// premise guarantees.
struct BenchApp {
  const char* app;
  std::uint64_t n;
};
constexpr BenchApp kApps[] = {{"BlackScholes", 65536}, {"matrixMul", 96},
                              {"SobelFilter", 65536}};

run::SweepJob make_fleet_job(const workloads::Workload& w, std::uint64_t n, std::size_t vps,
                             const std::string& name) {
  run::SweepJob job;
  job.name = name;
  job.group = w.app;
  job.config.backend = Backend::kSigmaVp;
  job.config.mode = ExecMode::kFunctional;
  job.config.functional_io = true;

  workloads::AppTraits t = w.traits;
  t.iterations = kIterations;
  t.launches_per_iter = 1;
  t.iter_h2d_bytes = 0;
  t.iter_d2h_bytes = 0;
  const AppInstance app{.workload = &w, .n = n, .traits = t};
  for (std::size_t i = 0; i < vps; ++i) job.apps.push_back(app);
  return job;
}

run::SweepResult run_phase(const std::vector<run::SweepJob>& jobs, std::size_t workers,
                           bool cache_on) {
  LaunchCache& cache = LaunchCache::instance();
  cache.clear();
  cache.set_enabled(cache_on);
  const run::SweepRunner runner(workers);
  return runner.run(jobs);
}

/// Byte-exact + bit-exact comparison of one job across the two phases;
/// returns false (and reports) on any divergence.
bool phases_agree(const run::SweepJobResult& uncached, const run::SweepJobResult& cached) {
  bool ok = true;
  if (uncached.result.makespan_us != cached.result.makespan_us) {
    std::cerr << "DIVERGENCE: " << uncached.name << " makespan " << uncached.result.makespan_us
              << "us uncached vs " << cached.result.makespan_us << "us cached\n";
    ok = false;
  }
  if (uncached.result.app_outputs != cached.result.app_outputs) {
    std::cerr << "DIVERGENCE: " << uncached.name << " output bytes differ with the cache on\n";
    ok = false;
  }
  return ok;
}

struct Point {
  std::size_t vps = 0;
  double wall_uncached_ms = 0.0;
  double wall_cached_ms = 0.0;
  LaunchCacheStats cache;
};

}  // namespace
}  // namespace sigvp

int main(int argc, char** argv) {
  using namespace sigvp;
  const run::SweepCli cli =
      run::parse_sweep_cli(argc, argv, "BENCH_launch_cache_speedup.json");
  const auto suite = workloads::make_suite();

  std::cout << "== Launch cache: fleet scenarios, cache-disabled vs cache-enabled ==\n"
            << "   (" << kIterations << " iterations x {";
  for (const BenchApp& a : kApps) std::cout << " " << a.app;
  std::cout << " }, functional mode with real data)\n\n";

  bool all_agree = true;
  std::vector<Point> points;
  for (const std::size_t vps : {1, 2, 4, 8, 16}) {
    std::vector<run::SweepJob> jobs;
    for (const BenchApp& a : kApps) {
      jobs.push_back(make_fleet_job(workloads::find(suite, a.app), a.n, vps,
                                    std::string(a.app) + "/vps" + std::to_string(vps)));
    }
    const run::SweepResult uncached = run_phase(jobs, cli.workers, false);
    const run::SweepResult cached = run_phase(jobs, cli.workers, true);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      all_agree = phases_agree(uncached.jobs[j], cached.jobs[j]) && all_agree;
    }
    points.push_back(Point{vps, uncached.wall_ms, cached.wall_ms, cached.cache});
  }

  TablePrinter t({"VPs", "Uncached (ms)", "Cached (ms)", "Speedup", "Hits", "Misses",
                  "Hit rate", "Replayed (MB)"});
  for (const Point& p : points) {
    const double lookups = static_cast<double>(p.cache.hits + p.cache.misses);
    t.add_row({std::to_string(p.vps), fmt_fixed(p.wall_uncached_ms, 1),
               fmt_fixed(p.wall_cached_ms, 1),
               fmt_fixed(p.wall_uncached_ms / p.wall_cached_ms, 2),
               std::to_string(p.cache.hits), std::to_string(p.cache.misses),
               fmt_fixed(lookups > 0.0 ? p.cache.hits / lookups : 0.0, 3),
               fmt_fixed(static_cast<double>(p.cache.bytes_replayed) / (1024.0 * 1024.0), 1)});
  }
  t.print(std::cout);

  // Sweep-sharing phase: identical single-fleet jobs spread across sweep
  // workers share one process-wide cache, so later jobs replay the first
  // job's fills — each job's device allocator hands out the same addresses.
  constexpr std::size_t kSharedJobs = 4;
  const workloads::Workload& shared_w = workloads::find(suite, kApps[0].app);
  std::vector<run::SweepJob> shared_jobs;
  for (std::size_t j = 0; j < kSharedJobs; ++j) {
    shared_jobs.push_back(
        make_fleet_job(shared_w, kApps[0].n, 8, "shared/p" + std::to_string(j)));
  }
  const run::SweepResult shared_uncached = run_phase(shared_jobs, cli.workers, false);
  const run::SweepResult shared_cached = run_phase(shared_jobs, cli.workers, true);
  for (std::size_t j = 0; j < shared_jobs.size(); ++j) {
    all_agree = phases_agree(shared_uncached.jobs[j], shared_cached.jobs[j]) && all_agree;
    all_agree = (shared_cached.jobs[j].result.app_outputs ==
                 shared_cached.jobs[0].result.app_outputs) &&
                all_agree;
  }
  std::cout << "\nSweep sharing: " << kSharedJobs << " identical 8-VP " << shared_w.app
            << " jobs on " << shared_cached.workers << " workers: "
            << fmt_fixed(shared_uncached.wall_ms, 1) << " ms -> "
            << fmt_fixed(shared_cached.wall_ms, 1) << " ms ("
            << fmt_fixed(shared_uncached.wall_ms / shared_cached.wall_ms, 2) << "x, "
            << shared_cached.cache.hits << " hits / " << shared_cached.cache.misses
            << " misses across jobs)\n";

  // Leave the process-wide cache the way other tools expect to find it.
  LaunchCache::instance().set_enabled(true);
  LaunchCache::instance().clear();

  std::uint64_t total_hits = shared_cached.cache.hits;
  for (const Point& p : points) total_hits += p.cache.hits;
  if (total_hits == 0) {
    std::cerr << "FAIL: the launch cache never hit — fleet launches stopped matching\n";
    return 1;
  }
  if (!all_agree) {
    std::cerr << "FAIL: cached execution diverged from uncached execution\n";
    return 1;
  }
  std::cout << "\nAll cached outputs and makespans byte-identical to uncached runs.\n";

  std::ostringstream os;
  os << "{\n  \"bench\": \"launch_cache_speedup\",\n";
  os << "  \"iterations\": " << kIterations << ",\n";
  os << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    os << "    {\"vps\": " << p.vps << ", \"wall_uncached_ms\": "
       << run::json::number(p.wall_uncached_ms)
       << ", \"wall_cached_ms\": " << run::json::number(p.wall_cached_ms)
       << ", \"speedup\": " << run::json::number(p.wall_uncached_ms / p.wall_cached_ms)
       << ", \"hits\": " << p.cache.hits << ", \"misses\": " << p.cache.misses
       << ", \"bypasses\": " << p.cache.bypasses
       << ", \"bytes_replayed\": " << p.cache.bytes_replayed << "}";
    os << (i + 1 == points.size() ? "\n" : ",\n");
  }
  os << "  ],\n";
  os << "  \"shared_sweep\": {\"jobs\": " << kSharedJobs
     << ", \"wall_uncached_ms\": " << run::json::number(shared_uncached.wall_ms)
     << ", \"wall_cached_ms\": " << run::json::number(shared_cached.wall_ms)
     << ", \"speedup\": "
     << run::json::number(shared_uncached.wall_ms / shared_cached.wall_ms)
     << ", \"hits\": " << shared_cached.cache.hits
     << ", \"misses\": " << shared_cached.cache.misses;
  os << ", \"lookups\": " << shared_cached.cache.hits + shared_cached.cache.misses << "}\n";
  os << "}\n";
  if (!run::try_write_json_file(os.str(), cli.json_path)) {
    std::cerr << "error: failed writing JSON results file: " << cli.json_path << "\n";
    return 1;
  }
  std::cout << "[bench] results -> " << cli.json_path << "\n";
  if (!run::flush_trace()) return 1;
  return 0;
}
