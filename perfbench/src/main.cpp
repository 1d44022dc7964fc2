// ΣVP host-cost benchmark runner: builds one workload from a seed, runs its
// scenarios one after another on this thread for a fixed host-time budget,
// checks every result, and prints one JSON report as its last stdout line.
//
//   perfbench --workload NAME --seed N --seconds S [--trace PATH]
//
// Timed regions cover only the run_scenario calls; cache resets, digests and
// output checks run between them. With --trace, one more pass runs with a
// span around each run_scenario call, the layer probes follow, and the spans
// are written to PATH at exit. perfbench/run.py builds this program, derives
// the metrics and compares digests against perfbench/golden.json.

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "gpu/launch_cache.hpp"
#include "interp/tier2.hpp"
#include "perfbench.hpp"
#include "run/json_writer.hpp"
#include "run/sweep.hpp"
#include "run/thread_pool.hpp"

namespace sigvp::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU seconds of the whole process (all threads).
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001B3ull;
  return h;
}

template <typename T>
std::uint64_t fnv1a(std::uint64_t h, const T& value) {
  return fnv1a(h, &value, sizeof(value));
}

/// Digest of every sim-domain field of a result: the repo's own result
/// serialization, plus the exact latency buckets, the fleet block and the
/// functional output bytes.
std::uint64_t digest(const ScenarioResult& r) {
  run::SweepResult one;
  one.jobs.push_back(run::SweepJobResult{"scenario", "", r});
  one.jobs.back().result.metrics = nullptr;
  const std::string json = run::sweep_to_json(one, "perfbench");
  std::uint64_t h = fnv1a(0xCBF29CE484222325ull, json.data(), json.size());
  for (const std::uint64_t c : r.latency.counts) h = fnv1a(h, c);
  h = fnv1a(h, r.latency.sum);
  const FleetStats& f = r.fleet;
  for (const std::uint64_t v : {std::uint64_t{f.domains}, f.sync_rounds, f.fabric_messages,
                                f.fabric_hops, f.resident_bytes, f.cache_hits, f.cache_misses}) {
    h = fnv1a(h, v);
  }
  h = fnv1a(h, f.lookahead_us);
  h = fnv1a(h, f.fleet_done_us);
  for (const auto& out : r.app_outputs) {
    h = fnv1a(h, out.size());
    h = fnv1a(h, out.data(), out.size());
  }
  return h;
}

/// Invariant checks that hold for any seed; returns "" when all pass.
std::string check(const Scenario& s, const ScenarioResult& r) {
  std::uint64_t arrivals = 0;
  for (const AppInstance& a : s.apps) arrivals += a.arrivals.size();
  if (r.requests_completed != arrivals) {
    return "completed " + std::to_string(r.requests_completed) + " of " +
           std::to_string(arrivals) + " requests";
  }
  if (r.app_done_us.size() != s.apps.size()) return "not every app finished";
  for (const SimTime t : r.app_done_us) {
    if (!(t > 0.0) || t > r.makespan_us) return "app finish time outside (0, makespan]";
  }
  if (r.jobs_dispatched == 0) return "no job dispatched";
  if (s.config.functional_io) {
    if (r.app_outputs.size() != s.apps.size()) return "missing functional outputs";
    for (const auto& out : r.app_outputs) {
      if (out.empty()) return "empty functional output";
      if (s.identical_vps && out != r.app_outputs.front()) {
        return "identical VPs returned different output bytes";
      }
    }
  }
  return "";
}

struct ScenarioRecord {
  std::string name;
  std::uint64_t digest = 0;
  std::size_t runs = 0;
  std::size_t failures = 0;
  std::string error;
};

/// Public per-layer counters summed over one pass.
struct Counters {
  std::uint64_t jobs_dispatched = 0, reorders = 0, coalesced_groups = 0, coalesced_jobs = 0;
  std::uint64_t ipc_messages = 0, requests = 0;
  std::uint64_t sync_rounds = 0, fabric_messages = 0, fleet_cache_hits = 0,
                fleet_cache_misses = 0;
  LaunchCacheStats cache;
  Tier2Stats tier2;

  void add(const ScenarioResult& r, const LaunchCacheStats& cache_delta,
           const Tier2Stats& tier2_delta) {
    jobs_dispatched += r.jobs_dispatched;
    reorders += r.reorders;
    coalesced_groups += r.coalesced_groups;
    coalesced_jobs += r.coalesced_jobs;
    ipc_messages += r.ipc_messages;
    requests += r.requests_completed;
    sync_rounds += r.fleet.sync_rounds;
    fabric_messages += r.fleet.fabric_messages;
    fleet_cache_hits += r.fleet.cache_hits;
    fleet_cache_misses += r.fleet.cache_misses;
    cache.hits += cache_delta.hits;
    cache.misses += cache_delta.misses;
    cache.bypasses += cache_delta.bypasses;
    cache.bytes_replayed += cache_delta.bytes_replayed;
    tier2.launches_tier2 += tier2_delta.launches_tier2;
    tier2.launches_warming += tier2_delta.launches_warming;
    tier2.launches_tier1 += tier2_delta.launches_tier1;
    tier2.compiles += tier2_delta.compiles;
  }

  std::string to_json() const {
    std::ostringstream os;
    os << "{\"jobs_dispatched\": " << jobs_dispatched << ", \"reorders\": " << reorders
       << ", \"coalesced_groups\": " << coalesced_groups
       << ", \"coalesced_jobs\": " << coalesced_jobs << ", \"ipc_messages\": " << ipc_messages
       << ", \"requests\": " << requests << ", \"sync_rounds\": " << sync_rounds
       << ", \"fabric_messages\": " << fabric_messages
       << ", \"fleet_cache_hits\": " << fleet_cache_hits
       << ", \"fleet_cache_misses\": " << fleet_cache_misses
       << ", \"cache_hits\": " << cache.hits << ", \"cache_misses\": " << cache.misses
       << ", \"cache_bypasses\": " << cache.bypasses
       << ", \"cache_bytes_replayed\": " << cache.bytes_replayed
       << ", \"tier2_launches\": " << tier2.launches_tier2
       << ", \"tier2_warming\": " << tier2.launches_warming
       << ", \"tier1_launches\": " << tier2.launches_tier1
       << ", \"tier2_compiles\": " << tier2.compiles << "}";
    return os.str();
  }
};

struct PassSample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t jobs = 0;
  Counters counters;
};

/// Runs every scenario once via run_scenario on `worker`, a one-thread pool
/// kept for the whole run: on a pool thread the kernel interpreter stays
/// serial. (From the main thread it fans out to every core, and on a shared
/// 4-vCPU host its wall time then varied twice as much as its CPU time; a
/// fresh thread per scenario, as SweepRunner makes, let peak RSS vary by
/// 10% with the number of malloc arenas.) Only the scenario calls are
/// timed; the process-wide launch cache and Tier-2 engine are reset before
/// each one so every pass, and every scenario, starts from the same cold
/// state. `between` (optional) runs after each scenario, outside the timed
/// region.
PassSample run_pass(const Workload& w, run::ThreadPool& worker,
                    std::vector<ScenarioRecord>& records, SpanLog* log,
                    const std::function<void()>& between = nullptr) {
  PassSample pass;
  for (std::size_t i = 0; i < w.scenarios.size(); ++i) {
    const Scenario& s = w.scenarios[i];
    LaunchCache::instance().clear();
    Tier2Engine::instance().reset();
    const LaunchCacheStats cache_before = LaunchCache::instance().stats();

    ScenarioResult result;
    std::string error;
    {
      ScopedSpan span(log, "scenario", static_cast<int>(i));
      const double cpu0 = cpu_seconds();
      const Clock::time_point t0 = Clock::now();
      worker.submit([&] {
        try {
          result = run_scenario(s.config, s.apps);
        } catch (const std::exception& e) {
          error = std::string("threw: ") + e.what();
        } catch (...) {
          error = "threw a non-standard exception";
        }
      });
      worker.wait_idle();
      pass.wall_s += seconds_since(t0);
      pass.cpu_s += cpu_seconds() - cpu0;
    }

    if (error.empty()) error = check(s, result);
    ScenarioRecord& rec = records[i];
    const std::uint64_t d = error.empty() ? digest(result) : 0;
    if (error.empty() && rec.runs > 0 && d != rec.digest) {
      error = "result differs from the first pass";
    }
    if (rec.runs == 0) rec.digest = d;
    ++rec.runs;
    if (!error.empty()) {
      ++rec.failures;
      if (rec.error.empty()) rec.error = error;
    }
    pass.jobs += result.jobs_dispatched;
    pass.counters.add(result, LaunchCache::instance().stats() - cache_before,
                      Tier2Engine::instance().stats());
    if (between) between();
  }
  return pass;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  out += run::json::escape(s);
  out += '"';
  return out;
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + run::json::number(values[i]);
  }
  return out + "]";
}

struct Args {
  std::string workload;
  std::string seed;
  std::string seconds;
  std::string trace_path;  // empty = untraced run
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = value;
    } else if (key == "--seconds") {
      a.seconds = value;
    } else if (key == "--trace") {
      a.trace_path = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || a.seed.empty() || a.seconds.empty()) {
    throw std::invalid_argument(
        "usage: perfbench --workload NAME --seed N --seconds S [--trace PATH]");
  }
  return a;
}

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

int run_main(int argc, char** argv, Clock::time_point process_start) {
  const Args args = parse_args(argc, argv);
  const std::uint64_t seed = std::stoull(args.seed);
  const double seconds = std::stod(args.seconds);

  std::unique_ptr<Workload> w = make_workload(args.workload, seed);
  // One set-up takes well under a millisecond, and how long depends on the
  // core the process happens to run on. So besides the first set-up (timed
  // from process start) the workload is built again after every untraced
  // scenario, and run.py reports the median of all samples.
  std::vector<double> setup_s = {seconds_since(process_start)};
  const auto sample_setup = [&] {
    const Clock::time_point t0 = Clock::now();
    const std::unique_ptr<Workload> again = make_workload(args.workload, seed);
    setup_s.push_back(seconds_since(t0));
  };

  std::vector<ScenarioRecord> records(w->scenarios.size());
  for (std::size_t i = 0; i < records.size(); ++i) records[i].name = w->scenarios[i].name;

  run::ThreadPool worker(1);
  std::vector<PassSample> passes;
  const Clock::time_point measure_start = Clock::now();
  do {
    passes.push_back(run_pass(*w, worker, records, nullptr, sample_setup));
    std::cerr << "pass " << passes.size() << ": " << passes.back().wall_s << " s wall, "
              << passes.back().cpu_s << " s cpu\n";
  } while (seconds_since(measure_start) < seconds);

  std::string traced_json;
  if (!args.trace_path.empty()) {
    SpanLog log;
    PassSample traced;
    {
      ScopedSpan pass_span(&log, "pass");
      traced = run_pass(*w, worker, records, &log);
    }
    run_probes(*w, worker, log);
    std::ofstream out(args.trace_path);
    out << log.to_json() << "\n";
    out.close();
    if (!out) throw std::runtime_error("cannot write spans to " + args.trace_path);
    traced_json = "{\"wall_s\": " + run::json::number(traced.wall_s) +
                  ", \"cpu_s\": " + run::json::number(traced.cpu_s) +
                  ", \"counters\": " + traced.counters.to_json() + "}";
  }

  const double eff_cores = effective_cores();

  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const ScenarioRecord& r : records) {
    attempted += r.runs;
    failed += r.failures;
    if (r.failures > 0) std::cerr << "FAILED " << r.name << ": " << r.error << "\n";
  }

  std::vector<double> wall, cpu, jobs;
  for (const PassSample& p : passes) {
    wall.push_back(p.wall_s);
    cpu.push_back(p.cpu_s);
    jobs.push_back(static_cast<double>(p.jobs));
  }

  std::ostringstream os;
  os << "{\"workload\": " << json_str(w->name) << ", \"seed\": " << seed
     << ", \"seeded\": " << (w->seeded ? "true" : "false")
     << ", \"scenarios\": " << w->scenarios.size() << ", \"shards\": " << run::fleet_shards()
     << ", \"nproc\": " << run::ThreadPool::default_workers()
     << ", \"effective_cores\": " << run::json::number(eff_cores)
     << ", \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE)
#ifdef NDEBUG
     << ", \"ndebug\": true"
#else
     << ", \"ndebug\": false"
#endif
     << ", \"compiler\": " << json_str(kCompiler)
     << ", \"setup_s\": " << json_list(setup_s) << ", \"wall_s\": " << json_list(wall)
     << ", \"cpu_s\": " << json_list(cpu) << ", \"jobs\": " << json_list(jobs)
     << ", \"peak_rss_mb\": " << run::json::number(peak_rss_mb())
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed << ", \"results\": [";
  for (std::size_t i = 0; i < records.size(); ++i) {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(records[i].digest));
    os << (i ? ", " : "") << "{\"name\": " << json_str(records[i].name)
       << ", \"digest\": " << json_str(hex) << ", \"runs\": " << records[i].runs
       << ", \"failures\": " << records[i].failures
       << ", \"error\": " << json_str(records[i].error) << "}";
  }
  os << "]";
  if (!traced_json.empty()) os << ", \"traced\": " << traced_json;
  os << "}";
  std::cout << os.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace sigvp::perfbench

int main(int argc, char** argv) {
  const auto process_start = std::chrono::steady_clock::now();
  try {
    return sigvp::perfbench::run_main(argc, argv, process_start);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
