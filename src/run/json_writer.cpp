#include "run/json_writer.hpp"

#include <cstdio>
#include <sstream>

#include "trace/metrics.hpp"
#include "util/fileio.hpp"
#include "util/jsonfmt.hpp"
#include "util/log.hpp"

namespace sigvp::run {

namespace {

void append_summary(std::ostringstream& os, const SampleSummary& s) {
  os << "{\"count\": " << s.count << ", \"min_us\": ";
  os << json::number(s.min);
  os << ", \"mean_us\": ";
  os << json::number(s.mean);
  os << ", \"p50_us\": ";
  os << json::number(s.p50);
  os << ", \"p95_us\": ";
  os << json::number(s.p95);
  os << ", \"max_us\": ";
  os << json::number(s.max);
  os << "}";
}

}  // namespace

namespace json {

// Thin aliases over the shared util primitives (kept for the existing bench
// call sites; src/trace uses util::json_* directly).
std::string escape(const std::string& s) { return util::json_escape(s); }
std::string number(double v) { return util::json_number(v); }

}  // namespace json

bool try_write_json_file(const std::string& text, const std::string& path) {
  // Crash-safe publication: write-temp + fsync + atomic rename, so a process
  // killed mid-write can never leave a torn BENCH/baseline file behind —
  // readers see the previous version or the complete new one. Non-regular
  // destinations (e.g. --json /dev/full in the error-path tests) are written
  // directly, preserving the device node and its failure semantics.
  return util::write_file_atomic(path, text);
}

std::string sweep_to_json(const SweepResult& sweep, const std::string& bench_name) {
  std::ostringstream os;
  os << "{\n  \"bench\": \"" << json::escape(bench_name) << "\",\n";
  os << "  \"workers\": " << sweep.workers << ",\n";
  os << "  \"wall_ms\": ";
  os << json::number(sweep.wall_ms);
  os << ",\n  \"summary\": ";
  append_summary(os, sweep.summarize());
  // Launch-cache activity; emitted only when the cache did something a
  // trajectory should track (hits or bypasses), so zero-hit runs — cache
  // disabled, analytic-only sweeps, or all-unique launches — produce the
  // same JSON as before the cache existed.
  if (sweep.cache.hits > 0 || sweep.cache.bypasses > 0) {
    const LaunchCacheStats& c = sweep.cache;
    os << ",\n  \"cache\": {\"hits\": " << c.hits << ", \"misses\": " << c.misses
       << ", \"bypasses\": " << c.bypasses << ", \"bytes_replayed\": " << c.bytes_replayed
       << ", \"evictions\": " << c.evictions << ", \"entries\": " << c.entries
       << ", \"bytes\": " << c.bytes << "}";
  }
  // Deterministic sim-domain metrics (src/trace), aggregated across the
  // sweep's scenarios in canonical input order. Present only when collection
  // was on (SIGVP_TRACE / SIGVP_METRICS=1 / --trace), so default runs stay
  // byte-identical to builds without the trace subsystem.
  if (sweep.metrics != nullptr && !sweep.metrics->empty()) {
    os << ",\n  \"metrics\": " << sweep.metrics->to_json("  ");
  }
  os << ",\n  \"jobs\": [\n";
  for (std::size_t i = 0; i < sweep.jobs.size(); ++i) {
    const SweepJobResult& j = sweep.jobs[i];
    const ScenarioResult& r = j.result;
    os << "    {\"name\": \"" << json::escape(j.name) << "\", \"group\": \""
       << json::escape(j.group) << "\", \"makespan_us\": ";
    os << json::number(r.makespan_us);
    os << ", \"app_done_us\": [";
    for (std::size_t a = 0; a < r.app_done_us.size(); ++a) {
      if (a != 0) os << ", ";
      os << json::number(r.app_done_us[a]);
    }
    os << "], \"jobs_dispatched\": " << r.jobs_dispatched
       << ", \"reorders\": " << r.reorders
       << ", \"coalesced_groups\": " << r.coalesced_groups
       << ", \"coalesced_jobs\": " << r.coalesced_jobs
       << ", \"ipc_messages\": " << r.ipc_messages << ", \"gpu_dynamic_energy_j\": ";
    os << json::number(r.gpu_dynamic_energy_j);
    os << ", \"gpu_compute_busy_us\": ";
    os << json::number(r.gpu_compute_busy_us);
    os << ", \"gpu_copy_busy_us\": ";
    os << json::number(r.gpu_copy_busy_us);
    // Per-request latency percentiles (open-loop traffic scenarios only).
    // Emitted only when requests ran, so closed-loop jobs keep their JSON
    // byte-identical to builds without the traffic subsystem.
    if (r.latency.count > 0) {
      os << ", \"requests\": " << r.requests_completed
         << ", \"latency\": {\"count\": " << r.latency.count << ", \"mean_us\": ";
      os << json::number(r.latency.mean());
      os << ", \"p50_us\": ";
      os << json::number(r.latency.quantile(0.50));
      os << ", \"p95_us\": ";
      os << json::number(r.latency.quantile(0.95));
      os << ", \"p99_us\": ";
      os << json::number(r.latency.quantile(0.99));
      os << ", \"max_us\": ";
      os << json::number(r.latency.max);
      os << "}";
    }
    if (r.fault.active) {
      const FaultStats& f = r.fault;
      os << ", \"fault\": {\"messages_dropped\": " << f.messages_dropped
         << ", \"messages_duplicated\": " << f.messages_duplicated
         << ", \"latency_spikes\": " << f.latency_spikes
         << ", \"acks_dropped\": " << f.acks_dropped
         << ", \"launch_failures\": " << f.launch_failures
         << ", \"device_resets\": " << f.device_resets
         << ", \"ops_killed_by_reset\": " << f.ops_killed_by_reset
         << ", \"vp_stalls\": " << f.vp_stalls
         << ", \"retransmits\": " << f.retransmits
         << ", \"duplicates_suppressed\": " << f.duplicates_suppressed
         << ", \"launch_retries\": " << f.launch_retries
         << ", \"reset_requeues\": " << f.reset_requeues
         << ", \"group_resplits\": " << f.group_resplits
         << ", \"vps_quarantined\": " << f.vps_quarantined
         << ", \"vp_restarts\": " << f.vp_restarts
         << ", \"fallbacks\": " << f.fallbacks
         << ", \"fallback_jobs\": " << f.fallback_jobs
         << ", \"unrecovered_jobs\": " << f.unrecovered_jobs
         << ", \"recovery_latency_mean_us\": ";
      os << json::number(f.recovery_latency_mean_us());
      os << ", \"recovery_latency_max_us\": ";
      os << json::number(f.recovery_latency_max_us);
      os << "}";
    }
    // Sharded-fleet observables (DESIGN.md §16); absent on the classic
    // single-domain path, so legacy BENCH JSON stays byte-identical.
    // sync_rounds / resident_bytes stay OUT of this block on purpose: an
    // armed snapshotter's capture-cadence events are real events in the
    // domain queues, so those two executor stats see them — emitting them
    // here would break §14's "checkpointing never changes a result byte"
    // contract. They are reported via the metrics block and bench/fleet_scale.
    if (r.fleet.domains > 0) {
      const FleetStats& fl = r.fleet;
      os << ", \"fleet\": {\"domains\": " << fl.domains << ", \"lookahead_us\": ";
      os << json::number(fl.lookahead_us);
      os << ", \"fabric_messages\": " << fl.fabric_messages
         << ", \"fabric_hops\": " << fl.fabric_hops << ", \"fleet_done_us\": ";
      os << json::number(fl.fleet_done_us);
      os << ", \"cache_hits\": " << fl.cache_hits
         << ", \"cache_misses\": " << fl.cache_misses << "}";
    }
    // Multi-GPU placement observables; absent unless the scenario declared
    // host_gpus, so legacy BENCH JSON stays byte-identical.
    if (r.gpus.devices > 0) {
      const MultiGpuStats& mg = r.gpus;
      os << ", \"host_gpus\": {\"devices\": " << mg.devices
         << ", \"migrations\": " << mg.migrations
         << ", \"migrated_bytes\": " << mg.migrated_bytes << ", \"per_device\": [";
      for (std::size_t d = 0; d < mg.per_device.size(); ++d) {
        const GpuDeviceStats& ds = mg.per_device[d];
        if (d != 0) os << ", ";
        os << "{\"arch\": \"" << ds.arch << "\", \"vps\": " << ds.vps
           << ", \"jobs\": " << ds.jobs << ", \"kernels\": " << ds.kernels
           << ", \"compute_busy_us\": ";
        os << json::number(ds.compute_busy_us);
        os << ", \"copy_busy_us\": ";
        os << json::number(ds.copy_busy_us);
        os << ", \"energy_j\": ";
        os << json::number(ds.energy_j);
        os << "}";
      }
      os << "]}";
    }
    os << "}";
    if (i + 1 != sweep.jobs.size()) os << ",";
    os << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

bool try_write_sweep_json(const SweepResult& sweep, const std::string& bench_name,
                          const std::string& path) {
  if (try_write_json_file(sweep_to_json(sweep, bench_name), path)) return true;
  SIGVP_WARN("bench") << "failed writing JSON results file: " << path;
  return false;
}

}  // namespace sigvp::run
