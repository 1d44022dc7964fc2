#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "gpu/launch_cache.hpp"
#include "trace/metrics.hpp"
#include "util/stats.hpp"

namespace sigvp::run {

/// One independent design point of a sweep: a scenario configuration plus
/// the app instances to run under it. `name` must be unique within a sweep;
/// `group` is a free-form aggregation key (typically the app or the backend)
/// the summary statistics are computed over.
struct SweepJob {
  std::string name;
  std::string group;
  ScenarioConfig config;
  std::vector<AppInstance> apps;
};

struct SweepJobResult {
  std::string name;
  std::string group;
  ScenarioResult result;
};

/// Results of a sweep, in the input job order regardless of worker count.
struct SweepResult {
  std::vector<SweepJobResult> jobs;
  std::size_t workers = 1;
  double wall_ms = 0.0;  // host wall-clock of the whole sweep

  /// Launch-cache activity of this process during the sweep (counter deltas
  /// over the run; `entries`/`bytes` are residency levels at sweep end).
  /// Host-domain, like wall_ms: the cache is process-wide, so concurrent
  /// jobs split hits and misses by thread timing, and a resumed sweep
  /// counts only the jobs it re-ran.
  LaunchCacheStats cache;

  /// Per-scenario sim-domain metrics folded together in canonical input
  /// order (worker-count independent — see trace::Metrics). Null unless
  /// collection was on (`trace::collecting()`) during the sweep.
  std::shared_ptr<trace::Metrics> metrics;

  const SweepJobResult& find(const std::string& name) const;

  /// makespan(baseline) / makespan(job) — the speedup of `job` over the
  /// named baseline job.
  double speedup(const std::string& job, const std::string& baseline) const;

  /// min/mean/p50/p95/max over the makespans of every job, or of the jobs
  /// in one group.
  SampleSummary summarize() const;
  SampleSummary summarize_group(const std::string& group) const;
};

/// Checkpoint/restore policy of a sweep run (DESIGN.md §14). A checkpoint
/// holds finished results and the capture digests of interrupted jobs; the
/// launch cache is not persisted, so a resumed sweep starts it cold.
struct SweepSnapshotOptions {
  /// Checkpoint directory. Non-empty enables both periodic checkpoint
  /// publication AND auto-resume from the newest valid checkpoint found
  /// there (a cold start simply finds none). Empty disables everything —
  /// the run is byte-identical to a build without the snapshot layer.
  std::string dir;

  /// Sim-time cadence (µs) of the per-job fleet captures that trigger
  /// checkpoint publication. Must match the cadence of the interrupted run
  /// being resumed — captures are verified position by position.
  SimTime every_us = 5000.0;
};

/// What a checkpointed/resumed sweep actually did, for harness assertions.
struct SweepResumeInfo {
  std::string resumed_from;            // checkpoint used ("" = cold start)
  std::size_t jobs_resumed = 0;        // finished results spliced, not re-run
  std::size_t jobs_replayed = 0;       // re-executed under digest verification
  std::vector<std::string> rejected;   // snapshot files that failed validation
};

/// Shards a vector of scenario jobs across a fixed-size worker pool.
///
/// Determinism contract: every job owns its private EventQueue, GPU device,
/// IPC manager and dispatcher (all built inside `run_scenario`), so a job's
/// ScenarioResult is a pure function of its SweepJob — bit-identical across
/// runs and across worker counts. Only host wall-clock changes with N.
///
/// The checkpoint/restore path leans on exactly that contract: the durable
/// unit of progress is a *finished job's result* (serialized bit-exact and
/// spliced back without re-execution); an interrupted job re-executes from
/// its inputs and must reproduce the fleet-capture digest sequence the
/// checkpoint recorded — so a resumed sweep's output is bit-identical to a
/// never-interrupted run at any worker count.
class SweepRunner {
 public:
  /// `workers == 0` picks the host's hardware concurrency.
  explicit SweepRunner(std::size_t workers = 0);

  std::size_t workers() const { return workers_; }

  /// Runs every job to completion and returns results in input order.
  /// The first scenario exception (lowest job index) is rethrown after all
  /// workers have drained.
  SweepResult run(const std::vector<SweepJob>& jobs) const;

  /// Checkpoint-aware variant: resumes from the newest valid checkpoint in
  /// `snap.dir` when one for this exact job list exists, publishes
  /// rotating checkpoints while running, and reports what happened through
  /// `resume_info` (may be null). With default options this is the plain
  /// run() path.
  SweepResult run(const std::vector<SweepJob>& jobs, const SweepSnapshotOptions& snap,
                  SweepResumeInfo* resume_info) const;

 private:
  std::size_t workers_;
};

/// Shared CLI handling for the sweep-shaped benches: `--workers N`
/// (0 = hardware concurrency, the default), `--json PATH` to override the
/// bench's default `BENCH_<name>.json` output location, and `--trace PATH`
/// to enable the Chrome/Perfetto tracer (equivalent to SIGVP_TRACE=PATH;
/// parse_sweep_cli enables it immediately so every subsequent scenario is
/// captured).
///
/// Checkpoint/restore: `--snapshot-dir PATH` (or SIGVP_SNAPSHOT_DIR)
/// enables rotating checkpoints plus auto-resume; the flag overrides the
/// environment.
///
/// Fleet sharding: `--shards N` (or SIGVP_SHARDS) sets how many host
/// threads advance a sharded fleet's simulation domains between
/// synchronization horizons (run::set_fleet_shards). Execution-only: any
/// value produces byte-identical BENCH JSON; 1 (the default) advances
/// domains serially.
struct SweepCli {
  std::size_t workers = 0;
  std::size_t shards = 1;
  std::string json_path;
  std::string trace_path;
  std::string snapshot_dir;

  /// The snapshot policy these CLI settings describe.
  SweepSnapshotOptions snapshot_options() const {
    SweepSnapshotOptions snap;
    snap.dir = snapshot_dir;
    return snap;
  }
};

SweepCli parse_sweep_cli(int argc, char** argv, const std::string& default_json);

/// If the tracer is active, writes its trace file now and logs the path;
/// returns false only on an actual write failure (inactive tracer is a
/// trivially-successful no-op). Benches call this before exiting; an atexit
/// hook also writes the trace, so this mainly surfaces errors early enough
/// to affect the exit code.
bool flush_trace();

}  // namespace sigvp::run
