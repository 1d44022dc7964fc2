#include "run/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "run/thread_pool.hpp"
#include "snapshot/io.hpp"
#include "snapshot/state.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace sigvp::run {

const SweepJobResult& SweepResult::find(const std::string& name) const {
  for (const SweepJobResult& j : jobs) {
    if (j.name == name) return j;
  }
  throw ContractError("no sweep job named '" + name + "'");
}

double SweepResult::speedup(const std::string& job, const std::string& baseline) const {
  const double base = find(baseline).result.makespan_us;
  const double mine = find(job).result.makespan_us;
  SIGVP_REQUIRE(mine > 0.0, "speedup against a zero-makespan job");
  return base / mine;
}

SampleSummary SweepResult::summarize() const { return summarize_group(""); }

SampleSummary SweepResult::summarize_group(const std::string& group) const {
  std::vector<double> makespans;
  for (const SweepJobResult& j : jobs) {
    if (group.empty() || j.group == group) makespans.push_back(j.result.makespan_us);
  }
  SIGVP_REQUIRE(!makespans.empty(),
                group.empty() ? std::string("summary of an empty sweep")
                              : "no sweep jobs in group '" + group + "'");
  return sigvp::summarize(makespans);
}

SweepRunner::SweepRunner(std::size_t workers)
    : workers_(workers == 0 ? ThreadPool::default_workers() : workers) {}

namespace {

/// Identity of the whole sweep: the job list in order. A checkpoint is only
/// resumable into a sweep with the same fingerprint.
std::uint64_t sweep_fingerprint(const std::vector<SweepJob>& jobs) {
  snapshot::Writer w;
  w.u64(jobs.size());
  for (const SweepJob& j : jobs) {
    w.u64(snapshot::scenario_fingerprint(j.name, j.group, j.config, j.apps));
  }
  return w.digest();
}

/// Mutable checkpoint of the running sweep, shared by every worker thread.
/// All mutation happens under `mutex`; publication re-encodes the whole
/// checkpoint (bench-scale sweeps are small) and lets the store rotate.
struct CheckpointState {
  std::mutex mutex;
  snapshot::SweepCheckpoint cp;
  snapshot::CheckpointStore* store = nullptr;

  void publish_locked() {
    if (store != nullptr) store->publish(snapshot::encode_sweep_checkpoint(cp));
  }
};

}  // namespace

SweepResult SweepRunner::run(const std::vector<SweepJob>& jobs) const {
  return run(jobs, SweepSnapshotOptions{}, nullptr);
}

SweepResult SweepRunner::run(const std::vector<SweepJob>& jobs, const SweepSnapshotOptions& snap,
                             SweepResumeInfo* resume_info) const {
  for (const SweepJob& a : jobs) {
    SIGVP_REQUIRE(!a.name.empty(), "sweep job without a name");
    for (const SweepJob& b : jobs) {
      SIGVP_REQUIRE(&a == &b || a.name != b.name, "duplicate sweep job name: " + a.name);
    }
  }

  SweepResult out;
  out.workers = workers_;
  out.jobs.resize(jobs.size());

  const bool checkpointing = !snap.dir.empty();
  const std::uint64_t fingerprint = checkpointing ? sweep_fingerprint(jobs) : 0;

  std::unique_ptr<snapshot::CheckpointStore> store;
  if (checkpointing) store = std::make_unique<snapshot::CheckpointStore>(snap.dir);

  // --- resume: newest valid checkpoint wins, corrupt ones are skipped --------
  SweepResumeInfo info;
  snapshot::SweepCheckpoint loaded;
  bool have = false;
  if (store != nullptr) {
    snapshot::CheckpointStore::Latest latest = store->find_latest_valid();
    info.rejected = std::move(latest.rejected);
    if (!latest.path.empty()) {
      try {
        snapshot::SweepCheckpoint cp = snapshot::decode_sweep_checkpoint(latest.payload);
        if (cp.fingerprint != fingerprint) {
          throw snapshot::SnapshotError("checkpoint is for a different sweep: " + latest.path);
        }
        if (cp.jobs.size() != jobs.size()) {
          throw snapshot::SnapshotError("checkpoint job count mismatch: " + latest.path);
        }
        loaded = std::move(cp);
        have = true;
        info.resumed_from = latest.path;
      } catch (const snapshot::SnapshotError& e) {
        SIGVP_WARN("snapshot") << "rejected " << latest.path << ": " << e.what();
        info.rejected.push_back(latest.path);
      }
    }
  }

  // Splice finished results.
  std::vector<char> done(jobs.size(), 0);
  if (have) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (loaded.jobs[i].done) {
        out.jobs[i].name = jobs[i].name;
        out.jobs[i].group = jobs[i].group;
        out.jobs[i].result = loaded.jobs[i].result;
        done[i] = 1;
        ++info.jobs_resumed;
      } else if (!loaded.jobs[i].captures.empty()) {
        ++info.jobs_replayed;
      }
    }
    SIGVP_INFO("snapshot") << "resumed " << info.jobs_resumed << "/" << jobs.size()
                           << " finished jobs from " << info.resumed_from << " ("
                           << info.jobs_replayed << " replayed under digest verification)";
  }

  CheckpointState state;
  state.store = store.get();
  state.cp.fingerprint = fingerprint;
  state.cp.jobs.resize(jobs.size());
  if (have) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (done[i]) state.cp.jobs[i] = loaded.jobs[i];
    }
  }

  const LaunchCacheStats cache_before = LaunchCache::instance().stats();
  const auto wall_start = std::chrono::steady_clock::now();
  {
    // Results land in their input slot, so aggregation order — and therefore
    // every downstream number — is independent of scheduling order.
    ThreadPool pool(std::min(workers_, std::max<std::size_t>(1, jobs.size())));
    trace::Tracer* tracer = trace::Tracer::active();
    parallel_for(pool, jobs.size(),
                 [&jobs, &out, tracer, &done, &loaded, have, checkpointing, &snap,
                  &state](std::size_t i) {
      if (done[i]) return;  // spliced from the checkpoint
      // Host-domain span for this sweep job (how the simulator itself spent
      // its wall-clock); never part of the deterministic metrics.
      const double host_t0 = tracer != nullptr ? tracer->host_now_us() : 0.0;
      out.jobs[i].name = jobs[i].name;
      out.jobs[i].group = jobs[i].group;
      CaptureOptions co;
      if (have) co.expect = loaded.jobs[i].captures;
      if (checkpointing || !co.expect.empty()) co.every_us = snap.every_us;
      if (checkpointing) {
        co.on_capture = [&state, i](const FleetCapture& fc) {
          std::lock_guard<std::mutex> lock(state.mutex);
          state.cp.jobs[i].captures.push_back(fc);
          state.publish_locked();
        };
      }
      out.jobs[i].result = co.every_us > 0.0
                               ? run_scenario(jobs[i].config, jobs[i].apps, co, nullptr)
                               : run_scenario(jobs[i].config, jobs[i].apps);
      if (checkpointing) {
        std::lock_guard<std::mutex> lock(state.mutex);
        snapshot::JobCheckpoint& jc = state.cp.jobs[i];
        jc.done = true;
        jc.result = out.jobs[i].result;
        jc.captures.clear();
        state.publish_locked();
      }
      if (tracer != nullptr) {
        tracer->complete(tracer->host_pid(), tracer->host_tid(), "sweep", jobs[i].name,
                         host_t0, tracer->host_now_us() - host_t0);
      }
    });
  }
  out.wall_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                          wall_start)
                    .count();
  out.cache = LaunchCache::instance().stats() - cache_before;

  // Fold per-scenario metrics in canonical input order: counters add and
  // histograms sum bucket-wise, so the merged registry is bit-identical for
  // any worker count.
  for (const SweepJobResult& j : out.jobs) {
    if (j.result.metrics == nullptr) continue;
    if (out.metrics == nullptr) out.metrics = std::make_shared<trace::Metrics>();
    out.metrics->merge(*j.result.metrics);
  }
  if (resume_info != nullptr) *resume_info = info;
  return out;
}

SweepCli parse_sweep_cli(int argc, char** argv, const std::string& default_json) {
  SweepCli cli;
  cli.json_path = default_json;
  // Environment first, flags override.
  if (const char* dir = std::getenv("SIGVP_SNAPSHOT_DIR"); dir != nullptr && *dir != '\0') {
    cli.snapshot_dir = dir;
  }
  if (const char* shards = std::getenv("SIGVP_SHARDS"); shards != nullptr && *shards != '\0') {
    cli.shards = static_cast<std::size_t>(std::strtoul(shards, nullptr, 10));
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workers" && i + 1 < argc) {
      cli.workers = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--json" && i + 1 < argc) {
      cli.json_path = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      cli.trace_path = argv[++i];
    } else if (arg == "--snapshot-dir" && i + 1 < argc) {
      cli.snapshot_dir = argv[++i];
    } else if (arg == "--shards" && i + 1 < argc) {
      cli.shards = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    }
  }
  if (!cli.trace_path.empty()) trace::Tracer::enable(cli.trace_path);
  set_fleet_shards(cli.shards);
  return cli;
}

bool flush_trace() {
  trace::Tracer* tracer = trace::Tracer::active();
  if (tracer == nullptr) return true;
  const bool ok = tracer->write();
  if (ok) {
    SIGVP_INFO("trace") << "wrote " << tracer->event_count() << " events to "
                        << tracer->path();
  }
  return ok;
}

}  // namespace sigvp::run
