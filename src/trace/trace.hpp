#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "trace/metrics.hpp"

namespace sigvp::trace {

/// One key/value pair for a trace event's "args" object. The value is stored
/// pre-rendered as JSON so one overload set covers strings and numbers.
struct Arg {
  std::string key;
  std::string json_value;
};

Arg arg(std::string key, const std::string& value);
Arg arg(std::string key, const char* value);
Arg arg(std::string key, double value);
Arg arg(std::string key, std::uint64_t value);
Arg arg(std::string key, int value);

/// Process-wide Chrome trace-event collector (chrome://tracing / Perfetto's
/// "trace event" JSON). Disabled by default: `Tracer::active()` returns
/// nullptr unless `SIGVP_TRACE=path.json` is set in the environment or a
/// bench passed `--trace path.json`, so every instrumentation site reduces
/// to one branch on a pointer when tracing is off.
///
/// Timestamp domains — the determinism rule of this subsystem:
///   * Simulated events (IPC, queue, scheduler, GPU engines) carry the
///     scenario's SimTime, already in microseconds — the unit the trace
///     format expects. They are bit-identical for any `--workers`.
///   * Host events (interpreter chunks, sweep workers) carry monotonic
///     steady_clock deltas since enable(). They describe the simulator
///     itself and are naturally run-to-run variable; they live on separate
///     "host" process tracks and never feed the BENCH `metrics` block.
/// No wall-clock time ever enters the deterministic path.
///
/// Events are rendered to JSON strings at emit time and appended under a
/// mutex; `write()` dumps `{"traceEvents":[...]}` to the configured path.
/// enable()/disable() must not race concurrent emitters — benches and tests
/// flip them only while no scenario or interpreter is running.
class Tracer {
 public:
  /// The process tracer, or nullptr when tracing is disabled. First call
  /// reads SIGVP_TRACE once.
  static Tracer* active();

  /// Turns tracing on, writing to `path` (used by `--trace`). Replaces any
  /// previous tracer. Registers an atexit hook so every binary dumps the
  /// trace on normal exit without per-bench plumbing.
  static void enable(const std::string& path);

  /// Drops the tracer (tests). Does not write.
  static void disable();

  /// Allocates a fresh Perfetto "process" id for a group of tracks and
  /// emits its process_name metadata. Thread-safe, strictly increasing.
  std::uint32_t begin_process(const std::string& name);

  void thread_name(std::uint32_t pid, std::uint32_t tid, const std::string& name);

  /// Complete event ("ph":"X"): a span [ts_us, ts_us + dur_us).
  void complete(std::uint32_t pid, std::uint32_t tid, const char* cat,
                const std::string& name, double ts_us, double dur_us,
                const std::vector<Arg>& args = {});

  /// Thread-scoped instant event ("ph":"i").
  void instant(std::uint32_t pid, std::uint32_t tid, const char* cat,
               const std::string& name, double ts_us, const std::vector<Arg>& args = {});

  /// Counter track sample ("ph":"C").
  void counter(std::uint32_t pid, const char* name, double ts_us, double value);

  /// Flow events ("ph":"s"/"t"/"f") stitch one job's lifecycle across
  /// tracks; all three phases must share cat/name/id for Perfetto to bind
  /// them, so cat and name are fixed to "job".
  void flow_begin(std::uint32_t pid, std::uint32_t tid, double ts_us, std::uint64_t id);
  void flow_step(std::uint32_t pid, std::uint32_t tid, double ts_us, std::uint64_t id);
  void flow_end(std::uint32_t pid, std::uint32_t tid, double ts_us, std::uint64_t id);

  /// Monotonic host microseconds since enable(); for host-domain events only.
  double host_now_us() const;

  /// Stable per-OS-thread track id on the host process track (for
  /// interpreter chunk spans from pool workers); also names the track.
  std::uint32_t host_tid();

  /// Reserved pid for host-domain tracks (allocated in the constructor).
  std::uint32_t host_pid() const { return host_pid_; }

  std::size_t event_count() const;
  std::string to_json() const;
  const std::string& path() const { return path_; }

  /// Writes to_json() to path(); returns false (and logs) on I/O failure.
  bool write() const;

 private:
  explicit Tracer(std::string path);
  void append(std::string event_json);
  void flow(const char* ph, std::uint32_t pid, std::uint32_t tid, double ts_us,
            std::uint64_t id, bool binding_next);

  std::string path_;
  std::chrono::steady_clock::time_point epoch_;
  std::uint32_t host_pid_ = 0;

  mutable std::mutex mu_;
  std::vector<std::string> events_;
  std::uint32_t next_pid_ = 1;
  std::uint32_t next_host_tid_ = 1;
};

/// True when per-scenario metrics should be collected: the tracer is active,
/// SIGVP_METRICS=1, or a test forced it via set_metrics_forced(). Scenario
/// setup checks this once; when false no RunTrace is built and every
/// instrumentation site sees a null pointer.
bool collecting();

/// Test hook: force metrics collection on/off regardless of environment.
void set_metrics_forced(bool on);

/// Per-scenario trace context: one Perfetto process (track group) plus one
/// single-threaded Metrics registry. Built by run_scenario() only when
/// collecting(); components receive it via set_trace() and treat nullptr as
/// "instrumentation off". All emit helpers forward to the process Tracer
/// when one is active and are metrics-only no-ops otherwise.
///
/// Track ids within the scenario's process: tids [0, n_vps) are the guest
/// VP tracks; the constants below carve out host-stack tracks.
class RunTrace {
 public:
  static constexpr std::uint32_t kTidDispatcher = 1000;
  static constexpr std::uint32_t kTidGpuCompute = 1001;
  static constexpr std::uint32_t kTidGpuCopyIn = 1002;
  static constexpr std::uint32_t kTidGpuCopyOut = 1003;
  static constexpr std::uint32_t kTidIpc = 1004;

  explicit RunTrace(const std::string& label);

  Tracer* tracer() const { return tracer_; }
  std::uint32_t pid() const { return pid_; }

  /// Globally unique flow id for a job: scenario pid in the high bits, the
  /// IpcManager-assigned job id (process-unique per run) in the low bits —
  /// unique across VPs and across concurrent sweep scenarios.
  std::uint64_t flow_id(std::uint64_t job_id) const {
    return (static_cast<std::uint64_t>(pid_) << 40) | job_id;
  }

  void thread_name(std::uint32_t tid, const std::string& name);
  void span(std::uint32_t tid, const char* cat, const std::string& name, SimTime t0,
            SimTime t1, const std::vector<Arg>& args = {});
  void instant(std::uint32_t tid, const char* cat, const std::string& name, SimTime ts,
               const std::vector<Arg>& args = {});
  void counter(const char* name, SimTime ts, double value);
  void flow_begin(std::uint32_t tid, SimTime ts, std::uint64_t job_id);
  void flow_step(std::uint32_t tid, SimTime ts, std::uint64_t job_id);
  void flow_end(std::uint32_t tid, SimTime ts, std::uint64_t job_id);

  /// Deterministic sim-domain metrics; serialized into the BENCH `metrics`
  /// block. Pre-resolved members below avoid a map lookup per event on the
  /// hot path — names and bucket ladders live in one place (the ctor).
  Metrics metrics;

  Counter* ipc_requests;
  Counter* jobs_dispatched;
  Counter* reorders;
  Counter* coalesced_groups;
  Counter* coalesced_jobs;
  Counter* cache_hits;
  Counter* cache_misses;
  Counter* cache_bypasses;
  Histogram* job_latency_us;
  Histogram* queue_wait_us;
  Histogram* queue_depth;
  Histogram* group_size;
  Histogram* ipc_payload_bytes;
  Gauge* queue_depth_max;

 private:
  Tracer* tracer_ = nullptr;  // null in metrics-only mode
  std::uint32_t pid_ = 0;
};

}  // namespace sigvp::trace
