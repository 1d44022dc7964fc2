#include "trace/trace.hpp"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "util/fileio.hpp"
#include "util/jsonfmt.hpp"
#include "util/log.hpp"

namespace sigvp::trace {

namespace {

std::atomic<Tracer*> g_tracer{nullptr};
std::once_flag g_env_once;
std::once_flag g_atexit_once;
std::atomic<bool> g_metrics_forced{false};

// Tracers replaced by enable()/disable() are parked here instead of freed:
// another thread may still hold the raw pointer from an earlier active()
// call. Keeping them reachable also keeps LeakSanitizer quiet in tests that
// flip tracing on and off. Enable/disable happen a handful of times per
// process, so the parked set stays tiny.
std::mutex g_retired_mu;
std::vector<std::unique_ptr<Tracer>>& retired_tracers() {
  static auto* retired = new std::vector<std::unique_ptr<Tracer>>();
  return *retired;
}

void retire(Tracer* t) {
  if (t == nullptr) return;
  std::lock_guard<std::mutex> lock(g_retired_mu);
  retired_tracers().emplace_back(t);
}

void write_at_exit() {
  if (Tracer* t = g_tracer.load(std::memory_order_acquire)) t->write();
}

}  // namespace

Arg arg(std::string key, const std::string& value) {
  const std::string escaped = util::json_escape(value);
  std::string quoted;
  quoted.reserve(escaped.size() + 2);
  quoted += '"';
  quoted += escaped;
  quoted += '"';
  return {std::move(key), std::move(quoted)};
}
Arg arg(std::string key, const char* value) { return arg(std::move(key), std::string(value)); }
Arg arg(std::string key, double value) { return {std::move(key), util::json_number(value)}; }
Arg arg(std::string key, std::uint64_t value) { return {std::move(key), std::to_string(value)}; }
Arg arg(std::string key, int value) { return {std::move(key), std::to_string(value)}; }

Tracer::Tracer(std::string path)
    : path_(std::move(path)), epoch_(std::chrono::steady_clock::now()) {
  host_pid_ = begin_process("sigvp host");
}

Tracer* Tracer::active() {
  std::call_once(g_env_once, [] {
    const char* p = std::getenv("SIGVP_TRACE");
    if (p != nullptr && *p != '\0' && std::string(p) != "0") enable(p);
  });
  return g_tracer.load(std::memory_order_acquire);
}

void Tracer::enable(const std::string& path) {
  retire(g_tracer.exchange(new Tracer(path), std::memory_order_acq_rel));
  std::call_once(g_atexit_once, [] { std::atexit(write_at_exit); });
}

void Tracer::disable() {
  retire(g_tracer.exchange(nullptr, std::memory_order_acq_rel));
}

void Tracer::append(std::string event_json) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event_json));
}

std::uint32_t Tracer::begin_process(const std::string& name) {
  std::uint32_t pid = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pid = next_pid_++;
  }
  append("{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
         ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"" +
         util::json_escape(name) + "\"}}");
  return pid;
}

void Tracer::thread_name(std::uint32_t pid, std::uint32_t tid, const std::string& name) {
  append("{\"ph\":\"M\",\"pid\":" + std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
         ",\"name\":\"thread_name\",\"args\":{\"name\":\"" + util::json_escape(name) + "\"}}");
}

namespace {

std::string render_args(const std::vector<Arg>& args) {
  if (args.empty()) return {};
  std::string out = ",\"args\":{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += util::json_escape(args[i].key);
    out += "\":";
    out += args[i].json_value;
  }
  out += '}';
  return out;
}

}  // namespace

void Tracer::complete(std::uint32_t pid, std::uint32_t tid, const char* cat,
                      const std::string& name, double ts_us, double dur_us,
                      const std::vector<Arg>& args) {
  append("{\"ph\":\"X\",\"pid\":" + std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
         ",\"cat\":\"" + cat + "\",\"name\":\"" + util::json_escape(name) +
         "\",\"ts\":" + util::json_number(ts_us) + ",\"dur\":" + util::json_number(dur_us) +
         render_args(args) + "}");
}

void Tracer::instant(std::uint32_t pid, std::uint32_t tid, const char* cat,
                     const std::string& name, double ts_us, const std::vector<Arg>& args) {
  append("{\"ph\":\"i\",\"s\":\"t\",\"pid\":" + std::to_string(pid) +
         ",\"tid\":" + std::to_string(tid) + ",\"cat\":\"" + cat + "\",\"name\":\"" +
         util::json_escape(name) + "\",\"ts\":" + util::json_number(ts_us) + render_args(args) +
         "}");
}

void Tracer::counter(std::uint32_t pid, const char* name, double ts_us, double value) {
  append("{\"ph\":\"C\",\"pid\":" + std::to_string(pid) + ",\"tid\":0,\"name\":\"" +
         std::string(name) + "\",\"ts\":" + util::json_number(ts_us) +
         ",\"args\":{\"value\":" + util::json_number(value) + "}}");
}

void Tracer::flow(const char* ph, std::uint32_t pid, std::uint32_t tid, double ts_us,
                  std::uint64_t id, bool binding_next) {
  std::string ev = "{\"ph\":\"" + std::string(ph) + "\",\"pid\":" + std::to_string(pid) +
                   ",\"tid\":" + std::to_string(tid) +
                   ",\"cat\":\"job\",\"name\":\"job\",\"id\":" + std::to_string(id) +
                   ",\"ts\":" + util::json_number(ts_us);
  // Bind the terminating flow arrow to the enclosing slice rather than the
  // next one, so the arrow lands on the span that completed the job.
  if (binding_next) ev += ",\"bp\":\"e\"";
  ev += "}";
  append(std::move(ev));
}

void Tracer::flow_begin(std::uint32_t pid, std::uint32_t tid, double ts_us, std::uint64_t id) {
  flow("s", pid, tid, ts_us, id, false);
}
void Tracer::flow_step(std::uint32_t pid, std::uint32_t tid, double ts_us, std::uint64_t id) {
  flow("t", pid, tid, ts_us, id, false);
}
void Tracer::flow_end(std::uint32_t pid, std::uint32_t tid, double ts_us, std::uint64_t id) {
  flow("f", pid, tid, ts_us, id, true);
}

double Tracer::host_now_us() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint32_t Tracer::host_tid() {
  thread_local std::uint32_t tid = 0;
  if (tid == 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      tid = next_host_tid_++;
    }
    thread_name(host_pid_, tid, "host.thread-" + std::to_string(tid));
  }
  return tid;
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::string Tracer::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out += events_[i];
    if (i + 1 != events_.size()) out += ',';
    out += '\n';
  }
  out += "]}\n";
  return out;
}

bool Tracer::write() const {
  const std::string text = to_json();
  // Atomic publish (temp + fsync + rename): the atexit-hook write path may
  // run while the process is dying, and a torn trace JSON is worse than the
  // previous intact one.
  if (!util::write_file_atomic(path_, text)) {
    SIGVP_WARN("trace") << "failed writing '" << path_ << "'";
    return false;
  }
  return true;
}

bool collecting() {
  static const bool env_metrics = [] {
    const char* p = std::getenv("SIGVP_METRICS");
    return p != nullptr && std::string(p) == "1";
  }();
  return Tracer::active() != nullptr || env_metrics ||
         g_metrics_forced.load(std::memory_order_relaxed);
}

void set_metrics_forced(bool on) { g_metrics_forced.store(on, std::memory_order_relaxed); }

RunTrace::RunTrace(const std::string& label)
    : ipc_requests(&metrics.counter("ipc.requests")),
      jobs_dispatched(&metrics.counter("sched.jobs_dispatched")),
      reorders(&metrics.counter("sched.reorders")),
      coalesced_groups(&metrics.counter("sched.coalesced_groups")),
      coalesced_jobs(&metrics.counter("sched.coalesced_jobs")),
      cache_hits(&metrics.counter("cache.hits")),
      cache_misses(&metrics.counter("cache.misses")),
      cache_bypasses(&metrics.counter("cache.bypasses")),
      job_latency_us(&metrics.histogram("ipc.job_latency_us", latency_buckets_us())),
      queue_wait_us(&metrics.histogram("sched.queue_wait_us", latency_buckets_us())),
      queue_depth(&metrics.histogram("sched.queue_depth", depth_buckets())),
      group_size(&metrics.histogram("sched.coalesce_group_size", group_size_buckets())),
      ipc_payload_bytes(&metrics.histogram("ipc.payload_bytes", bytes_buckets())),
      queue_depth_max(&metrics.gauge("sched.queue_depth_max")) {
  tracer_ = Tracer::active();
  if (tracer_ != nullptr) {
    pid_ = tracer_->begin_process(label);
    tracer_->thread_name(pid_, kTidDispatcher, "sched.dispatcher");
    tracer_->thread_name(pid_, kTidGpuCompute, "gpu.compute");
    tracer_->thread_name(pid_, kTidGpuCopyIn, "gpu.copy-in");
    tracer_->thread_name(pid_, kTidGpuCopyOut, "gpu.copy-out");
    tracer_->thread_name(pid_, kTidIpc, "ipc.transport");
  }
}

void RunTrace::thread_name(std::uint32_t tid, const std::string& name) {
  if (tracer_ != nullptr) tracer_->thread_name(pid_, tid, name);
}

void RunTrace::span(std::uint32_t tid, const char* cat, const std::string& name, SimTime t0,
                    SimTime t1, const std::vector<Arg>& args) {
  if (tracer_ != nullptr) tracer_->complete(pid_, tid, cat, name, t0, t1 - t0, args);
}

void RunTrace::instant(std::uint32_t tid, const char* cat, const std::string& name, SimTime ts,
                       const std::vector<Arg>& args) {
  if (tracer_ != nullptr) tracer_->instant(pid_, tid, cat, name, ts, args);
}

void RunTrace::counter(const char* name, SimTime ts, double value) {
  if (tracer_ != nullptr) tracer_->counter(pid_, name, ts, value);
}

void RunTrace::flow_begin(std::uint32_t tid, SimTime ts, std::uint64_t job_id) {
  if (tracer_ != nullptr) tracer_->flow_begin(pid_, tid, ts, flow_id(job_id));
}
void RunTrace::flow_step(std::uint32_t tid, SimTime ts, std::uint64_t job_id) {
  if (tracer_ != nullptr) tracer_->flow_step(pid_, tid, ts, flow_id(job_id));
}
void RunTrace::flow_end(std::uint32_t tid, SimTime ts, std::uint64_t job_id) {
  if (tracer_ != nullptr) tracer_->flow_end(pid_, tid, ts, flow_id(job_id));
}

}  // namespace sigvp::trace
