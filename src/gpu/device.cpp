#include "gpu/device.hpp"

#include <algorithm>
#include <utility>

#include "gpu/launch_cache.hpp"
#include "snapshot/serial.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace sigvp {

namespace {
// Device allocations start above the null page so address 0 stays invalid.
constexpr std::uint64_t kHeapBase = 4096;
}  // namespace

GpuDevice::GpuDevice(EventQueue& queue, GpuArch arch, std::uint64_t mem_bytes, std::string name)
    : queue_(queue),
      arch_(std::move(arch)),
      name_(std::move(name)),
      memory_(mem_bytes, name_ + ".mem"),
      allocator_(kHeapBase, mem_bytes - kHeapBase),
      tid_compute_(trace::RunTrace::kTidGpuCompute),
      tid_copy_in_(trace::RunTrace::kTidGpuCopyIn),
      tid_copy_out_(trace::RunTrace::kTidGpuCopyOut) {
  SIGVP_REQUIRE(mem_bytes > kHeapBase, "device memory too small");
  streams_.push_back(Stream{});  // stream 0: the default stream
}

std::uint64_t GpuDevice::malloc(std::uint64_t bytes, std::uint64_t align) {
  auto addr = allocator_.allocate(bytes, align);
  SIGVP_REQUIRE(addr.has_value(),
                name_ + ": device memory exhausted allocating " + std::to_string(bytes) + " bytes");
  return *addr;
}

void GpuDevice::free(std::uint64_t addr) { allocator_.free(addr); }

GpuDevice::StreamId GpuDevice::create_stream() {
  streams_.push_back(Stream{});
  return static_cast<StreamId>(streams_.size() - 1);
}

SimTime GpuDevice::stream_idle_at(StreamId stream) const {
  SIGVP_REQUIRE(stream < streams_.size(), "unknown stream");
  return streams_[stream].tail;
}

SimTime GpuDevice::schedule_on(EngineState& engine, Stream& stream, SimTime duration) {
  // Head-of-line blocking: the engine commits to this op now. It starts when
  // the engine frees up AND the op's stream dependency has completed.
  const SimTime start = std::max({queue_.now(), engine.free_at, stream.tail});
  const SimTime end = start + duration;
  engine.free_at = end;
  stream.tail = end;
  return end;
}

SimTime GpuDevice::copy_duration(std::uint64_t bytes) const {
  const double gbps = arch_.copy_bandwidth_gbps;
  // bytes / (GB/s) = nanoseconds per byte × bytes; convert to µs.
  const double transfer_us = static_cast<double>(bytes) / (gbps * 1e3);
  return arch_.copy_latency_us + transfer_us;
}

void GpuDevice::complete_tracked(SimTime end, std::function<void()> fire) {
  if (!fault_tracking()) {
    if (fire) queue_.schedule_at(end, std::move(fire));
    return;
  }
  const std::uint64_t id = next_op_id_++;
  last_op_id_ = id;
  live_ops_.emplace(id, end);
  queue_.schedule_at(end, [this, id, fire = std::move(fire)] {
    if (live_ops_.erase(id) == 0) return;  // killed by a device reset
    if (fire) fire();
  });
}

SimTime GpuDevice::memcpy_h2d(StreamId stream, std::uint64_t dst, const void* src,
                              std::uint64_t bytes, CopyCallback cb) {
  SIGVP_REQUIRE(stream < streams_.size(), "unknown stream");
  if (src != nullptr) memory_.copy_in(dst, src, bytes);
  const SimTime end = schedule_on(copy_in_engine_, streams_[stream], copy_duration(bytes));
  copy_busy_ += copy_duration(bytes);
  ++copies_submitted_;
  if (trace_ != nullptr) {
    trace_->span(tid_copy_in_, "gpu", "h2d", end - copy_duration(bytes), end,
                 {trace::arg("bytes", bytes), trace::arg("stream", static_cast<int>(stream))});
  }
  std::function<void()> fire;
  if (cb) fire = [end, cb = std::move(cb)] { cb(end); };
  complete_tracked(end, std::move(fire));
  return end;
}

SimTime GpuDevice::memcpy_d2h(StreamId stream, void* dst, std::uint64_t src, std::uint64_t bytes,
                              CopyCallback cb) {
  SIGVP_REQUIRE(stream < streams_.size(), "unknown stream");
  if (dst != nullptr) memory_.copy_out(dst, src, bytes);
  const SimTime end = schedule_on(copy_out_engine_, streams_[stream], copy_duration(bytes));
  copy_busy_ += copy_duration(bytes);
  ++copies_submitted_;
  if (trace_ != nullptr) {
    trace_->span(tid_copy_out_, "gpu", "d2h", end - copy_duration(bytes), end,
                 {trace::arg("bytes", bytes), trace::arg("stream", static_cast<int>(stream))});
  }
  std::function<void()> fire;
  if (cb) fire = [end, cb = std::move(cb)] { cb(end); };
  complete_tracked(end, std::move(fire));
  return end;
}

SimTime GpuDevice::memcpy_d2d_batch(StreamId stream, const std::vector<CopyDesc>& descs,
                                    CopyCallback cb) {
  SIGVP_REQUIRE(stream < streams_.size(), "unknown stream");
  std::uint64_t total_bytes = 0;
  for (const CopyDesc& d : descs) {
    memory_.copy_within(d.dst, d.src, d.bytes);
    total_bytes += d.bytes;
  }
  // On-device copies move at memory bandwidth, not host-link bandwidth,
  // with a sub-µs DMA setup cost.
  const double transfer_us = static_cast<double>(total_bytes) / (arch_.mem_bandwidth_gbps * 1e3);
  const SimTime duration = 0.8 + transfer_us;
  const SimTime end = schedule_on(copy_out_engine_, streams_[stream], duration);
  copy_busy_ += duration;
  ++copies_submitted_;
  if (trace_ != nullptr) {
    trace_->span(tid_copy_out_, "gpu", "d2d_batch", end - duration, end,
                 {trace::arg("bytes", total_bytes),
                  trace::arg("descs", static_cast<int>(descs.size())),
                  trace::arg("stream", static_cast<int>(stream))});
  }
  std::function<void()> fire;
  if (cb) fire = [end, cb = std::move(cb)] { cb(end); };
  complete_tracked(end, std::move(fire));
  return end;
}

SimTime GpuDevice::launch(StreamId stream, const LaunchRequest& request, KernelCallback cb,
                          LaunchFailCallback on_fault) {
  SIGVP_REQUIRE(stream < streams_.size(), "unknown stream");
  SIGVP_REQUIRE(request.kernel != nullptr, "launch without a kernel");

  // One fault-decision index per launch, consumed whether or not the call
  // site can recover. Injected failures are offered only to call sites that
  // can (they passed `on_fault`).
  std::uint64_t roll = 0;
  if (fault_tracking()) roll = launch_roll_index_++;
  last_launch_faulted_ = fault_tracking() && on_fault && fault_plan_->fail_launch(roll);
  if (last_launch_faulted_) {
    const SimTime end = schedule_on(compute_engine_, streams_[stream], kLaunchFailLatencyUs);
    compute_busy_ += kLaunchFailLatencyUs;
    ++fault_stats_->launch_failures;
    SIGVP_DEBUG("gpu") << name_ << " TRANSIENT LAUNCH FAILURE of "
                       << request.kernel->name << " at t=" << queue_.now();
    if (trace_ != nullptr) {
      trace_->instant(tid_compute_, "fault", "launch_failure", queue_.now(),
                      {trace::arg("kernel", request.kernel->name)});
    }
    complete_tracked(end, [end, on_fault = std::move(on_fault)] { on_fault(end); });
    return end;
  }

  LaunchCacheOutcome cache_outcome = LaunchCacheOutcome::kUncached;
  KernelExecStats stats;
  if (request.mode == ExecMode::kFunctional) {
    // Functional launches go through the process-wide launch cache: an
    // identical (kernel, dims, args, input bytes) launch from another VP,
    // iteration, or sweep job replays the recorded write-set instead of
    // re-interpreting. Under an active fault plan the cache is bypassed —
    // injected aborts and resets must observe real executions.
    const LaunchCache::Bypass bypass =
        fault_tracking() ? LaunchCache::Bypass::kFault : LaunchCache::Bypass::kNone;
    LaunchCache& cache = launch_cache_ != nullptr ? *launch_cache_ : LaunchCache::instance();
    LaunchEvaluation eval =
        cache.evaluate(arch_, *request.kernel, request.dims, request.args, memory_, bypass);
    stats = eval.stats;
    cache_outcome = eval.cache;
  } else {
    stats = evaluate_analytic(arch_, *request.kernel, request.dims, request.analytic_profile,
                              request.mem_behavior);
  }

  const SimTime duration = stats.duration_us;
  const SimTime end = schedule_on(compute_engine_, streams_[stream], duration);
  compute_busy_ += duration;
  dynamic_energy_j_ += stats.dynamic_energy_j;
  ++kernels_launched_;
  last_kernel_stats_ = stats;

  if (trace_ != nullptr) {
    switch (cache_outcome) {
      case LaunchCacheOutcome::kHit: ++trace_->cache_hits->value; break;
      case LaunchCacheOutcome::kMiss: ++trace_->cache_misses->value; break;
      case LaunchCacheOutcome::kBypass: ++trace_->cache_bypasses->value; break;
      case LaunchCacheOutcome::kUncached: break;
    }
    trace_->span(tid_compute_, "gpu", request.kernel->name, end - duration,
                 end,
                 {trace::arg("blocks", static_cast<std::uint64_t>(stats.num_blocks)),
                  trace::arg("cycles", static_cast<double>(stats.total_cycles)),
                  trace::arg("cache", launch_cache_outcome_name(cache_outcome)),
                  trace::arg("stream", static_cast<int>(stream))});
  }

  SIGVP_DEBUG("gpu") << name_ << " launch " << request.kernel->name << " blocks="
                     << stats.num_blocks << " cycles=" << stats.total_cycles
                     << " dur=" << stats.duration_us << "us end=" << end << "us";

  std::function<void()> fire;
  if (cb) fire = [end, stats, cb = std::move(cb)] { cb(end, stats); };
  complete_tracked(end, std::move(fire));
  return end;
}

void GpuDevice::set_fault(const FaultPlan* plan, FaultStats* stats) {
  SIGVP_REQUIRE(plan == nullptr || stats != nullptr, "fault plan without a stats sink");
  fault_plan_ = plan;
  fault_stats_ = stats;
}

SimTime GpuDevice::reset(SimTime recovery_latency_us) {
  SIGVP_REQUIRE(fault_tracking(), "device reset requires an active fault plan");
  SIGVP_REQUIRE(recovery_latency_us >= 0.0, "negative reset latency");
  const SimTime back = queue_.now() + recovery_latency_us;
  ++fault_stats_->device_resets;

  // Kill every in-flight op in submission order. Swapping the map first
  // makes the already-scheduled completion events no-ops, and lets kill
  // handlers submit fresh (tracked) work without invalidating iteration.
  std::map<std::uint64_t, SimTime> killed;
  killed.swap(live_ops_);
  fault_stats_->ops_killed_by_reset += killed.size();
  SIGVP_DEBUG("gpu") << name_ << " DEVICE RESET at t=" << queue_.now() << ": killed "
                     << killed.size() << " in-flight ops, back at t=" << back;
  if (trace_ != nullptr) {
    trace_->span(tid_compute_, "fault", "device_reset", queue_.now(), back,
                 {trace::arg("ops_killed", static_cast<int>(killed.size()))});
  }

  // The reset wipes all queued work, so both engines and every stream
  // restart together once the device comes back.
  copy_in_engine_.free_at = back;
  copy_out_engine_.free_at = back;
  compute_engine_.free_at = back;
  for (Stream& s : streams_) s.tail = back;

  if (kill_handler_) {
    for (const auto& [id, end] : killed) {
      (void)end;
      kill_handler_(id);
    }
  }
  return back;
}

SimTime GpuDevice::device_idle_at() const {
  SimTime idle = std::max({copy_in_engine_.free_at, copy_out_engine_.free_at,
                           compute_engine_.free_at});
  for (const Stream& s : streams_) idle = std::max(idle, s.tail);
  return idle;
}

const KernelExecStats& GpuDevice::last_kernel_stats() const {
  SIGVP_REQUIRE(kernels_launched_ > 0, "no kernel has been launched yet");
  return last_kernel_stats_;
}

double GpuDevice::average_power_w(SimTime horizon_us) const {
  SIGVP_REQUIRE(horizon_us > 0.0, "power horizon must be positive");
  return arch_.static_power_w + dynamic_energy_j_ / s_from_us(horizon_us);
}

void GpuDevice::capture_state(snapshot::Writer& w, bool hash_memory) const {
  w.f64(copy_in_engine_.free_at);
  w.f64(copy_out_engine_.free_at);
  w.f64(compute_engine_.free_at);
  w.u64(streams_.size());
  for (const Stream& s : streams_) w.f64(s.tail);
  w.f64(copy_busy_);
  w.f64(compute_busy_);
  w.f64(dynamic_energy_j_);
  w.u64(kernels_launched_);
  w.u64(copies_submitted_);
  w.u64(allocator_.bytes_allocated());
  w.u64(live_ops_.size());
  for (const auto& [op_id, end] : live_ops_) {
    w.u64(op_id);
    w.f64(end);
  }
  w.u64(next_op_id_);
  w.u64(launch_roll_index_);
  if (hash_memory) w.u64(memory_.content_digest(0x5157f4a7ULL));
}

}  // namespace sigvp
