#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "fault/fault_stats.hpp"
#include "gpu/arch.hpp"
#include "gpu/cost_model.hpp"
#include "gpu/offline.hpp"
#include "mem/address_space.hpp"
#include "mem/allocator.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace sigvp {

class LaunchCache;
namespace trace {
class RunTrace;
}
namespace snapshot {
class Writer;
}

/// How a kernel launch is evaluated by the device model.
enum class ExecMode {
  /// Interpret the IR over device memory with full cache simulation
  /// (functional validation + measured timing).
  kFunctional,
  /// Price the launch from a caller-supplied analytic profile; data is not
  /// touched (for workload sizes too large to interpret).
  kAnalytic,
};

/// One kernel launch request against a GpuDevice.
struct LaunchRequest {
  const KernelIR* kernel = nullptr;
  LaunchDims dims;
  KernelArgs args;
  ExecMode mode = ExecMode::kFunctional;
  /// Analytic mode only: λ/traffic profile and locality summary.
  DynamicProfile analytic_profile;
  MemoryBehavior mem_behavior;
};

/// Discrete-event model of a CUDA-capable GPU: two Copy Engines (one per
/// direction, as on Fermi-class Quadro boards), one Compute Engine, N
/// streams.
///
/// Scheduling semantics match the hardware behaviour the paper's Kernel
/// Interleaving exploits and repairs (Fig. 3):
///  - ops within a stream execute in order;
///  - each engine serves its queue strictly in submission order, with
///    head-of-line blocking: if the next op's stream dependency is not yet
///    ready, the engine waits (it does not look past it);
///  - the two engines run concurrently, so copies and kernels from different
///    streams overlap only when the submission order allows it.
///
/// Because all submissions happen in causal simulation order, the schedule
/// is computed eagerly: each submit returns the op's completion time, and an
/// optional callback fires at that simulated instant. Functional data
/// movement is applied at submission; well-formed clients only read results
/// after the completion callback, which the guest driver stack guarantees.
class GpuDevice {
 public:
  using StreamId = std::uint32_t;
  using CopyCallback = std::function<void(SimTime end)>;
  using KernelCallback = std::function<void(SimTime end, const KernelExecStats& stats)>;
  using LaunchFailCallback = std::function<void(SimTime end)>;

  GpuDevice(EventQueue& queue, GpuArch arch, std::uint64_t mem_bytes, std::string name);

  /// Installs the scenario's trace/metrics context (null = off; the default).
  /// Must outlive the device.
  void set_trace(trace::RunTrace* trace) { trace_ = trace; }

  /// Redirects this device's trace tracks (compute / copy-in / copy-out
  /// spans) to the given track ids. Defaults to the process-wide
  /// RunTrace::kTidGpu* constants, so single-device scenarios trace exactly
  /// as before; multi-GPU host sets give each extra device its own tracks.
  void set_trace_tids(std::uint32_t compute, std::uint32_t copy_in, std::uint32_t copy_out) {
    tid_compute_ = compute;
    tid_copy_in_ = copy_in;
    tid_copy_out_ = copy_out;
  }

  /// Routes functional launches through a private launch-cache shard instead
  /// of the process singleton (null = singleton; the default). Sharded
  /// fleets give each domain its own shard so hit/miss sequences are a pure
  /// function of the domain's launch stream. Must outlive the device.
  void set_launch_cache(LaunchCache* cache) { launch_cache_ = cache; }

  // --- memory management -----------------------------------------------------
  /// Allocates device memory; throws on exhaustion (paper-scale workloads
  /// never legitimately exhaust the modeled memory).
  std::uint64_t malloc(std::uint64_t bytes, std::uint64_t align = 256);
  void free(std::uint64_t addr);
  AddressSpace& memory() { return memory_; }
  std::uint64_t bytes_allocated() const { return allocator_.bytes_allocated(); }

  // --- streams ---------------------------------------------------------------
  StreamId create_stream();
  SimTime stream_idle_at(StreamId stream) const;

  // --- asynchronous operations ------------------------------------------------
  /// Host-to-device copy; `src` may be nullptr for timing-only transfers.
  SimTime memcpy_h2d(StreamId stream, std::uint64_t dst, const void* src, std::uint64_t bytes,
                     CopyCallback cb = {});
  /// Device-to-host copy; `dst` may be nullptr for timing-only transfers.
  SimTime memcpy_d2h(StreamId stream, void* dst, std::uint64_t src, std::uint64_t bytes,
                     CopyCallback cb = {});
  /// Batched device-to-device copy: one DMA descriptor list moving every
  /// (dst, src, bytes) triple, priced as a single transfer of the summed
  /// bytes. The kernel coalescer gathers/scatters arena slices with this.
  struct CopyDesc {
    std::uint64_t dst = 0;
    std::uint64_t src = 0;
    std::uint64_t bytes = 0;
  };
  SimTime memcpy_d2d_batch(StreamId stream, const std::vector<CopyDesc>& descs,
                           CopyCallback cb = {});
  /// Kernel launch; returns completion time, callback receives the stats.
  /// With an active fault plan AND a non-empty `on_fault`, the launch may be
  /// aborted by an injected transient failure: the compute engine is held
  /// for the abort latency, no functional work happens, and `on_fault`
  /// fires instead of `cb`. Call sites that cannot recover (no `on_fault`)
  /// are never given injected failures.
  SimTime launch(StreamId stream, const LaunchRequest& request, KernelCallback cb = {},
                 LaunchFailCallback on_fault = {});

  // --- fault injection ---------------------------------------------------------
  /// Installs the scenario's fault oracle. Also enables in-flight op
  /// tracking, which `reset()` needs to kill pending completions. With no
  /// plan (or a zero-fault plan) every code path is byte-identical to a
  /// build without the fault layer.
  void set_fault(const FaultPlan* plan, FaultStats* stats);

  /// Handler invoked once per in-flight op killed by `reset()`, with the op
  /// id returned by `last_op_id()` at submission time. The op's normal
  /// completion callback is suppressed.
  using KillHandler = std::function<void(std::uint64_t op_id)>;
  void set_kill_handler(KillHandler handler) { kill_handler_ = std::move(handler); }

  /// Id of the most recently submitted tracked op (0 before any, or when
  /// fault tracking is off). Submission is single-threaded per scenario, so
  /// "submit, then read last_op_id()" is race-free.
  std::uint64_t last_op_id() const { return last_op_id_; }

  /// True when the most recent `launch()` was aborted by an injected
  /// transient failure (synchronous check — the coalescer uses it to skip
  /// submitting scatters for a group whose merged launch will abort).
  bool last_launch_faulted() const { return last_launch_faulted_; }

  /// Full device reset (fault injection): every in-flight op is killed (its
  /// kill handler fires now, its completion never does), and both copy
  /// engines, the compute engine and all stream tails become available only
  /// at now + `recovery_latency_us`. Returns that recovery time.
  SimTime reset(SimTime recovery_latency_us);

  /// Time at which every submitted op (all streams, both engines) is done.
  SimTime device_idle_at() const;

  /// Earliest time a new job could start on each engine; the Re-scheduler
  /// uses these to decide what keeps every engine busy. Fermi-class Quadro
  /// and Kepler GRID boards have two asynchronous copy engines (one per
  /// direction), which is what lets uploads, downloads and kernels of
  /// different VPs overlap three-way (paper Eq. 7).
  SimTime h2d_engine_free_at() const { return copy_in_engine_.free_at; }
  SimTime d2h_engine_free_at() const { return copy_out_engine_.free_at; }
  SimTime compute_engine_free_at() const { return compute_engine_.free_at; }

  // --- introspection -----------------------------------------------------------
  const GpuArch& arch() const { return arch_; }
  const std::string& name() const { return name_; }
  double dynamic_energy_j() const { return dynamic_energy_j_; }
  SimTime copy_busy_us() const { return copy_busy_; }
  SimTime compute_busy_us() const { return compute_busy_; }
  std::uint64_t kernels_launched() const { return kernels_launched_; }
  const KernelExecStats& last_kernel_stats() const;

  /// Average power over [0, horizon]: static + dynamic energy / horizon.
  double average_power_w(SimTime horizon_us) const;

  /// Serializes device state for a fleet capture: engine clocks, stream
  /// tails, busy/energy accumulators, allocator level, live tracked ops and
  /// the fault-roll counter. With `hash_memory` the address-space content
  /// is folded in too (functional scenarios — the base-image + MemDelta
  /// state the paper-scale analytic runs never touch), as the page-sparse
  /// AddressSpace::content_digest, so the cost is O(touched pages).
  void capture_state(snapshot::Writer& w, bool hash_memory) const;

  /// Deterministic size-based estimate of the model's resident host memory:
  /// struct plus container capacities (streams, live-op map nodes). The
  /// modeled device address space is excluded — it is simulated state, not
  /// per-VP host residency.
  std::uint64_t resident_bytes() const {
    return sizeof(GpuDevice) + streams_.capacity() * sizeof(Stream) +
           live_ops_.size() * (sizeof(std::uint64_t) + sizeof(SimTime) + 48);
  }

 private:
  struct Stream {
    SimTime tail = 0.0;  // completion time of the last op in this stream
  };

  /// Engine bookkeeping for eager scheduling with head-of-line blocking.
  struct EngineState {
    SimTime free_at = 0.0;
  };

  SimTime schedule_on(EngineState& engine, Stream& stream, SimTime duration);
  SimTime copy_duration(std::uint64_t bytes) const;
  bool fault_tracking() const { return fault_plan_ != nullptr && fault_plan_->enabled(); }
  /// Registers a tracked op ending at `end` and schedules `fire` there,
  /// suppressed if the op is killed by a reset first. No-op wrapper (plain
  /// schedule_at) when fault tracking is off and `fire` is non-empty.
  void complete_tracked(SimTime end, std::function<void()> fire);

  EventQueue& queue_;
  GpuArch arch_;
  std::string name_;
  AddressSpace memory_;
  FreeListAllocator allocator_;
  trace::RunTrace* trace_ = nullptr;
  LaunchCache* launch_cache_ = nullptr;  // null = process singleton
  // Trace track ids; initialized in the ctor to the RunTrace::kTidGpu*
  // defaults (the constants live behind a forward declaration here).
  std::uint32_t tid_compute_;
  std::uint32_t tid_copy_in_;
  std::uint32_t tid_copy_out_;

  EngineState copy_in_engine_;
  EngineState copy_out_engine_;
  EngineState compute_engine_;
  std::vector<Stream> streams_;

  SimTime copy_busy_ = 0.0;
  SimTime compute_busy_ = 0.0;
  double dynamic_energy_j_ = 0.0;
  std::uint64_t kernels_launched_ = 0;
  std::uint64_t copies_submitted_ = 0;
  KernelExecStats last_kernel_stats_;

  // --- fault-injection state (inert without an active plan) --------------------
  const FaultPlan* fault_plan_ = nullptr;
  FaultStats* fault_stats_ = nullptr;
  KillHandler kill_handler_;
  /// Live tracked ops, id → scheduled end time. std::map keeps reset's kill
  /// order deterministic (ascending op id == submission order).
  std::map<std::uint64_t, SimTime> live_ops_;
  std::uint64_t next_op_id_ = 1;
  std::uint64_t last_op_id_ = 0;
  std::uint64_t launch_roll_index_ = 0;  // fault-decision counter for launches
  bool last_launch_faulted_ = false;
};

}  // namespace sigvp
