#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/calibration.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_stats.hpp"
#include "gpu/arch.hpp"
#include "gpu/device.hpp"
#include "gpu/host_gpu_set.hpp"
#include "sched/dispatcher.hpp"
#include "sched/placement.hpp"
#include "trace/metrics.hpp"
#include "workloads/spec.hpp"
#include "workloads/workload.hpp"

namespace sigvp {

/// Which execution backend serves the applications' GPU calls.
enum class Backend {
  /// The application runs natively on the host CPU and uses the host GPU
  /// through the vendor driver (paper Table 1 baseline).
  kNativeGpu,
  /// Software GPU emulation on the native host CPU (Fig. 1(a) without a VP).
  kEmulationHostCpu,
  /// Software GPU emulation inside a VP under binary translation —
  /// the paper's Fig. 1(a) and the blue bars of Fig. 11.
  kEmulationOnVp,
  /// ΣVP: guest stack → IPC → Job Queue → Re-scheduler → host GPU
  /// (Fig. 1(b)/Fig. 2); DispatchConfig picks plain multiplexing or the
  /// optimized variant with Kernel Interleaving / Kernel Coalescing.
  kSigmaVp,
};

std::string backend_name(Backend backend);

/// One application instance in a scenario. Every member has a default
/// initializer, so an initializer list may name only the members it sets
/// (without -Wmissing-field-initializers noise).
struct AppInstance {
  const workloads::Workload* workload = nullptr;
  std::uint64_t n = 0;
  /// Replaces the workload's default traits (iterations, copies, ...).
  std::optional<workloads::AppTraits> traits{};

  /// Per-VP scalar-jitter seed for pipeline-stage arguments (0 = canonical
  /// scalars). Passed through to every stage's jitter-aware args builder.
  std::uint64_t jitter = 0;

  /// Non-empty switches this instance from the closed-loop AppRun lifecycle
  /// to an open-loop RequestStream: one request per entry, submitted at the
  /// given ascending sim time regardless of prior completions, with
  /// per-request latency (completion - arrival) recorded into
  /// ScenarioResult::latency. Incompatible with `functional_io`.
  std::vector<SimTime> arrivals{};

  /// Optional per-request overrides, aligned with `arrivals` (same length):
  /// mixed request streams from a WorkloadSpec. Empty = every request runs
  /// (workload, n, jitter) above.
  std::vector<workloads::Request> requests{};
};

/// Sharded-fleet model (DESIGN.md §16): how many scheduler/dispatcher
/// domains the fleet is partitioned into and how the host-side fabric
/// stitches them together.
///
/// This is a *semantic* knob: it changes what system is simulated (D job
/// queues, D coalescing windows, D launch-cache shards, fabric latency on
/// cross-domain completion traffic), so it is part of the scenario
/// fingerprint. How many host threads advance those domains is the
/// *execution-only* `--shards` / SIGVP_SHARDS knob (run::set_fleet_shards),
/// which never changes a result byte.
struct FleetConfig {
  /// Number of scheduler/dispatcher domains. 1 (the default) is one domain
  /// over every app, with no fabric. >= 2 requires Backend::kSigmaVp and at
  /// most one domain per app; apps are partitioned into contiguous,
  /// near-equal slices.
  std::uint32_t domains = 1;

  /// Fabric topology spec (see sim/topology.hpp); "" = flat star.
  std::string topology;

  /// Default per-edge fabric latency (µs); individual edges may override it
  /// in the topology spec. Also the conservative lookahead floor.
  SimTime edge_latency_us = 50.0;
};

struct ScenarioConfig {
  Backend backend = Backend::kSigmaVp;
  DispatchConfig dispatch;   // ΣVP only
  Calibration calib;
  FleetConfig fleet;         // ΣVP only when fleet.domains >= 2
  GpuArch gpu = make_quadro4000();
  std::uint64_t gpu_mem_bytes = 2ull * 1024 * 1024 * 1024;

  /// Declared host GPU complement (ΣVP backend only). Empty — the default —
  /// means one implicit device built from `gpu` + `gpu_mem_bytes` above,
  /// byte-identical to every release before multi-GPU existed. Two or more
  /// specs (heterogeneous mixes allowed) turn on the placement layer:
  /// per-device dispatcher lanes, launch-cache shards and trace tracks, VPs
  /// placed by `placement`. Requires Backend::kSigmaVp and no fault plan.
  std::vector<HostGpuSpec> host_gpus;

  /// VP↔device placement policy; only consulted when `host_gpus` declares
  /// two or more devices. Part of the scenario fingerprint.
  PlacementConfig placement;

  ExecMode mode = ExecMode::kAnalytic;

  /// Submit each iteration's kernel cascade asynchronously (stream-style)
  /// instead of call-by-call. This is the invocation mode the Re-scheduler's
  /// asynchronous reordering (paper Fig. 4(a)) operates on; the optimized
  /// ΣVP scenario of Fig. 11 enables it together with interleave/coalesce.
  bool async_launches = false;

  /// Deterministic fault-injection plan (ΣVP backend only). The default —
  /// a zero-fault plan — leaves every code path byte-identical to a build
  /// without the fault layer; an enabled plan arms the lossy transport, the
  /// flaky device and the recovery machinery configured by `recovery`.
  FaultConfig fault;
  RecoveryConfig recovery;

  /// Functional mode only: carry real data through the full scenario path.
  /// Each app fills host input buffers (workload.fill_inputs when present,
  /// zeros otherwise), the setup h2d copies upload the actual bytes, and the
  /// teardown d2h copies read the device results back; ScenarioResult then
  /// exposes each app's output bytes. This is what makes cross-backend
  /// differential testing possible: kSigmaVp and kEmulationOnVp must return
  /// byte-identical outputs for the same inputs.
  bool functional_io = false;
};

/// Sharded-fleet observables; `domains == 0` means the scenario ran as a
/// single domain, and the whole block is then absent from JSON and
/// snapshot comparisons.
struct FleetStats {
  std::uint32_t domains = 0;
  SimTime lookahead_us = 0.0;        // conservative horizon increment
  std::uint64_t sync_rounds = 0;     // barrier rounds the executor ran
  std::uint64_t fabric_messages = 0; // completion reports + acks routed
  std::uint64_t fabric_hops = 0;     // summed edge traversals of the above
  /// Sim time at which the root (domain 0) has processed the completion
  /// report of every app — the fleet-level "all done" instant, later than
  /// makespan_us by the fabric flight time of the final report.
  SimTime fleet_done_us = 0.0;
  /// Deterministic size-based estimate of peak resident fleet state (VP
  /// structs, event heaps, dispatcher queues, cache shards) — the honest
  /// denominator behind bench/fleet_scale's bytes-per-VP. Also recorded as
  /// the `fleet.resident_bytes` metrics gauge when collection is on.
  std::uint64_t resident_bytes = 0;
  /// Per-domain launch-cache shard activity, summed in domain order.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  bool operator==(const FleetStats&) const = default;
};

/// One declared host device's share of a multi-GPU run.
struct GpuDeviceStats {
  std::string arch;               // GpuArch::name of the declared spec
  std::uint32_t vps = 0;          // VPs assigned at end of run
  std::uint64_t jobs = 0;         // jobs dispatched through this device's lane
  std::uint64_t kernels = 0;      // kernel launches the device executed
  SimTime compute_busy_us = 0.0;
  SimTime copy_busy_us = 0.0;
  double energy_j = 0.0;

  bool operator==(const GpuDeviceStats&) const = default;
};

/// Multi-GPU placement observables; `devices == 0` means the scenario ran
/// with the single implicit host GPU and the whole block is absent from
/// JSON/snapshot comparisons of legacy runs.
struct MultiGpuStats {
  std::uint32_t devices = 0;
  std::uint64_t migrations = 0;      // VP moves the affinity policy made
  std::uint64_t migrated_bytes = 0;  // working-set bytes those moves restaged
  std::vector<GpuDeviceStats> per_device;

  bool operator==(const MultiGpuStats&) const = default;
};

struct ScenarioResult {
  /// Completion time of the last application (the number the paper's
  /// Fig. 11 reports per app: "time for completing all the executions").
  SimTime makespan_us = 0.0;
  std::vector<SimTime> app_done_us;

  // ΣVP-path statistics.
  std::uint64_t jobs_dispatched = 0;
  std::uint64_t reorders = 0;
  std::uint64_t coalesced_groups = 0;
  std::uint64_t coalesced_jobs = 0;
  std::uint64_t ipc_messages = 0;
  double gpu_dynamic_energy_j = 0.0;
  SimTime gpu_compute_busy_us = 0.0;
  SimTime gpu_copy_busy_us = 0.0;

  /// Fault-injection and recovery counters; `fault.active` is false (and
  /// every counter zero) unless the scenario ran with an enabled FaultConfig.
  FaultStats fault;

  /// Sharded-fleet observables; inert (domains == 0) for a single domain.
  FleetStats fleet;

  /// Multi-GPU observables; inert (devices == 0) unless the scenario
  /// declared host_gpus.
  MultiGpuStats gpus;

  /// Per app: the concatenated bytes of its output buffers after teardown.
  /// Populated only when `ScenarioConfig::functional_io` is set.
  std::vector<std::vector<std::uint8_t>> app_outputs;

  /// Per-request latency histogram (sim µs, completion - arrival) over all
  /// open-loop request streams, folded in canonical app order. Empty
  /// (count == 0) when no instance carried arrivals — the classic AppRun
  /// path never touches it. Always populated for traffic scenarios, with or
  /// without trace collection: latency percentiles are a first-class result,
  /// not an observability extra.
  trace::Histogram latency{trace::latency_buckets_us()};
  std::uint64_t requests_completed = 0;

  /// Deterministic sim-domain metrics for this run (queue depths, job
  /// latency histograms, scheduler decisions, cache outcomes). Null unless
  /// collection was on (`trace::collecting()`) when the scenario ran.
  std::shared_ptr<trace::Metrics> metrics;
};

/// One deterministic mid-run observation of the whole fleet: taken at a
/// fixed sim time, it digests every stateful component (event clock, GPU
/// engines/streams/allocator, IPC endpoints, re-scheduler queue and
/// coalescing window, CPU engines, request streams — and, in functional
/// mode, the full device address-space content). Because a scenario is a
/// pure function of its inputs, re-executing the same job MUST reproduce
/// the same digest sequence — which is how a resumed run proves it walked
/// through the exact states the interrupted run checkpointed.
struct FleetCapture {
  SimTime at_us = 0.0;
  std::uint64_t events_processed = 0;
  std::uint64_t digest = 0;

  bool operator==(const FleetCapture&) const = default;
};

/// Periodic fleet-capture configuration for run_scenario.
struct CaptureOptions {
  /// Sim-time cadence between captures (µs); <= 0 disables capturing.
  SimTime every_us = 0.0;

  /// Replay verification: the capture sequence recorded by a previous run
  /// of the same job. Each new capture must match the corresponding entry
  /// (position, time, event count and digest) or run_scenario throws —
  /// a restored run that diverges from its checkpoint is detected at the
  /// first capture point, not at the final result diff.
  std::vector<FleetCapture> expect;

  /// Invoked after each capture is taken (and verified): the checkpoint
  /// publication hook. Runs on the scenario's thread, mid-simulation, at
  /// the first synchronization barrier past the capture's grid point (no
  /// later than one cadence after it).
  std::function<void(const FleetCapture&)> on_capture;
};

/// Builds the full system for `config` as a fleet of `config.fleet.domains`
/// scheduler/dispatcher domains (DESIGN.md §16), runs every app instance to
/// completion on the discrete-event timeline, and reports the schedule. The
/// fleet's domains advance between conservative synchronization horizons;
/// results are merged in canonical domain order, bit-identical for any
/// `--shards` and `--workers` value.
ScenarioResult run_scenario(const ScenarioConfig& config, const std::vector<AppInstance>& apps);

/// Capture-enabled variant: additionally takes a FleetCapture every
/// `capture.every_us` of sim time, appending to `out_captures` (may be
/// null). With a disabled CaptureOptions no capture event enters the queue,
/// which is exactly the overload above.
ScenarioResult run_scenario(const ScenarioConfig& config, const std::vector<AppInstance>& apps,
                            const CaptureOptions& capture,
                            std::vector<FleetCapture>* out_captures);

/// Convenience: `count` identical instances of one workload at size n.
std::vector<AppInstance> replicate(const workloads::Workload& workload, std::uint64_t n,
                                   std::size_t count);

}  // namespace sigvp
