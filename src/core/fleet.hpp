#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "sim/event_queue.hpp"

namespace sigvp {

class GpuDevice;
class IpcManager;
class Dispatcher;
class LaunchCache;
class FaultPlan;
class HealthPolicy;
class EmulationDriver;
class SigmaVpDriver;
class Processor;
class AppRun;
class RequestStream;
namespace cuda {
class DeviceDriver;
}
namespace trace {
class RunTrace;
}
namespace snapshot {
class Writer;
}

/// One scheduler/dispatcher domain of a fleet: a private deterministic event
/// queue plus everything that advances on it — GPU device model, IPC
/// manager, re-scheduler/dispatcher with its own job queue and coalescing
/// window, per-VP CPU contexts/drivers, fault machinery, and (in sharded
/// runs) a private launch-cache shard covering the domain's VP slice.
///
/// Every scenario is a fleet of D = FleetConfig::domains of them over
/// contiguous app slices, advanced between conservative synchronization
/// horizons and stitched by the fabric described by FleetTopology
/// (DESIGN.md §16); the default D = 1 is one domain covering every app, with
/// no fabric. All members are domain-local: between barriers a domain is
/// touched by exactly one host thread.
struct FleetDomain {
  FleetDomain();
  /// Releases the keep-alive of every app that has not completed, so a run
  /// abandoned by an exception frees its apps with the queued closures.
  ~FleetDomain();
  FleetDomain(const FleetDomain&) = delete;
  FleetDomain& operator=(const FleetDomain&) = delete;

  EventQueue queue;
  /// The domain's host GPU complement: one implicit device unless the
  /// scenario declares host_gpus. Owns the per-device launch-cache shards
  /// (sharded runs and multi-GPU sets).
  std::unique_ptr<HostGpuSet> gpus;
  /// Primary device (gpus->primary()); null when the backend needs no GPU.
  /// Single-device call sites keep reading through this pointer.
  GpuDevice* device = nullptr;
  std::unique_ptr<IpcManager> ipc;
  std::unique_ptr<Dispatcher> dispatcher;
  std::unique_ptr<trace::RunTrace> rt;
  std::unique_ptr<FaultPlan> fault_plan;
  std::unique_ptr<FaultStats> fault_stats;
  std::unique_ptr<HealthPolicy> health;
  std::vector<std::unique_ptr<EmulationDriver>> fallback_drivers;
  std::vector<SigmaVpDriver*> sigma_drivers;
  std::vector<std::unique_ptr<Processor>> cpus;
  std::vector<std::unique_ptr<cuda::DeviceDriver>> drivers;
  /// Slice-local (index 0 = app `app_begin`); exactly one non-null per slot.
  std::vector<std::shared_ptr<AppRun>> runs;
  std::vector<std::shared_ptr<RequestStream>> streams;

  bool faults_on = false;
  bool functional = false;
  bool multi_gpu = false;  // scenario declared two or more host GPUs
  std::uint32_t id = 0;
  std::size_t app_begin = 0;
  std::size_t app_end = 0;

  // --- fabric and capture bookkeeping -----------------------------------------
  /// One cross-domain message: a completion report (leaf → root) or its
  /// acknowledgement (root → leaf). Messages are created domain-locally
  /// during a round and routed at the barrier in canonical
  /// (arrival, src, seq) order.
  struct FabricMsg {
    SimTime arrive_us = 0.0;
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint64_t seq = 0;  // per-source sequence, for the canonical sort
    std::size_t app = 0;    // global app index the message is about
    bool ack = false;
  };
  std::vector<FabricMsg> outbox;
  std::uint64_t fabric_seq = 0;
  std::uint64_t reports_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t reports_received = 0;  // root (domain 0) only
  SimTime fleet_done_us = 0.0;         // root only: last report processed
  std::vector<FleetCapture> captures;  // this domain's capture chain

  /// Builds the domain over apps [begin, end). In sharded fleets
  /// (num_domains >= 2) the fault plan is reseeded per domain, the stall-VP
  /// index is remapped into the slice, and the domain gets a private
  /// launch-cache shard instead of the process singleton.
  void build(const ScenarioConfig& config, const std::vector<AppInstance>& apps,
             std::size_t begin, std::size_t end, std::uint32_t domain_id,
             std::uint32_t num_domains, const std::string& trace_label);

  /// Starts every app of the slice. Each completion is fabric traffic: the
  /// root (domain 0) records it in `fleet_done_us`; any other domain queues
  /// a completion report that reaches the root `to_root_us` later.
  void start(SimTime to_root_us);

  /// Digests every stateful component in the canonical order (queue, device,
  /// IPC, dispatcher, CPUs, apps, fault counters) — the per-domain half of a
  /// fleet capture. `hash_memory` folds the device address space in
  /// (functional scenarios).
  void capture_components(snapshot::Writer& w, bool hash_memory) const;

  /// Appends the slice's app results (done times, makespan, latency,
  /// outputs) to `out` — called in domain order, so the concatenation is the
  /// canonical app order.
  void append_app_results(ScenarioResult& out, bool want_outputs) const;

  /// Adds this domain's component counters (dispatcher, IPC, device, fault)
  /// into `out`.
  void fold_counters(ScenarioResult& out) const;

  /// Deterministic size-based estimate of this domain's resident host
  /// memory: struct sizes plus container capacities (event heap, dispatcher
  /// queue, IPC endpoints, cache shard residency). Modeled device memory is
  /// excluded — it is simulated, not resident.
  std::uint64_t resident_bytes() const;
};

}  // namespace sigvp
