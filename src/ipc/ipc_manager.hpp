#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "fault/fault_stats.hpp"
#include "fault/health.hpp"
#include "ipc/job.hpp"
#include "sim/event_queue.hpp"

namespace sigvp {

namespace trace {
class RunTrace;
}
namespace snapshot {
class Writer;
}

/// Transport cost model of the VP↔host IPC channel.
///
/// Two presets mirror the transports the paper names: shared memory (cheap
/// per-message, high bandwidth) and sockets (expensive per-message). Data
/// payloads (the bytes of guest memcpys) pay the bandwidth term; control
/// messages (launch requests, completions) pay only the per-message term.
struct IpcCostModel {
  std::string name = "shm";
  double per_message_us = 30.0;
  double bandwidth_gbps = 2.5;

  SimTime message_cost(std::uint64_t payload_bytes) const {
    return per_message_us + static_cast<double>(payload_bytes) / (bandwidth_gbps * 1e3);
  }

  /// Shared-memory transport (calibrated so the paper's Table 1 ΣVP
  /// overhead of ~3.3× native is reproduced for the matmul loop).
  static IpcCostModel shared_memory();
  /// TCP-socket transport: higher per-message cost, lower bandwidth.
  static IpcCostModel socket();
};

/// The IPC Manager of the paper's Fig. 2: moves job requests from the
/// virtual embedded GPUs to the host-side Job Queue (with transport delay)
/// and completion notifications back, and hosts the VP Control submodule
/// that stops and resumes VPs for synchronous Kernel Interleaving.
///
/// The manager is decoupled from the Re-scheduler through a delivery sink,
/// so the scheduling policy is pluggable.
///
/// With an active FaultPlan (see set_fault) the transport becomes lossy —
/// messages drop, duplicate and suffer latency spikes — and the manager
/// compensates with a reliable-delivery layer: every logical message is
/// acknowledged by its receiver, a watchdog retransmits on ack timeout with
/// exponential backoff, redeliveries are deduplicated by message id, and a
/// message whose bounded retry budget is exhausted escalates the VP to the
/// emulation fallback (graceful degradation). Without a fault plan none of
/// this machinery exists at runtime: the code path, message counts and
/// timing are byte-identical to the pre-fault-layer implementation.
class IpcManager {
 public:
  using DeliverFn = std::function<void(Job)>;

  IpcManager(EventQueue& queue, IpcCostModel cost);

  /// Connects the host-side consumer (the Re-scheduler/Dispatcher).
  void set_sink(DeliverFn sink);

  /// Installs the scenario's trace/metrics context (null = off; the default).
  /// Call before register_vp so VP tracks get named. Must outlive the manager.
  void set_trace(trace::RunTrace* trace) { trace_ = trace; }

  /// Registers a VP endpoint; returns its id.
  std::uint32_t register_vp(const std::string& name);
  std::size_t num_vps() const { return vps_.size(); }

  /// Sends a job from `vp_id` to the host. `payload_bytes` is the data
  /// carried across the transport (0 for control-only messages). The job's
  /// on_complete is wrapped so the response message cost and any VP-control
  /// stop are applied before the VP sees the completion.
  void send_job(std::uint32_t vp_id, Job job, std::uint64_t payload_bytes);

  // --- VP control -------------------------------------------------------------
  /// Stops a VP: completion notifications destined to it are held.
  void stop_vp(std::uint32_t vp_id);
  /// Resumes a VP: held notifications are delivered immediately.
  void resume_vp(std::uint32_t vp_id);
  bool is_stopped(std::uint32_t vp_id) const;

  // --- fault tolerance --------------------------------------------------------
  /// Installs the scenario's fault oracle plus the recovery policy. All four
  /// must outlive the manager. Passing a null plan (the default state)
  /// disables the reliable-delivery layer entirely.
  void set_fault(const FaultPlan* plan, FaultStats* stats, HealthPolicy* health,
                 RecoveryConfig recovery);
  /// Handler that serves a job outside the ΣVP path (the EmulationDriver
  /// fallback) once its VP is failed; receives the job with the response
  /// wrapping already applied, so its completion still flows back through
  /// notify_vp gating.
  void set_escalation(std::function<void(std::uint32_t vp_id, Job job)> escalate);
  /// Fallback drain gate: true when `seq` is the lowest unreleased sequence
  /// number of `vp_id`, i.e. the only position at which a fallback job may
  /// execute without breaking the VP's program order.
  bool fallback_turn(std::uint32_t vp_id, std::uint64_t seq) const;
  /// True when `seq` of `vp_id` already released its completion to the VP.
  /// The fallback drain uses it to discard stale duplicate escalations (a
  /// request the watchdog gave up on may in fact have been delivered — the
  /// two-generals ambiguity — and completed through the normal path).
  bool seq_released(std::uint32_t vp_id, std::uint64_t seq) const;
  /// Invoked after every in-order completion release (any VP); the fallback
  /// path uses it to re-check its drain gate.
  void set_release_listener(std::function<void(std::uint32_t vp_id)> listener);

  /// Serializes the transport and per-endpoint state a fleet capture must
  /// pin down: message/fault-roll counters, and for every VP endpoint the
  /// control state plus the retransmit/dedup/in-order-release buffers
  /// (outstanding sequence numbers, parked out-of-order completions, held
  /// notifications). Used as digest input for resume replay-verification.
  void capture_state(snapshot::Writer& w) const;

  // --- stats ------------------------------------------------------------------
  std::uint64_t messages_sent() const { return messages_sent_; }
  const IpcCostModel& cost_model() const { return cost_; }

  /// Deterministic size-based estimate of resident host memory: struct plus
  /// per-VP endpoint capacity (the fleet bytes-per-VP denominator).
  std::uint64_t resident_bytes() const {
    return sizeof(IpcManager) + vps_.capacity() * sizeof(VpEndpoint);
  }

 private:
  struct VpEndpoint {
    std::string name;
    bool stopped = false;                    // VP control (interleaving)
    std::deque<std::function<void()>> held;  // notifications gated by VP control
    // Fault layer: a wedged endpoint stopped consuming completions (the
    // injected VP stall); `stall_fired` makes the injection one-shot.
    bool wedged = false;
    bool stall_fired = false;
    std::uint64_t completions_delivered = 0;
    // Fault layer: in-order completion release. `outstanding` holds the
    // sequence number of every job sent over the faulty transport and not
    // yet released back to the VP; `ready` parks completions that arrived
    // out of order (late retransmissions, latency spikes) until every
    // earlier sequence number has been released. Submission order ==
    // completion order, faulty transport or not.
    std::set<std::uint64_t> outstanding;
    std::map<std::uint64_t, std::function<void()>> ready;
  };

  /// One logical message in flight over the faulty transport, shared by the
  /// retransmission watchdog and the (possibly duplicated) arrival events.
  struct Transfer {
    std::uint32_t vp_id = 0;
    bool response = false;  // direction: host→VP completion vs VP→host request
    std::uint64_t payload_bytes = 0;
    std::uint32_t attempts = 0;
    bool delivered = false;  // receiver-side dedup marker
    bool acked = false;      // sender-side: watchdog disarmed
    SimTime first_sent_at = 0.0;
    std::function<void()> deliver;
    std::function<void()> give_up;
  };

  bool fault_active() const { return fault_plan_ != nullptr && fault_plan_->enabled(); }
  void notify_vp(std::uint32_t vp_id, std::function<void()> deliver);
  void flush_held(VpEndpoint& vp);
  /// Transmits `xfer` once (charging transport), rolls drop/dup/spike faults,
  /// and arms the ack watchdog for this attempt.
  void attempt_transfer(const std::shared_ptr<Transfer>& xfer);
  void start_transfer(std::uint32_t vp_id, bool response, std::uint64_t payload_bytes,
                      std::function<void()> deliver, std::function<void()> give_up);
  void send_job_faulty(std::uint32_t vp_id, Job job, std::uint64_t payload_bytes);
  /// The closure that releases a finished job to its VP: it copies `stats`
  /// (null when the job carried none), and when run passes the completion
  /// through notify_vp, records the job's latency and flow end, and calls
  /// `original`.
  std::function<void()> release_completion(
      std::uint32_t vp_id, std::function<void(SimTime, const KernelExecStats*)> original,
      const KernelExecStats* stats, std::uint64_t job_id, SimTime submit_time);
  /// Funnels a completion for (vp_id, seq) into the per-VP release buffer;
  /// `deliver` runs once, when every earlier outstanding seq has released.
  void complete_in_order(std::uint32_t vp_id, std::uint64_t seq,
                         std::function<void()> deliver);
  void wedge_watchdog(std::uint32_t vp_id);

  EventQueue& queue_;
  IpcCostModel cost_;
  DeliverFn sink_;
  trace::RunTrace* trace_ = nullptr;
  std::vector<VpEndpoint> vps_;
  std::uint64_t next_job_id_ = 1;
  std::uint64_t messages_sent_ = 0;
  SimTime transport_time_total_ = 0.0;

  // --- fault-layer state (inert without an active plan) ------------------------
  const FaultPlan* fault_plan_ = nullptr;
  FaultStats* fault_stats_ = nullptr;
  HealthPolicy* health_ = nullptr;
  RecoveryConfig recovery_;
  std::function<void(std::uint32_t, Job)> escalate_;
  std::function<void(std::uint32_t)> release_listener_;
  std::uint64_t msg_roll_index_ = 0;  // fault-decision counter, one per transmission
};

}  // namespace sigvp
