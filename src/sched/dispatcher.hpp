#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "fault/fault_stats.hpp"
#include "fault/health.hpp"
#include "gpu/device.hpp"
#include "ipc/job.hpp"
#include "sched/coalescer.hpp"
#include "sched/placement.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"

namespace sigvp {

namespace trace {
class RunTrace;
}
namespace snapshot {
class Writer;
}

/// Policy knobs of the Re-scheduler + Job Dispatcher pair (paper Fig. 2).
struct DispatchConfig {
  /// Kernel Interleaving: keep the Copy Engine and the Compute Engine of the
  /// host GPU busy concurrently, reordering across VPs (within each VP's
  /// partial order). When false, jobs are served strictly one at a time in
  /// arrival order — the plain GPU-multiplexing baseline of the paper.
  bool interleave = false;

  /// Kernel Coalescing: merge identical ready kernel requests from
  /// different VPs into a single launch.
  bool coalesce = false;

  /// How long a coalescable kernel job may wait in the queue for identical
  /// peers from other VPs before dispatching anyway. Jobs dispatch early
  /// once enough peers have gathered. Only used when `coalesce` is set.
  SimTime coalesce_window_us = 50.0;

  /// Peer count that triggers early dispatch of a coalescable group.
  std::uint32_t coalesce_eager_peers = 3;

  /// Host-side service time per dispatched job: popping the queue, kernel
  /// match, argument relocation, and arming the per-launch profiler the
  /// estimation flow depends on (paper Fig. 2's Job Dispatcher + Profiler).
  /// Serialized on the dispatcher thread, overlappable with GPU execution
  /// when interleaving, and paid ONCE per coalesced group — the `To` that
  /// dominates the paper's Eq. 9 and makes Kernel Coalescing profitable.
  /// Calibrated against Table 1's ΣVP row (≈1.9 ms per forwarded launch
  /// end to end).
  SimTime dispatch_overhead_us = 1150.0;
};

/// Host-side Job Queue + Re-scheduler + Job Dispatcher.
///
/// The Re-scheduler preserves the partial order of the original VPs: jobs of
/// one VP dispatch in sequence order; jobs of different VPs may be reordered
/// freely (paper §2, "non-preemptive scheduler augmented for job
/// dependencies"). Reordering is greedy: whenever an engine of the host GPU
/// is idle, the earliest queued ready job targeting that engine is
/// dispatched, even if it is not at the head of the queue — that is exactly
/// the asynchronous-request reordering of the paper's Fig. 4(a), and the
/// stop/resume interleaving of Fig. 4(b) emerges because a VP whose job
/// waits in the queue is effectively stopped until the completion message
/// releases it.
///
/// With more than one host device the dispatcher runs one *lane* per device
/// — its own service engine (the host thread pumping that device), its own
/// coalescer and service stream. Each VP is placed on exactly one device;
/// jobs of a VP dispatch through its lane, and coalesced groups only merge
/// VPs sharing a device. Under the affinity policy a fully idle VP may
/// migrate to a less-loaded lane, paying an explicit restaging cost
/// (PlacementConfig's migration model) before it becomes runnable again.
/// A 1-device dispatcher is byte-identical to every release before
/// multi-GPU existed.
///
/// Fault recovery (an active FaultPlan) rides the same paths rather than
/// copies of them: single jobs reach the device through the one
/// submit_to_device, groups through Coalescer::execute, and in fault mode
/// each keeps its jobs and registers a reset-kill action for every op id the
/// submission produced (the coalescer returns its op ids). Besides these,
/// the plan adds only the kFaultOrder hold and coalescable()'s quarantine.
class Dispatcher {
 public:
  /// Single-device dispatcher (the legacy shape: one lane, no placement).
  Dispatcher(EventQueue& queue, GpuDevice& device, DispatchConfig config);

  /// Multi-device dispatcher: one lane per device, in declaration order.
  /// Fault injection requires a single lane (enforced at set_fault).
  Dispatcher(EventQueue& queue, std::vector<GpuDevice*> devices, DispatchConfig config,
             PlacementConfig placement);

  /// Creates the device stream for a VP on its assigned device; call once
  /// per registered VP, in VP-id order.
  void register_vp(std::uint32_t device_index = 0);

  /// Installs the scenario's trace/metrics context (null = off; the default).
  /// Must outlive the dispatcher.
  void set_trace(trace::RunTrace* trace) { trace_ = trace; }

  /// Job Queue entry point (the IPC manager's sink).
  void submit(Job job);

  /// True when no job is queued or in flight.
  bool idle() const { return queue_.empty() && in_flight_ == 0; }

  // --- fault tolerance --------------------------------------------------------
  /// Installs the scenario's fault oracle plus the recovery policy (all must
  /// outlive the dispatcher) and registers the device kill handler that
  /// re-queues jobs whose in-flight ops a reset destroys. With a null plan
  /// (the default) every dispatch path is byte-identical to a build without
  /// the fault layer.
  void set_fault(const FaultPlan* plan, FaultStats* stats, HealthPolicy* health,
                 RecoveryConfig recovery);
  /// Sink for jobs the dispatcher gives up on (retry budget exhausted or VP
  /// failed): the scenario routes them to the EmulationDriver fallback.
  void set_escalation(std::function<void(std::uint32_t vp_id, Job job)> escalate);
  /// Injected full device reset (FaultConfig::device_reset_at_us): every
  /// in-flight op is killed, its job re-queued in per-VP sequence order, and
  /// the device is down for kDeviceResetLatencyUs.
  void inject_device_reset();
  /// Removes every queued job of `vp_id` and escalates them in sequence
  /// order — called when the VP is degraded to the fallback path.
  void purge_vp(std::uint32_t vp_id);
  /// Human-readable list of VPs with queued or in-flight jobs, for the
  /// stall detector's diagnostic when the event queue drains non-idle.
  std::string stall_report() const;

  /// Serializes the re-scheduler state a fleet capture must pin down: the
  /// job queue (ids, VPs, kinds, sequence numbers), per-VP dispatch cursors
  /// and in-flight counters, the coalescing-window timer, the coalescer's
  /// group counters, the service engine's clock, and the pending reset-kill
  /// actions. Multi-lane dispatchers append the extra lanes' engine clocks
  /// plus the placement state (assignments, working sets, migration holds),
  /// so a 1-lane capture stays byte-identical to the legacy layout. Digest
  /// input for resume replay-verification.
  void capture_state(snapshot::Writer& w) const;

  // --- stats -------------------------------------------------------------------
  std::uint64_t jobs_dispatched() const { return jobs_dispatched_; }
  std::uint64_t reorders() const { return reorders_; }
  std::uint64_t coalesced_groups() const {
    std::uint64_t total = 0;
    for (const DeviceLane& lane : lanes_) total += lane.coalescer->groups_executed();
    return total;
  }
  std::uint64_t coalesced_jobs() const {
    std::uint64_t total = 0;
    for (const DeviceLane& lane : lanes_) total += lane.coalescer->jobs_merged();
    return total;
  }
  const DispatchConfig& config() const { return config_; }

  // --- placement --------------------------------------------------------------
  /// Jobs dispatched through device `d`'s lane.
  std::uint64_t lane_jobs(std::size_t d) const { return lanes_.at(d).jobs_dispatched; }
  /// Number of VPs currently assigned to device `d`.
  std::uint32_t vps_on_device(std::size_t d) const {
    std::uint32_t n = 0;
    for (const std::uint32_t dev : vp_device_) {
      if (dev == d) ++n;
    }
    return n;
  }
  std::uint64_t migrations() const { return migrations_; }
  std::uint64_t migrated_bytes() const { return migrated_bytes_; }

  /// Deterministic size-based estimate of resident host memory: struct plus
  /// job-queue and per-VP bookkeeping capacities (the fleet bytes-per-VP
  /// denominator).
  std::uint64_t resident_bytes() const {
    return sizeof(Dispatcher) + queue_.size() * sizeof(Job) +
           lanes_.capacity() * sizeof(DeviceLane) +
           vp_streams_.capacity() * sizeof(GpuDevice::StreamId) +
           next_seq_.capacity() * sizeof(std::uint64_t) +
           (vp_inflight_.capacity() + vp_group_inflight_.capacity() + vp_device_.capacity()) *
               sizeof(std::uint32_t) +
           vp_h2d_bytes_.capacity() * sizeof(std::uint64_t) +
           vp_ready_at_.capacity() * sizeof(SimTime) + kill_actions_.size() * 96;
  }

 private:
  /// One host device's dispatch path: the device, the coalescer's service
  /// stream on it, and the host-side service engine that serializes this
  /// lane's dispatch overheads. Lane 0 is the legacy dispatcher.
  struct DeviceLane {
    GpuDevice* device = nullptr;
    GpuDevice::StreamId service_stream = 0;
    std::unique_ptr<Coalescer> coalescer;
    std::unique_ptr<Engine> service;
    std::uint64_t jobs_dispatched = 0;
  };

  DeviceLane& lane_of(const Job& job) { return lanes_[vp_device_[job.vp_id]]; }
  const DeviceLane& lane_of(const Job& job) const { return lanes_[vp_device_[job.vp_id]]; }
  /// When the engine a job of `kind` runs on is next free on `lane`'s device.
  static SimTime engine_free_at(const DeviceLane& lane, JobKind kind);

  /// What keeps a queued job from starting right now under Kernel
  /// Interleaving, in the order the pick tests it; kNone when it can start.
  enum class Hold : std::uint8_t {
    kNone,
    kSequence,    // an earlier job of its VP is still queued
    kRestaging,   // its VP is migrating to another lane
    kCoalescing,  // waiting in its window for coalescing peers
    kGroup,       // a merged group of its VP is still running
    kFaultOrder,  // fault mode: its VP's previous job has not completed
    kEngine,      // the engine of its kind on its lane is busy
    kService,     // its lane's service slot is busy
    kStream,      // its VP stream has not drained
  };
  /// Coalescing peer counts for one pick: how many queued jobs could join a
  /// group right now, per (lane, key). Built by one queue pass on first use.
  struct PeerTally {
    struct Entry {
      std::uint32_t lane;
      const std::string* key;
      std::uint32_t count;
    };
    std::vector<Entry> entries;
    bool built = false;

    Entry* find(std::uint32_t lane, const std::string& key) {
      for (Entry& e : entries) {
        if (e.lane == lane && *e.key == key) return &e;
      }
      return nullptr;
    }
  };

  void pump();
  bool is_ready(const Job& job) const;
  /// True when `job` could start independently right now: sequence-ready,
  /// nothing of its VP in flight, VP stream drained. Gate for joining a
  /// coalesced group — merged groups run on the coalescer's service stream,
  /// outside the per-VP stream chaining, so a member whose predecessor is
  /// still in flight would complete out of its VP's sequence order.
  bool can_join_group(const Job& job) const;
  /// True when a coalescable job should keep waiting for peers.
  bool held_for_coalescing(const Job& job, PeerTally& peers) const;
  /// Ready peers of coalescable `job`: other queued jobs that could join its
  /// group right now.
  std::uint32_t ready_peers(const Job& job, PeerTally& peers) const;
  Hold hold_of(const Job& job, PeerTally& peers) const;
  /// True when some lane has its service slot and at least one engine free:
  /// without that no interleave candidate can start.
  bool dispatch_slot_free() const;
  /// Schedules a wake-up pump at the earliest coalescing-window expiry.
  void arm_window_timer();
  /// Index into queue_ of the earliest ready job the policy may dispatch
  /// right now, or npos.
  std::size_t pick_next() const;
  /// Why the queue head was passed over (trace "reorder" annotations).
  const char* head_hold_reason() const;
  void dispatch_at(std::size_t index);
  void dispatch_single(Job job);
  void dispatch_group(std::vector<Job> group);
  /// The one device submission path. In fault mode it also escalates jobs
  /// of a failed VP, keeps each submitted job for re-queueing, registers
  /// the op's reset-kill action and arms the launch-abort retry.
  void submit_to_device(Job job);
  void on_job_finished(std::uint32_t vp_id);
  /// Kernel jobs with a coalescing descriptor: the jobs a window timer can
  /// wait for (quarantine aside, which only ever turns eligibility off).
  static bool window_eligible(const Job& job) {
    return job.kind == JobKind::kKernel && job.launch.coalesce.eligible;
  }
  /// A window_eligible job whose coalescing window has not yet expired.
  bool window_open(const Job& job) const {
    return window_eligible(job) && job.enqueue_time + config_.coalesce_window_us > events_.now();
  }

  // --- placement (inert with a single lane) ------------------------------------
  /// Affinity-policy migration check, run when `vp` submits a job while
  /// fully idle (nothing queued or in flight): if another lane's backlog
  /// beats the current one by more than the hysteresis margin plus the
  /// restaging cost, the VP moves there and is held until the restage
  /// completes. Deterministic: scores are pure functions of simulated state.
  void maybe_migrate(std::uint32_t vp);
  /// Estimated wait a newly placed job would see on lane `d`: host service
  /// backlog, compute-engine backlog, plus its `queued` not-yet-serviced jobs.
  SimTime lane_backlog(std::size_t d, std::uint64_t queued) const;

  // --- fault tolerance (inert without an active plan) --------------------------
  bool fault_active() const { return fault_plan_ != nullptr && fault_plan_->enabled(); }
  /// Coalescing eligibility under the health policy: quarantined VPs lose it.
  bool coalescable(const Job& job) const;
  /// Transient launch abort of a single job: bounded retry, then escalation.
  void on_launch_failed(Job job);
  /// Undoes the dispatch-time accounting of `job` so it can be re-queued.
  void rollback_dispatch(const Job& job);
  void requeue(Job job);
  /// Kill handler: a device reset destroyed op `op_id`; re-queue its job.
  void on_op_killed(std::uint64_t op_id);
  /// Registers the reset-kill actions for the op ids a fault-mode group
  /// execution returned (Coalescer::execute): the aborted launch's re-splits
  /// the group, each member scatter's re-queues that member.
  void register_group_kills(const std::shared_ptr<std::vector<Job>>& retained,
                            const std::vector<std::uint64_t>& ops);
  /// Merged-launch abort: re-queue every retained member as a single
  /// (coalescing eligibility cleared) — the paper group's partial failure.
  /// Runs once per group: its callers are the abort op's completion and that
  /// op's reset kill, and an op either completes or is killed.
  void resplit_group(std::shared_ptr<std::vector<Job>> members);
  /// Hands `job` to the escalation sink (fallback path).
  void escalate(Job job);

  const FaultPlan* fault_plan_ = nullptr;
  FaultStats* fault_stats_ = nullptr;
  HealthPolicy* health_ = nullptr;
  RecoveryConfig recovery_;
  std::function<void(std::uint32_t, Job)> escalate_;
  /// Live op id → action restoring the op's job after a reset kill; entries
  /// are erased on normal completion. Ordered so reset processes kills in
  /// submission order (ascending op id), matching the device's kill order.
  std::map<std::uint64_t, std::function<void()>> kill_actions_;

  EventQueue& events_;
  DispatchConfig config_;
  PlacementConfig placement_;
  trace::RunTrace* trace_ = nullptr;
  std::vector<DeviceLane> lanes_;

  std::deque<Job> queue_;
  std::vector<std::uint32_t> vp_device_;  // per VP: current device assignment
  std::vector<GpuDevice::StreamId> vp_streams_;
  std::vector<std::uint64_t> next_seq_;  // per VP: next sequence number to dispatch
  std::vector<std::uint32_t> vp_inflight_;  // per VP: dispatched, not yet completed
  /// Per VP: in-flight jobs merged into a coalesced group. Group launches
  /// run on the coalescer's service stream, outside the VP stream's FIFO
  /// chaining, so follow-up ops of the same VP must hold until they finish.
  std::vector<std::uint32_t> vp_group_inflight_;
  /// Per VP: cumulative H2D bytes — the working-set proxy the migration
  /// cost model restages.
  std::vector<std::uint64_t> vp_h2d_bytes_;
  /// Per VP: earliest time its next job may dispatch (a migration restage
  /// hold; 0 when never migrated).
  std::vector<SimTime> vp_ready_at_;
  std::uint32_t in_flight_ = 0;
  std::uint64_t jobs_dispatched_ = 0;
  std::uint64_t reorders_ = 0;
  std::uint64_t migrations_ = 0;
  std::uint64_t migrated_bytes_ = 0;
  bool pumping_ = false;
  /// Upper bound on the queued jobs whose window is open: each is counted
  /// while window_open on entering the queue and uncounted if still open on
  /// leaving it, and every timer scan recounts exactly. Zero means a scan
  /// finds nothing. Sits in the padding after pumping_ (see the constructor).
  std::uint32_t open_windows_ = 0;
  SimTime window_timer_at_ = -1.0;
};

}  // namespace sigvp
