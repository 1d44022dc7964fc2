#include "sched/dispatcher.hpp"

#include <limits>
#include <sstream>
#include <utility>

#include "fault/crash.hpp"
#include "snapshot/serial.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

#include <memory>

namespace sigvp {

namespace {
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
}

Dispatcher::Dispatcher(EventQueue& queue, GpuDevice& device, DispatchConfig config)
    : Dispatcher(queue, std::vector<GpuDevice*>{&device}, config, PlacementConfig{}) {}

Dispatcher::Dispatcher(EventQueue& queue, std::vector<GpuDevice*> devices,
                       DispatchConfig config, PlacementConfig placement)
    : events_(queue), config_(config), placement_(placement) {
  // Both sizes feed resident_bytes() and so fleet.resident_bytes, which the
  // perfbench golden digests pin (values for 64-bit libstdc++). A member
  // that grows either struct changes every sharded_traffic digest; a new
  // small scalar goes in padding, as open_windows_ does.
  static_assert(sizeof(Dispatcher) == 568);
  static_assert(sizeof(DeviceLane) == 40);
  SIGVP_REQUIRE(!devices.empty(), "dispatcher needs at least one device");
  lanes_.reserve(devices.size());
  for (std::size_t i = 0; i < devices.size(); ++i) {
    SIGVP_REQUIRE(devices[i] != nullptr, "dispatcher given a null device");
    DeviceLane lane;
    lane.device = devices[i];
    lane.service_stream = devices[i]->create_stream();
    lane.coalescer = std::make_unique<Coalescer>(queue, *devices[i], lane.service_stream);
    // Lane 0 keeps the legacy engine name so single-device runs trace and
    // capture byte-identically.
    lane.service = std::make_unique<Engine>(
        queue, i == 0 ? std::string("dispatcher") : "dispatcher" + std::to_string(i));
    lanes_.push_back(std::move(lane));
  }
}

void Dispatcher::register_vp(std::uint32_t device_index) {
  SIGVP_REQUIRE(device_index < lanes_.size(), "register_vp: unknown device index");
  vp_device_.push_back(device_index);
  vp_streams_.push_back(lanes_[device_index].device->create_stream());
  next_seq_.push_back(0);
  vp_inflight_.push_back(0);
  vp_group_inflight_.push_back(0);
  vp_h2d_bytes_.push_back(0);
  vp_ready_at_.push_back(0.0);
}

void Dispatcher::submit(Job job) {
  SIGVP_REQUIRE(job.vp_id < vp_streams_.size(), "job from unregistered VP");
  SIGVP_REQUIRE(job.kind != JobKind::kKernel || job.launch.request.kernel != nullptr,
                "kernel job without a kernel");
  maybe_migrate(job.vp_id);
  job.enqueue_time = events_.now();
  if (trace_ != nullptr) {
    if (job.id != 0) trace_->flow_step(trace::RunTrace::kTidDispatcher, events_.now(), job.id);
  }
  open_windows_ += window_open(job);
  queue_.push_back(std::move(job));
  if (trace_ != nullptr) {
    trace_->queue_depth->record(static_cast<double>(queue_.size()));
    trace_->queue_depth_max->record_max(static_cast<double>(queue_.size()));
    trace_->counter("sched.queue_depth", events_.now(), static_cast<double>(queue_.size()));
  }
  pump();
}

// --- placement -------------------------------------------------------------------

SimTime Dispatcher::lane_backlog(std::size_t d, std::uint64_t queued) const {
  const SimTime now = events_.now();
  const DeviceLane& lane = lanes_[d];
  SimTime backlog = std::max(0.0, lane.service->free_at() - now) +
                    std::max(0.0, lane.device->compute_engine_free_at() - now);
  return backlog + static_cast<SimTime>(queued) * config_.dispatch_overhead_us;
}

void Dispatcher::maybe_migrate(std::uint32_t vp) {
  if (lanes_.size() < 2 || placement_.policy != PlacementPolicy::kAffinity ||
      !placement_.allow_migration || fault_active()) {
    return;
  }
  // Only a fully idle VP may move: nothing queued, nothing in flight, no
  // group membership — so no stream chaining or sequence state spans the
  // device switch.
  if (vp_inflight_[vp] != 0 || vp_group_inflight_[vp] != 0) return;
  // One queue pass both rules out a queued job of this VP and counts every
  // lane's queued jobs for the backlog scores.
  std::vector<std::uint64_t> queued(lanes_.size(), 0);
  for (const Job& j : queue_) {
    if (j.vp_id == vp) return;
    ++queued[vp_device_[j.vp_id]];
  }
  const std::uint32_t cur = vp_device_[vp];
  const SimTime cost = migration_cost_us(placement_, vp_h2d_bytes_[vp]);
  const SimTime stay_score = lane_backlog(cur, queued[cur]);
  std::size_t best = cur;
  SimTime best_score = stay_score;
  for (std::size_t d = 0; d < lanes_.size(); ++d) {
    if (d == cur) continue;
    const SimTime score = lane_backlog(d, queued[d]) + cost;
    if (score < best_score) {
      best = d;
      best_score = score;
    }
  }
  // Hysteresis: a move must beat staying by a clear margin, or a VP would
  // ping-pong between near-equal lanes paying the restage cost every hop.
  if (best == cur || best_score + placement_.hysteresis_us >= stay_score) return;

  vp_device_[vp] = static_cast<std::uint32_t>(best);
  vp_streams_[vp] = lanes_[best].device->create_stream();
  const SimTime ready_at = events_.now() + cost;
  vp_ready_at_[vp] = ready_at;
  ++migrations_;
  migrated_bytes_ += vp_h2d_bytes_[vp];
  SIGVP_DEBUG("dispatcher") << "migrate vp" << vp << " gpu" << cur << "->gpu" << best
                            << " ws=" << vp_h2d_bytes_[vp] << "B cost=" << cost
                            << "us t=" << events_.now();
  if (trace_ != nullptr) {
    trace_->instant(trace::RunTrace::kTidDispatcher, "placement", "migrate", events_.now(),
                    {trace::arg("vp", static_cast<int>(vp)),
                     trace::arg("from", static_cast<int>(cur)),
                     trace::arg("to", static_cast<int>(best)),
                     trace::arg("ws_bytes", vp_h2d_bytes_[vp]),
                     trace::arg("cost_us", cost)});
  }
  // The VP's next job waits out the restage; make sure something re-pumps
  // when the hold expires (its own submit may be the only trigger).
  events_.schedule_at(ready_at, [this] { pump(); });
}

bool Dispatcher::is_ready(const Job& job) const {
  return job.seq_in_vp == next_seq_[job.vp_id];
}

bool Dispatcher::coalescable(const Job& job) const {
  if (!window_eligible(job)) return false;
  // Quarantine policy: a VP with too many recovery incidents loses Kernel
  // Coalescing eligibility — a flaky VP must not drag healthy peers into
  // its retries.
  if (fault_active() && health_ != nullptr && health_->quarantined(job.vp_id)) return false;
  return true;
}

bool Dispatcher::can_join_group(const Job& job) const {
  // A peer may join a coalesced group only when NOTHING of its VP is still
  // in flight: merged groups execute on the coalescer's service stream, so
  // they bypass the per-VP stream chaining that orders single dispatches. A
  // merged kernel whose predecessor (e.g. a copy) is still pending would
  // complete out of its VP's sequence order — the partial-order violation
  // the scheduler property tests hunt for. The dispatcher-side in-flight
  // counter (not the device stream tail) is authoritative here because a
  // dispatched job only reaches its stream after the service delay.
  return is_ready(job) && vp_inflight_[job.vp_id] == 0 &&
         vp_ready_at_[job.vp_id] <= events_.now() &&
         lane_of(job).device->stream_idle_at(vp_streams_[job.vp_id]) <= events_.now();
}

std::uint32_t Dispatcher::ready_peers(const Job& job, PeerTally& peers) const {
  if (!peers.built) {
    peers.built = true;
    for (const Job& other : queue_) {
      if (!coalescable(other) || !can_join_group(other)) continue;
      // Coalesced groups launch once, on one device: peers must share a lane.
      const std::uint32_t lane = vp_device_[other.vp_id];
      if (PeerTally::Entry* e = peers.find(lane, other.launch.coalesce.key)) {
        ++e->count;
      } else {
        peers.entries.push_back({lane, &other.launch.coalesce.key, 1});
      }
    }
  }
  const PeerTally::Entry* e = peers.find(vp_device_[job.vp_id], job.launch.coalesce.key);
  if (e == nullptr) return 0;
  // The tally counts `job` itself when it could join a group too.
  return e->count - (can_join_group(job) ? 1 : 0);
}

bool Dispatcher::held_for_coalescing(const Job& job, PeerTally& peers) const {
  if (!config_.coalesce || !coalescable(job)) {
    return false;
  }
  if (events_.now() - job.enqueue_time >= config_.coalesce_window_us) return false;
  return ready_peers(job, peers) < config_.coalesce_eager_peers;
}

void Dispatcher::arm_window_timer() {
  // Two cases where a scan could only come back empty or confirm the armed
  // timer (proofs in DESIGN.md, "The pump"): no queued job's window may
  // still be open, or a strictly-future timer is armed, which fires no later
  // than every open window's expiry. Consumed timers reset the marker before
  // pumping.
  if (!config_.coalesce || open_windows_ == 0) return;
  const SimTime now = events_.now();
  if (window_timer_at_ > now) return;
  SimTime earliest = -1.0;
  open_windows_ = 0;
  for (const Job& job : queue_) {
    open_windows_ += window_open(job);
    if (!coalescable(job)) continue;
    const SimTime expiry = job.enqueue_time + config_.coalesce_window_us;
    if (expiry > now && (earliest < 0.0 || expiry < earliest)) earliest = expiry;
  }
  if (earliest < 0.0) return;
  window_timer_at_ = earliest;
  events_.schedule_at(earliest, [this] {
    window_timer_at_ = -1.0;
    pump();
  });
}

SimTime Dispatcher::engine_free_at(const DeviceLane& lane, JobKind kind) {
  switch (kind) {
    case JobKind::kKernel: return lane.device->compute_engine_free_at();
    case JobKind::kMemcpyH2D: return lane.device->h2d_engine_free_at();
    case JobKind::kMemcpyD2H: break;
  }
  return lane.device->d2h_engine_free_at();
}

Dispatcher::Hold Dispatcher::hold_of(const Job& job, PeerTally& peers) const {
  // Kernel Interleaving: a job may dispatch when it could START right now —
  // its engine must be idle AND its stream dependency (the previous op of
  // the same VP) must have completed. The second condition is the
  // "augmented for job dependencies" part of the paper's Re-scheduler:
  // without it, a dependency-stalled job would head-of-line-block its engine
  // while another VP's runnable job waits behind it (Fig. 3(a)). All engine
  // and service checks are against the job's own lane, so lanes of a
  // multi-device host pump independently.
  const SimTime now = events_.now();
  if (!is_ready(job)) return Hold::kSequence;
  // A migrated VP is restaging its working set onto the target device.
  if (vp_ready_at_[job.vp_id] > now) return Hold::kRestaging;
  if (held_for_coalescing(job, peers)) return Hold::kCoalescing;
  // A coalesced group member of this VP may still be running on the
  // coalescer's service stream; the VP stream would not chain behind it,
  // so the VP's next op must wait for the group's completion.
  if (vp_group_inflight_[job.vp_id] > 0) return Hold::kGroup;
  // Fault mode only: hold the VP's next job until the in-flight one has
  // actually completed, so a transient abort or reset kill can re-queue
  // it (rolling next_seq_ back) without a later job of the same VP having
  // slipped past it. Without a fault plan this gate does not exist.
  if (fault_active() && vp_inflight_[job.vp_id] > 0) return Hold::kFaultOrder;
  const DeviceLane& lane = lane_of(job);
  if (engine_free_at(lane, job.kind) > now) return Hold::kEngine;
  if (lane.service->free_at() > now) return Hold::kService;  // one job in service per lane
  if (lane.device->stream_idle_at(vp_streams_[job.vp_id]) > now) return Hold::kStream;
  return Hold::kNone;
}

bool Dispatcher::dispatch_slot_free() const {
  const SimTime now = events_.now();
  for (const DeviceLane& lane : lanes_) {
    if (lane.service->free_at() > now) continue;
    for (const JobKind kind : {JobKind::kKernel, JobKind::kMemcpyH2D, JobKind::kMemcpyD2H}) {
      if (engine_free_at(lane, kind) <= now) return true;
    }
  }
  return false;
}

std::size_t Dispatcher::pick_next() const {
  PeerTally peers;
  if (!config_.interleave) {
    // Serial baseline: strictly one job at a time, arrival order.
    if (in_flight_ > 0) return kNone;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      if (vp_ready_at_[queue_[i].vp_id] > events_.now()) continue;
      if (is_ready(queue_[i]) && !held_for_coalescing(queue_[i], peers)) return i;
    }
    return kNone;
  }
  // Every candidate needs its lane's service slot and its engine free, so
  // when no lane has both the scan could only come back empty.
  if (!dispatch_slot_free()) return kNone;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (hold_of(queue_[i], peers) == Hold::kNone) return i;
  }
  return kNone;
}

void Dispatcher::pump() {
  if (pumping_) return;
  pumping_ = true;
  for (std::size_t idx = pick_next(); idx != kNone; idx = pick_next()) {
    dispatch_at(idx);
  }
  arm_window_timer();
  pumping_ = false;
}

const char* Dispatcher::head_hold_reason() const {
  if (queue_.empty()) return "empty";
  PeerTally peers;
  switch (hold_of(queue_.front(), peers)) {
    case Hold::kNone: return "head ready (tie)";
    case Hold::kSequence: return "head waits on VP sequence order";
    case Hold::kRestaging: return "head restaging after migration";
    case Hold::kCoalescing: return "head held for coalescing peers";
    case Hold::kGroup: return "head waits on a merged group";
    case Hold::kFaultOrder: return "head gated by fault-mode order";
    case Hold::kEngine: return "head engine busy";
    case Hold::kService: return "head service slot busy";
    case Hold::kStream: return "head stream busy";
  }
  return "?";
}

void Dispatcher::dispatch_at(std::size_t index) {
  // A dispatch from behind the queue head is the Re-scheduler's asynchronous
  // cross-VP reordering (paper Fig. 4(a)) — only meaningful with Kernel
  // Interleaving. In the serial baseline the head can only be bypassed while
  // it waits out a coalescing window, which is a hold, not a reorder; the
  // `interleave == false ⇒ reorders == 0` invariant is property-tested.
  if (index > 0 && config_.interleave) {
    ++reorders_;
    if (trace_ != nullptr) {
      ++trace_->reorders->value;
      trace_->instant(trace::RunTrace::kTidDispatcher, "sched", "reorder", events_.now(),
                      {trace::arg("job", queue_[index].id),
                       trace::arg("vp", static_cast<int>(queue_[index].vp_id)),
                       trace::arg("picked_index", static_cast<int>(index)),
                       trace::arg("reason", head_hold_reason())});
    }
  }

  Job job = std::move(queue_[index]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(index));
  open_windows_ -= window_open(job);

  if (config_.coalesce && coalescable(job)) {
    // Kernel Match: sweep the queue for ready identical requests on the
    // same device (one merged launch targets one device's engines).
    std::vector<Job> group;
    group.push_back(std::move(job));
    for (auto it = queue_.begin(); it != queue_.end();) {
      const bool match = coalescable(*it) &&
                         vp_device_[it->vp_id] == vp_device_[group.front().vp_id] &&
                         it->launch.coalesce.key == group.front().launch.coalesce.key &&
                         can_join_group(*it);
      if (match) {
        open_windows_ -= window_open(*it);
        group.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    if (group.size() >= 2 && Coalescer::can_merge(group)) {
      dispatch_group(std::move(group));
      return;
    }
    if (trace_ != nullptr) {
      // A coalescable kernel dispatching alone means its window expired (or
      // matching peers could not merge) — the "why didn't this coalesce"
      // annotation the trace promises.
      trace_->instant(trace::RunTrace::kTidDispatcher, "sched", "coalesce.window_expired",
                      events_.now(),
                      {trace::arg("job", group.front().id),
                       trace::arg("vp", static_cast<int>(group.front().vp_id)),
                       trace::arg("waited_us",
                                  events_.now() - group.front().enqueue_time),
                       trace::arg("unmergeable_peers", static_cast<int>(group.size() - 1))});
    }
    dispatch_single(std::move(group.front()));
    // Any extra matches that could not merge are re-queued at the front in
    // their original relative order.
    for (std::size_t i = group.size(); i-- > 1;) {
      open_windows_ += window_open(group[i]);
      queue_.push_front(std::move(group[i]));
    }
    return;
  }

  dispatch_single(std::move(job));
}

void Dispatcher::dispatch_single(Job job) {
  DeviceLane& lane = lane_of(job);
  ++next_seq_[job.vp_id];
  ++vp_inflight_[job.vp_id];
  ++in_flight_;
  ++jobs_dispatched_;
  ++lane.jobs_dispatched;
  if (job.kind == JobKind::kMemcpyH2D) vp_h2d_bytes_[job.vp_id] += job.bytes;
  // Injected process death between dispatch accounting and device
  // submission: the most scheduler-state-laden instant of a job's life.
  crash_point(CrashSite::kDispatch);
  SIGVP_TRACE("dispatcher") << "dispatch job " << job.id << " vp" << job.vp_id << " kind="
                            << static_cast<int>(job.kind) << " t=" << events_.now();
  if (trace_ != nullptr) {
    ++trace_->jobs_dispatched->value;
    trace_->queue_wait_us->record(events_.now() - job.enqueue_time);
    trace_->counter("sched.queue_depth", events_.now(), static_cast<double>(queue_.size()));
    // Queue residency on the VP's track, then the dispatcher's service slot.
    trace_->span(job.vp_id, "sched", std::string("queue:") + job_kind_name(job.kind),
                 job.enqueue_time, events_.now(), {trace::arg("job", job.id)});
    const SimTime service_start = std::max(events_.now(), lane.service->free_at());
    trace_->span(trace::RunTrace::kTidDispatcher, "sched",
                 std::string("service:") + job_kind_name(job.kind), service_start,
                 service_start + config_.dispatch_overhead_us,
                 {trace::arg("job", job.id), trace::arg("vp", static_cast<int>(job.vp_id))});
    if (job.id != 0) {
      trace_->flow_step(trace::RunTrace::kTidDispatcher, events_.now(), job.id);
    }
  }
  // Host-side job handling happens on the dispatcher thread before the op
  // reaches the device engines.
  lane.service->submit(config_.dispatch_overhead_us,
                       [this, job = std::make_shared<Job>(std::move(job))](SimTime) mutable {
                         submit_to_device(std::move(*job));
                         pump();
                       });
}

void Dispatcher::submit_to_device(Job job) {
  if (fault_active()) {
    submit_to_device_tolerant(std::move(job));
    return;
  }
  GpuDevice& device = *lane_of(job).device;
  const GpuDevice::StreamId stream = vp_streams_[job.vp_id];
  const std::uint32_t vp = job.vp_id;
  switch (job.kind) {
    case JobKind::kMemcpyH2D:
      device.memcpy_h2d(stream, job.device_addr, job.host_src, job.bytes,
                        [this, vp, cb = std::move(job.on_complete)](SimTime end) {
                          if (cb) cb(end, nullptr);
                          on_job_finished(vp);
                        });
      break;
    case JobKind::kMemcpyD2H:
      device.memcpy_d2h(stream, job.host_dst, job.device_addr, job.bytes,
                        [this, vp, cb = std::move(job.on_complete)](SimTime end) {
                          if (cb) cb(end, nullptr);
                          on_job_finished(vp);
                        });
      break;
    case JobKind::kKernel:
      device.launch(stream, job.launch.request,
                    [this, vp, cb = std::move(job.on_complete)](
                        SimTime end, const KernelExecStats& stats) {
                      if (cb) cb(end, &stats);
                      on_job_finished(vp);
                    });
      break;
  }
}

void Dispatcher::dispatch_group(std::vector<Job> group) {
  DeviceLane& lane = lane_of(group.front());
  in_flight_ += static_cast<std::uint32_t>(group.size());
  jobs_dispatched_ += group.size();
  lane.jobs_dispatched += group.size();
  if (trace_ != nullptr) {
    ++trace_->coalesced_groups->value;
    trace_->coalesced_jobs->value += group.size();
    trace_->jobs_dispatched->value += group.size();
    trace_->group_size->record(static_cast<double>(group.size()));
    trace_->counter("sched.queue_depth", events_.now(), static_cast<double>(queue_.size()));
    trace_->instant(trace::RunTrace::kTidDispatcher, "sched", "coalesce", events_.now(),
                    {trace::arg("size", static_cast<int>(group.size())),
                     trace::arg("lead_job", group.front().id),
                     trace::arg("reason", "identical ready kernels merged")});
    const SimTime service_start = std::max(events_.now(), lane.service->free_at());
    trace_->span(trace::RunTrace::kTidDispatcher, "sched", "service:group", service_start,
                 service_start + config_.dispatch_overhead_us,
                 {trace::arg("size", static_cast<int>(group.size()))});
    for (const Job& j : group) {
      trace_->queue_wait_us->record(events_.now() - j.enqueue_time);
      trace_->span(j.vp_id, "sched", std::string("queue:") + job_kind_name(j.kind),
                   j.enqueue_time, events_.now(), {trace::arg("job", j.id)});
      if (j.id != 0) trace_->flow_step(trace::RunTrace::kTidDispatcher, events_.now(), j.id);
    }
  }
  // Fault mode: retain pre-wrap member copies so a merged-launch abort or a
  // reset kill can re-queue members with their original completions.
  std::shared_ptr<std::vector<Job>> retained;
  std::shared_ptr<std::vector<std::uint64_t>> member_ops;
  if (fault_active()) {
    retained = std::make_shared<std::vector<Job>>(group);
    member_ops = std::make_shared<std::vector<std::uint64_t>>(group.size(), 0);
  }
  for (std::size_t idx = 0; idx < group.size(); ++idx) {
    Job& j = group[idx];
    ++next_seq_[j.vp_id];
    ++vp_inflight_[j.vp_id];
    ++vp_group_inflight_[j.vp_id];
    // Chain the dispatcher's accounting after the job's own completion.
    auto original = std::move(j.on_complete);
    const std::uint32_t vp = j.vp_id;
    j.on_complete = [this, vp, idx, member_ops, original](SimTime end,
                                                          const KernelExecStats* stats) {
      if (member_ops) kill_actions_.erase((*member_ops)[idx]);
      if (original) original(end, stats);
      SIGVP_ASSERT(vp_group_inflight_[vp] > 0, "group completion for an idle VP");
      --vp_group_inflight_[vp];
      on_job_finished(vp);
    };
  }
  // One host-side service charge for the whole merged group — the core of
  // the coalescing gain: N launches, one dispatch + one profiler arming.
  Coalescer* coalescer = lane.coalescer.get();
  lane.service->submit(
      config_.dispatch_overhead_us,
      [this, coalescer, retained, member_ops,
       group = std::make_shared<std::vector<Job>>(std::move(group))](SimTime) mutable {
        if (!fault_active()) {
          coalescer->execute(std::move(*group));
          pump();
          return;
        }
        // Wire the group's recovery hooks: the merged-launch abort (or a
        // reset racing it) re-splits the whole group; a reset killing a
        // member's scatter re-queues just that member.
        auto abort_op = std::make_shared<std::uint64_t>(0);
        Coalescer::GroupFaultHooks hooks;
        hooks.on_abort = [this, retained, abort_op](SimTime) {
          kill_actions_.erase(*abort_op);
          resplit_group(retained);
        };
        hooks.on_abort_op = [this, retained, abort_op](std::uint64_t op) {
          *abort_op = op;
          kill_actions_[op] = [this, retained] { resplit_group(retained); };
        };
        hooks.on_member_op = [this, retained, member_ops](std::size_t idx,
                                                          std::uint64_t op) {
          (*member_ops)[idx] = op;
          kill_actions_[op] = [this, retained, idx] {
            Job j = (*retained)[idx];
            SIGVP_ASSERT(vp_group_inflight_[j.vp_id] > 0,
                         "reset kill for a member of an idle VP");
            --vp_group_inflight_[j.vp_id];
            rollback_dispatch(j);
            ++fault_stats_->reset_requeues;
            requeue(std::move(j));
          };
        };
        coalescer->execute(std::move(*group), &hooks);
        pump();
      });
}

void Dispatcher::on_job_finished(std::uint32_t vp_id) {
  SIGVP_ASSERT(in_flight_ > 0, "completion without a job in flight");
  SIGVP_ASSERT(vp_inflight_[vp_id] > 0, "completion for an idle VP");
  --in_flight_;
  --vp_inflight_[vp_id];
  pump();
}

// --- fault tolerance -------------------------------------------------------------

void Dispatcher::set_fault(const FaultPlan* plan, FaultStats* stats, HealthPolicy* health,
                           RecoveryConfig recovery) {
  SIGVP_REQUIRE(plan == nullptr || (stats != nullptr && health != nullptr),
                "fault plan without stats/health sinks");
  SIGVP_REQUIRE(plan == nullptr || !plan->enabled() || lanes_.size() == 1,
                "fault injection requires a single host GPU");
  fault_plan_ = plan;
  fault_stats_ = stats;
  health_ = health;
  recovery_ = recovery;
  if (fault_active()) {
    lanes_[0].device->set_kill_handler([this](std::uint64_t op_id) { on_op_killed(op_id); });
  }
}

void Dispatcher::set_escalation(std::function<void(std::uint32_t, Job)> escalate) {
  escalate_ = std::move(escalate);
}

void Dispatcher::inject_device_reset() {
  SIGVP_REQUIRE(fault_active(), "device reset injection requires an active fault plan");
  // The reset's kill handler re-queues every killed job (in op submission
  // order, which is per-VP sequence order). With everything killed there may
  // be no pending completion left to re-enter pump(), so one is scheduled
  // for the moment the engines come back.
  const SimTime recovered_at =
      lanes_[0].device->reset(fault_plan_->config().device_reset_latency_us);
  pump();
  events_.schedule_at(recovered_at, [this] { pump(); });
}

void Dispatcher::on_op_killed(std::uint64_t op_id) {
  auto it = kill_actions_.find(op_id);
  if (it == kill_actions_.end()) return;  // op without a recovery action (gathers, ...)
  auto action = std::move(it->second);
  kill_actions_.erase(it);
  action();
}

void Dispatcher::rollback_dispatch(const Job& job) {
  SIGVP_ASSERT(in_flight_ > 0, "rollback without a job in flight");
  SIGVP_ASSERT(vp_inflight_[job.vp_id] > 0, "rollback for an idle VP");
  --in_flight_;
  --vp_inflight_[job.vp_id];
  // The fault-mode pick_next gate guarantees no later job of this VP was
  // dispatched while this one was in flight, so rolling the cursor back
  // preserves the VP's sequence order.
  SIGVP_ASSERT(next_seq_[job.vp_id] == job.seq_in_vp + 1,
               "re-queue would break the VP's sequence order");
  next_seq_[job.vp_id] = job.seq_in_vp;
}

void Dispatcher::requeue(Job job) {
  job.enqueue_time = events_.now();
  open_windows_ += window_open(job);
  queue_.push_back(std::move(job));
}

void Dispatcher::escalate(Job job) {
  if (!escalate_) {
    ++fault_stats_->unrecovered_jobs;  // no fallback wired: the job is lost
    return;
  }
  const std::uint32_t vp = job.vp_id;
  escalate_(vp, std::move(job));
}

void Dispatcher::purge_vp(std::uint32_t vp_id) {
  SIGVP_REQUIRE(vp_id < vp_streams_.size(), "purge for an unregistered VP");
  // Jobs of one VP sit in the queue in sequence order, so draining the
  // deque front-to-back escalates them in program order.
  std::vector<Job> purged;
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->vp_id == vp_id) {
      open_windows_ -= window_open(*it);
      purged.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  for (Job& j : purged) escalate(std::move(j));
}

void Dispatcher::submit_to_device_tolerant(Job job) {
  const std::uint32_t vp = job.vp_id;
  if (health_ != nullptr && health_->failed(vp)) {
    // The VP was degraded while this job sat in service: follow its peers
    // to the fallback instead of touching the device.
    --in_flight_;
    --vp_inflight_[vp];
    escalate(std::move(job));
    pump();
    return;
  }
  GpuDevice& device = *lane_of(job).device;
  const GpuDevice::StreamId stream = vp_streams_[vp];
  auto boxed = std::make_shared<Job>(std::move(job));
  auto op_box = std::make_shared<std::uint64_t>(0);
  auto done = [this, vp, boxed, op_box](SimTime end, const KernelExecStats* stats) {
    kill_actions_.erase(*op_box);
    if (boxed->on_complete) boxed->on_complete(end, stats);
    on_job_finished(vp);
  };
  switch (boxed->kind) {
    case JobKind::kMemcpyH2D:
      device.memcpy_h2d(stream, boxed->device_addr, boxed->host_src, boxed->bytes,
                        [done](SimTime end) { done(end, nullptr); });
      break;
    case JobKind::kMemcpyD2H:
      device.memcpy_d2h(stream, boxed->host_dst, boxed->device_addr, boxed->bytes,
                        [done](SimTime end) { done(end, nullptr); });
      break;
    case JobKind::kKernel:
      device.launch(stream, boxed->launch.request,
                    [done](SimTime end, const KernelExecStats& stats) { done(end, &stats); },
                    [this, boxed, op_box](SimTime) {
                      kill_actions_.erase(*op_box);
                      on_launch_failed(boxed);
                    });
      break;
  }
  // Submission is single-threaded, so the op just submitted is last_op_id().
  *op_box = device.last_op_id();
  kill_actions_[*op_box] = [this, boxed] {
    rollback_dispatch(*boxed);
    ++fault_stats_->reset_requeues;
    requeue(*boxed);
  };
}

void Dispatcher::on_launch_failed(std::shared_ptr<Job> job) {
  const std::uint32_t vp = job->vp_id;
  ++job->attempts;
  if (health_) health_->report_incident(vp);
  if (job->attempts > recovery_.max_launch_retries) {
    // Bounded-retry budget exhausted: degrade the VP (purging its queued
    // successors to the fallback) and escalate this job after them — the
    // fallback drain re-sorts everything by sequence number.
    --in_flight_;
    --vp_inflight_[vp];
    if (health_) health_->mark_failed(vp);
    escalate(std::move(*job));
    pump();
    return;
  }
  ++fault_stats_->launch_retries;
  rollback_dispatch(*job);
  requeue(std::move(*job));
  pump();
}

void Dispatcher::resplit_group(std::shared_ptr<std::vector<Job>> members) {
  if (members->empty()) return;  // already re-split by a racing reset kill
  ++fault_stats_->group_resplits;
  SIGVP_DEBUG("dispatcher") << "merged launch aborted: re-splitting " << members->size()
                            << " members to singles at t=" << events_.now();
  for (Job& j : *members) {
    SIGVP_ASSERT(vp_group_inflight_[j.vp_id] > 0, "re-split for a member of an idle VP");
    --vp_group_inflight_[j.vp_id];
    rollback_dispatch(j);
    // A group that failed together must not re-merge and fail together
    // again: members retry as singles.
    j.launch.coalesce.eligible = false;
    requeue(std::move(j));
  }
  members->clear();
  pump();
}

std::string Dispatcher::stall_report() const {
  std::ostringstream os;
  os << queue_.size() << " job(s) queued, " << in_flight_ << " in flight:";
  for (std::size_t vp = 0; vp < vp_streams_.size(); ++vp) {
    std::size_t queued = 0;
    for (const Job& j : queue_) {
      if (j.vp_id == vp) ++queued;
    }
    if (queued == 0 && vp_inflight_[vp] == 0) continue;
    os << " vp" << vp << "={queued: " << queued << ", in_flight: " << vp_inflight_[vp]
       << ", next_seq: " << next_seq_[vp] << "}";
  }
  return os.str();
}

void Dispatcher::capture_state(snapshot::Writer& w) const {
  w.u64(queue_.size());
  for (const Job& j : queue_) {
    w.u64(j.id);
    w.u32(j.vp_id);
    w.u64(j.seq_in_vp);
    w.u8(static_cast<std::uint8_t>(j.kind));
    w.u64(j.bytes);
    w.f64(j.enqueue_time);
    w.u32(j.attempts);
  }
  w.u64_vec(next_seq_);
  w.u64(vp_inflight_.size());
  for (std::uint32_t v : vp_inflight_) w.u32(v);
  for (std::uint32_t v : vp_group_inflight_) w.u32(v);
  w.u32(in_flight_);
  w.u64(jobs_dispatched_);
  w.u64(reorders_);
  w.f64(window_timer_at_);
  w.u64(lanes_[0].coalescer->groups_executed());
  w.u64(lanes_[0].coalescer->jobs_merged());
  w.f64(lanes_[0].service->free_at());
  w.f64(lanes_[0].service->busy_time());
  w.u64(lanes_[0].service->jobs_submitted());
  w.u64(kill_actions_.size());
  for (const auto& [op_id, fn] : kill_actions_) w.u64(op_id);
  // Multi-lane state is appended past the legacy layout, so a single-device
  // capture digests byte-identically to every release before multi-GPU.
  if (lanes_.size() > 1) {
    w.u64(lanes_.size());
    for (std::size_t d = 1; d < lanes_.size(); ++d) {
      w.u64(lanes_[d].coalescer->groups_executed());
      w.u64(lanes_[d].coalescer->jobs_merged());
      w.f64(lanes_[d].service->free_at());
      w.f64(lanes_[d].service->busy_time());
      w.u64(lanes_[d].service->jobs_submitted());
      w.u64(lanes_[d].jobs_dispatched);
    }
    w.u64(lanes_[0].jobs_dispatched);
    w.u64(vp_device_.size());
    for (std::uint32_t d : vp_device_) w.u32(d);
    w.u64_vec(vp_h2d_bytes_);
    for (SimTime t : vp_ready_at_) w.f64(t);
    w.u64(migrations_);
    w.u64(migrated_bytes_);
  }
}

}  // namespace sigvp
