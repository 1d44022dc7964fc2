#include "ipc/ipc_manager.hpp"

#include <memory>
#include <utility>

#include "snapshot/serial.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace sigvp {

IpcCostModel IpcCostModel::shared_memory() {
  IpcCostModel m;
  m.name = "shm";
  m.per_message_us = 30.0;
  m.bandwidth_gbps = 2.5;
  return m;
}

IpcCostModel IpcCostModel::socket() {
  IpcCostModel m;
  m.name = "socket";
  m.per_message_us = 120.0;
  m.bandwidth_gbps = 1.0;
  return m;
}

IpcManager::IpcManager(EventQueue& queue, IpcCostModel cost)
    : queue_(queue), cost_(std::move(cost)) {}

void IpcManager::set_sink(DeliverFn sink) { sink_ = std::move(sink); }

std::uint32_t IpcManager::register_vp(const std::string& name) {
  vps_.push_back(VpEndpoint{});
  vps_.back().name = name;
  const auto id = static_cast<std::uint32_t>(vps_.size() - 1);
  if (trace_ != nullptr) trace_->thread_name(id, name + ".guest");
  return id;
}

void IpcManager::set_fault(const FaultPlan* plan, FaultStats* stats, HealthPolicy* health,
                           RecoveryConfig recovery) {
  SIGVP_REQUIRE(plan == nullptr || (stats != nullptr && health != nullptr),
                "fault plan without stats/health sinks");
  fault_plan_ = plan;
  fault_stats_ = stats;
  health_ = health;
  recovery_ = recovery;
}

void IpcManager::set_escalation(std::function<void(std::uint32_t, Job)> escalate) {
  escalate_ = std::move(escalate);
}

bool IpcManager::fallback_turn(std::uint32_t vp_id, std::uint64_t seq) const {
  SIGVP_REQUIRE(vp_id < vps_.size(), "unknown VP endpoint");
  const VpEndpoint& vp = vps_[vp_id];
  return vp.outstanding.empty() || *vp.outstanding.begin() == seq;
}

bool IpcManager::seq_released(std::uint32_t vp_id, std::uint64_t seq) const {
  SIGVP_REQUIRE(vp_id < vps_.size(), "unknown VP endpoint");
  const VpEndpoint& vp = vps_[vp_id];
  return vp.outstanding.find(seq) == vp.outstanding.end();
}

void IpcManager::set_release_listener(std::function<void(std::uint32_t)> listener) {
  release_listener_ = std::move(listener);
}

void IpcManager::send_job(std::uint32_t vp_id, Job job, std::uint64_t payload_bytes) {
  SIGVP_REQUIRE(vp_id < vps_.size(), "unknown VP endpoint");
  SIGVP_REQUIRE(static_cast<bool>(sink_), "IPC manager has no host-side sink");

  job.id = next_job_id_++;
  job.vp_id = vp_id;

  // Guest-submit observability: the flow starts here (on the VP's track)
  // and ends when the completion is released back to the guest.
  const SimTime submit_time = queue_.now();
  const std::uint64_t job_id = job.id;
  if (trace_ != nullptr) {
    ++trace_->ipc_requests->value;
    trace_->ipc_payload_bytes->record(static_cast<double>(payload_bytes));
    trace_->flow_begin(vp_id, submit_time, job_id);
    trace_->span(vp_id, "ipc", std::string("submit:") + job_kind_name(job.kind), submit_time,
                 submit_time + cost_.message_cost(payload_bytes),
                 {trace::arg("job", job_id), trace::arg("payload_bytes", payload_bytes)});
  }

  if (fault_active()) {
    send_job_faulty(vp_id, std::move(job), payload_bytes);
    return;
  }

  const SimTime request_cost = cost_.message_cost(payload_bytes);
  ++messages_sent_;
  transport_time_total_ += request_cost;

  // Wrap the completion so the response message (control-only) is charged
  // and VP control can hold the notification while the VP is stopped.
  auto original = std::move(job.on_complete);
  job.on_complete = [this, vp_id, original, job_id,
                     submit_time](SimTime end, const KernelExecStats* stats) {
    const SimTime response_cost = cost_.message_cost(0);
    ++messages_sent_;
    transport_time_total_ += response_cost;
    if (trace_ != nullptr) {
      trace_->span(vp_id, "ipc", "response", end, end + response_cost,
                   {trace::arg("job", job_id)});
    }
    queue_.schedule_at(end + response_cost,
                       release_completion(vp_id, original, stats, job_id, submit_time));
  };

  queue_.schedule_after(request_cost, [this, job = std::move(job)]() mutable {
    job.enqueue_time = queue_.now();
    SIGVP_TRACE("ipc") << "deliver job " << job.id << " from vp" << job.vp_id
                       << " at t=" << queue_.now();
    sink_(std::move(job));
  });
}

// --- fault-tolerant transport --------------------------------------------------

void IpcManager::attempt_transfer(const std::shared_ptr<Transfer>& xfer) {
  const SimTime cost = cost_.message_cost(xfer->payload_bytes);
  ++messages_sent_;
  transport_time_total_ += cost;
  ++xfer->attempts;

  const std::uint64_t roll = msg_roll_index_++;
  const bool dropped = fault_plan_->drop_message(xfer->response, roll);
  const SimTime spike = dropped ? 0.0 : fault_plan_->message_delay(xfer->response, roll);
  const bool duplicated = !dropped && fault_plan_->duplicate_message(xfer->response, roll);

  if (trace_ != nullptr) {
    const char* dir = xfer->response ? "resp" : "req";
    const std::vector<trace::Arg> args = {trace::arg("vp", static_cast<int>(xfer->vp_id)),
                                          trace::arg("attempt", static_cast<int>(xfer->attempts))};
    if (dropped) {
      trace_->instant(trace::RunTrace::kTidIpc, "fault", std::string("drop:") + dir,
                      queue_.now(), args);
    } else {
      trace_->span(trace::RunTrace::kTidIpc, "ipc", std::string("xfer:") + dir, queue_.now(),
                   queue_.now() + cost + spike, args);
      if (spike > 0.0) {
        trace_->instant(trace::RunTrace::kTidIpc, "fault", std::string("spike:") + dir,
                        queue_.now(), args);
      }
      if (duplicated) {
        trace_->instant(trace::RunTrace::kTidIpc, "fault", std::string("dup:") + dir,
                        queue_.now(), args);
      }
    }
  }

  // Receiver side: run the payload once (redeliveries and duplicates are
  // suppressed by message id), then return an ack. A lost ack leaves the
  // sender's watchdog armed, so the message is retransmitted and the dedup
  // absorbs it — exactly-once delivery on an at-least-once transport.
  auto arrive = [this, xfer] {
    if (xfer->delivered) {
      ++fault_stats_->duplicates_suppressed;
    } else {
      xfer->delivered = true;
      xfer->deliver();
    }
    const SimTime ack_cost = cost_.message_cost(0);
    ++messages_sent_;
    transport_time_total_ += ack_cost;
    const std::uint64_t ack_roll = msg_roll_index_++;
    if (fault_plan_->drop_ack(ack_roll)) {
      ++fault_stats_->acks_dropped;
      return;
    }
    queue_.schedule_after(ack_cost, [this, xfer] {
      if (xfer->acked) return;
      xfer->acked = true;
      if (xfer->attempts > 1) {
        // This message needed the watchdog: recovery latency is the stretch
        // from the first transmission to the ack that finally landed.
        fault_stats_->note_recovery(queue_.now() - xfer->first_sent_at);
      }
    });
  };

  if (dropped) {
    ++fault_stats_->messages_dropped;
  } else {
    if (spike > 0.0) ++fault_stats_->latency_spikes;
    queue_.schedule_after(cost + spike, arrive);
    if (duplicated) {
      ++fault_stats_->messages_duplicated;
      // The duplicate trails the original by one control-message time.
      queue_.schedule_after(cost + spike + cost_.message_cost(0), arrive);
    }
  }

  // Watchdog for this attempt, with clamped exponential backoff
  // (overflow-safe at any attempt count — see retransmit_backoff).
  const SimTime timeout = retransmit_backoff(recovery_, xfer->attempts);
  queue_.schedule_after(timeout, [this, xfer] {
    if (xfer->acked) return;
    if (health_) health_->report_incident(xfer->vp_id);
    if (xfer->attempts > recovery_.max_retries) {
      SIGVP_DEBUG("ipc") << (xfer->response ? "response" : "request") << " to/from vp"
                         << xfer->vp_id << " undeliverable after " << xfer->attempts
                         << " attempts";
      if (trace_ != nullptr) {
        trace_->instant(trace::RunTrace::kTidIpc, "fault",
                        xfer->response ? "give_up:resp" : "give_up:req", queue_.now(),
                        {trace::arg("vp", static_cast<int>(xfer->vp_id)),
                         trace::arg("attempts", static_cast<int>(xfer->attempts))});
      }
      xfer->acked = true;  // disarm: no further retransmissions
      fault_stats_->note_recovery(queue_.now() - xfer->first_sent_at);
      xfer->give_up();
      return;
    }
    ++fault_stats_->retransmits;
    if (trace_ != nullptr) {
      trace_->instant(trace::RunTrace::kTidIpc, "fault",
                      xfer->response ? "retransmit:resp" : "retransmit:req", queue_.now(),
                      {trace::arg("vp", static_cast<int>(xfer->vp_id)),
                       trace::arg("attempt", static_cast<int>(xfer->attempts))});
    }
    attempt_transfer(xfer);
  });
}

void IpcManager::start_transfer(std::uint32_t vp_id, bool response,
                                std::uint64_t payload_bytes, std::function<void()> deliver,
                                std::function<void()> give_up) {
  auto xfer = std::make_shared<Transfer>();
  xfer->vp_id = vp_id;
  xfer->response = response;
  xfer->payload_bytes = payload_bytes;
  xfer->first_sent_at = queue_.now();
  xfer->deliver = std::move(deliver);
  xfer->give_up = std::move(give_up);
  attempt_transfer(xfer);
}

std::function<void()> IpcManager::release_completion(
    std::uint32_t vp_id, std::function<void(SimTime, const KernelExecStats*)> original,
    const KernelExecStats* stats, std::uint64_t job_id, SimTime submit_time) {
  KernelExecStats stats_copy;
  const bool has_stats = stats != nullptr;
  if (has_stats) stats_copy = *stats;
  return [this, vp_id, original = std::move(original), has_stats, stats_copy, job_id,
          submit_time] {
    notify_vp(vp_id, [this, vp_id, original, has_stats, stats_copy, job_id, submit_time] {
      if (trace_ != nullptr) {
        trace_->job_latency_us->record(queue_.now() - submit_time);
        trace_->flow_end(vp_id, queue_.now(), job_id);
      }
      if (original) original(queue_.now(), has_stats ? &stats_copy : nullptr);
    });
  };
}

void IpcManager::send_job_faulty(std::uint32_t vp_id, Job job, std::uint64_t payload_bytes) {
  const std::uint64_t seq = job.seq_in_vp;
  vps_[vp_id].outstanding.insert(seq);

  // Wrap the completion. The response leg is itself a reliable transfer, and
  // every completion — transported, degraded or fallback-served — funnels
  // through the per-VP in-order release buffer, so retried, duplicated or
  // latency-spiked responses can never invert the VP's completion order.
  auto original = std::move(job.on_complete);
  const std::uint32_t vp = vp_id;
  const std::uint64_t job_id = job.id;
  const SimTime submit_time = queue_.now();
  job.on_complete = [this, vp, seq, original, job_id,
                     submit_time](SimTime, const KernelExecStats* stats) {
    auto notify = release_completion(vp, original, stats, job_id, submit_time);
    if (health_ != nullptr && health_->failed(vp)) {
      // The VP's transport is already declared dead (fallback mode): skip
      // the transfer machinery, keep the in-order gate.
      complete_in_order(vp, seq, std::move(notify));
      return;
    }
    auto deliver = [this, vp, seq, notify] { complete_in_order(vp, seq, notify); };
    // An undeliverable completion means the VP endpoint can no longer be
    // reached over IPC: degrade the VP and hand the completion over
    // directly (the restarted endpoint resyncs state from the host side) —
    // a job is never lost, only late.
    auto give_up = [this, vp, deliver] {
      if (health_) health_->mark_failed(vp);
      deliver();
    };
    start_transfer(vp, /*response=*/true, 0, std::move(deliver), std::move(give_up));
  };

  // A failed VP's traffic short-circuits to the emulation fallback: the
  // transport to/from it is considered dead, but the fleet keeps going.
  if (health_ != nullptr && health_->failed(vp_id) && escalate_) {
    escalate_(vp_id, std::move(job));
    return;
  }

  // Request leg. The job is boxed so watchdog retransmissions and the
  // escalation path can both reach it; delivery hands the sink a copy.
  auto boxed = std::make_shared<Job>(std::move(job));
  auto deliver = [this, vp_id, boxed] {
    if (health_ != nullptr && health_->failed(vp_id) && escalate_) {
      // The VP failed while this request was in flight; its queued peers
      // were already rerouted, so this one must follow them, not the sink.
      escalate_(vp_id, Job(*boxed));
      return;
    }
    Job copy = *boxed;
    copy.enqueue_time = queue_.now();
    SIGVP_TRACE("ipc") << "deliver job " << copy.id << " from vp" << copy.vp_id
                       << " at t=" << queue_.now();
    sink_(std::move(copy));
  };
  auto give_up = [this, vp_id, boxed] {
    if (health_ != nullptr && escalate_) {
      // Degrade first (purging the dispatcher's queued jobs of this VP into
      // the fallback), then escalate the stuck job itself; the fallback
      // drain re-sorts everything by sequence number.
      health_->mark_failed(vp_id);
      escalate_(vp_id, std::move(*boxed));
      return;
    }
    ++fault_stats_->unrecovered_jobs;  // no fallback wired: the job is lost
  };
  start_transfer(vp_id, /*response=*/false, payload_bytes, std::move(deliver),
                 std::move(give_up));
}

void IpcManager::complete_in_order(std::uint32_t vp_id, std::uint64_t seq,
                                   std::function<void()> deliver) {
  VpEndpoint& vp = vps_[vp_id];
  if (vp.outstanding.find(seq) == vp.outstanding.end()) {
    // Already released: a watchdog gave up on a response whose original
    // delivery actually landed (the classic two-generals ambiguity).
    ++fault_stats_->duplicates_suppressed;
    return;
  }
  if (!vp.ready.emplace(seq, std::move(deliver)).second) {
    ++fault_stats_->duplicates_suppressed;  // second completion while parked
    return;
  }
  while (!vp.outstanding.empty()) {
    const std::uint64_t head = *vp.outstanding.begin();
    auto it = vp.ready.find(head);
    if (it == vp.ready.end()) break;
    auto fire = std::move(it->second);
    vp.ready.erase(it);
    vp.outstanding.erase(vp.outstanding.begin());
    fire();
    if (release_listener_) release_listener_(vp_id);
  }
}

// --- delivery gating (VP control + injected stalls) -----------------------------

void IpcManager::notify_vp(std::uint32_t vp_id, std::function<void()> deliver) {
  SIGVP_ASSERT(vp_id < vps_.size(), "notification for unknown VP endpoint");
  VpEndpoint& vp = vps_[vp_id];

  // Injected VP stall: after the configured number of consumed completions
  // the endpoint wedges — it stops consuming notifications until the stall
  // watchdog force-restarts it.
  if (fault_active() && !vp.stall_fired &&
      fault_plan_->config().stall_vp == static_cast<std::int32_t>(vp_id) &&
      vp.completions_delivered >= fault_plan_->config().stall_after_completions) {
    vp.stall_fired = true;
    vp.wedged = true;
    ++fault_stats_->vp_stalls;
    SIGVP_DEBUG("ipc") << "vp" << vp_id << " wedged (stopped consuming completions) at t="
                       << queue_.now();
    wedge_watchdog(vp_id);
  }

  if (vp.stopped || vp.wedged) {
    vp.held.push_back(std::move(deliver));
    return;
  }
  ++vp.completions_delivered;
  deliver();
}

void IpcManager::wedge_watchdog(std::uint32_t vp_id) {
  const SimTime wedged_at = queue_.now();
  queue_.schedule_after(recovery_.vp_stall_timeout_us, [this, vp_id, wedged_at] {
    VpEndpoint& vp = vps_[vp_id];
    if (!vp.wedged) return;
    vp.wedged = false;
    ++fault_stats_->vp_restarts;
    fault_stats_->note_recovery(queue_.now() - wedged_at);
    if (health_) health_->report_incident(vp_id);
    SIGVP_DEBUG("ipc") << "vp" << vp_id << " force-restarted by the stall watchdog at t="
                       << queue_.now();
    flush_held(vp);
  });
}

void IpcManager::flush_held(VpEndpoint& vp) {
  while (!vp.held.empty() && !vp.stopped && !vp.wedged) {
    auto deliver = std::move(vp.held.front());
    vp.held.pop_front();
    ++vp.completions_delivered;
    deliver();
  }
}

void IpcManager::stop_vp(std::uint32_t vp_id) {
  SIGVP_REQUIRE(vp_id < vps_.size(), "unknown VP endpoint");
  vps_[vp_id].stopped = true;
}

void IpcManager::resume_vp(std::uint32_t vp_id) {
  SIGVP_REQUIRE(vp_id < vps_.size(), "unknown VP endpoint");
  VpEndpoint& vp = vps_[vp_id];
  if (!vp.stopped) return;
  vp.stopped = false;
  flush_held(vp);
}

bool IpcManager::is_stopped(std::uint32_t vp_id) const {
  SIGVP_REQUIRE(vp_id < vps_.size(), "unknown VP endpoint");
  return vps_[vp_id].stopped;
}

void IpcManager::capture_state(snapshot::Writer& w) const {
  w.u64(next_job_id_);
  w.u64(messages_sent_);
  w.f64(transport_time_total_);
  w.u64(msg_roll_index_);
  w.u64(vps_.size());
  for (const VpEndpoint& vp : vps_) {
    w.boolean(vp.stopped);
    w.u64(vp.held.size());
    w.boolean(vp.wedged);
    w.boolean(vp.stall_fired);
    w.u64(vp.completions_delivered);
    w.u64(vp.outstanding.size());
    for (std::uint64_t seq : vp.outstanding) w.u64(seq);
    w.u64(vp.ready.size());
    for (const auto& [seq, fn] : vp.ready) w.u64(seq);
  }
}

}  // namespace sigvp
