#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace sigvp {

/// Counters of everything the fault layer injected and everything the
/// tolerance layer did to survive it. One instance per scenario run, shared
/// by the IPC manager, the device model, the dispatcher and the health
/// policy (all single-threaded on the scenario's private event queue).
///
/// `active` records whether a non-trivial FaultPlan was installed; the JSON
/// writer uses it to keep zero-fault bench output byte-identical to a build
/// without the fault layer.
struct FaultStats {
  bool active = false;

  // --- injected faults --------------------------------------------------------
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_duplicated = 0;
  std::uint64_t latency_spikes = 0;
  std::uint64_t acks_dropped = 0;
  std::uint64_t launch_failures = 0;   // transient kernel-launch aborts
  std::uint64_t device_resets = 0;
  std::uint64_t ops_killed_by_reset = 0;  // in-flight device ops killed
  std::uint64_t vp_stalls = 0;         // VP endpoints that wedged

  // --- recovery actions -------------------------------------------------------
  std::uint64_t retransmits = 0;       // watchdog-triggered message resends
  std::uint64_t duplicates_suppressed = 0;  // redeliveries caught by id dedup
  std::uint64_t launch_retries = 0;    // jobs re-queued after a transient abort
  std::uint64_t reset_requeues = 0;    // jobs re-queued after a device reset
  std::uint64_t group_resplits = 0;    // coalesced groups split back to singles
  std::uint64_t vps_quarantined = 0;
  std::uint64_t vp_restarts = 0;       // stall-watchdog forced endpoint restarts
  std::uint64_t fallbacks = 0;         // VPs degraded to the emulation path
  std::uint64_t fallback_jobs = 0;     // jobs served by the emulation fallback
  std::uint64_t unrecovered_jobs = 0;  // jobs lost for good (must stay 0)

  /// Summed / worst-case time between a detected fault and the completed
  /// recovery action (retransmit landing, requeue dispatched, endpoint
  /// restarted). recovery_events divides the sum into a mean.
  SimTime recovery_latency_total_us = 0.0;
  SimTime recovery_latency_max_us = 0.0;
  std::uint64_t recovery_events = 0;

  void note_recovery(SimTime latency_us) {
    recovery_latency_total_us += latency_us;
    if (latency_us > recovery_latency_max_us) recovery_latency_max_us = latency_us;
    ++recovery_events;
  }

  SimTime recovery_latency_mean_us() const {
    return recovery_events == 0 ? 0.0
                                : recovery_latency_total_us /
                                      static_cast<double>(recovery_events);
  }

  /// Folds another run's (or fleet domain's) stats into this one: `active`
  /// ORs, every counter and latency total adds, the worst-case latency keeps
  /// the max. Called in canonical domain order by the sharded fleet
  /// executor; folding into a default-constructed instance reproduces the
  /// source exactly, so the single-domain path can share this too.
  void merge(const FaultStats& o) {
    active = active || o.active;
    messages_dropped += o.messages_dropped;
    messages_duplicated += o.messages_duplicated;
    latency_spikes += o.latency_spikes;
    acks_dropped += o.acks_dropped;
    launch_failures += o.launch_failures;
    device_resets += o.device_resets;
    ops_killed_by_reset += o.ops_killed_by_reset;
    vp_stalls += o.vp_stalls;
    retransmits += o.retransmits;
    duplicates_suppressed += o.duplicates_suppressed;
    launch_retries += o.launch_retries;
    reset_requeues += o.reset_requeues;
    group_resplits += o.group_resplits;
    vps_quarantined += o.vps_quarantined;
    vp_restarts += o.vp_restarts;
    fallbacks += o.fallbacks;
    fallback_jobs += o.fallback_jobs;
    unrecovered_jobs += o.unrecovered_jobs;
    recovery_latency_total_us += o.recovery_latency_total_us;
    if (o.recovery_latency_max_us > recovery_latency_max_us) {
      recovery_latency_max_us = o.recovery_latency_max_us;
    }
    recovery_events += o.recovery_events;
  }

  bool operator==(const FaultStats&) const = default;
};

}  // namespace sigvp
