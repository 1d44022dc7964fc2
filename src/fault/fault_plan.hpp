#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace sigvp {

/// Fault classes the injection layer can produce, one enumerator per
/// decision site. Every decision is a pure function of
/// (seed, site, decision index), so two runs of the same scenario — or the
/// same scenario sharded to a different worker slot of a sweep — draw
/// exactly the same faults regardless of host scheduling. This is what
/// keeps the PR 1 bit-identical sweep contract intact under injection.
enum class FaultSite : std::uint64_t {
  kRequestDrop = 1,    // VP→host job request lost in transport
  kRequestDup = 2,     // request delivered twice
  kRequestDelay = 3,   // request hit by a latency spike
  kResponseDrop = 4,   // host→VP completion lost in transport
  kResponseDup = 5,    // completion delivered twice
  kResponseDelay = 6,  // completion hit by a latency spike
  kAckDrop = 7,        // delivery acknowledgement lost (forces a retransmit)
  kLaunchFail = 8,     // transient kernel-launch failure on the host GPU
  /// Whole-process death (ProcessCrash). Not recoverable inside a run: it is
  /// injected by the CrashPlan (fault/crash.hpp) at counter-hashed sites and
  /// survived only through the checkpoint/restore path (src/snapshot).
  kProcessCrash = 10,
};

/// How long an injected fault holds its resource: a latency spike delays
/// one message, a transient launch failure holds the compute engine until
/// the abort, a device reset keeps both engines down.
inline constexpr SimTime kLatencySpikeUs = 500.0;
inline constexpr SimTime kLaunchFailLatencyUs = 25.0;
inline constexpr SimTime kDeviceResetLatencyUs = 1500.0;

/// Declarative description of every fault a scenario run will experience.
/// All rates are per-opportunity probabilities in [0, 1]; deterministic
/// one-shot events (device resets, the stalling VP) are listed explicitly.
/// The default-constructed config is the zero-fault plan: with it, the
/// tolerance machinery is bypassed entirely and the simulation is
/// bit-identical to a build without the fault layer.
struct FaultConfig {
  std::uint64_t seed = 0x5157f4a7ULL;

  // --- IPC transport faults (IpcManager) -------------------------------------
  double drop_rate = 0.0;
  double dup_rate = 0.0;
  double latency_spike_rate = 0.0;  // each spike adds kLatencySpikeUs

  // --- host GPU faults (GpuDevice) -------------------------------------------
  /// Transient kernel-launch failure: the launch aborts after
  /// kLaunchFailLatencyUs on the compute engine and must be retried.
  double launch_fail_rate = 0.0;
  /// Full device resets at these simulated times: every in-flight job is
  /// killed and both engines are unavailable for kDeviceResetLatencyUs.
  std::vector<SimTime> device_reset_at_us;

  // --- VP faults --------------------------------------------------------------
  /// VP that stops consuming completion notifications (wedged guest stack),
  /// or -1 for none. It wedges after `stall_after_completions` deliveries
  /// and is revived by the IPC manager's stall watchdog.
  std::int32_t stall_vp = -1;
  std::uint32_t stall_after_completions = 4;

  bool enabled() const {
    return drop_rate > 0.0 || dup_rate > 0.0 || latency_spike_rate > 0.0 ||
           launch_fail_rate > 0.0 || !device_reset_at_us.empty() || stall_vp >= 0;
  }
};

/// Recovery-policy knobs of the fault-tolerant host stack. Only consulted
/// when the scenario's FaultConfig is enabled.
struct RecoveryConfig {
  /// Watchdog timeout for the first delivery attempt of a message; each
  /// retransmission multiplies it by `backoff_mult` (exponential backoff),
  /// clamped at `max_backoff_us` so a long retransmission tail (raised
  /// max_retries) cannot grow the delay without bound or overflow it into
  /// inf. Defaults leave every trajectory with attempts <= 7 untouched.
  SimTime ack_timeout_us = 600.0;
  double backoff_mult = 2.0;
  SimTime max_backoff_us = 60000.0;
  /// Retransmissions before a message is declared undeliverable and the
  /// VP's traffic is escalated to the emulation fallback.
  std::uint32_t max_retries = 4;
  /// Per-job launch retries before a kernel job escalates to the fallback.
  std::uint32_t max_launch_retries = 4;
  /// Recovery incidents (timeouts, transient failures, reset kills) a VP
  /// may accumulate before it is quarantined out of coalescing eligibility.
  std::uint32_t quarantine_threshold = 3;
  /// How long a completion may sit undelivered at a wedged VP endpoint
  /// before the stall watchdog force-restarts the endpoint.
  SimTime vp_stall_timeout_us = 5000.0;
};

/// Watchdog delay before retransmission attempt `attempts` (1-based: the
/// first transmission waits `ack_timeout_us`). Overflow-safe at any attempt
/// count: the exponent saturates instead of producing inf, and the result is
/// clamped to `max_backoff_us`.
SimTime retransmit_backoff(const RecoveryConfig& recovery, std::uint32_t attempts);

/// Seeded, event-queue-driven fault oracle. Holds no mutable state: every
/// query hashes (seed, site, index), so the plan can be shared read-only by
/// the IPC manager, the device model and the dispatcher without any
/// cross-component ordering dependence (and without a wall clock).
class FaultPlan {
 public:
  explicit FaultPlan(FaultConfig config) : cfg_(config) {}

  const FaultConfig& config() const { return cfg_; }
  bool enabled() const { return cfg_.enabled(); }

  /// Uniform draw in [0, 1) for decision `index` at `site`.
  double roll01(FaultSite site, std::uint64_t index) const;
  /// True when decision `index` at `site` trips a fault of probability `rate`.
  bool roll(FaultSite site, std::uint64_t index, double rate) const {
    return rate > 0.0 && roll01(site, index) < rate;
  }

  // --- convenience wrappers, one per fault class -----------------------------
  bool drop_message(bool response, std::uint64_t index) const {
    return roll(response ? FaultSite::kResponseDrop : FaultSite::kRequestDrop, index,
                cfg_.drop_rate);
  }
  bool duplicate_message(bool response, std::uint64_t index) const {
    return roll(response ? FaultSite::kResponseDup : FaultSite::kRequestDup, index,
                cfg_.dup_rate);
  }
  SimTime message_delay(bool response, std::uint64_t index) const {
    return roll(response ? FaultSite::kResponseDelay : FaultSite::kRequestDelay, index,
                cfg_.latency_spike_rate)
               ? kLatencySpikeUs
               : 0.0;
  }
  bool drop_ack(std::uint64_t index) const {
    return roll(FaultSite::kAckDrop, index, cfg_.drop_rate);
  }
  bool fail_launch(std::uint64_t launch_index) const {
    return roll(FaultSite::kLaunchFail, launch_index, cfg_.launch_fail_rate);
  }

 private:
  FaultConfig cfg_;
};

}  // namespace sigvp
