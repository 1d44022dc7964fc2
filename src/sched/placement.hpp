#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace sigvp {

/// How VPs are placed onto the host GPUs of a multi-device host set.
enum class PlacementPolicy : std::uint8_t {
  /// VP i goes to device i mod N — the naive baseline that stacks a skewed
  /// fleet's heavy VPs onto one device whenever the skew period divides N.
  kRoundRobin,
  /// Working-set-aware placement: initial assignment balances the per-VP
  /// load estimate across devices (longest-processing-time greedy, scaled
  /// by relative device throughput), and at runtime an idle VP may migrate
  /// to a less-backlogged device when the win exceeds the explicit
  /// migration cost plus a hysteresis margin.
  kAffinity,
};

/// Placement knobs of a multi-GPU host set. Semantic configuration: it
/// changes which device serves which VP, so every field is part of the
/// scenario fingerprint. Ignored entirely when at most one device is
/// declared.
struct PlacementConfig {
  PlacementPolicy policy = PlacementPolicy::kAffinity;

  /// Fixed cost of moving a VP's context between devices (driver teardown +
  /// setup), µs. Charged once per migration before the VP's next job may
  /// dispatch on the new device.
  SimTime migration_fixed_us = 250.0;

  /// Bandwidth at which the VP's device-resident working set (cumulative
  /// h2d bytes) is re-staged onto the target device, GB/s. The byte-
  /// proportional half of the migration-cost model.
  double migration_gbps = 8.0;

  /// A migration is taken only when the estimated backlog win exceeds the
  /// migration cost by at least this margin, µs — damping that keeps a VP
  /// from oscillating between two near-equal devices.
  SimTime hysteresis_us = 500.0;

  /// Master switch for runtime migration (kAffinity only). Initial
  /// placement still applies when false. Migration is timing-model-only:
  /// the scenario layer clears this in functional mode, where a VP's
  /// buffers are physically resident on its build-time device.
  bool allow_migration = true;
};

/// Migration cost of moving a working set of `ws_bytes` under `config`, µs.
SimTime migration_cost_us(const PlacementConfig& config, std::uint64_t ws_bytes);

/// Deterministic initial placement of VPs onto `device_speed.size()` devices.
///
/// `weights[i]` is the load estimate of VP i (workload size × request
/// count); `device_speed[d]` is the relative throughput of device d (any
/// positive unit — only ratios matter). Round-robin ignores both. Affinity
/// is longest-processing-time greedy: VPs in descending weight order (ties
/// by ascending index) each go to the device whose estimated finish time
/// (load + weight) / speed is smallest, ties to the lowest device index —
/// a pure function of the inputs, bit-identical at any worker/shard count.
std::vector<std::uint32_t> initial_placement(PlacementPolicy policy,
                                             const std::vector<std::uint64_t>& weights,
                                             const std::vector<double>& device_speed);

}  // namespace sigvp
