#include "sched/placement.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace sigvp {

SimTime migration_cost_us(const PlacementConfig& config, std::uint64_t ws_bytes) {
  // bytes / (GB/s) = ns per byte × bytes; convert to µs.
  const double restage_us = static_cast<double>(ws_bytes) / (config.migration_gbps * 1e3);
  return config.migration_fixed_us + restage_us;
}

std::vector<std::uint32_t> initial_placement(PlacementPolicy policy,
                                             const std::vector<std::uint64_t>& weights,
                                             const std::vector<double>& device_speed) {
  const std::size_t n_devices = device_speed.size();
  SIGVP_REQUIRE(n_devices >= 1, "placement needs at least one device");
  for (double s : device_speed) {
    SIGVP_REQUIRE(s > 0.0, "placement needs positive device speeds");
  }
  std::vector<std::uint32_t> assign(weights.size(), 0);
  if (n_devices == 1) return assign;

  if (policy == PlacementPolicy::kRoundRobin) {
    for (std::size_t i = 0; i < assign.size(); ++i) {
      assign[i] = static_cast<std::uint32_t>(i % n_devices);
    }
    return assign;
  }

  // Longest-processing-time greedy: heaviest VP first, each to the device
  // that would finish it earliest. Stable ordering (weight desc, index asc)
  // and lowest-index tie-breaks keep the result a pure function of the
  // inputs.
  std::vector<std::size_t> order(weights.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&weights](std::size_t a, std::size_t b) {
    return weights[a] > weights[b];
  });
  std::vector<double> load(n_devices, 0.0);
  for (const std::size_t vp : order) {
    const double w = static_cast<double>(weights[vp]);
    std::size_t best = 0;
    double best_finish = (load[0] + w) / device_speed[0];
    for (std::size_t d = 1; d < n_devices; ++d) {
      const double finish = (load[d] + w) / device_speed[d];
      if (finish < best_finish) {
        best = d;
        best_finish = finish;
      }
    }
    load[best] += w;
    assign[vp] = static_cast<std::uint32_t>(best);
  }
  return assign;
}

}  // namespace sigvp
