#pragma once

#include <cstdint>

#include "gpu/arch.hpp"
#include "interp/launch.hpp"
#include "mem/cache.hpp"
#include "sim/time.hpp"

namespace sigvp {

/// Timing/energy breakdown of one kernel launch on a device-model GPU.
/// This is also what the "manufacturer profiler" of the paper's Fig. 2
/// exposes: executed instructions per class, elapsed cycles, cache
/// hit/miss counts, and stall reasons.
struct KernelExecStats {
  ClassCounts sigma;                  // dynamic instructions per class
  std::uint64_t num_blocks = 0;
  std::uint64_t serial_blocks = 0;    // ceil(blocks / SMs): wave quantization
  double issue_cycles = 0.0;          // ideal issue time, no stalls
  double block_overhead_cycles = 0.0; // per-block dispatch cost
  double stall_cycles_data = 0.0;     // exposed data-dependency stalls (Υ^data)
  double stall_cycles_other = 0.0;    // scheduler/hazard stalls
  double total_cycles = 0.0;
  SimTime duration_us = 0.0;          // includes per-launch driver overhead
  double dynamic_energy_j = 0.0;
  CacheStats cache;

  double stall_fraction() const {
    return total_cycles > 0.0 ? (stall_cycles_data + stall_cycles_other) / total_cycles : 0.0;
  }

  bool operator==(const KernelExecStats&) const = default;
};

/// Analytic warp-level timing model of a GPU architecture.
///
/// Given the dynamic instruction mix σ of a launch and its cache behaviour,
/// computes cycles the way the device "hardware" would spend them:
///
///   total = ceil(B / SMs) · (issue_per_block + dispatch)
///         + exposed data stalls (latency- or bandwidth-bound)
///         + other stalls
///
/// The ceil(B / SMs) term quantizes execution into block waves and is what
/// produces the staircase of the paper's Fig. 10(b) and the alignment gain
/// of Kernel Coalescing.
class KernelCostModel {
 public:
  explicit KernelCostModel(const GpuArch& arch) : arch_(arch) {}

  KernelExecStats evaluate(const LaunchDims& dims, const ClassCounts& sigma,
                           const CacheStats& cache) const;

  /// Effective device-level cycles per dynamic instruction of class i for a
  /// launch of this geometry — the τ{i,T} of the paper's Eq. 3, folding the
  /// machine width into a per-instruction latency.
  double effective_tau(InstrClass c, const LaunchDims& dims) const;

  /// Exposed data-dependency stall cycles for `misses` L2 misses under this
  /// launch geometry: max(latency-bound, bandwidth-bound). Used both when
  /// pricing a launch and as the Υ^[data] term of the estimation models.
  static double exposed_data_stalls(const GpuArch& arch, const LaunchDims& dims,
                                    double misses);

  /// Ideal whole-launch issue cycles for an instruction mix σ, modeling the
  /// SM's parallel issue pipes: the FP units, the INT/branch path, and the
  /// LD/ST units operate concurrently (dual-issue warp schedulers), so the
  /// issue time of a block is the maximum over the three pipes, and waves
  /// quantize across blocks. Shared by evaluate() and the estimator's C^P
  /// so measured and estimated cycles use one definition of "ideal".
  static double ideal_issue_cycles(const GpuArch& arch, const LaunchDims& dims,
                                   const ClassCounts& sigma);

  const GpuArch& arch() const { return arch_; }

 private:
  GpuArch arch_;
};

}  // namespace sigvp
