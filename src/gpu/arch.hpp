#pragma once

#include <cstdint>
#include <string>

#include "ir/instr_class.hpp"
#include "mem/cache.hpp"

namespace sigvp {

/// Architecture descriptor of a (simulated) GPU.
///
/// Three presets reproduce the paper's setup: the two host GPUs
/// (NVIDIA Quadro 4000 — Fermi GF100, and Grid K520 — Kepler GK104) and the
/// target embedded GPU (Tegra K1 — Kepler GK20A). Numbers come from public
/// datasheets; where a parameter is not public it is marked "calibrated".
struct GpuArch {
  std::string name;

  // --- compute geometry ------------------------------------------------------
  std::uint32_t num_sms = 1;
  std::uint32_t warp_width = 32;
  std::uint32_t max_threads_per_sm = 1536;
  std::uint32_t max_blocks_per_sm = 8;
  double clock_ghz = 1.0;

  /// Functional-unit lanes per SM for each instruction class; a warp
  /// instruction of class i issues in warp_width / lanes[i] cycles.
  ClassValues lanes_per_sm;

  /// Fixed per-thread-block dispatch overhead (cycles) — the hardware part
  /// of the launch overhead To in the paper's Eq. 9.
  double block_overhead_cycles = 300.0;

  /// Fraction of ideal issue cycles lost to non-data stalls (scheduler
  /// conflicts, RAW hazards the compiler cannot hide). Calibrated.
  double other_stall_fraction = 0.08;

  // --- memory system ---------------------------------------------------------
  CacheConfig l2;
  double mem_latency_cycles = 400.0;
  double mem_bandwidth_gbps = 80.0;

  /// Host-link (PCIe or SoC fabric) used by the copy engine.
  double copy_bandwidth_gbps = 6.0;
  double copy_latency_us = 15.0;

  /// Per-launch front-end overhead (driver + command processor), µs.
  double launch_overhead_us = 8.0;

  /// Per-class static code expansion of this ISA relative to the generic IR
  /// ("compiling" the kernel for this architecture, paper Fig. 8: the same
  /// program block has µ=32 on the host and µ=43 on the target). The device
  /// model prices launches with the expanded counts — it executes its own
  /// binary — and the estimator reconstructs them per block via Eq. 1.
  ClassValues compile_expansion = ClassValues::uniform(1.0);

  // --- power -----------------------------------------------------------------
  double static_power_w = 30.0;
  /// Dynamic energy per executed thread-instruction, by class (nanojoules).
  ClassValues instr_energy_nj;

  // --- derived ---------------------------------------------------------------

  /// Device-wide peak IPC (thread instructions per cycle) — the IPC_T / IPC_H
  /// of the paper's Eq. 2: all SMs issuing full FP32-rate warps.
  double max_ipc() const {
    return static_cast<double>(num_sms) * lanes_per_sm[InstrClass::kFp32];
  }

  /// Cycles one SM needs to issue a single warp instruction of class i.
  double warp_cpi(InstrClass c) const {
    const double lanes = lanes_per_sm[c];
    return lanes > 0.0 ? static_cast<double>(warp_width) / lanes : 0.0;
  }

  /// Resident blocks per SM for a given block size (occupancy limit).
  std::uint32_t concurrent_blocks_per_sm(std::uint64_t threads_per_block) const;

  /// Device-wide concurrently resident blocks ("slots"); the paper's Eq. 9
  /// alignment unit λ equals slots × threads_per_block data units.
  std::uint64_t concurrent_blocks(std::uint64_t threads_per_block) const;
};

/// NVIDIA Quadro 4000: Fermi GF100, 8 SMs × 32 cores, 950 MHz shaders.
GpuArch make_quadro4000();
/// NVIDIA Grid K520 (one GK104 GPU): 8 SMX × 192 cores, 800 MHz.
GpuArch make_gridk520();
/// NVIDIA Tegra K1 (GK20A): 1 SMX × 192 cores, 850 MHz, embedded SoC.
GpuArch make_tegrak1();

}  // namespace sigvp
