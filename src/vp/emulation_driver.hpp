#pragma once

#include <cstdint>
#include <memory>

#include "cuda/driver.hpp"
#include "mem/address_space.hpp"
#include "mem/allocator.hpp"
#include "vp/processor.hpp"

namespace sigvp {

/// Cost model of software GPU emulation (the Mesa-style layer of the
/// paper's Fig. 1(a)): kernels compiled to native code and executed
/// thread-by-thread on a CPU — fast relative to interpretation, but still a
/// CPU doing GPU work.
struct EmulationConfig {
  /// Effective IR-instructions/second of the CPU running the emulator.
  /// Host CPU: HostCpuConfig::effective_ips; VP guest:
  /// effective_ips / bt_slowdown / emul_isa_expansion.
  double cpu_ips = 1.1e10;
  /// Emulator overhead over equivalent plain C code (Table 1:
  /// 9141.51 / 8213.09 = 1.113 on the native host CPU).
  double overhead = 1.113;
  /// cudaMemcpy emulation bandwidth on this CPU.
  double memcpy_gbps = 8.0;
  /// Fixed bookkeeping per emulated API call, µs (at native CPU speed;
  /// scale by bt_slowdown for a guest).
  double per_call_us = 2.0;
  /// Run kernels through the interpreter (functional validation) or price
  /// them from the launch's analytic profile.
  bool functional = true;
  /// Size of the emulated GPU memory arena.
  std::uint64_t device_mem_bytes = 512ull * 1024 * 1024;
  /// Host instructions per emulated GPU instruction, by class: a CPU
  /// emulates floating-point GPU code relatively worse than integer code,
  /// which is why the paper sees lower ΣVP speedups for FP-light apps
  /// (SobelFilter, stereoDisparity, mergeSort, VolumeFilter).
  ClassValues class_weight = default_class_weights();

  /// Extra host instructions per hard transcendental (exp/log/sin/cos):
  /// the GPU executes these on special-function units in a few cycles, the
  /// emulator calls libm. Apps heavy in specials (BlackScholes, simpleGL,
  /// MonteCarlo) emulate disproportionately slowly — the high end of the
  /// paper's Fig. 11 speedup range.
  double sfu_extra_weight = 80.0;
  /// Extra host instructions per sqrt/rsqrt (cheap SSE hardware on CPUs).
  double sqrt_extra_weight = 12.0;

  static ClassValues default_class_weights() {
    ClassValues w = ClassValues::uniform(1.0);
    w[InstrClass::kFp32] = 2.2;
    w[InstrClass::kFp64] = 3.6;
    // Emulated global-memory accesses pay address translation and bounds
    // checks in the emulator on top of the data movement.
    w[InstrClass::kLoad] = 4.0;
    w[InstrClass::kStore] = 4.0;
    return w;
  }
};

/// GPU-emulation backend of the DeviceDriver interface: every operation
/// executes serially on the owning CPU context (no copy/compute overlap —
/// there is no real GPU underneath).
class EmulationDriver final : public cuda::DeviceDriver {
 public:
  EmulationDriver(Processor& cpu, EmulationConfig config);

  /// Borrowed-memory variant (the ΣVP fault-tolerance fallback): operate on
  /// `external` — typically the host GPU's address space — instead of an
  /// owned arena, so device pointers handed out by the real device stay
  /// valid when a failed VP's jobs degrade to emulation. malloc/free are
  /// not available in this mode (the owner allocates).
  EmulationDriver(Processor& cpu, EmulationConfig config, AddressSpace& external);

  std::uint64_t malloc(std::uint64_t bytes) override;
  void free(std::uint64_t addr) override;
  void memcpy_h2d(std::uint64_t dst, const void* src, std::uint64_t bytes,
                  cuda::DoneCallback cb) override;
  void memcpy_d2h(void* dst, std::uint64_t src, std::uint64_t bytes,
                  cuda::DoneCallback cb) override;
  void launch(const cuda::LaunchSpec& spec, cuda::KernelDoneCallback cb) override;
  void synchronize(cuda::DoneCallback cb) override;

  const EmulationConfig& config() const { return config_; }

  /// Class-weighted work of a kernel in equivalent host instructions.
  double weighted_instrs(const ClassCounts& sigma, std::uint64_t sfu_instrs = 0,
                         std::uint64_t sqrt_instrs = 0) const {
    double total = static_cast<double>(sfu_instrs) * config_.sfu_extra_weight +
                   static_cast<double>(sqrt_instrs) * config_.sqrt_extra_weight;
    for (InstrClass c : kAllInstrClasses) {
      total += static_cast<double>(sigma[c]) * config_.class_weight[c];
    }
    return total;
  }

  /// Time the emulator needs for `instrs` weighted kernel instructions.
  SimTime kernel_time_us(double instrs) const {
    return instrs * config_.overhead / config_.cpu_ips * 1e6;
  }
  SimTime memcpy_time_us(std::uint64_t bytes) const {
    return config_.per_call_us + static_cast<double>(bytes) / (config_.memcpy_gbps * 1e3);
  }

 private:
  Processor& cpu_;
  EmulationConfig config_;
  std::unique_ptr<AddressSpace> owned_memory_;  // null in borrowed mode
  AddressSpace* memory_;
  FreeListAllocator allocator_;
};

}  // namespace sigvp
