#pragma once

#include <functional>
#include <string>

#include "sim/engine.hpp"
#include "sim/event_queue.hpp"

namespace sigvp {

/// A serial instruction-stream executor on the discrete-event timeline.
///
/// Models one CPU context: either the guest CPU of a virtual platform
/// (with an effective instruction rate degraded by binary translation) or a
/// host CPU core running natively. Work items queue FIFO; the processor is
/// busy until all accepted work has drained.
class Processor {
 public:
  Processor(EventQueue& queue, std::string name, double instrs_per_second);

  /// Queues `instrs` instructions of work; `cb` fires at completion.
  void run_instrs(double instrs, std::function<void(SimTime)> cb = {});

  /// Queues a fixed-duration activity (e.g. an I/O wait) on this CPU.
  void run_time(SimTime duration_us, std::function<void(SimTime)> cb = {});

  SimTime busy_until() const { return engine_.free_at(); }
  SimTime busy_total() const { return engine_.busy_time(); }
  double ips() const { return ips_; }
  const std::string& name() const { return engine_.name(); }

 private:
  Engine engine_;
  double ips_;
};

/// Host CPU calibration. `effective_ips` is the IR-instruction throughput of
/// one core of the paper's 32-core Xeon host including SIMD/superscalar
/// effects; calibrated so the C matrix-multiplication row of Table 1 lands
/// near the paper's 8213 ms.
struct HostCpuConfig {
  double effective_ips = 1.1e10;
  double memcpy_gbps = 8.0;
  /// Host-side per-call driver overhead for native GPU use, µs.
  double native_call_overhead_us = 4.0;
};

/// Virtual-platform calibration (QEMU ARM Versatile PB under binary
/// translation). Both factors are derived from the paper's own Table 1:
///  - bt_slowdown = C-on-VP / C-on-CPU = 269874.03 / 8213.09 = 32.86;
///  - emul_isa_expansion = (CUDA-emul-on-VP / CUDA-emul-on-CPU) / bt_slowdown
///    = 40.97 / 32.86 = 1.247 — the emulator's inner loop translates worse
///    than plain C code.
struct VpConfig {
  double bt_slowdown = 32.86;
  double emul_isa_expansion = 1.247;
  /// Guest-side GPU user-library work per API call (instructions).
  double user_lib_instrs_per_call = 1200.0;
  /// Guest-side GPU driver work per API call (instructions).
  double driver_instrs_per_call = 1800.0;

  double guest_ips(const HostCpuConfig& host) const {
    return host.effective_ips / bt_slowdown;
  }
};

}  // namespace sigvp
