// The Fig. 9 Kernel Interleaving experiment, shared by bench/fig9_interleaving
// (which prints it) and tests/test_pipeline_models.cpp (which pins it).
//
// N programs, each {H2D copy, kernel, D2H copy}, go through the dispatcher
// on the Quadro 4000 model with and without interleaving; the speedup is the
// serial makespan over the interleaved one.

#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>

#include "ir/builder.hpp"
#include "sched/dispatcher.hpp"

namespace sigvp::fig9 {

/// The paper's fixed memcpy time.
inline constexpr double kTmMs = 13.44;

inline KernelIR make_synthetic_kernel() {
  KernelBuilder b("synthetic", 0);
  b.block("entry");
  b.ret();
  return b.build();
}

inline LaunchDims synth_dims() {
  LaunchDims d;
  d.block_x = 256;
  d.grid_x = 8;
  return d;
}

inline MemoryBehavior synth_memory() {
  return MemoryBehavior{1024, 64, 0.9, 0.97};
}

/// FP32 instruction count that makes the synthetic kernel run ~target_us on
/// the Quadro model (linear fit through two probes).
inline std::uint64_t sigma_for_duration(const KernelIR& k, double target_us) {
  auto dur = [&](double x) {
    DynamicProfile p;
    p.instr_counts[InstrClass::kFp32] = static_cast<std::uint64_t>(x);
    return evaluate_analytic(make_quadro4000(), k, synth_dims(), p, synth_memory()).duration_us;
  };
  const double x1 = 1e6, x2 = 2e6;
  const double d1 = dur(x1), d2 = dur(x2);
  const double slope = (d2 - d1) / (x2 - x1);
  const double x = x1 + (target_us - d1) / slope;
  return static_cast<std::uint64_t>(std::max(1e4, x));
}

/// Makespan of `n_programs` {H2D, kernel, D2H} programs of copy time
/// `tm_us` and `sigma_fp32` kernel instructions pushed through the
/// Re-scheduler.
inline SimTime makespan_us(std::size_t n_programs, double tm_us, bool interleave,
                           const KernelIR& kernel, std::uint64_t sigma_fp32) {
  EventQueue q;
  GpuDevice dev(q, make_quadro4000(), 4ull << 30, "gpu");
  // This experiment isolates engine overlap (the paper's Eq. 7/8 model has
  // no dispatch-overhead term), so the host-side service time is zeroed.
  DispatchConfig cfg;
  cfg.interleave = interleave;
  cfg.dispatch_overhead_us = 0.0;
  Dispatcher disp(q, dev, cfg);

  const double copy_bw_bytes_per_us = make_quadro4000().copy_bandwidth_gbps * 1e3;
  const std::uint64_t bytes = static_cast<std::uint64_t>(
      std::max(1.0, (tm_us - make_quadro4000().copy_latency_us) * copy_bw_bytes_per_us));

  SimTime makespan = 0.0;
  for (std::size_t p = 0; p < n_programs; ++p) {
    disp.register_vp();
  }
  for (std::size_t p = 0; p < n_programs; ++p) {
    const std::uint64_t buf = dev.malloc(bytes);
    auto note = [&makespan](SimTime end, const KernelExecStats*) {
      makespan = std::max(makespan, end);
    };
    Job h2d;
    h2d.vp_id = static_cast<std::uint32_t>(p);
    h2d.seq_in_vp = 0;
    h2d.kind = JobKind::kMemcpyH2D;
    h2d.device_addr = buf;
    h2d.bytes = bytes;
    h2d.on_complete = note;
    disp.submit(std::move(h2d));

    Job kj;
    kj.vp_id = static_cast<std::uint32_t>(p);
    kj.seq_in_vp = 1;
    kj.kind = JobKind::kKernel;
    kj.launch.request.kernel = &kernel;
    kj.launch.request.dims = synth_dims();
    kj.launch.request.mode = ExecMode::kAnalytic;
    kj.launch.request.analytic_profile.instr_counts[InstrClass::kFp32] = sigma_fp32;
    kj.launch.request.mem_behavior = synth_memory();
    kj.on_complete = note;
    disp.submit(std::move(kj));

    Job d2h;
    d2h.vp_id = static_cast<std::uint32_t>(p);
    d2h.seq_in_vp = 2;
    d2h.kind = JobKind::kMemcpyD2H;
    d2h.device_addr = buf;
    d2h.bytes = bytes;
    d2h.on_complete = note;
    disp.submit(std::move(d2h));
  }
  q.run();
  return makespan;
}

/// Serial over interleaved makespan for `n_programs` programs with kernel
/// time ~`tk_us` and copy time `tm_us`.
inline double speedup(std::size_t n_programs, double tk_us, double tm_us) {
  const KernelIR kernel = make_synthetic_kernel();
  const std::uint64_t sigma = sigma_for_duration(kernel, tk_us);
  return makespan_us(n_programs, tm_us, false, kernel, sigma) /
         makespan_us(n_programs, tm_us, true, kernel, sigma);
}

/// Eq. 7: serial N·(2·Tm + Tk) over pipelined 2·Tm + N·max(Tm, Tk).
inline double expected_speedup(std::size_t n, double tk_us, double tm_us) {
  const double serial = static_cast<double>(n) * (2.0 * tm_us + tk_us);
  const double pipelined = 2.0 * tm_us + static_cast<double>(n) * std::max(tm_us, tk_us);
  return serial / pipelined;
}

}  // namespace sigvp::fig9
