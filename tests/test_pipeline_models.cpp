// Tests for the pipe-parallel issue model, the dual copy engines, batched
// DMA, the coalescing window, and analytic-mode coalescing — the mechanisms
// behind the Fig. 9/10 reproductions.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cuda/runtime.hpp"
#include "fig9_interleaving.hpp"
#include "ir/builder.hpp"
#include "sched/dispatcher.hpp"
#include "util/check.hpp"
#include "util/table.hpp"
#include "workloads/suite.hpp"

namespace sigvp {
namespace {

constexpr std::uint64_t kMem = 256ull * 1024 * 1024;

LaunchDims dims_blocks(std::uint32_t blocks, std::uint32_t tpb = 256) {
  LaunchDims d;
  d.block_x = tpb;
  d.grid_x = blocks;
  return d;
}

TEST(IssuePipes, ParallelPipesTakeTheMaxNotTheSum) {
  const GpuArch q = make_quadro4000();
  const LaunchDims d = dims_blocks(8);
  ClassCounts fp_only, int_only, both;
  fp_only[InstrClass::kFp32] = d.total_threads() * 100;
  int_only[InstrClass::kInt] = d.total_threads() * 100;
  both[InstrClass::kFp32] = d.total_threads() * 100;
  both[InstrClass::kInt] = d.total_threads() * 100;

  const double c_fp = KernelCostModel::ideal_issue_cycles(q, d, fp_only);
  const double c_int = KernelCostModel::ideal_issue_cycles(q, d, int_only);
  const double c_both = KernelCostModel::ideal_issue_cycles(q, d, both);
  // FP and INT issue on different pipes: running both costs max, not sum.
  EXPECT_DOUBLE_EQ(c_both, std::max(c_fp, c_int));
}

TEST(IssuePipes, MemoryPipeBindsLoadHeavyKernels) {
  const GpuArch q = make_quadro4000();  // LD/ST cpi 2, FP32 cpi 1
  const LaunchDims d = dims_blocks(8);
  ClassCounts mix;
  mix[InstrClass::kLoad] = d.total_threads() * 100;  // 200 cyc/warp-thread
  mix[InstrClass::kFp32] = d.total_threads() * 100;  // 100
  const double c = KernelCostModel::ideal_issue_cycles(q, d, mix);
  ClassCounts loads_only;
  loads_only[InstrClass::kLoad] = d.total_threads() * 100;
  EXPECT_DOUBLE_EQ(c, KernelCostModel::ideal_issue_cycles(q, d, loads_only));
}

TEST(DualCopyEngines, UploadAndDownloadOverlap) {
  EventQueue q;
  GpuDevice dev(q, make_quadro4000(), kMem, "gpu");
  const auto s1 = dev.create_stream();
  const auto s2 = dev.create_stream();
  const std::uint64_t buf = dev.malloc(8 << 20);
  // An H2D on one stream and a D2H on another should fully overlap.
  const SimTime up = dev.memcpy_h2d(s1, buf, nullptr, 8 << 20);
  const SimTime down = dev.memcpy_d2h(s2, nullptr, buf, 8 << 20);
  EXPECT_NEAR(up, down, 1e-9);
  EXPECT_GT(dev.h2d_engine_free_at(), 0.0);
  EXPECT_GT(dev.d2h_engine_free_at(), 0.0);
}

TEST(DualCopyEngines, SameDirectionStillSerializes) {
  EventQueue q;
  GpuDevice dev(q, make_quadro4000(), kMem, "gpu");
  const auto s1 = dev.create_stream();
  const auto s2 = dev.create_stream();
  const std::uint64_t buf = dev.malloc(8 << 20);
  const SimTime c1 = dev.memcpy_h2d(s1, buf, nullptr, 8 << 20);
  const SimTime c2 = dev.memcpy_h2d(s2, buf, nullptr, 8 << 20);
  EXPECT_NEAR(c2, 2.0 * c1, 1.0);
}

TEST(BatchedD2D, OneSetupCostForManyChunks) {
  EventQueue q;
  GpuDevice dev(q, make_quadro4000(), kMem, "gpu");
  const std::uint64_t src = dev.malloc(1 << 16);
  const std::uint64_t dst = dev.malloc(1 << 16);
  for (std::uint64_t i = 0; i < (1 << 16); i += 8) {
    dev.memory().write<std::int64_t>(src + i, static_cast<std::int64_t>(i));
  }
  std::vector<GpuDevice::CopyDesc> descs;
  for (int c = 0; c < 16; ++c) {
    const std::uint64_t off = static_cast<std::uint64_t>(c) * 4096;
    descs.push_back({dst + off, src + off, 4096});
  }
  const SimTime batched = dev.memcpy_d2d_batch(0, descs);

  EventQueue q2;
  GpuDevice dev2(q2, make_quadro4000(), kMem, "gpu2");
  const std::uint64_t a2 = dev2.malloc(1 << 16), b2 = dev2.malloc(1 << 16);
  SimTime separate = 0.0;
  for (int c = 0; c < 16; ++c) {
    const std::uint64_t off = static_cast<std::uint64_t>(c) * 4096;
    separate = dev2.memcpy_d2d_batch(0, {{b2 + off, a2 + off, 4096}});
  }
  // Batched: one 0.8 µs setup; separate: sixteen.
  EXPECT_LT(batched, separate * 0.5);
  // Functional equivalence: every byte moved.
  for (std::uint64_t i = 0; i < (1 << 16); i += 4096) {
    EXPECT_EQ(dev.memory().read<std::int64_t>(dst + i), static_cast<std::int64_t>(i));
  }
}

TEST(CoalesceWindow, HeldJobDispatchesAfterWindowExpiry) {
  using namespace workloads;
  const Workload w = make_vector_add();
  EventQueue q;
  GpuDevice dev(q, make_quadro4000(), kMem, "gpu");
  DispatchConfig cfg;
  cfg.interleave = true;
  cfg.coalesce = true;
  cfg.coalesce_window_us = 40.0;
  cfg.dispatch_overhead_us = 0.0;
  Dispatcher disp(q, dev, cfg);
  disp.register_vp();

  const std::uint64_t n = 256;
  std::vector<std::uint64_t> addrs;
  for (const auto& s : w.buffers(n)) addrs.push_back(dev.malloc(s.bytes));
  Job j;
  j.vp_id = 0;
  j.seq_in_vp = 0;
  j.kind = JobKind::kKernel;
  j.launch.request.kernel = &w.kernel;
  j.launch.request.dims = w.dims(n);
  j.launch.request.args = w.args(addrs, n);
  j.launch.request.mode = ExecMode::kAnalytic;
  j.launch.request.analytic_profile = w.profile(n);
  j.launch.request.mem_behavior = w.behavior(n);
  j.launch.coalesce = w.coalesce(n);
  SimTime done = -1.0;
  j.on_complete = [&done](SimTime end, const KernelExecStats*) { done = end; };
  disp.submit(std::move(j));
  q.run();
  // No peer ever arrived: the window timer must release the job, and its
  // start is delayed by (at least) the window.
  EXPECT_GE(done, 40.0);
  EXPECT_EQ(disp.coalesced_groups(), 0u);
  EXPECT_TRUE(disp.idle());
}

TEST(CoalesceAnalytic, MergedLaunchSumsProfiles) {
  using namespace workloads;
  const Workload w = make_vector_add();
  EventQueue q;
  GpuDevice dev(q, make_quadro4000(), kMem, "gpu");
  DispatchConfig cfg;
  cfg.interleave = false;
  cfg.coalesce = true;
  cfg.coalesce_window_us = 10.0;
  cfg.coalesce_eager_peers = 1;
  cfg.dispatch_overhead_us = 0.0;
  Dispatcher disp(q, dev, cfg);

  const std::uint64_t n = 1000;
  std::vector<KernelExecStats> stats;
  for (std::uint32_t vp = 0; vp < 2; ++vp) {
    disp.register_vp();
  }
  for (std::uint32_t vp = 0; vp < 2; ++vp) {
    std::vector<std::uint64_t> addrs;
    for (const auto& s : w.buffers(n)) addrs.push_back(dev.malloc(s.bytes));
    Job j;
    j.vp_id = vp;
    j.seq_in_vp = 0;
    j.kind = JobKind::kKernel;
    j.launch.request.kernel = &w.kernel;
    j.launch.request.dims = w.dims(n);
    j.launch.request.args = w.args(addrs, n);
    j.launch.request.mode = ExecMode::kAnalytic;
    j.launch.request.analytic_profile = w.profile(n);
    j.launch.request.mem_behavior = w.behavior(n);
    j.launch.coalesce = w.coalesce(n);
    j.on_complete = [&stats](SimTime, const KernelExecStats* s) { stats.push_back(*s); };
    disp.submit(std::move(j));
  }
  q.run();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(disp.coalesced_groups(), 1u);
  // Both members observe the merged launch's σ: twice one program's count
  // (the merged kernel really processed 2n elements).
  const ClassCounts single = w.profile(n).instr_counts;
  EXPECT_NEAR(static_cast<double>(stats[0].sigma.total()),
              2.0 * static_cast<double>(single.total()),
              0.02 * static_cast<double>(single.total()));
  EXPECT_EQ(stats[0].sigma, stats[1].sigma);
  EXPECT_EQ(dev.kernels_launched(), 1u);
}

TEST(Fig9Interleaving, EverySpeedupMatchesThePublishedTable) {
  // Pins each speedup bench/fig9_interleaving prints, at its printed
  // precision (the EXPERIMENTS.md Fig. 9 tables), so a device or dispatch
  // model change that moves one fails here.
  const double tm_us = us_from_ms(fig9::kTmMs);
  const std::vector<std::pair<double, std::string>> by_kernel_ms = {
      {2.0, "1.36"},  {5.0, "1.41"},  {10.0, "1.47"}, {13.44, "1.50"}, {20.0, "1.40"},
      {40.0, "1.25"}, {60.0, "1.18"}, {80.0, "1.14"}, {100.0, "1.12"}};
  for (const auto& [tk_ms, want] : by_kernel_ms) {
    EXPECT_EQ(fmt_ratio(fig9::speedup(2, us_from_ms(tk_ms), tm_us)), want)
        << "Fig. 9(a), Tk = " << tk_ms << " ms";
  }
  const std::vector<std::pair<std::size_t, std::string>> by_programs = {
      {2, "1.50"}, {4, "2.00"}, {8, "2.40"}, {16, "2.67"}, {32, "2.82"}};
  for (const auto& [n, want] : by_programs) {
    EXPECT_EQ(fmt_ratio(fig9::speedup(n, tm_us, tm_us)), want) << "Fig. 9(b), N = " << n;
  }
}

TEST(DispatchOverhead, SerializedOnServiceThreadPerJob) {
  // Two analytic kernels from different VPs, serial mode: each pays the
  // host-side service time before the device sees it.
  using namespace workloads;
  const Workload w = make_vector_add();
  EventQueue q;
  GpuDevice dev(q, make_quadro4000(), kMem, "gpu");
  DispatchConfig cfg;
  cfg.dispatch_overhead_us = 500.0;
  Dispatcher disp(q, dev, cfg);
  disp.register_vp();
  disp.register_vp();

  const std::uint64_t n = 256;
  SimTime last = 0.0;
  for (std::uint32_t vp = 0; vp < 2; ++vp) {
    std::vector<std::uint64_t> addrs;
    for (const auto& s : w.buffers(n)) addrs.push_back(dev.malloc(s.bytes));
    Job j;
    j.vp_id = vp;
    j.seq_in_vp = 0;
    j.kind = JobKind::kKernel;
    j.launch.request.kernel = &w.kernel;
    j.launch.request.dims = w.dims(n);
    j.launch.request.args = w.args(addrs, n);
    j.launch.request.mode = ExecMode::kAnalytic;
    j.launch.request.analytic_profile = w.profile(n);
    j.launch.request.mem_behavior = w.behavior(n);
    j.on_complete = [&last](SimTime end, const KernelExecStats*) { last = end; };
    disp.submit(std::move(j));
  }
  q.run();
  // Two jobs, each ≥ 500 µs of service: the makespan reflects both.
  EXPECT_GE(last, 1000.0);
}

}  // namespace
}  // namespace sigvp
