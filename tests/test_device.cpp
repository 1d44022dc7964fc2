#include <gtest/gtest.h>

#include "gpu/device.hpp"
#include "ir/builder.hpp"
#include "util/check.hpp"

namespace sigvp {
namespace {

constexpr std::uint64_t kMem = 64ull * 1024 * 1024;

KernelIR store_kernel() {
  // out[gid] = gid (i64), no guard; used for functional device launches.
  KernelBuilder b("store_gid", 1);
  const auto out = b.reg(), gid = b.reg(), ctaid = b.reg(), ntid = b.reg(), tid = b.reg(),
             addr = b.reg();
  b.block("entry");
  b.ld_param(out, 0);
  b.special(ctaid, SpecialReg::kCtaidX);
  b.special(ntid, SpecialReg::kNtidX);
  b.special(tid, SpecialReg::kTidX);
  b.mul_i(gid, ctaid, ntid);
  b.add_i(gid, gid, tid);
  b.addr_of(addr, out, gid, 3);
  b.st_global_i64(gid, addr);
  b.ret();
  return b.build();
}

TEST(Device, MallocFreeBoundAndNonNull) {
  EventQueue q;
  GpuDevice dev(q, make_quadro4000(), kMem, "gpu");
  const std::uint64_t a = dev.malloc(1024);
  EXPECT_NE(a, 0u);
  EXPECT_EQ(dev.bytes_allocated(), 1024u);
  dev.free(a);
  EXPECT_EQ(dev.bytes_allocated(), 0u);
  EXPECT_THROW(dev.malloc(kMem * 2), ContractError);
}

TEST(Device, CopyDurationHasLatencyAndBandwidthTerms) {
  EventQueue q;
  GpuDevice dev(q, make_quadro4000(), kMem, "gpu");
  const std::uint64_t dst = dev.malloc(1 << 20);
  const SimTime t_small = dev.memcpy_h2d(0, dst, nullptr, 1);
  // 6 GB/s PCIe: 1 MiB ≈ 175 µs of transfer on top of the fixed latency.
  EventQueue q2;
  GpuDevice dev2(q2, make_quadro4000(), kMem, "gpu2");
  const std::uint64_t dst2 = dev2.malloc(1 << 20);
  const SimTime t_big = dev2.memcpy_h2d(0, dst2, nullptr, 1 << 20);
  EXPECT_NEAR(t_small, 15.0, 1.0);
  EXPECT_NEAR(t_big - t_small, (1 << 20) / (6.0 * 1e3), 5.0);
}

TEST(Device, StreamOpsSerializeEngineOpsOverlap) {
  EventQueue q;
  GpuDevice dev(q, make_quadro4000(), kMem, "gpu");
  const auto s1 = dev.create_stream();
  const auto s2 = dev.create_stream();
  const std::uint64_t buf = dev.malloc(1 << 20);

  // Two copies on different streams share the single copy engine: serialize.
  const SimTime c1 = dev.memcpy_h2d(s1, buf, nullptr, 1 << 20);
  const SimTime c2 = dev.memcpy_h2d(s2, buf, nullptr, 1 << 20);
  EXPECT_GT(c2, c1);

  // A kernel on s2 must wait for s2's copy, not for anything on s1.
  const KernelIR k = store_kernel();
  LaunchRequest req;
  req.kernel = &k;
  req.dims.block_x = 64;
  req.dims.grid_x = 4;
  req.args.push_ptr(buf);
  const SimTime k2 = dev.launch(s2, req);
  EXPECT_GE(k2, c2);

  // But the compute engine itself was free: the kernel starts right at c2.
  const auto& stats = dev.last_kernel_stats();
  EXPECT_NEAR(k2, c2 + stats.duration_us, 1e-9);
}

TEST(Device, HeadOfLineBlockingOnComputeEngine) {
  // Two kernels submitted back-to-back serialize on the compute engine even
  // when they belong to different streams.
  EventQueue q;
  GpuDevice dev(q, make_quadro4000(), kMem, "gpu");
  const auto s1 = dev.create_stream();
  const auto s2 = dev.create_stream();
  const std::uint64_t buf = dev.malloc(1 << 20);
  const KernelIR k = store_kernel();
  LaunchRequest req;
  req.kernel = &k;
  req.dims.block_x = 64;
  req.dims.grid_x = 64;
  req.args.push_ptr(buf);
  const SimTime k1 = dev.launch(s1, req);
  const SimTime k2 = dev.launch(s2, req);
  EXPECT_NEAR(k2 - k1, k1 - 0.0, 1e-6);  // same duration, strictly after
  EXPECT_GT(dev.compute_engine_free_at(), dev.h2d_engine_free_at());
}

TEST(Device, FunctionalLaunchWritesMemoryAndCallsBack) {
  EventQueue q;
  GpuDevice dev(q, make_quadro4000(), kMem, "gpu");
  const std::uint64_t buf = dev.malloc(256 * 8);
  const KernelIR k = store_kernel();
  LaunchRequest req;
  req.kernel = &k;
  req.dims.block_x = 64;
  req.dims.grid_x = 4;
  req.args.push_ptr(buf);

  bool called = false;
  dev.launch(0, req, [&](SimTime, const KernelExecStats& stats) {
    called = true;
    EXPECT_GT(stats.sigma.total(), 0u);
    EXPECT_GT(stats.cache.accesses, 0u);
  });
  q.run();
  EXPECT_TRUE(called);
  for (std::int64_t i = 0; i < 256; ++i) {
    EXPECT_EQ(dev.memory().read<std::int64_t>(buf + 8 * static_cast<std::uint64_t>(i)), i);
  }
}

TEST(Device, AnalyticLaunchUsesProvidedProfile) {
  EventQueue q;
  GpuDevice dev(q, make_quadro4000(), kMem, "gpu");
  const KernelIR k = store_kernel();
  LaunchRequest req;
  req.kernel = &k;
  req.dims.block_x = 256;
  req.dims.grid_x = 1000;
  req.mode = ExecMode::kAnalytic;
  req.args.push_ptr(dev.malloc(1024));
  req.analytic_profile.instr_counts[InstrClass::kFp32] = 256000 * 20;
  req.mem_behavior = MemoryBehavior{1 << 20, 256000, 0.5, 0.9};

  bool called = false;
  KernelExecStats out;
  dev.launch(0, req, [&](SimTime, const KernelExecStats& s) {
    called = true;
    out = s;
  });
  q.run();
  EXPECT_TRUE(called);
  EXPECT_EQ(out.sigma[InstrClass::kFp32], 256000u * 20u);
  EXPECT_GT(out.cache.misses, 0u);
  EXPECT_EQ(dev.kernels_launched(), 1u);
}

TEST(Device, AnalyticLaunchWithoutProfileThrows) {
  EventQueue q;
  GpuDevice dev(q, make_quadro4000(), kMem, "gpu");
  const KernelIR k = store_kernel();
  LaunchRequest req;
  req.kernel = &k;
  req.mode = ExecMode::kAnalytic;
  req.args.push_ptr(dev.malloc(64));
  EXPECT_THROW(dev.launch(0, req), ContractError);
}

TEST(Device, D2DMovesDataOnDevice) {
  EventQueue q;
  GpuDevice dev(q, make_quadro4000(), kMem, "gpu");
  const std::uint64_t a = dev.malloc(64);
  const std::uint64_t b = dev.malloc(64);
  dev.memory().write<double>(a, 42.0);
  dev.memcpy_d2d_batch(0, {{b, a, 64}});
  EXPECT_DOUBLE_EQ(dev.memory().read<double>(b), 42.0);
}

TEST(Device, EnergyAndPowerAccounting) {
  EventQueue q;
  GpuDevice dev(q, make_quadro4000(), kMem, "gpu");
  const std::uint64_t buf = dev.malloc(256 * 8);
  const KernelIR k = store_kernel();
  LaunchRequest req;
  req.kernel = &k;
  req.dims.block_x = 64;
  req.dims.grid_x = 4;
  req.args.push_ptr(buf);
  dev.launch(0, req);
  EXPECT_GT(dev.dynamic_energy_j(), 0.0);
  const double p = dev.average_power_w(us_from_ms(10.0));
  EXPECT_GT(p, dev.arch().static_power_w);
  EXPECT_THROW(dev.average_power_w(0.0), ContractError);
}

TEST(Device, IdleAtCoversAllStreams) {
  EventQueue q;
  GpuDevice dev(q, make_quadro4000(), kMem, "gpu");
  const auto s1 = dev.create_stream();
  const std::uint64_t buf = dev.malloc(1 << 20);
  const SimTime end = dev.memcpy_h2d(s1, buf, nullptr, 1 << 20);
  EXPECT_DOUBLE_EQ(dev.device_idle_at(), end);
  EXPECT_DOUBLE_EQ(dev.stream_idle_at(s1), end);
  EXPECT_DOUBLE_EQ(dev.stream_idle_at(0), 0.0);
  EXPECT_THROW(dev.stream_idle_at(99), ContractError);
}

TEST(Device, LastKernelStatsRequiresALaunch) {
  EventQueue q;
  GpuDevice dev(q, make_quadro4000(), kMem, "gpu");
  EXPECT_THROW(dev.last_kernel_stats(), ContractError);
}

}  // namespace
}  // namespace sigvp
