#include <algorithm>
#include <cstdint>

#include "workloads/suite.hpp"

namespace sigvp::workloads {

Workload make_matrix_mul() {
  // C = A x B over FP64 squares — the kernel of the paper's Table 1
  // experiment (320x320 doubles, 300 invocations) and of Fig. 12/13.
  // The matrix dimension must be a multiple of the 16x16 block.
  KernelBuilder b("matrixMul", 4);
  const auto pa = b.reg(), pb = b.reg(), pc = b.reg(), m = b.reg();
  b.block("entry");
  b.ld_param(pa, 0);
  b.ld_param(pb, 1);
  b.ld_param(pc, 2);
  b.ld_param(m, 3);

  const auto row = b.reg(), col = b.reg(), t0 = b.reg(), t1 = b.reg();
  b.special(t0, SpecialReg::kCtaidY);
  b.special(t1, SpecialReg::kNtidY);
  b.mul_i(row, t0, t1);
  b.special(t0, SpecialReg::kTidY);
  b.add_i(row, row, t0);
  b.special(t0, SpecialReg::kCtaidX);
  b.special(t1, SpecialReg::kNtidX);
  b.mul_i(col, t0, t1);
  b.special(t0, SpecialReg::kTidX);
  b.add_i(col, col, t0);

  // Strength-reduced pointers: a_ptr walks row `row` of A, b_ptr walks
  // column `col` of B with stride m*8.
  const auto acc = b.reg(), a_ptr = b.reg(), b_ptr = b.reg(), row_off = b.reg(),
             c8 = b.reg(), stride = b.reg(), k = b.reg(), one = b.reg();
  b.mov_imm_f64(acc, 0.0);
  b.mov_imm_i(c8, 8);
  b.mul_i(stride, m, c8);
  b.mul_i(row_off, row, stride);
  b.add_i(a_ptr, pa, row_off);
  const auto col_off = b.reg();
  b.mul_i(col_off, col, c8);
  b.add_i(b_ptr, pb, col_off);
  b.mov_imm_i(k, 0);
  b.mov_imm_i(one, 1);

  // 4x unrolled inner product (what a real compiler emits): A walks with
  // immediate offsets, B with stride multiples; pointer updates amortize.
  const auto four = b.reg(), c32 = b.reg(), stride4 = b.reg();
  b.mov_imm_i(four, 4);
  b.mov_imm_i(c32, 32);
  b.mul_i(stride4, stride, four);
  const auto b1 = b.reg(), b2 = b.reg(), b3 = b.reg();
  b.add_i(b1, b_ptr, stride);
  b.add_i(b2, b1, stride);
  b.add_i(b3, b2, stride);

  auto loop = b.loop_begin(k, m, four, "k");
  const auto av = b.reg(), bv = b.reg();
  for (int u = 0; u < 4; ++u) {
    b.ld_global_f64(av, a_ptr, 8 * u);
    switch (u) {
      case 0: b.ld_global_f64(bv, b_ptr); break;
      case 1: b.ld_global_f64(bv, b1); break;
      case 2: b.ld_global_f64(bv, b2); break;
      case 3: b.ld_global_f64(bv, b3); break;
    }
    b.fma_f64(acc, av, bv, acc);
  }
  b.add_i(a_ptr, a_ptr, c32);
  b.add_i(b_ptr, b_ptr, stride4);
  b.add_i(b1, b1, stride4);
  b.add_i(b2, b2, stride4);
  b.add_i(b3, b3, stride4);
  b.loop_end(loop);

  const auto c_idx = b.reg(), c_addr = b.reg();
  b.mul_i(c_idx, row, m);
  b.add_i(c_idx, c_idx, col);
  b.addr_of(c_addr, pc, c_idx, 3);
  b.st_global_f64(acc, c_addr);
  b.ret();

  Workload w;
  w.app = "matrixMul";
  w.kernel = b.build();
  w.default_n = 320;
  w.test_n = 32;
  w.estimate_n = 96;
  const KernelIR ir = w.kernel;
  auto mm_dims = [](std::uint64_t m_) {
    LaunchDims d;
    d.block_x = 16;
    d.block_y = 16;
    d.grid_x = static_cast<std::uint32_t>(m_ / 16);
    d.grid_y = static_cast<std::uint32_t>(m_ / 16);
    return d;
  };
  w.dims = mm_dims;
  w.buffers = [](std::uint64_t m_) {
    const std::uint64_t bytes = 8 * m_ * m_;
    return std::vector<BufferSpec>{{bytes, true, false}, {bytes, true, false},
                                   {bytes, false, true}};
  };
  w.args = [](const std::vector<std::uint64_t>& a, std::uint64_t m_) {
    KernelArgs args;
    args.push_ptr(a[0]);
    args.push_ptr(a[1]);
    args.push_ptr(a[2]);
    args.push_i64(static_cast<std::int64_t>(m_));
    return args;
  };
  w.profile = [ir, mm_dims](std::uint64_t m_) {
    // 4x unrolled loop: m/4 trips per thread.
    const std::uint64_t threads = m_ * m_;
    const std::uint64_t trips = m_ / 4;
    return profile_from_visits(ir, {{"entry", threads},
                                    {"k.head", threads * (trips + 1)},
                                    {"k.body", threads * trips},
                                    {"k.exit", threads}});
  };
  w.behavior = [](std::uint64_t m_) {
    // Warp-level access pattern: A-row loads broadcast across the warp and
    // B-row segments coalesce, so the line-granular probe count is ~1/8 of
    // the raw load count; column revisits across blocks are distant.
    return MemoryBehavior{3 * 8 * m_ * m_, (2 * m_ * m_ * m_) / 8 + m_ * m_, 0.95, 0.95};
  };
  w.fill_inputs = [](std::uint64_t, std::vector<std::vector<std::uint8_t>>& bufs) {
    fill_f64_pattern(bufs[0], -1.0, 1.0, 0x41);
    fill_f64_pattern(bufs[1], -1.0, 1.0, 0x42);
  };
  w.traits.coalescable = false;  // 2D tiling does not concatenate linearly
  w.traits.iterations = 25;
  w.traits.launches_per_iter = 2;
  w.traits.iter_h2d_bytes = 2 * 8 * 320 * 320;
  w.traits.iter_d2h_bytes = 8 * 320 * 320;
  w.traits.noncuda_guest_instrs = 3000;
  return w;
}

Workload make_mandelbrot() {
  KernelBuilder b("Mandelbrot", 7);
  const auto pout = b.reg(), width = b.reg(), max_iter = b.reg(), cx0 = b.reg(),
             cy0 = b.reg(), step = b.reg(), n = b.reg(), gid = b.reg();
  b.block("entry");
  b.ld_param(pout, 0);
  b.ld_param(width, 1);
  b.ld_param(max_iter, 2);
  b.ld_param(cx0, 3);
  b.ld_param(cy0, 4);
  b.ld_param(step, 5);
  b.ld_param(n, 6);
  emit_guard(b, gid, n);

  const auto xi = b.reg(), yi = b.reg(), fx = b.reg(), fy = b.reg(), cx = b.reg(),
             cy = b.reg();
  b.rem_i(xi, gid, width);
  b.div_i(yi, gid, width);
  b.cvt_i_to_f64(fx, xi);
  b.cvt_i_to_f64(fy, yi);
  b.fma_f64(cx, fx, step, cx0);
  b.fma_f64(cy, fy, step, cy0);

  const auto zx = b.reg(), zy = b.reg(), four = b.reg(), k = b.reg(), one = b.reg(),
             two = b.reg();
  b.mov_imm_f64(zx, 0.0);
  b.mov_imm_f64(zy, 0.0);
  b.mov_imm_f64(four, 4.0);
  b.mov_imm_f64(two, 2.0);
  b.mov_imm_i(k, 0);
  b.mov_imm_i(one, 1);
  b.jmp("it.head");

  b.block("it.head");
  const auto zx2 = b.reg(), zy2 = b.reg(), mag = b.reg(), in_budget = b.reg(),
             in_radius = b.reg(), go = b.reg();
  b.mul_f64(zx2, zx, zx);
  b.mul_f64(zy2, zy, zy);
  b.add_f64(mag, zx2, zy2);
  b.set_lt_i(in_budget, k, max_iter);
  b.set_lt_f64(in_radius, mag, four);
  b.and_b(go, in_budget, in_radius);
  b.bra_z(go, "it.exit");

  b.block("it.body");
  const auto t = b.reg(), nzx = b.reg();
  b.sub_f64(nzx, zx2, zy2);
  b.add_f64(nzx, nzx, cx);
  b.mul_f64(t, zx, zy);
  b.fma_f64(zy, t, two, cy);
  b.mov(zx, nzx);
  b.add_i(k, k, one);
  b.jmp("it.head");

  b.block("it.exit");
  const auto addr = b.reg();
  b.addr_of(addr, pout, gid, 2);
  b.st_global_i32(k, addr);
  b.ret();

  b.block("exit");
  b.ret();

  Workload w;
  w.app = "Mandelbrot";
  w.kernel = b.build();
  w.default_n = 1u << 20;
  w.test_n = 1024;
  w.estimate_n = 4096;
  w.exact_profile = false;  // iteration count is data-dependent
  const KernelIR ir = w.kernel;
  constexpr std::uint64_t kMaxIter = 64;
  w.dims = [](std::uint64_t n_) { return dims1d(n_); };
  w.buffers = [](std::uint64_t n_) {
    return std::vector<BufferSpec>{{4 * n_, false, true}};
  };
  w.args = [](const std::vector<std::uint64_t>& a, std::uint64_t n_) {
    KernelArgs args;
    args.push_ptr(a[0]);
    args.push_i64(1024);                        // image width
    args.push_i64(kMaxIter);                    // iteration budget
    args.push_f64(-0.2);                        // region inside the set
    args.push_f64(-0.05);
    args.push_f64(1e-7);
    args.push_i64(static_cast<std::int64_t>(n_));
    return args;
  };
  w.profile = [ir](std::uint64_t n_) {
    // Expectation: the default region lies inside the set, so (nearly) all
    // pixels exhaust the budget.
    const LaunchDims d = dims1d(n_);
    const std::uint64_t total = d.total_threads();
    return profile_from_visits(ir, {{"entry", total},
                                    {"body", n_},
                                    {"it.head", n_ * (kMaxIter + 1)},
                                    {"it.body", n_ * kMaxIter},
                                    {"it.exit", n_},
                                    {"exit", total - n_}});
  };
  w.behavior = [](std::uint64_t n_) {
    return MemoryBehavior{4 * n_, n_, 0.9, 0.97};
  };
  w.coalesce = [](std::uint64_t n_) {
    cuda::CoalesceInfo c;
    c.eligible = true;
    c.key = "Mandelbrot.f64";
    c.elems = n_;
    c.buffers = {{0, 4, true}};
    c.size_arg_index = 6;
    c.block_x = 256;
    return c;
  };
  w.traits.coalescable = true;
  w.traits.iterations = 30;
  w.traits.launches_per_iter = 4;
  w.traits.noncuda_guest_instrs = 140000;  // image output + display
  return w;
}

Workload make_monte_carlo() {
  // European option pricing by Monte Carlo path sampling: LCG random walk
  // plus exp-heavy payoff per path.
  constexpr std::int64_t kPaths = 64;
  KernelBuilder b("MonteCarlo", 3);
  const auto pout = b.reg(), paths = b.reg(), n = b.reg(), gid = b.reg();
  b.block("entry");
  b.ld_param(pout, 0);
  b.ld_param(paths, 1);
  b.ld_param(n, 2);
  emit_guard(b, gid, n);

  const auto state = b.reg(), mul_c = b.reg(), add_c = b.reg(), mask = b.reg(),
             inv = b.reg(), acc = b.reg(), sigma = b.reg();
  b.mov_imm_i(mul_c, 1664525);
  b.mov_imm_i(add_c, 1013904223);
  b.mov_imm_i(mask, 0xFFFF);
  b.mov_imm_f32(inv, 1.0f / 65536.0f);
  b.mov_imm_f32(sigma, 0.25f);
  b.mov_imm_f32(acc, 0.0f);
  b.mul_i(state, gid, mul_c);
  b.add_i(state, state, add_c);

  const auto i = b.reg(), one = b.reg();
  b.mov_imm_i(i, 0);
  b.mov_imm_i(one, 1);
  auto loop = b.loop_begin(i, paths, one, "p");
  const auto bits = b.reg(), uf = b.reg(), u = b.reg(), e = b.reg();
  b.mul_i(state, state, mul_c);
  b.add_i(state, state, add_c);
  b.and_b(bits, state, mask);
  b.cvt_i_to_f32(uf, bits);
  b.mul_f32(u, uf, inv);
  b.mul_f32(u, u, sigma);
  b.exp_f32(e, u);
  b.add_f32(acc, acc, e);
  b.loop_end(loop);

  const auto cnt = b.reg(), mean = b.reg(), addr = b.reg();
  b.cvt_i_to_f32(cnt, paths);
  b.div_f32(mean, acc, cnt);
  b.addr_of(addr, pout, gid, 2);
  b.st_global_f32(mean, addr);
  b.ret();
  b.block("exit");
  b.ret();

  Workload w;
  w.app = "MonteCarlo";
  w.kernel = b.build();
  w.default_n = 1u << 19;
  w.test_n = 512;
  const KernelIR ir = w.kernel;
  w.dims = [](std::uint64_t n_) { return dims1d(n_); };
  w.buffers = [](std::uint64_t n_) {
    return std::vector<BufferSpec>{{4 * n_, false, true}};
  };
  w.args = [](const std::vector<std::uint64_t>& a, std::uint64_t n_) {
    KernelArgs args;
    args.push_ptr(a[0]);
    args.push_i64(kPaths);
    args.push_i64(static_cast<std::int64_t>(n_));
    return args;
  };
  w.profile = [ir](std::uint64_t n_) {
    return guarded_loop_profile(ir, dims1d(n_), n_, "p", kPaths);
  };
  w.behavior = [](std::uint64_t n_) {
    return MemoryBehavior{4 * n_, n_, 0.9, 0.97};
  };
  w.traits.coalescable = false;  // RNG streams are seeded per global id
  w.traits.iterations = 25;
  w.traits.launches_per_iter = 1;
  w.traits.noncuda_guest_instrs = 120000;  // option table file I/O
  return w;
}

Workload make_nbody() {
  // All-pairs gravitational step over 1D positions.
  KernelBuilder b("nbody", 4);
  const auto ppos = b.reg(), pvel = b.reg(), nbodies = b.reg(), n = b.reg(),
             gid = b.reg();
  b.block("entry");
  b.ld_param(ppos, 0);
  b.ld_param(pvel, 1);
  b.ld_param(nbodies, 2);
  b.ld_param(n, 3);
  emit_guard(b, gid, n);

  const auto my_addr = b.reg(), my_pos = b.reg(), acc = b.reg(), eps = b.reg(),
             ptr = b.reg(), c4 = b.reg();
  b.addr_of(my_addr, ppos, gid, 2);
  b.ld_global_f32(my_pos, my_addr);
  b.mov_imm_f32(acc, 0.0f);
  b.mov_imm_f32(eps, 1e-4f);
  b.mov(ptr, ppos);
  b.mov_imm_i(c4, 4);

  const auto j = b.reg(), one = b.reg();
  b.mov_imm_i(j, 0);
  b.mov_imm_i(one, 1);
  auto loop = b.loop_begin(j, nbodies, one, "j");
  const auto other = b.reg(), d = b.reg(), r2 = b.reg(), inv = b.reg(), inv3 = b.reg();
  b.ld_global_f32(other, ptr);
  b.sub_f32(d, other, my_pos);
  b.fma_f32(r2, d, d, eps);
  b.rsqrt_f32(inv, r2);
  b.mul_f32(inv3, inv, inv);
  b.mul_f32(inv3, inv3, inv);
  b.fma_f32(acc, inv3, d, acc);
  b.add_i(ptr, ptr, c4);
  b.loop_end(loop);

  const auto vaddr = b.reg(), vel = b.reg(), dt = b.reg();
  b.addr_of(vaddr, pvel, gid, 2);
  b.ld_global_f32(vel, vaddr);
  b.mov_imm_f32(dt, 0.001f);
  b.fma_f32(vel, acc, dt, vel);
  b.st_global_f32(vel, vaddr);
  b.ret();
  b.block("exit");
  b.ret();

  Workload w;
  w.app = "nbody";
  w.kernel = b.build();
  w.default_n = 16384;
  w.test_n = 128;
  const KernelIR ir = w.kernel;
  w.dims = [](std::uint64_t n_) { return dims1d(n_); };
  w.buffers = [](std::uint64_t n_) {
    return std::vector<BufferSpec>{{4 * n_, true, false}, {4 * n_, true, true}};
  };
  w.args = [](const std::vector<std::uint64_t>& a, std::uint64_t n_) {
    KernelArgs args;
    args.push_ptr(a[0]);
    args.push_ptr(a[1]);
    args.push_i64(static_cast<std::int64_t>(n_));
    args.push_i64(static_cast<std::int64_t>(n_));
    return args;
  };
  w.profile = [ir](std::uint64_t n_) {
    return guarded_loop_profile(ir, dims1d(n_), n_, "j", n_);
  };
  w.behavior = [](std::uint64_t n_) {
    // The j-loop load broadcasts across the warp: ~1/32 line probes.
    return MemoryBehavior{8 * n_, n_ * n_ / 32 + 3 * n_, 0.95, 0.9};
  };
  w.fill_inputs = [](std::uint64_t, std::vector<std::vector<std::uint8_t>>& bufs) {
    fill_f32_pattern(bufs[0], -10.0f, 10.0f, 0x51);  // positions
    fill_f32_pattern(bufs[1], -1.0f, 1.0f, 0x52);    // velocities
  };
  w.traits.coalescable = false;  // all-pairs interaction, not elementwise
  w.traits.iterations = 30;
  w.traits.launches_per_iter = 1;
  w.traits.noncuda_guest_instrs = 170000;  // OpenGL body rendering
  return w;
}

Workload make_convolution_separable() {
  // Row pass of a separable 17-tap convolution.
  constexpr std::int64_t kTaps = 17;
  KernelBuilder b("convolutionSeparable", 4);
  const auto pin = b.reg(), pcoef = b.reg(), pout = b.reg(), n = b.reg(), gid = b.reg();
  b.block("entry");
  b.ld_param(pin, 0);
  b.ld_param(pcoef, 1);
  b.ld_param(pout, 2);
  b.ld_param(n, 3);
  emit_guard(b, gid, n);

  const auto zero = b.reg(), one = b.reg(), nm1 = b.reg(), radius = b.reg(),
             taps = b.reg(), acc = b.reg();
  b.mov_imm_i(zero, 0);
  b.mov_imm_i(one, 1);
  b.sub_i(nm1, n, one);
  b.mov_imm_i(radius, kTaps / 2);
  b.mov_imm_i(taps, kTaps);
  b.mov_imm_f32(acc, 0.0f);

  const auto t = b.reg();
  b.mov_imm_i(t, 0);
  auto loop = b.loop_begin(t, taps, one, "t");
  const auto idx = b.reg(), addr = b.reg(), x = b.reg(), caddr = b.reg(), c = b.reg();
  b.add_i(idx, gid, t);
  b.sub_i(idx, idx, radius);
  b.max_i(idx, idx, zero);
  b.min_i(idx, idx, nm1);
  b.addr_of(addr, pin, idx, 2);
  b.ld_global_f32(x, addr);
  b.addr_of(caddr, pcoef, t, 2);
  b.ld_global_f32(c, caddr);
  b.fma_f32(acc, x, c, acc);
  b.loop_end(loop);

  const auto oaddr = b.reg();
  b.addr_of(oaddr, pout, gid, 2);
  b.st_global_f32(acc, oaddr);
  b.ret();
  b.block("exit");
  b.ret();

  Workload w;
  w.app = "convolutionSeparable";
  w.kernel = b.build();
  w.default_n = 4u << 20;
  w.test_n = 1024;
  const KernelIR ir = w.kernel;
  w.dims = [](std::uint64_t n_) { return dims1d(n_); };
  w.buffers = [](std::uint64_t n_) {
    return std::vector<BufferSpec>{
        {4 * n_, true, false}, {4 * kTaps, true, false}, {4 * n_, false, true}};
  };
  w.args = [](const std::vector<std::uint64_t>& a, std::uint64_t n_) {
    KernelArgs args;
    args.push_ptr(a[0]);
    args.push_ptr(a[1]);
    args.push_ptr(a[2]);
    args.push_i64(static_cast<std::int64_t>(n_));
    return args;
  };
  w.profile = [ir](std::uint64_t n_) {
    return guarded_loop_profile(ir, dims1d(n_), n_, "t", kTaps);
  };
  w.behavior = [](std::uint64_t n_) {
    return MemoryBehavior{8 * n_ + 4 * kTaps, (2 * kTaps + 1) * n_, 0.9, 0.9};
  };
  w.traits.coalescable = false;  // halo regions break across arena seams
  w.traits.iterations = 30;
  w.traits.launches_per_iter = 2;
  w.traits.noncuda_guest_instrs = 3000;
  return w;
}

Workload make_recursive_gaussian() {
  // IIR Gaussian along columns: one thread per column, serial over rows.
  constexpr std::int64_t kHeight = 256;
  KernelBuilder b("recursiveGaussian", 4);
  const auto pin = b.reg(), pout = b.reg(), height = b.reg(), n = b.reg(), gid = b.reg();
  b.block("entry");
  b.ld_param(pin, 0);
  b.ld_param(pout, 1);
  b.ld_param(height, 2);
  b.ld_param(n, 3);  // n = image width = thread count
  emit_guard(b, gid, n);

  const auto a_coef = b.reg(), b_coef = b.reg(), yprev = b.reg(), stride = b.reg(),
             in_ptr = b.reg(), out_ptr = b.reg(), c4 = b.reg();
  b.mov_imm_f32(a_coef, 0.25f);
  b.mov_imm_f32(b_coef, 0.75f);
  b.mov_imm_f32(yprev, 0.0f);
  b.mov_imm_i(c4, 4);
  b.mul_i(stride, n, c4);
  b.addr_of(in_ptr, pin, gid, 2);
  b.addr_of(out_ptr, pout, gid, 2);

  const auto r = b.reg(), one = b.reg();
  b.mov_imm_i(r, 0);
  b.mov_imm_i(one, 1);
  auto loop = b.loop_begin(r, height, one, "r");
  const auto x = b.reg(), t = b.reg();
  b.ld_global_f32(x, in_ptr);
  b.mul_f32(t, b_coef, yprev);
  b.fma_f32(yprev, a_coef, x, t);
  b.st_global_f32(yprev, out_ptr);
  b.add_i(in_ptr, in_ptr, stride);
  b.add_i(out_ptr, out_ptr, stride);
  b.loop_end(loop);
  b.ret();
  b.block("exit");
  b.ret();

  Workload w;
  w.app = "recursiveGaussian";
  w.kernel = b.build();
  w.default_n = 8192;  // 8192-wide image, 256 rows
  w.test_n = 64;
  const KernelIR ir = w.kernel;
  w.dims = [](std::uint64_t n_) { return dims1d(n_); };
  w.buffers = [](std::uint64_t n_) {
    const std::uint64_t bytes = 4 * n_ * kHeight;
    return std::vector<BufferSpec>{{bytes, true, false}, {bytes, false, true}};
  };
  w.args = [](const std::vector<std::uint64_t>& a, std::uint64_t n_) {
    KernelArgs args;
    args.push_ptr(a[0]);
    args.push_ptr(a[1]);
    args.push_i64(kHeight);
    args.push_i64(static_cast<std::int64_t>(n_));
    return args;
  };
  w.profile = [ir](std::uint64_t n_) {
    return guarded_loop_profile(ir, dims1d(n_), n_, "r", kHeight);
  };
  w.behavior = [](std::uint64_t n_) {
    return MemoryBehavior{8 * n_ * kHeight, 2 * n_ * kHeight, 0.9, 0.95};
  };
  w.coalesce = [](std::uint64_t n_) {
    cuda::CoalesceInfo c;
    c.eligible = true;
    c.key = "recursiveGaussian.col";
    c.elems = n_;  // columns concatenate cleanly when height matches
    c.buffers = {};  // buffers are column-major slabs; only timing merges
    c.size_arg_index = 3;
    c.block_x = 256;
    return c;
  };
  // Columns of independent images cannot share a width parameter without
  // re-striding, so coalescing is not attempted despite the linear layout.
  w.traits.coalescable = false;
  w.traits.iterations = 30;
  w.traits.launches_per_iter = 3;
  w.traits.noncuda_guest_instrs = 150000;  // image file I/O
  return w;
}

Workload make_stereo_disparity() {
  // Winner-takes-all disparity search over a 16-level range; SAD over
  // single pixels (integer absolute differences).
  constexpr std::int64_t kLevels = 16;
  KernelBuilder b("stereoDisparity", 4);
  const auto pleft = b.reg(), pright = b.reg(), pdisp = b.reg(), n = b.reg(),
             gid = b.reg();
  b.block("entry");
  b.ld_param(pleft, 0);
  b.ld_param(pright, 1);
  b.ld_param(pdisp, 2);
  b.ld_param(n, 3);
  emit_guard(b, gid, n);

  const auto laddr = b.reg(), left = b.reg(), one = b.reg(), nm1 = b.reg(),
             best = b.reg(), best_d = b.reg(), levels = b.reg();
  b.add_i(laddr, pleft, gid);
  b.ld_global_u8(left, laddr);
  b.mov_imm_i(one, 1);
  b.sub_i(nm1, n, one);
  b.mov_imm_i(best, 1 << 20);
  b.mov_imm_i(best_d, 0);
  b.mov_imm_i(levels, kLevels);

  const auto d = b.reg();
  b.mov_imm_i(d, 0);
  auto loop = b.loop_begin(d, levels, one, "d");
  const auto idx = b.reg(), raddr = b.reg(), right = b.reg(), diff = b.reg(),
             better = b.reg();
  b.add_i(idx, gid, d);
  b.min_i(idx, idx, nm1);
  b.add_i(raddr, pright, idx);
  b.ld_global_u8(right, raddr);
  b.sub_i(diff, left, right);
  b.abs_i(diff, diff);
  b.set_lt_i(better, diff, best);
  b.select(best, better, diff, best);
  b.select(best_d, better, d, best_d);
  b.loop_end(loop);

  const auto oaddr = b.reg();
  b.addr_of(oaddr, pdisp, gid, 2);
  b.st_global_i32(best_d, oaddr);
  b.ret();
  b.block("exit");
  b.ret();

  Workload w;
  w.app = "stereoDisparity";
  w.kernel = b.build();
  w.default_n = 2u << 20;
  w.test_n = 1024;
  const KernelIR ir = w.kernel;
  w.dims = [](std::uint64_t n_) { return dims1d(n_); };
  w.buffers = [](std::uint64_t n_) {
    return std::vector<BufferSpec>{{n_, true, false}, {n_, true, false},
                                   {4 * n_, false, true}};
  };
  w.args = [](const std::vector<std::uint64_t>& a, std::uint64_t n_) {
    KernelArgs args;
    args.push_ptr(a[0]);
    args.push_ptr(a[1]);
    args.push_ptr(a[2]);
    args.push_i64(static_cast<std::int64_t>(n_));
    return args;
  };
  w.profile = [ir](std::uint64_t n_) {
    return guarded_loop_profile(ir, dims1d(n_), n_, "d", kLevels);
  };
  w.behavior = [](std::uint64_t n_) {
    return MemoryBehavior{6 * n_, (kLevels + 2) * n_, 0.9, 0.9};
  };
  w.coalesce = [](std::uint64_t n_) {
    cuda::CoalesceInfo c;
    c.eligible = true;
    c.key = "stereoDisparity.u8";
    c.elems = n_;
    c.buffers = {{0, 1, false}, {1, 1, false}, {2, 4, true}};
    c.size_arg_index = 3;
    c.block_x = 256;
    return c;
  };
  w.traits.coalescable = true;
  w.traits.iterations = 25;
  w.traits.launches_per_iter = 2;
  w.traits.iter_h2d_bytes = 2u << 20;  // fresh stereo pair per iteration
  w.traits.noncuda_guest_instrs = 90000;
  return w;
}

}  // namespace sigvp::workloads
