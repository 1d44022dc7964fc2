#include <algorithm>
#include <cstdint>

#include "workloads/suite.hpp"

namespace sigvp::workloads {

Workload make_vector_add() {
  KernelBuilder b("vectorAdd", 4);
  const auto pa = b.reg(), pb = b.reg(), pc = b.reg(), n = b.reg(), gid = b.reg();
  b.block("entry");
  b.ld_param(pa, 0);
  b.ld_param(pb, 1);
  b.ld_param(pc, 2);
  b.ld_param(n, 3);
  emit_guard(b, gid, n);
  const auto av = b.reg(), bv = b.reg(), cv = b.reg(), addr = b.reg();
  b.addr_of(addr, pa, gid, 2);
  b.ld_global_f32(av, addr);
  b.addr_of(addr, pb, gid, 2);
  b.ld_global_f32(bv, addr);
  b.add_f32(cv, av, bv);
  b.addr_of(addr, pc, gid, 2);
  b.st_global_f32(cv, addr);
  emit_guard_exit(b);

  Workload w;
  w.app = "vectorAdd";
  w.kernel = b.build();
  w.default_n = 4u << 20;
  w.test_n = 1500;  // deliberately not a multiple of the block size
  const KernelIR ir = w.kernel;
  w.dims = [](std::uint64_t n_) { return dims1d(n_); };
  w.buffers = [](std::uint64_t n_) {
    return std::vector<BufferSpec>{{4 * n_, true, false}, {4 * n_, true, false},
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
  w.profile = [ir](std::uint64_t n_) { return guarded_profile(ir, dims1d(n_), n_); };
  w.behavior = [](std::uint64_t n_) {
    return MemoryBehavior{12 * n_, 3 * n_, 0.9, 0.97};
  };
  w.coalesce = [](std::uint64_t n_) {
    return linear_coalesce("vectorAdd.f32", n_,
                           {{0, 4, false}, {1, 4, false}, {2, 4, true}}, 3);
  };
  w.fill_inputs = [](std::uint64_t, std::vector<std::vector<std::uint8_t>>& bufs) {
    fill_f32_pattern(bufs[0], -4.0f, 4.0f, 0x11);
    fill_f32_pattern(bufs[1], -4.0f, 4.0f, 0x22);
  };
  w.traits.coalescable = true;
  w.traits.iterations = 40;
  w.traits.launches_per_iter = 4;
  w.traits.noncuda_guest_instrs = 4000;
  return w;
}

Workload make_black_scholes() {
  KernelBuilder b("BlackScholes", 6);
  const auto ps = b.reg(), px = b.reg(), pt = b.reg(), pcall = b.reg(), pput = b.reg(),
             n = b.reg(), gid = b.reg();
  b.block("entry");
  b.ld_param(ps, 0);
  b.ld_param(px, 1);
  b.ld_param(pt, 2);
  b.ld_param(pcall, 3);
  b.ld_param(pput, 4);
  b.ld_param(n, 5);
  emit_guard(b, gid, n);

  const auto addr = b.reg(), s = b.reg(), x = b.reg(), t = b.reg();
  b.addr_of(addr, ps, gid, 2);
  b.ld_global_f32(s, addr);
  b.addr_of(addr, px, gid, 2);
  b.ld_global_f32(x, addr);
  b.addr_of(addr, pt, gid, 2);
  b.ld_global_f32(t, addr);

  // Black-Scholes with the logistic approximation of the cumulative normal:
  // CND(d) ~= 1 / (1 + exp(-1.702 d)).
  const auto r = b.reg(), vol = b.reg(), half_v2 = b.reg();
  b.mov_imm_f32(r, 0.02f);
  b.mov_imm_f32(vol, 0.30f);
  b.mov_imm_f32(half_v2, 0.02f + 0.5f * 0.30f * 0.30f);  // r + sigma^2/2

  const auto sqrt_t = b.reg(), sig_sqrt_t = b.reg(), ratio = b.reg(), log_r = b.reg();
  b.sqrt_f32(sqrt_t, t);
  b.mul_f32(sig_sqrt_t, vol, sqrt_t);
  b.div_f32(ratio, s, x);
  b.log_f32(log_r, ratio);

  const auto d1 = b.reg(), d2 = b.reg(), tmp = b.reg();
  b.fma_f32(tmp, half_v2, t, log_r);     // log(S/X) + (r + sigma^2/2) t
  b.div_f32(d1, tmp, sig_sqrt_t);
  b.sub_f32(d2, d1, sig_sqrt_t);

  auto cnd = [&](KernelBuilder::Reg out, KernelBuilder::Reg d) {
    const auto k = b.reg(), e = b.reg(), one = b.reg(), den = b.reg();
    b.mov_imm_f32(k, -1.702f);
    b.mul_f32(e, k, d);
    b.exp_f32(e, e);
    b.mov_imm_f32(one, 1.0f);
    b.add_f32(den, one, e);
    b.div_f32(out, one, den);
  };
  const auto cnd1 = b.reg(), cnd2 = b.reg();
  cnd(cnd1, d1);
  cnd(cnd2, d2);

  const auto neg_rt = b.reg(), disc = b.reg(), xd = b.reg(), call = b.reg(), put = b.reg();
  b.mul_f32(neg_rt, r, t);
  b.neg_f32(neg_rt, neg_rt);
  b.exp_f32(disc, neg_rt);
  b.mul_f32(xd, x, disc);

  const auto sc = b.reg(), xc = b.reg();
  b.mul_f32(sc, s, cnd1);
  b.mul_f32(xc, xd, cnd2);
  b.sub_f32(call, sc, xc);

  // put = call - S + X e^{-rt}  (put-call parity)
  b.sub_f32(put, call, s);
  b.add_f32(put, put, xd);

  b.addr_of(addr, pcall, gid, 2);
  b.st_global_f32(call, addr);
  b.addr_of(addr, pput, gid, 2);
  b.st_global_f32(put, addr);
  emit_guard_exit(b);

  Workload w;
  w.app = "BlackScholes";
  w.kernel = b.build();
  w.default_n = 4u << 20;
  w.test_n = 2000;
  w.estimate_n = 65536;
  const KernelIR ir = w.kernel;
  w.dims = [](std::uint64_t n_) { return dims1d(n_); };
  w.buffers = [](std::uint64_t n_) {
    return std::vector<BufferSpec>{{4 * n_, true, false},
                                   {4 * n_, true, false},
                                   {4 * n_, true, false},
                                   {4 * n_, false, true},
                                   {4 * n_, false, true}};
  };
  w.args = [](const std::vector<std::uint64_t>& a, std::uint64_t n_) {
    KernelArgs args;
    for (int i = 0; i < 5; ++i) args.push_ptr(a[static_cast<std::size_t>(i)]);
    args.push_i64(static_cast<std::int64_t>(n_));
    return args;
  };
  w.profile = [ir](std::uint64_t n_) { return guarded_profile(ir, dims1d(n_), n_); };
  w.behavior = [](std::uint64_t n_) {
    return MemoryBehavior{20 * n_, 5 * n_, 0.9, 0.97};
  };
  w.coalesce = [](std::uint64_t n_) {
    return linear_coalesce(
        "BlackScholes.f32", n_,
        {{0, 4, false}, {1, 4, false}, {2, 4, false}, {3, 4, true}, {4, 4, true}}, 5);
  };
  w.fill_inputs = [](std::uint64_t, std::vector<std::vector<std::uint8_t>>& bufs) {
    fill_f32_pattern(bufs[0], 15.0f, 80.0f, 0x31);  // spot
    fill_f32_pattern(bufs[1], 25.0f, 55.0f, 0x32);  // strike
    fill_f32_pattern(bufs[2], 0.1f, 1.5f, 0x33);    // expiry
  };
  w.traits.coalescable = true;
  w.traits.iterations = 40;
  w.traits.launches_per_iter = 6;
  w.traits.noncuda_guest_instrs = 3000;
  return w;
}

Workload make_simple_gl() {
  // simpleGL's vertex kernel: animate a sine-wave height field. The real app
  // spends much of its time in OpenGL display calls, which stay on the VP.
  KernelBuilder b("simpleGL", 4);
  const auto ppos = b.reg(), width = b.reg(), timev = b.reg(), n = b.reg(), gid = b.reg();
  b.block("entry");
  b.ld_param(ppos, 0);
  b.ld_param(width, 1);
  b.ld_param(timev, 2);
  b.ld_param(n, 3);
  emit_guard(b, gid, n);

  const auto xi = b.reg(), yi = b.reg(), fx = b.reg(), fy = b.reg();
  b.rem_i(xi, gid, width);
  b.div_i(yi, gid, width);
  b.cvt_i_to_f32(fx, xi);
  b.cvt_i_to_f32(fy, yi);

  const auto freq = b.reg(), u = b.reg(), v = b.reg(), su = b.reg(), cv2 = b.reg(),
             h = b.reg(), addr = b.reg();
  b.mov_imm_f32(freq, 4.0f);
  b.mul_f32(u, fx, freq);
  b.add_f32(u, u, timev);
  b.mul_f32(v, fy, freq);
  b.add_f32(v, v, timev);
  b.sin_f32(su, u);
  b.cos_f32(cv2, v);
  b.mul_f32(h, su, cv2);
  b.addr_of(addr, ppos, gid, 2);
  b.st_global_f32(h, addr);
  emit_guard_exit(b);

  Workload w;
  w.app = "simpleGL";
  w.kernel = b.build();
  w.default_n = 1u << 21;
  w.test_n = 900;
  const KernelIR ir = w.kernel;
  w.dims = [](std::uint64_t n_) { return dims1d(n_); };
  w.buffers = [](std::uint64_t n_) {
    return std::vector<BufferSpec>{{4 * n_, false, true}};
  };
  w.args = [](const std::vector<std::uint64_t>& a, std::uint64_t n_) {
    KernelArgs args;
    args.push_ptr(a[0]);
    args.push_i64(256);  // mesh width
    args.push_f32(0.5f);
    args.push_i64(static_cast<std::int64_t>(n_));
    return args;
  };
  w.profile = [ir](std::uint64_t n_) { return guarded_profile(ir, dims1d(n_), n_); };
  w.behavior = [](std::uint64_t n_) {
    return MemoryBehavior{4 * n_, n_, 0.9, 0.97};
  };
  w.coalesce = [](std::uint64_t n_) {
    return linear_coalesce("simpleGL.f32", n_, {{0, 4, true}}, 3);
  };
  w.traits.coalescable = true;
  w.traits.iterations = 60;
  w.traits.launches_per_iter = 3;
  // Heavy OpenGL rendering per frame stays on the guest (paper calls this
  // out as the reason simpleGL's speedup saturates).
  w.traits.noncuda_guest_instrs = 220000;
  return w;
}

Workload make_smoke_particles() {
  KernelBuilder b("smokeParticles", 4);
  const auto ppos = b.reg(), pvel = b.reg(), dt = b.reg(), n = b.reg(), gid = b.reg();
  b.block("entry");
  b.ld_param(ppos, 0);
  b.ld_param(pvel, 1);
  b.ld_param(dt, 2);
  b.ld_param(n, 3);
  emit_guard(b, gid, n);

  const auto pos = b.reg(), vel = b.reg(), addr_p = b.reg(), addr_v = b.reg();
  b.addr_of(addr_p, ppos, gid, 2);
  b.ld_global_f32(pos, addr_p);
  b.addr_of(addr_v, pvel, gid, 2);
  b.ld_global_f32(vel, addr_v);

  const auto damp = b.reg(), grav = b.reg();
  b.mov_imm_f32(damp, 0.995f);
  b.mov_imm_f32(grav, -9.8f);
  b.mul_f32(vel, vel, damp);
  b.fma_f32(vel, grav, dt, vel);   // vel += g*dt
  b.fma_f32(pos, vel, dt, pos);    // pos += vel*dt
  b.st_global_f32(pos, addr_p);
  b.st_global_f32(vel, addr_v);
  emit_guard_exit(b);

  Workload w;
  w.app = "smokeParticles";
  w.kernel = b.build();
  w.default_n = 1u << 22;
  w.test_n = 1024;
  const KernelIR ir = w.kernel;
  w.dims = [](std::uint64_t n_) { return dims1d(n_); };
  w.buffers = [](std::uint64_t n_) {
    return std::vector<BufferSpec>{{4 * n_, true, true}, {4 * n_, true, true}};
  };
  w.args = [](const std::vector<std::uint64_t>& a, std::uint64_t n_) {
    KernelArgs args;
    args.push_ptr(a[0]);
    args.push_ptr(a[1]);
    args.push_f32(0.01f);
    args.push_i64(static_cast<std::int64_t>(n_));
    return args;
  };
  w.profile = [ir](std::uint64_t n_) { return guarded_profile(ir, dims1d(n_), n_); };
  w.behavior = [](std::uint64_t n_) {
    return MemoryBehavior{8 * n_, 4 * n_, 0.9, 0.97};
  };
  // Paper: smokeParticles is one of the kernels the two optimizations do
  // NOT speed up (memory management pattern); its grid is large and aligned
  // and the app is OpenGL-bound, so no coalescing is attempted.
  w.traits.coalescable = false;
  w.traits.iterations = 40;
  w.traits.launches_per_iter = 2;
  w.traits.noncuda_guest_instrs = 180000;
  return w;
}

Workload make_merge_sort() {
  // One compare-exchange step of a bitonic sorting network over i64 keys.
  // The mergeSort app launches a cascade of these per iteration, which is
  // why launch overhead dominates it — and why the paper measured its best
  // gain (10x) from the two optimizations.
  KernelBuilder b("mergeSortStep", 4);
  const auto pdata = b.reg(), jp = b.reg(), kp = b.reg(), n = b.reg(), gid = b.reg();
  b.block("entry");
  b.ld_param(pdata, 0);
  b.ld_param(jp, 1);
  b.ld_param(kp, 2);
  b.ld_param(n, 3);
  emit_guard(b, gid, n);

  const auto ixj = b.reg(), is_upper = b.reg();
  b.xor_b(ixj, gid, jp);
  b.set_gt_i(is_upper, ixj, gid);  // handle each pair once

  const auto addr_a = b.reg(), addr_b = b.reg(), va = b.reg(), vb = b.reg();
  // Clamp partner index to n-1 so tail threads stay in bounds (their writes
  // are idempotent swaps with themselves suppressed by is_upper).
  const auto one = b.reg(), nm1 = b.reg(), ixj_c = b.reg();
  b.mov_imm_i(one, 1);
  b.sub_i(nm1, n, one);
  b.min_i(ixj_c, ixj, nm1);
  b.addr_of(addr_a, pdata, gid, 3);
  b.addr_of(addr_b, pdata, ixj_c, 3);
  b.ld_global_i64(va, addr_a);
  b.ld_global_i64(vb, addr_b);

  const auto dir_bit = b.reg(), zero = b.reg(), ascending = b.reg();
  b.and_b(dir_bit, gid, kp);
  b.mov_imm_i(zero, 0);
  b.set_eq_i(ascending, dir_bit, zero);

  const auto gt = b.reg(), lt = b.reg(), want_swap = b.reg(), do_swap = b.reg();
  b.set_gt_i(gt, va, vb);
  b.set_lt_i(lt, va, vb);
  b.select(want_swap, ascending, gt, lt);
  b.and_b(do_swap, want_swap, is_upper);

  const auto na = b.reg(), nb = b.reg();
  b.select(na, do_swap, vb, va);
  b.select(nb, do_swap, va, vb);
  b.st_global_i64(na, addr_a);
  b.st_global_i64(nb, addr_b);
  emit_guard_exit(b);

  Workload w;
  w.app = "mergeSort";
  w.kernel = b.build();
  w.default_n = 1u << 20;
  w.test_n = 256;
  const KernelIR ir = w.kernel;
  w.dims = [](std::uint64_t n_) { return dims1d(n_); };
  w.buffers = [](std::uint64_t n_) {
    return std::vector<BufferSpec>{{8 * n_, true, true}};
  };
  w.args = [](const std::vector<std::uint64_t>& a, std::uint64_t n_) {
    KernelArgs args;
    args.push_ptr(a[0]);
    args.push_i64(1);  // j
    args.push_i64(2);  // k
    args.push_i64(static_cast<std::int64_t>(n_));
    return args;
  };
  w.profile = [ir](std::uint64_t n_) { return guarded_profile(ir, dims1d(n_), n_); };
  w.behavior = [](std::uint64_t n_) {
    return MemoryBehavior{8 * n_, 4 * n_, 0.4, 0.8};
  };
  w.coalesce = [](std::uint64_t n_) {
    return linear_coalesce("mergeSortStep.i64", n_, {{0, 8, true}}, 3);
  };
  w.traits.coalescable = true;
  w.traits.iterations = 25;
  w.traits.launches_per_iter = 36;  // bitonic cascade of tiny steps
  w.traits.noncuda_guest_instrs = 5000;
  return w;
}

Workload make_histogram() {
  KernelBuilder b("histogram", 3);
  const auto pdata = b.reg(), phist = b.reg(), n = b.reg(), gid = b.reg();
  b.block("entry");
  b.ld_param(pdata, 0);
  b.ld_param(phist, 1);
  b.ld_param(n, 2);
  emit_guard(b, gid, n);

  const auto addr = b.reg(), v = b.reg(), haddr = b.reg(), one = b.reg(), old = b.reg();
  b.add_i(addr, pdata, gid);  // u8 elements: stride 1
  b.ld_global_u8(v, addr);
  b.addr_of(haddr, phist, v, 3);
  b.mov_imm_i(one, 1);
  b.atom_add_global_i64(old, one, haddr);
  emit_guard_exit(b);

  Workload w;
  w.app = "histogram";
  w.kernel = b.build();
  w.default_n = 32u << 20;
  w.test_n = 4096;
  const KernelIR ir = w.kernel;
  w.dims = [](std::uint64_t n_) { return dims1d(n_); };
  w.buffers = [](std::uint64_t n_) {
    return std::vector<BufferSpec>{{n_, true, false}, {256 * 8, false, true}};
  };
  w.args = [](const std::vector<std::uint64_t>& a, std::uint64_t n_) {
    KernelArgs args;
    args.push_ptr(a[0]);
    args.push_ptr(a[1]);
    args.push_i64(static_cast<std::int64_t>(n_));
    return args;
  };
  w.profile = [ir](std::uint64_t n_) { return guarded_profile(ir, dims1d(n_), n_); };
  w.behavior = [](std::uint64_t n_) {
    return MemoryBehavior{n_ + 2048, 2 * n_, 0.8, 0.9};
  };
  // Atomic scatter writes don't relocate safely across a merged arena
  // unless the histogram buffer is shared; keep histogram un-coalesced.
  w.traits.coalescable = false;
  w.traits.iterations = 30;
  w.traits.launches_per_iter = 2;
  w.traits.iter_h2d_bytes = 1u << 20;  // streams new data chunks each pass
  w.traits.noncuda_guest_instrs = 40000;  // reads input files
  return w;
}

Workload make_segmentation_tree() {
  // segmentationTreeThrust stand-in: one Hillis-Steele scan step over f32
  // edge weights — the memory-bound primitive Thrust's tree construction
  // leans on.
  KernelBuilder b("segScanStep", 4);
  const auto pin = b.reg(), pout = b.reg(), stride = b.reg(), n = b.reg(), gid = b.reg();
  b.block("entry");
  b.ld_param(pin, 0);
  b.ld_param(pout, 1);
  b.ld_param(stride, 2);
  b.ld_param(n, 3);
  emit_guard(b, gid, n);

  const auto addr = b.reg(), x = b.reg(), has_prev = b.reg();
  b.addr_of(addr, pin, gid, 2);
  b.ld_global_f32(x, addr);
  b.set_ge_i(has_prev, gid, stride);

  const auto zero = b.reg(), prev_idx = b.reg(), paddr = b.reg(), y = b.reg(),
             yz = b.reg(), fzero = b.reg(), sum = b.reg();
  b.mov_imm_i(zero, 0);
  b.sub_i(prev_idx, gid, stride);
  b.max_i(prev_idx, prev_idx, zero);  // clamp; contribution masked below
  b.addr_of(paddr, pin, prev_idx, 2);
  b.ld_global_f32(y, paddr);
  b.mov_imm_f32(fzero, 0.0f);
  b.select(yz, has_prev, y, fzero);
  b.add_f32(sum, x, yz);
  b.addr_of(addr, pout, gid, 2);
  b.st_global_f32(sum, addr);
  emit_guard_exit(b);

  Workload w;
  w.app = "segmentationTreeThrust";
  w.kernel = b.build();
  w.default_n = 4u << 20;
  w.test_n = 1024;
  const KernelIR ir = w.kernel;
  w.dims = [](std::uint64_t n_) { return dims1d(n_); };
  w.buffers = [](std::uint64_t n_) {
    return std::vector<BufferSpec>{{4 * n_, true, false}, {4 * n_, false, true}};
  };
  w.args = [](const std::vector<std::uint64_t>& a, std::uint64_t n_) {
    KernelArgs args;
    args.push_ptr(a[0]);
    args.push_ptr(a[1]);
    args.push_i64(1);
    args.push_i64(static_cast<std::int64_t>(n_));
    return args;
  };
  w.profile = [ir](std::uint64_t n_) { return guarded_profile(ir, dims1d(n_), n_); };
  w.behavior = [](std::uint64_t n_) {
    return MemoryBehavior{8 * n_, 3 * n_, 0.85, 0.95};
  };
  w.coalesce = [](std::uint64_t n_) {
    return linear_coalesce("segScanStep.f32", n_, {{0, 4, false}, {1, 4, true}}, 3);
  };
  w.traits.coalescable = true;
  w.traits.iterations = 20;
  w.traits.launches_per_iter = 21;  // log2(n) scan steps
  w.traits.noncuda_guest_instrs = 60000;  // graph I/O
  return w;
}

}  // namespace sigvp::workloads
