// App-shaped multi-kernel pipelines (ROADMAP item 4): graph analytics
// (BFS/PageRank over a seeded fixed-degree CSR), ML inference (matmul →
// bias/ReLU → group softmax), and a camera/codec-style streaming pipeline
// (gain → 3-tap blur → quantize). Each app chains PipelineStage launches
// over one shared buffer set, with per-VP scalar jitter so requests from
// different VPs are *almost* identical — same kernel fingerprint, slightly
// different scalar args — which is the regime the re-scheduler's Kernel
// Coalescing has to discriminate (merge only byte-equal scalars).

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "util/check.hpp"
#include "workloads/suite.hpp"

namespace sigvp::workloads {

namespace {

constexpr std::uint32_t kGraphDegree = 8;
constexpr std::uint32_t kMlInnerDim = 32;
constexpr std::uint32_t kSoftmaxGroup = 32;

void fill_f32_formula(std::vector<std::uint8_t>& buf, std::uint64_t count,
                      const std::function<float(std::uint64_t)>& f) {
  for (std::uint64_t i = 0; i < count && (i + 1) * 4 <= buf.size(); ++i) {
    const float v = f(i);
    std::memcpy(buf.data() + 4 * i, &v, 4);
  }
}

// --- graphAnalytics kernels ---------------------------------------------------

KernelIR build_bfs_step() {
  KernelBuilder b("bfsStep", 4);
  const auto pn = b.reg(), pdin = b.reg(), pdout = b.reg(), n = b.reg(), gid = b.reg();
  b.block("entry");
  b.ld_param(pn, 0);
  b.ld_param(pdin, 1);
  b.ld_param(pdout, 2);
  b.ld_param(n, 3);
  emit_guard(b, gid, n);

  const auto addr = b.reg(), best = b.reg(), one_f = b.reg(), base_nbr = b.reg();
  b.addr_of(addr, pdin, gid, 2);
  b.ld_global_f32(best, addr);
  b.mov_imm_f32(one_f, 1.0f);
  // Row base: 8 neighbors x 8 bytes = 64 B per vertex (beyond addr_of's
  // 16-byte stride cap, so scale the index explicitly).
  const auto degc = b.reg(), row = b.reg();
  b.mov_imm_i(degc, kGraphDegree);
  b.mul_i(row, gid, degc);
  b.addr_of(base_nbr, pn, row, 3);

  const auto j = b.reg(), deg = b.reg(), step = b.reg();
  b.mov_imm_i(j, 0);
  b.mov_imm_i(deg, kGraphDegree);
  b.mov_imm_i(step, 1);
  auto loop = b.loop_begin(j, deg, step, "nbr");
  const auto u = b.reg(), du = b.reg(), cand = b.reg();
  b.addr_of(addr, base_nbr, j, 3);
  b.ld_global_i64(u, addr);
  b.addr_of(addr, pdin, u, 2);
  b.ld_global_f32(du, addr);
  b.add_f32(cand, du, one_f);
  b.min_f32(best, best, cand);
  b.loop_end(loop);

  b.addr_of(addr, pdout, gid, 2);
  b.st_global_f32(best, addr);
  emit_guard_exit(b);
  return b.build();
}

KernelIR build_pr_contrib() {
  KernelBuilder b("prContrib", 4);
  const auto prank = b.reg(), pcontrib = b.reg(), n = b.reg(), scale = b.reg(),
             gid = b.reg();
  b.block("entry");
  b.ld_param(prank, 0);
  b.ld_param(pcontrib, 1);
  b.ld_param(n, 2);
  b.ld_param(scale, 3);
  emit_guard(b, gid, n);
  const auto addr = b.reg(), v = b.reg();
  b.addr_of(addr, prank, gid, 2);
  b.ld_global_f32(v, addr);
  b.mul_f32(v, v, scale);
  b.addr_of(addr, pcontrib, gid, 2);
  b.st_global_f32(v, addr);
  emit_guard_exit(b);
  return b.build();
}

KernelIR build_pr_gather() {
  KernelBuilder b("prGather", 5);
  const auto pn = b.reg(), pcontrib = b.reg(), pout = b.reg(), n = b.reg(),
             base = b.reg(), gid = b.reg();
  b.block("entry");
  b.ld_param(pn, 0);
  b.ld_param(pcontrib, 1);
  b.ld_param(pout, 2);
  b.ld_param(n, 3);
  b.ld_param(base, 4);
  emit_guard(b, gid, n);

  const auto addr = b.reg(), acc = b.reg(), base_nbr = b.reg();
  b.mov_imm_f32(acc, 0.0f);
  const auto degc = b.reg(), row = b.reg();
  b.mov_imm_i(degc, kGraphDegree);
  b.mul_i(row, gid, degc);
  b.addr_of(base_nbr, pn, row, 3);  // 64 B per vertex row

  const auto j = b.reg(), deg = b.reg(), step = b.reg();
  b.mov_imm_i(j, 0);
  b.mov_imm_i(deg, kGraphDegree);
  b.mov_imm_i(step, 1);
  auto loop = b.loop_begin(j, deg, step, "nbr");
  const auto u = b.reg(), cu = b.reg();
  b.addr_of(addr, base_nbr, j, 3);
  b.ld_global_i64(u, addr);
  b.addr_of(addr, pcontrib, u, 2);
  b.ld_global_f32(cu, addr);
  b.add_f32(acc, acc, cu);
  b.loop_end(loop);

  b.add_f32(acc, acc, base);
  b.addr_of(addr, pout, gid, 2);
  b.st_global_f32(acc, addr);
  emit_guard_exit(b);
  return b.build();
}

// --- mlInference kernels ------------------------------------------------------

KernelIR build_mlp_matmul() {
  KernelBuilder b("mlpMatmul", 4);
  const auto px = b.reg(), pw = b.reg(), py = b.reg(), n = b.reg(), gid = b.reg();
  b.block("entry");
  b.ld_param(px, 0);
  b.ld_param(pw, 1);
  b.ld_param(py, 2);
  b.ld_param(n, 3);
  emit_guard(b, gid, n);

  const auto addr = b.reg(), acc = b.reg(), base_w = b.reg();
  b.mov_imm_f32(acc, 0.0f);
  const auto dimc = b.reg(), row = b.reg();
  b.mov_imm_i(dimc, kMlInnerDim);
  b.mul_i(row, gid, dimc);
  b.addr_of(base_w, pw, row, 2);  // 32 weights x 4 bytes = 128 B per row

  const auto k = b.reg(), bound = b.reg(), step = b.reg();
  b.mov_imm_i(k, 0);
  b.mov_imm_i(bound, kMlInnerDim);
  b.mov_imm_i(step, 1);
  auto loop = b.loop_begin(k, bound, step, "k");
  const auto xv = b.reg(), wv = b.reg(), t = b.reg();
  b.addr_of(addr, px, k, 2);
  b.ld_global_f32(xv, addr);
  b.addr_of(addr, base_w, k, 2);
  b.ld_global_f32(wv, addr);
  b.mul_f32(t, xv, wv);
  b.add_f32(acc, acc, t);
  b.loop_end(loop);

  b.addr_of(addr, py, gid, 2);
  b.st_global_f32(acc, addr);
  emit_guard_exit(b);
  return b.build();
}

KernelIR build_mlp_bias() {
  KernelBuilder b("mlpBias", 5);
  const auto py0 = b.reg(), pb = b.reg(), py1 = b.reg(), n = b.reg(), gain = b.reg(),
             gid = b.reg();
  b.block("entry");
  b.ld_param(py0, 0);
  b.ld_param(pb, 1);
  b.ld_param(py1, 2);
  b.ld_param(n, 3);
  b.ld_param(gain, 4);
  emit_guard(b, gid, n);
  const auto addr = b.reg(), v = b.reg(), bv = b.reg(), zero = b.reg();
  b.addr_of(addr, py0, gid, 2);
  b.ld_global_f32(v, addr);
  b.addr_of(addr, pb, gid, 2);
  b.ld_global_f32(bv, addr);
  b.add_f32(v, v, bv);
  b.mov_imm_f32(zero, 0.0f);
  b.max_f32(v, v, zero);  // ReLU
  b.mul_f32(v, v, gain);
  b.addr_of(addr, py1, gid, 2);
  b.st_global_f32(v, addr);
  emit_guard_exit(b);
  return b.build();
}

KernelIR build_softmax32() {
  // One thread per group of 32 activations: numerically-stable softmax with
  // a per-VP temperature (max-subtract, exp, normalize). The exp pass parks
  // e^(v-m)/T in the output buffer, the normalize pass divides in place.
  KernelBuilder b("softmax32", 4);
  const auto py = b.reg(), pp = b.reg(), ngroups = b.reg(), invt = b.reg(), gid = b.reg();
  b.block("entry");
  b.ld_param(py, 0);
  b.ld_param(pp, 1);
  b.ld_param(ngroups, 2);
  b.ld_param(invt, 3);
  emit_guard(b, gid, ngroups);

  const auto addr = b.reg(), base_y = b.reg(), base_p = b.reg();
  const auto grpc = b.reg(), row = b.reg();
  b.mov_imm_i(grpc, kSoftmaxGroup);
  b.mul_i(row, gid, grpc);
  b.addr_of(base_y, py, row, 2);  // 32 floats = 128 B per group
  b.addr_of(base_p, pp, row, 2);

  const auto k = b.reg(), bound = b.reg(), step = b.reg();
  const auto m = b.reg(), v = b.reg();
  b.ld_global_f32(m, base_y);
  b.mov_imm_i(k, 1);
  b.mov_imm_i(bound, kSoftmaxGroup);
  b.mov_imm_i(step, 1);
  auto lmax = b.loop_begin(k, bound, step, "max");
  b.addr_of(addr, base_y, k, 2);
  b.ld_global_f32(v, addr);
  b.max_f32(m, m, v);
  b.loop_end(lmax);

  const auto sum = b.reg(), e = b.reg();
  b.mov_imm_f32(sum, 0.0f);
  b.mov_imm_i(k, 0);
  auto lexp = b.loop_begin(k, bound, step, "exp");
  b.addr_of(addr, base_y, k, 2);
  b.ld_global_f32(v, addr);
  b.sub_f32(v, v, m);
  b.mul_f32(v, v, invt);
  b.exp_f32(e, v);
  b.add_f32(sum, sum, e);
  b.addr_of(addr, base_p, k, 2);
  b.st_global_f32(e, addr);
  b.loop_end(lexp);

  b.mov_imm_i(k, 0);
  auto lnorm = b.loop_begin(k, bound, step, "norm");
  b.addr_of(addr, base_p, k, 2);
  b.ld_global_f32(e, addr);
  b.div_f32(e, e, sum);
  b.st_global_f32(e, addr);
  b.loop_end(lnorm);

  emit_guard_exit(b);
  return b.build();
}

// --- camPipeline kernels ------------------------------------------------------

KernelIR build_cam_gain() {
  KernelBuilder b("camGain", 4);
  const auto praw = b.reg(), pwork = b.reg(), n = b.reg(), gain = b.reg(), gid = b.reg();
  b.block("entry");
  b.ld_param(praw, 0);
  b.ld_param(pwork, 1);
  b.ld_param(n, 2);
  b.ld_param(gain, 3);
  emit_guard(b, gid, n);
  const auto addr = b.reg(), v = b.reg();
  b.addr_of(addr, praw, gid, 2);
  b.ld_global_f32(v, addr);
  b.mul_f32(v, v, gain);
  b.addr_of(addr, pwork, gid, 2);
  b.st_global_f32(v, addr);
  emit_guard_exit(b);
  return b.build();
}

KernelIR build_cam_blur3() {
  KernelBuilder b("camBlur3", 3);
  const auto pwork = b.reg(), pblur = b.reg(), n = b.reg(), gid = b.reg();
  b.block("entry");
  b.ld_param(pwork, 0);
  b.ld_param(pblur, 1);
  b.ld_param(n, 2);
  emit_guard(b, gid, n);

  const auto addr = b.reg(), zero = b.reg(), one = b.reg(), nm1 = b.reg();
  const auto li = b.reg(), ri = b.reg();
  b.mov_imm_i(zero, 0);
  b.mov_imm_i(one, 1);
  b.sub_i(nm1, n, one);
  b.sub_i(li, gid, one);
  b.max_i(li, li, zero);  // clamp: replicate the edge pixel
  b.add_i(ri, gid, one);
  b.min_i(ri, ri, nm1);

  const auto l = b.reg(), c = b.reg(), r = b.reg(), qtr = b.reg(), half = b.reg(),
             acc = b.reg(), t = b.reg();
  b.addr_of(addr, pwork, li, 2);
  b.ld_global_f32(l, addr);
  b.addr_of(addr, pwork, gid, 2);
  b.ld_global_f32(c, addr);
  b.addr_of(addr, pwork, ri, 2);
  b.ld_global_f32(r, addr);
  b.mov_imm_f32(qtr, 0.25f);
  b.mov_imm_f32(half, 0.5f);
  b.mul_f32(acc, l, qtr);
  b.mul_f32(t, c, half);
  b.add_f32(acc, acc, t);
  b.mul_f32(t, r, qtr);
  b.add_f32(acc, acc, t);
  b.addr_of(addr, pblur, gid, 2);
  b.st_global_f32(acc, addr);
  emit_guard_exit(b);
  return b.build();
}

KernelIR build_cam_quant() {
  KernelBuilder b("camQuant", 4);
  const auto pblur = b.reg(), pout = b.reg(), n = b.reg(), qstep = b.reg(), gid = b.reg();
  b.block("entry");
  b.ld_param(pblur, 0);
  b.ld_param(pout, 1);
  b.ld_param(n, 2);
  b.ld_param(qstep, 3);
  emit_guard(b, gid, n);
  const auto addr = b.reg(), v = b.reg();
  b.addr_of(addr, pblur, gid, 2);
  b.ld_global_f32(v, addr);
  b.div_f32(v, v, qstep);
  b.floor_f32(v, v);
  b.mul_f32(v, v, qstep);
  b.addr_of(addr, pout, gid, 2);
  b.st_global_f32(v, addr);
  emit_guard_exit(b);
  return b.build();
}

}  // namespace

float graph_damping(std::uint64_t jitter) {
  return static_cast<float>(0.85 * jitter_scale(jitter, 0.9, 1.1));
}

float ml_gain(std::uint64_t jitter) {
  return static_cast<float>(jitter_scale(jitter, 0.9, 1.2));
}

float ml_inv_temperature(std::uint64_t jitter) {
  return static_cast<float>(jitter_scale(jitter, 0.8, 1.25));
}

float cam_gain(std::uint64_t jitter) {
  return static_cast<float>(0.75 * jitter_scale(jitter, 0.8, 1.25));
}

float cam_qstep(std::uint64_t jitter) {
  return static_cast<float>(0.125 * jitter_scale(jitter, 0.75, 1.5));
}

Workload make_graph_analytics() {
  Workload w;
  w.app = "graphAnalytics";
  w.default_n = 1 << 14;
  w.test_n = 1024;
  const std::uint64_t deg = kGraphDegree;

  PipelineStage bfs;
  bfs.name = "bfsStep";
  bfs.kernel = build_bfs_step();
  bfs.dims = [](std::uint64_t n) { return dims1d(n); };
  bfs.args = [](const std::vector<std::uint64_t>& a, std::uint64_t n, std::uint64_t) {
    KernelArgs args;
    args.push_ptr(a[0]);  // nbr
    args.push_ptr(a[1]);  // dist_in
    args.push_ptr(a[2]);  // dist_out
    args.push_i64(static_cast<std::int64_t>(n));
    return args;
  };
  {
    const KernelIR ir = bfs.kernel;
    bfs.profile = [ir, deg](std::uint64_t n) {
      return guarded_loop_profile(ir, dims1d(n), n, "nbr", deg);
    };
  }
  bfs.behavior = [deg](std::uint64_t n) {
    // Random-neighbor gathers: large touched set, little spatial locality.
    return MemoryBehavior{(8 * deg + 8) * n, (2 * deg + 2) * n, 0.3, 0.25};
  };

  PipelineStage contrib;
  contrib.name = "prContrib";
  contrib.kernel = build_pr_contrib();
  contrib.dims = [](std::uint64_t n) { return dims1d(n); };
  contrib.args = [](const std::vector<std::uint64_t>& a, std::uint64_t n,
                    std::uint64_t jitter) {
    KernelArgs args;
    args.push_ptr(a[3]);  // rank
    args.push_ptr(a[4]);  // contrib
    args.push_i64(static_cast<std::int64_t>(n));
    args.push_f32(graph_damping(jitter) / static_cast<float>(kGraphDegree));
    return args;
  };
  {
    const KernelIR ir = contrib.kernel;
    contrib.profile = [ir](std::uint64_t n) { return guarded_profile(ir, dims1d(n), n); };
  }
  contrib.behavior = [](std::uint64_t n) { return MemoryBehavior{8 * n, 2 * n, 0.9, 0.97}; };
  contrib.coalesce = [](std::uint64_t n) {
    return linear_coalesce("graph.contrib", n, {{0, 4, false}, {1, 4, true}}, 2);
  };

  PipelineStage gather;
  gather.name = "prGather";
  gather.kernel = build_pr_gather();
  gather.dims = [](std::uint64_t n) { return dims1d(n); };
  gather.args = [](const std::vector<std::uint64_t>& a, std::uint64_t n,
                   std::uint64_t jitter) {
    KernelArgs args;
    args.push_ptr(a[0]);  // nbr
    args.push_ptr(a[4]);  // contrib
    args.push_ptr(a[5]);  // rank_out
    args.push_i64(static_cast<std::int64_t>(n));
    args.push_f32((1.0f - graph_damping(jitter)) / static_cast<float>(n));
    return args;
  };
  {
    const KernelIR ir = gather.kernel;
    gather.profile = [ir, deg](std::uint64_t n) {
      return guarded_loop_profile(ir, dims1d(n), n, "nbr", deg);
    };
  }
  gather.behavior = [deg](std::uint64_t n) {
    return MemoryBehavior{(8 * deg + 8) * n, (2 * deg + 2) * n, 0.3, 0.25};
  };

  w.stages = {bfs, contrib, gather};

  w.buffers = [deg](std::uint64_t n) {
    return std::vector<BufferSpec>{
        {8 * deg * n, true, false},  // nbr (CSR neighbor lists, degree 8)
        {4 * n, true, false},        // dist_in
        {4 * n, false, true},        // dist_out
        {4 * n, true, false},        // rank
        {4 * n, false, false},       // contrib (device scratch)
        {4 * n, false, true},        // rank_out
    };
  };
  w.fill_inputs = [deg](std::uint64_t n, std::vector<std::vector<std::uint8_t>>& bufs) {
    for (std::uint64_t v = 0; v < n; ++v) {
      for (std::uint32_t j = 0; j < deg; ++j) {
        const std::int64_t u = static_cast<std::int64_t>(graph_neighbor(v, j, n));
        std::memcpy(bufs[0].data() + 8 * (deg * v + j), &u, 8);
      }
    }
    fill_f32_formula(bufs[1], n,
                     [](std::uint64_t v) { return v % 16 == 0 ? 0.0f : 1.0e9f; });
    fill_f32_formula(bufs[3], n, [n](std::uint64_t) { return 1.0f / static_cast<float>(n); });
  };

  // Single-kernel mirror (stage 0) so pipeline-unaware code sees a valid app.
  w.kernel = w.stages[0].kernel;
  w.dims = w.stages[0].dims;
  w.args = [stage = w.stages[0].args](const std::vector<std::uint64_t>& a, std::uint64_t n) {
    return stage(a, n, 0);
  };
  w.profile = w.stages[0].profile;
  w.behavior = w.stages[0].behavior;

  w.traits.coalescable = true;
  w.traits.iterations = 4;
  w.traits.launches_per_iter = 3;
  w.traits.noncuda_guest_instrs = 2000;
  return w;
}

Workload make_ml_inference() {
  Workload w;
  w.app = "mlInference";
  w.default_n = 1 << 14;
  w.test_n = 1024;
  const std::uint64_t d = kMlInnerDim;

  PipelineStage matmul;
  matmul.name = "mlpMatmul";
  matmul.kernel = build_mlp_matmul();
  matmul.dims = [](std::uint64_t n) { return dims1d(n); };
  matmul.args = [](const std::vector<std::uint64_t>& a, std::uint64_t n, std::uint64_t) {
    KernelArgs args;
    args.push_ptr(a[0]);  // x
    args.push_ptr(a[1]);  // W
    args.push_ptr(a[3]);  // y0
    args.push_i64(static_cast<std::int64_t>(n));
    return args;
  };
  {
    const KernelIR ir = matmul.kernel;
    matmul.profile = [ir, d](std::uint64_t n) {
      return guarded_loop_profile(ir, dims1d(n), n, "k", d);
    };
  }
  matmul.behavior = [d](std::uint64_t n) {
    // The broadcast x vector is hot; the weight matrix streams once.
    return MemoryBehavior{4 * d * n, (2 * d + 1) * n, 0.6, 0.9};
  };

  PipelineStage bias;
  bias.name = "mlpBias";
  bias.kernel = build_mlp_bias();
  bias.dims = [](std::uint64_t n) { return dims1d(n); };
  bias.args = [](const std::vector<std::uint64_t>& a, std::uint64_t n, std::uint64_t jitter) {
    KernelArgs args;
    args.push_ptr(a[3]);  // y0
    args.push_ptr(a[2]);  // bias
    args.push_ptr(a[4]);  // y1
    args.push_i64(static_cast<std::int64_t>(n));
    args.push_f32(ml_gain(jitter));
    return args;
  };
  {
    const KernelIR ir = bias.kernel;
    bias.profile = [ir](std::uint64_t n) { return guarded_profile(ir, dims1d(n), n); };
  }
  bias.behavior = [](std::uint64_t n) { return MemoryBehavior{12 * n, 3 * n, 0.9, 0.97}; };
  bias.coalesce = [](std::uint64_t n) {
    return linear_coalesce("ml.bias", n, {{0, 4, false}, {1, 4, false}, {2, 4, true}}, 3);
  };

  PipelineStage softmax;
  softmax.name = "softmax32";
  softmax.kernel = build_softmax32();
  softmax.dims = [](std::uint64_t n) { return dims1d(n / kSoftmaxGroup, 64); };
  softmax.args = [](const std::vector<std::uint64_t>& a, std::uint64_t n,
                    std::uint64_t jitter) {
    KernelArgs args;
    args.push_ptr(a[4]);  // y1
    args.push_ptr(a[5]);  // probs
    args.push_i64(static_cast<std::int64_t>(n / kSoftmaxGroup));
    args.push_f32(ml_inv_temperature(jitter));
    return args;
  };
  {
    const KernelIR ir = softmax.kernel;
    softmax.profile = [ir](std::uint64_t n) {
      const std::uint64_t g = n / kSoftmaxGroup;
      const LaunchDims dims = dims1d(g, 64);
      const std::uint64_t total = dims.total_threads();
      return profile_from_visits(ir, {{"entry", total},
                                      {"body", g},
                                      {"max.head", g * kSoftmaxGroup},
                                      {"max.body", g * (kSoftmaxGroup - 1)},
                                      {"max.exit", g},
                                      {"exp.head", g * (kSoftmaxGroup + 1)},
                                      {"exp.body", g * kSoftmaxGroup},
                                      {"exp.exit", g},
                                      {"norm.head", g * (kSoftmaxGroup + 1)},
                                      {"norm.body", g * kSoftmaxGroup},
                                      {"norm.exit", g},
                                      {"exit", total - g}});
    };
  }
  softmax.behavior = [](std::uint64_t n) { return MemoryBehavior{8 * n, 3 * n, 0.8, 0.9}; };
  softmax.coalesce = [](std::uint64_t n) {
    // One element = one 32-float group (128 B), so merged grids keep group
    // boundaries intact and the in-group loops never cross a chunk seam.
    return linear_coalesce("ml.softmax32", n / kSoftmaxGroup,
                           {{0, 128, false}, {1, 128, true}}, 2, 64);
  };

  w.stages = {matmul, bias, softmax};

  w.buffers = [d](std::uint64_t n) {
    SIGVP_REQUIRE(n % kSoftmaxGroup == 0, "mlInference size must be a multiple of 32");
    return std::vector<BufferSpec>{
        {4 * d, true, false},      // x (broadcast input)
        {4 * d * n, true, false},  // W
        {4 * n, true, false},      // bias
        {4 * n, false, false},     // y0
        {4 * n, false, false},     // y1
        {4 * n, false, true},      // probs
    };
  };
  w.fill_inputs = [](std::uint64_t, std::vector<std::vector<std::uint8_t>>& bufs) {
    fill_f32_pattern(bufs[0], -1.0f, 1.0f, 0x51);
    fill_f32_pattern(bufs[1], -0.5f, 0.5f, 0x52);
    fill_f32_pattern(bufs[2], -0.25f, 0.25f, 0x53);
  };

  w.kernel = w.stages[0].kernel;
  w.dims = w.stages[0].dims;
  w.args = [stage = w.stages[0].args](const std::vector<std::uint64_t>& a, std::uint64_t n) {
    return stage(a, n, 0);
  };
  w.profile = w.stages[0].profile;
  w.behavior = w.stages[0].behavior;

  w.traits.coalescable = true;
  w.traits.iterations = 4;
  w.traits.launches_per_iter = 3;
  w.traits.noncuda_guest_instrs = 3000;
  return w;
}

Workload make_cam_pipeline() {
  Workload w;
  w.app = "camPipeline";
  w.default_n = 1 << 15;
  w.test_n = 2048;

  PipelineStage gain;
  gain.name = "camGain";
  gain.kernel = build_cam_gain();
  gain.dims = [](std::uint64_t n) { return dims1d(n); };
  gain.args = [](const std::vector<std::uint64_t>& a, std::uint64_t n, std::uint64_t jitter) {
    KernelArgs args;
    args.push_ptr(a[0]);  // raw
    args.push_ptr(a[1]);  // work
    args.push_i64(static_cast<std::int64_t>(n));
    args.push_f32(cam_gain(jitter));
    return args;
  };
  {
    const KernelIR ir = gain.kernel;
    gain.profile = [ir](std::uint64_t n) { return guarded_profile(ir, dims1d(n), n); };
  }
  gain.behavior = [](std::uint64_t n) { return MemoryBehavior{8 * n, 2 * n, 0.9, 0.97}; };
  gain.coalesce = [](std::uint64_t n) {
    return linear_coalesce("cam.gain", n, {{0, 4, false}, {1, 4, true}}, 2);
  };

  PipelineStage blur;
  blur.name = "camBlur3";
  blur.kernel = build_cam_blur3();
  blur.dims = [](std::uint64_t n) { return dims1d(n); };
  blur.args = [](const std::vector<std::uint64_t>& a, std::uint64_t n, std::uint64_t) {
    KernelArgs args;
    args.push_ptr(a[1]);  // work
    args.push_ptr(a[2]);  // blur
    args.push_i64(static_cast<std::int64_t>(n));
    return args;
  };
  {
    const KernelIR ir = blur.kernel;
    blur.profile = [ir](std::uint64_t n) { return guarded_profile(ir, dims1d(n), n); };
  }
  blur.behavior = [](std::uint64_t n) { return MemoryBehavior{8 * n, 4 * n, 0.95, 0.97}; };
  // Not coalesce-eligible: the 3-tap stencil reads neighbors, which across a
  // merged arena would blur one VP's frame edge into the next VP's frame.

  PipelineStage quant;
  quant.name = "camQuant";
  quant.kernel = build_cam_quant();
  quant.dims = [](std::uint64_t n) { return dims1d(n); };
  quant.args = [](const std::vector<std::uint64_t>& a, std::uint64_t n, std::uint64_t jitter) {
    KernelArgs args;
    args.push_ptr(a[2]);  // blur
    args.push_ptr(a[3]);  // outq
    args.push_i64(static_cast<std::int64_t>(n));
    args.push_f32(cam_qstep(jitter));
    return args;
  };
  {
    const KernelIR ir = quant.kernel;
    quant.profile = [ir](std::uint64_t n) { return guarded_profile(ir, dims1d(n), n); };
  }
  quant.behavior = [](std::uint64_t n) { return MemoryBehavior{8 * n, 2 * n, 0.9, 0.97}; };
  quant.coalesce = [](std::uint64_t n) {
    return linear_coalesce("cam.quant", n, {{0, 4, false}, {1, 4, true}}, 2);
  };

  w.stages = {gain, blur, quant};

  w.buffers = [](std::uint64_t n) {
    return std::vector<BufferSpec>{
        {4 * n, true, false},   // raw frame
        {4 * n, false, false},  // work (gain-corrected)
        {4 * n, false, false},  // blur
        {4 * n, false, true},   // quantized output
    };
  };
  w.fill_inputs = [](std::uint64_t, std::vector<std::vector<std::uint8_t>>& bufs) {
    fill_f32_pattern(bufs[0], 0.0f, 255.0f, 0x61);
  };

  w.kernel = w.stages[0].kernel;
  w.dims = w.stages[0].dims;
  w.args = [stage = w.stages[0].args](const std::vector<std::uint64_t>& a, std::uint64_t n) {
    return stage(a, n, 0);
  };
  w.profile = w.stages[0].profile;
  w.behavior = w.stages[0].behavior;
  w.coalesce = [stage = w.stages[0].coalesce](std::uint64_t n) { return stage(n); };

  w.traits.coalescable = true;
  w.traits.iterations = 4;
  w.traits.launches_per_iter = 3;
  w.traits.noncuda_guest_instrs = 1500;
  w.traits.iter_h2d_bytes = 0;
  return w;
}

std::vector<Workload> make_app_suite() {
  return {make_graph_analytics(), make_ml_inference(), make_cam_pipeline()};
}

}  // namespace sigvp::workloads
