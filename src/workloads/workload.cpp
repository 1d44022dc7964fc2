#include "workloads/workload.hpp"

#include <algorithm>
#include <cstring>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace sigvp::workloads {

cuda::LaunchSpec make_launch_spec(const Workload& w, std::size_t stage, std::uint64_t n,
                                  const std::vector<std::uint64_t>& addrs, std::uint64_t jitter,
                                  ExecMode mode, bool coalescable) {
  cuda::LaunchSpec spec;
  spec.request.mode = mode;
  if (w.stages.empty()) {
    spec.request.kernel = &w.kernel;
    spec.request.dims = w.dims(n);
    spec.request.args = w.args(addrs, n);
    if (mode == ExecMode::kAnalytic) {
      spec.request.analytic_profile = w.profile(n);
      spec.request.mem_behavior = w.behavior(n);
    }
    if (coalescable && w.coalesce) spec.coalesce = w.coalesce(n);
    return spec;
  }
  const PipelineStage& st = w.stages[stage % w.stages.size()];
  spec.request.kernel = &st.kernel;
  spec.request.dims = st.dims(n);
  spec.request.args = st.args(addrs, n, jitter);
  if (mode == ExecMode::kAnalytic) {
    spec.request.analytic_profile = st.profile(n);
    spec.request.mem_behavior = st.behavior(n);
  }
  if (coalescable && st.coalesce) spec.coalesce = st.coalesce(n);
  return spec;
}

void fill_f32_pattern(std::vector<std::uint8_t>& buf, float lo, float hi, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t off = 0; off + 4 <= buf.size(); off += 4) {
    const float v = static_cast<float>(rng.uniform(lo, hi));
    std::memcpy(buf.data() + off, &v, 4);
  }
}

void fill_f64_pattern(std::vector<std::uint8_t>& buf, double lo, double hi, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t off = 0; off + 8 <= buf.size(); off += 8) {
    const double v = rng.uniform(lo, hi);
    std::memcpy(buf.data() + off, &v, 8);
  }
}

void fill_u8_pattern(std::vector<std::uint8_t>& buf, std::uint64_t seed) {
  Rng rng(seed);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_below(256));
}

double jitter_scale(std::uint64_t jitter, double lo, double hi) {
  if (jitter == 0) return 1.0;
  Rng rng(jitter);
  return rng.uniform(lo, hi);
}

std::uint64_t graph_neighbor(std::uint64_t v, std::uint32_t j, std::uint64_t n) {
  // SplitMix64-style finalizer over (v, j); bias-free enough for a synthetic
  // topology and, crucially, identical in the kernel's host-side fill and
  // the golden models.
  std::uint64_t x = v * 0x9E3779B97F4A7C15ull + (j + 1) * 0xBF58476D1CE4E5B9ull;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x % n;
}

std::size_t block_index(const KernelIR& ir, const std::string& label) {
  for (std::size_t i = 0; i < ir.blocks.size(); ++i) {
    if (ir.blocks[i].label == label) return i;
  }
  throw ContractError("kernel " + ir.name + " has no block labeled " + label);
}

DynamicProfile profile_from_visits(
    const KernelIR& ir,
    const std::vector<std::pair<std::string, std::uint64_t>>& label_visits) {
  DynamicProfile p;
  p.block_visits.assign(ir.blocks.size(), 0);
  for (const auto& [label, count] : label_visits) {
    p.block_visits[block_index(ir, label)] += count;
  }
  p.instr_counts = DynamicProfile::counts_from_visits(ir, p.block_visits);

  // Byte traffic and SFU counts implied by the λ counts and the static IR.
  for (std::size_t b = 0; b < ir.blocks.size(); ++b) {
    const std::uint64_t visits = p.block_visits[b];
    if (visits == 0) continue;
    for (const Instr& in : ir.blocks[b].instrs) {
      if (is_sfu_op(in.op)) {
        if (is_sqrt_op(in.op)) {
          p.sqrt_instrs += visits;
        } else {
          p.sfu_instrs += visits;
        }
      }
      if (!is_global_memory_op(in.op)) continue;
      const std::uint64_t bytes = memory_width_bytes(in.op) * visits;
      if (instr_class(in.op) == InstrClass::kLoad) {
        p.global_load_bytes += bytes;
      } else {
        p.global_store_bytes += bytes;
      }
    }
  }
  return p;
}

DynamicProfile guarded_profile(const KernelIR& ir, const LaunchDims& dims,
                               std::uint64_t active) {
  const std::uint64_t total = dims.total_threads();
  SIGVP_REQUIRE(active <= total, "more active threads than launched threads");
  return profile_from_visits(
      ir, {{"entry", total}, {"body", active}, {"exit", total - active}});
}

DynamicProfile guarded_loop_profile(const KernelIR& ir, const LaunchDims& dims,
                                    std::uint64_t active, const std::string& loop,
                                    std::uint64_t trips) {
  const std::uint64_t total = dims.total_threads();
  return profile_from_visits(ir, {{"entry", total},
                                  {"body", active},
                                  {loop + ".head", active * (trips + 1)},
                                  {loop + ".body", active * trips},
                                  {loop + ".exit", active},
                                  {"exit", total - active}});
}

LaunchDims dims1d(std::uint64_t n, std::uint32_t block) {
  LaunchDims d;
  d.block_x = block;
  d.grid_x = static_cast<std::uint32_t>(std::max<std::uint64_t>(1, (n + block - 1) / block));
  return d;
}

cuda::CoalesceInfo linear_coalesce(const std::string& key, std::uint64_t elems,
                                   std::vector<cuda::CoalesceInfo::BufferArg> buffers,
                                   std::uint32_t size_arg, std::uint32_t block) {
  cuda::CoalesceInfo c;
  c.eligible = true;
  c.key = key;
  c.elems = elems;
  c.buffers = std::move(buffers);
  c.size_arg_index = size_arg;
  c.block_x = block;
  return c;
}

void emit_guard(KernelBuilder& b, KernelBuilder::Reg gid, KernelBuilder::Reg n) {
  const auto ctaid = b.reg();
  const auto ntid = b.reg();
  const auto tid = b.reg();
  const auto cond = b.reg();
  b.special(ctaid, SpecialReg::kCtaidX);
  b.special(ntid, SpecialReg::kNtidX);
  b.special(tid, SpecialReg::kTidX);
  b.mul_i(gid, ctaid, ntid);
  b.add_i(gid, gid, tid);
  b.set_lt_i(cond, gid, n);
  b.bra_z(cond, "exit");
  b.block("body");
}

void emit_guard_exit(KernelBuilder& b) {
  b.ret();
  b.block("exit");
  b.ret();
}

}  // namespace sigvp::workloads
