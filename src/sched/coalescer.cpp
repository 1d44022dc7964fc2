#include "sched/coalescer.hpp"

#include <algorithm>
#include <bit>
#include <memory>

#include "fault/crash.hpp"
#include "interp/decoded.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace sigvp {

namespace {

/// True when arg `index` is relocated by the merge (a buffer pointer the
/// coalescer points at its arena, or the summed size argument). Every other
/// argument is a scalar the merged launch runs with ONCE — so members must
/// agree on it byte-exactly or the merge would silently run some members
/// with another VP's parameters.
bool arg_is_relocated(const cuda::CoalesceInfo& c, std::size_t index) {
  if (index == c.size_arg_index) return true;
  for (const auto& buf : c.buffers) {
    if (buf.arg_index == index) return true;
  }
  return false;
}

}  // namespace

bool Coalescer::can_merge(const std::vector<Job>& jobs) {
  if (jobs.size() < 2) return false;
  const auto& first = jobs.front().launch;
  if (!first.coalesce.eligible) return false;
  if (first.request.kernel == nullptr) return false;
  // Kernel identity is structural, not positional: VPs build their own
  // KernelIR instances, so the almost-identical regime compares structural
  // fingerprints when the pointers differ (pointer equality short-circuits
  // the hash for the common single-suite case).
  std::uint64_t first_fp = 0;
  bool first_fp_computed = false;
  for (const Job& j : jobs) {
    if (j.kind != JobKind::kKernel) return false;
    const auto& c = j.launch.coalesce;
    if (!c.eligible || c.key != first.coalesce.key) return false;
    if (c.buffers.size() != first.coalesce.buffers.size()) return false;
    if (c.block_x != first.coalesce.block_x) return false;
    if (j.launch.request.mode != first.request.mode) return false;
    if (j.launch.request.kernel == nullptr) return false;
    if (j.launch.request.kernel != first.request.kernel) {
      if (!first_fp_computed) {
        first_fp = interp_detail::kernel_fingerprint(*first.request.kernel);
        first_fp_computed = true;
      }
      if (interp_detail::kernel_fingerprint(*j.launch.request.kernel) != first_fp) {
        return false;
      }
    }
    for (std::size_t b = 0; b < c.buffers.size(); ++b) {
      if (c.buffers[b].arg_index != first.coalesce.buffers[b].arg_index) return false;
      if (c.buffers[b].bytes_per_elem != first.coalesce.buffers[b].bytes_per_elem) return false;
      if (c.buffers[b].is_output != first.coalesce.buffers[b].is_output) return false;
    }
    // Scalar arguments must match byte-exactly: the merged launch keeps the
    // prototype's scalars, so any divergence (per-VP parameter jitter) makes
    // the group semantically unmergeable.
    const auto& args = j.launch.request.args.values;
    const auto& proto_args = first.request.args.values;
    if (args.size() != proto_args.size()) return false;
    for (std::size_t a = 0; a < args.size(); ++a) {
      if (arg_is_relocated(c, a)) continue;
      if (args[a] != proto_args[a]) return false;
    }
  }
  return true;
}

std::vector<std::uint64_t> Coalescer::execute(std::vector<Job> jobs,
                                              GpuDevice::LaunchFailCallback on_abort) {
  SIGVP_REQUIRE(can_merge(jobs), "coalescer invoked on a non-mergeable group");
  const bool tolerant = static_cast<bool>(on_abort);
  const cuda::CoalesceInfo& shape = jobs.front().launch.coalesce;
  const LaunchRequest& proto = jobs.front().launch.request;

  std::uint64_t total_elems = 0;
  for (const Job& j : jobs) total_elems += j.launch.coalesce.elems;
  SIGVP_REQUIRE(total_elems > 0, "coalesced group has no elements");

  // 1. One arena per buffer argument; gather inputs into arena slices.
  struct Arena {
    std::uint64_t base = 0;
    std::uint64_t bytes_per_elem = 0;
    bool is_output = false;
    std::uint32_t arg_index = 0;
  };
  std::vector<Arena> arenas;
  arenas.reserve(shape.buffers.size());
  for (const auto& buf : shape.buffers) {
    arenas.push_back(Arena{device_.malloc(total_elems * buf.bytes_per_elem),
                           buf.bytes_per_elem, buf.is_output, buf.arg_index});
  }

  // Each arena's gather is one batched DMA (descriptor list), not N copies:
  // this is what makes coalescing profitable for tiny per-VP chunks.
  for (const Arena& a : arenas) {
    if (a.is_output) continue;
    std::vector<GpuDevice::CopyDesc> descs;
    std::uint64_t offset_elems = 0;
    for (const Job& j : jobs) {
      const std::uint64_t chunk_elems = j.launch.coalesce.elems;
      descs.push_back({a.base + offset_elems * a.bytes_per_elem,
                       j.launch.request.args.values[a.arg_index],
                       chunk_elems * a.bytes_per_elem});
      offset_elems += chunk_elems;
    }
    device_.memcpy_d2d_batch(stream_, descs);
  }

  // Injected process death mid-group: gathers submitted, merged launch not
  // yet issued — the multi-VP transaction is half done.
  crash_point(CrashSite::kCoalescedGroup);

  // 2. Merged launch request: arena pointers, summed element count, grid
  //    covering all elements in one well-aligned launch.
  LaunchRequest merged = proto;
  for (const Arena& a : arenas) merged.args.values[a.arg_index] = a.base;
  merged.args.values[shape.size_arg_index] =
      std::bit_cast<std::uint64_t>(static_cast<std::int64_t>(total_elems));
  merged.dims.block_x = shape.block_x;
  merged.dims.block_y = 1;
  merged.dims.grid_y = 1;
  merged.dims.grid_x =
      static_cast<std::uint32_t>((total_elems + shape.block_x - 1) / shape.block_x);

  if (merged.mode == ExecMode::kAnalytic) {
    // Merge the analytic profiles: σ and traffic add; per-block λ vectors of
    // differently-sized launches do not concatenate, so carry σ directly.
    DynamicProfile sum;
    MemoryBehavior behavior;
    for (const Job& j : jobs) {
      const DynamicProfile& p = j.launch.request.analytic_profile;
      ClassCounts sigma = p.instr_counts;
      if (sigma.total() == 0 && !p.block_visits.empty()) {
        sigma = DynamicProfile::counts_from_visits(*j.launch.request.kernel, p.block_visits);
      }
      sum.instr_counts += sigma;
      sum.global_load_bytes += p.global_load_bytes;
      sum.global_store_bytes += p.global_store_bytes;
      sum.sfu_instrs += p.sfu_instrs;
      sum.sqrt_instrs += p.sqrt_instrs;
      behavior.footprint_bytes += j.launch.request.mem_behavior.footprint_bytes;
      behavior.accesses += j.launch.request.mem_behavior.accesses;
      behavior.reuse_fraction = j.launch.request.mem_behavior.reuse_fraction;
      behavior.coalescing = j.launch.request.mem_behavior.coalescing;
    }
    merged.analytic_profile = std::move(sum);
    merged.mem_behavior = behavior;
  }

  SIGVP_DEBUG("coalescer") << "merged " << jobs.size() << " x " << proto.kernel->name
                           << " into one launch of " << total_elems << " elems";

  // 3. Launch once. The stats box is filled at kernel completion, which in
  //    simulated time precedes every scatter completion scheduled below.
  //    Only a tolerant group's launch can be aborted (on_abort fires, no
  //    scatters happen).
  auto stats_box = std::make_shared<KernelExecStats>();
  device_.launch(stream_, merged,
                 [stats_box](SimTime, const KernelExecStats& s) { *stats_box = s; },
                 std::move(on_abort));
  if (device_.last_launch_faulted()) {
    for (const Arena& a : arenas) device_.free(a.base);
    return {device_.last_op_id()};
  }

  // 4. Scatter outputs back; every job's results are available when its
  //    scatter lands. A plain group scatters one batched DMA per arena (the
  //    cheap shape); a tolerant one gives each member its own DMA so a reset
  //    kills members individually.
  std::vector<std::uint64_t> ops;
  if (!tolerant) {
    for (const Arena& a : arenas) {
      if (!a.is_output) continue;
      std::vector<GpuDevice::CopyDesc> descs;
      std::uint64_t offset_elems = 0;
      for (const Job& j : jobs) {
        const std::uint64_t chunk_elems = j.launch.coalesce.elems;
        descs.push_back({j.launch.request.args.values[a.arg_index],
                         a.base + offset_elems * a.bytes_per_elem,
                         chunk_elems * a.bytes_per_elem});
        offset_elems += chunk_elems;
      }
      device_.memcpy_d2d_batch(stream_, descs);
    }
  } else {
    std::uint64_t offset_elems = 0;
    for (const Job& j : jobs) {
      const std::uint64_t chunk_elems = j.launch.coalesce.elems;
      std::vector<GpuDevice::CopyDesc> descs;
      for (const Arena& a : arenas) {
        if (!a.is_output) continue;
        descs.push_back({j.launch.request.args.values[a.arg_index],
                         a.base + offset_elems * a.bytes_per_elem,
                         chunk_elems * a.bytes_per_elem});
      }
      // The member's completion rides its own scatter op (an empty DMA when
      // the kernel has no output buffers), so a reset that kills the op
      // also suppresses the completion — the dispatcher re-queues exactly
      // the members whose results never landed.
      device_.memcpy_d2d_batch(
          stream_, descs,
          [cb = j.on_complete, stats_box](SimTime end) {
            if (cb) cb(end, stats_box.get());
          });
      ops.push_back(device_.last_op_id());
      offset_elems += chunk_elems;
    }
  }

  const SimTime group_end = device_.stream_idle_at(stream_);
  for (const Arena& a : arenas) device_.free(a.base);

  ++groups_;
  jobs_merged_ += jobs.size();

  if (!tolerant) {
    for (const Job& j : jobs) {
      if (!j.on_complete) continue;
      queue_.schedule_at(group_end, [cb = j.on_complete, stats_box, group_end] {
        cb(group_end, stats_box.get());
      });
    }
  }
  return ops;
}

}  // namespace sigvp
