#include "interp/interpreter.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <vector>

#include "interp/decoded.hpp"
#include "interp/tier2.hpp"
#include "run/thread_pool.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace sigvp {

ClassCounts DynamicProfile::counts_from_visits(const KernelIR& ir,
                                               const std::vector<std::uint64_t>& visits) {
  SIGVP_REQUIRE(visits.size() == ir.blocks.size(), "visit vector must match block count");
  ClassCounts out;
  for (std::size_t b = 0; b < visits.size(); ++b) {
    out += ir.blocks[b].static_counts().scaled(visits[b]);
  }
  return out;
}

namespace {

using interp_detail::DecodedBlock;
using interp_detail::Tier2Arena;
using interp_detail::Tier2Program;

/// Upper bound on canonical chunks. Chosen so an 8-worker run still has ~8
/// chunks per worker to balance uneven block costs, while per-chunk L2
/// shards stay coarse enough to be meaningful.
constexpr std::size_t kMaxChunks = 64;

/// Shared pool for grid-level parallelism. Sized past the host concurrency
/// so the multi-worker code paths are exercised (and testable) even on small
/// machines; idle workers just sleep on the queue.
run::ThreadPool& interp_pool() {
  static run::ThreadPool pool(std::max<std::size_t>(run::ThreadPool::default_workers(), 8));
  return pool;
}

/// [first_block, last_block) of canonical chunk `c` out of `chunks`, over a
/// grid of `num_blocks` row-major linear block ids. Pure function of the
/// grid — worker count never enters.
struct ChunkRange {
  std::uint64_t first = 0;
  std::uint64_t last = 0;
};

ChunkRange chunk_range(std::uint64_t num_blocks, std::size_t chunks, std::size_t c) {
  ChunkRange r;
  r.first = num_blocks * c / chunks;
  r.last = num_blocks * (c + 1) / chunks;
  return r;
}

/// Composes the per-chunk observer for canonical chunk `c`: the capture
/// recorder (if any) fires first so it can snapshot pre-store bytes, then
/// the shard observer. Returns an empty hook when nothing observes.
MemAccessHook compose_chunk_hook(const Interpreter::Options& options, std::size_t c) {
  MemAccessHook base;
  if (options.shard_hook) base = options.shard_hook(c);
  MemAccessHook capture;
  if (options.capture_hook) capture = options.capture_hook(c);
  if (base && capture) {
    return [base = std::move(base), capture = std::move(capture)](
               std::uint64_t addr, std::uint32_t bytes, bool is_store) {
      capture(addr, bytes, is_store);
      base(addr, bytes, is_store);
    };
  }
  return base ? std::move(base) : std::move(capture);
}

/// Executes canonical chunk `c` — its blocks serially in row-major order,
/// observed by the chunk's composed hook — accumulating λ/barrier counts
/// into `chunk_profile` (full-size block_visits; merged by the caller in
/// chunk order). When tracing, records a host-domain span for the chunk:
/// how the simulator's own threads spent their wall-clock; it never feeds
/// the deterministic metrics.
void run_chunk(const Tier2Program& prog, const KernelIR& ir, const LaunchDims& dims,
               const KernelArgs& args, AddressSpace& global, const Interpreter::Options& options,
               std::size_t c, Tier2Arena& arena, DynamicProfile& chunk_profile) {
  const MemAccessHook hook = compose_chunk_hook(options, c);
  trace::Tracer* tracer = trace::Tracer::active();
  const double host_t0 = tracer != nullptr ? tracer->host_now_us() : 0.0;
  const ChunkRange range = chunk_range(dims.num_blocks(), Interpreter::canonical_chunks(dims), c);
  for (std::uint64_t lin = range.first; lin < range.last; ++lin) {
    const auto bx = static_cast<std::uint32_t>(lin % dims.grid_x);
    const auto by = static_cast<std::uint32_t>(lin / dims.grid_x);
    interp_detail::run_tier2_block(prog, ir, dims, args, global, hook ? &hook : nullptr,
                                   options.max_instrs_per_thread, arena, chunk_profile, bx, by);
  }
  if (tracer != nullptr) {
    tracer->complete(tracer->host_pid(), tracer->host_tid(), "tier2",
                     ir.name + "#" + std::to_string(c), host_t0, tracer->host_now_us() - host_t0,
                     {trace::arg("chunk", static_cast<int>(c))});
  }
}

/// Derives every λ-reconstructible counter of `profile` from its merged
/// block_visits and the decoded per-block static summaries. By the
/// interpreter's documented contract (profile.hpp) these equal what
/// per-instruction counting would have produced, so the post-pass replaces
/// hundreds of millions of hot-loop increments with one pass over blocks.
void finalize_from_visits(const std::vector<DecodedBlock>& blocks, DynamicProfile& profile) {
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const DecodedBlock& db = blocks[b];
    const std::uint64_t lambda = profile.block_visits[b];
    if (lambda == 0) continue;
    profile.instr_counts += db.mu.scaled(lambda);
    profile.sfu_instrs += lambda * db.sfu_instrs;
    profile.sqrt_instrs += lambda * db.sqrt_instrs;
    profile.global_load_bytes += lambda * db.global_load_bytes;
    profile.global_store_bytes += lambda * db.global_store_bytes;
  }
}

/// Runs one lowered launch end to end and returns the finalized profile.
DynamicProfile execute_launch(const KernelIR& ir, const Tier2Program& prog,
                              const LaunchDims& dims, const KernelArgs& args,
                              AddressSpace& global, const Interpreter::Options& options) {
  DynamicProfile profile;
  profile.block_visits.assign(ir.blocks.size(), 0);

  const std::size_t chunks = Interpreter::canonical_chunks(dims);

  // Resolve the worker budget. Global atomics make cross-chunk memory order
  // observable, so they force serial chunk execution (which is exactly the
  // reference's row-major serial order).
  std::size_t workers = run::inner_parallel_workers(options.workers);
  if (prog.has_global_atomics) workers = 1;
  workers = std::min(workers, chunks);

  if (workers <= 1) {
    // Serial path: chunks in canonical order on the calling thread. Shard
    // hooks still see per-chunk streams so results match the parallel path.
    Tier2Arena arena;
    for (std::size_t c = 0; c < chunks; ++c) {
      run_chunk(prog, ir, dims, args, global, options, c, arena, profile);
    }
    finalize_from_visits(prog.blocks, profile);
    return profile;
  }

  // Parallel path: `workers` runner tasks pull chunk indices from a shared
  // counter. Each chunk accumulates into a private profile (and optional
  // private shard hook); merges happen below in canonical chunk order.
  std::vector<DynamicProfile> chunk_profiles(chunks);
  for (DynamicProfile& p : chunk_profiles) p.block_visits.assign(ir.blocks.size(), 0);
  std::vector<std::exception_ptr> chunk_errors(chunks);
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<bool> failed{false};

  run::ThreadPool& pool = interp_pool();
  for (std::size_t w = 0; w < workers; ++w) {
    pool.submit([&] {
      Tier2Arena arena;  // reused across every chunk this runner executes
      for (;;) {
        const std::size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
        if (c >= chunks || failed.load(std::memory_order_relaxed)) return;
        try {
          run_chunk(prog, ir, dims, args, global, options, c, arena, chunk_profiles[c]);
        } catch (...) {
          chunk_errors[c] = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
      }
    });
  }
  pool.wait_idle();

  // Deterministic error reporting: the lowest-numbered failing chunk wins,
  // independent of which worker hit it first.
  for (const std::exception_ptr& e : chunk_errors) {
    if (e) std::rethrow_exception(e);
  }

  for (std::size_t c = 0; c < chunks; ++c) {
    const DynamicProfile& p = chunk_profiles[c];
    for (std::size_t b = 0; b < profile.block_visits.size(); ++b) {
      profile.block_visits[b] += p.block_visits[b];
    }
    profile.barriers_waited += p.barriers_waited;
  }
  finalize_from_visits(prog.blocks, profile);
  return profile;
}

void require_valid_launch(const KernelIR& ir, const LaunchDims& dims, const KernelArgs& args) {
  SIGVP_REQUIRE(dims.grid_x > 0 && dims.grid_y > 0 && dims.block_x > 0 && dims.block_y > 0,
                "launch dimensions must be positive");
  SIGVP_REQUIRE(args.values.size() >= ir.num_params,
                ir.name + ": launch provides fewer arguments than the kernel declares");
}

}  // namespace

std::size_t Interpreter::canonical_chunks(const LaunchDims& dims) {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(dims.num_blocks(), kMaxChunks));
}

bool Interpreter::uses_global_atomics(const KernelIR& ir) {
  for (const BasicBlock& b : ir.blocks) {
    for (const Instr& in : b.instrs) {
      if (in.op == Opcode::kAtomAddGlobalI64 || in.op == Opcode::kAtomAddGlobalF32) {
        return true;
      }
    }
  }
  return false;
}

DynamicProfile Interpreter::run(const KernelIR& ir, const LaunchDims& dims,
                                const KernelArgs& args, AddressSpace& global,
                                const Options& options) {
  require_valid_launch(ir, dims, args);
  Tier2Engine& engine = Tier2Engine::instance();
  const std::shared_ptr<const Tier2Program> prog = engine.program(ir, dims.threads_per_block());

  if (engine.verify()) {
    // SIGVP_TIER_VERIFY divergence oracle: snapshot memory, run the engine
    // for real (hooks and all), then replay the launch from the snapshot on
    // the reference and insist on identical profile + memory.
    AddressSpace reference = global;
    DynamicProfile got = execute_launch(ir, *prog, dims, args, global, options);
    const DynamicProfile ref =
        run_reference(ir, dims, args, reference, options.max_instrs_per_thread);
    interp_detail::check_tier_divergence(ir, ref, got, reference, global);
    engine.note_verified();
    return got;
  }

  return execute_launch(ir, *prog, dims, args, global, options);
}

DynamicProfile Interpreter::run_reference(const KernelIR& ir, const LaunchDims& dims,
                                          const KernelArgs& args, AddressSpace& global,
                                          std::uint64_t max_instrs_per_thread) {
  require_valid_launch(ir, dims, args);
  const interp_detail::DecodedProgram prog = interp_detail::decode_kernel(ir);
  DynamicProfile profile;
  profile.block_visits.assign(ir.blocks.size(), 0);
  interp_detail::ExecArena arena;
  for (std::uint64_t lin = 0; lin < dims.num_blocks(); ++lin) {
    const auto bx = static_cast<std::uint32_t>(lin % dims.grid_x);
    const auto by = static_cast<std::uint32_t>(lin / dims.grid_x);
    interp_detail::run_decoded_block(prog, ir, dims, args, global, max_instrs_per_thread,
                                     arena, profile, bx, by);
  }
  finalize_from_visits(prog.blocks, profile);
  return profile;
}

}  // namespace sigvp
