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

/// Executes canonical chunk `c` — its blocks serially in row-major order,
/// seen by the chunk's access observer — accumulating λ/barrier counts
/// into the runner's `profile` (full-size block_visits). When tracing,
/// records a host-domain span for the chunk: how the simulator's own
/// threads spent their wall-clock; it never feeds the deterministic metrics.
void run_chunk(const Tier2Program& prog, const KernelIR& ir, const LaunchDims& dims,
               const KernelArgs& args, AddressSpace& global, const Interpreter::Options& options,
               std::size_t c, Tier2Arena& arena, DynamicProfile& profile) {
  ChunkObserver* const observer = options.observers.empty() ? nullptr : &options.observers[c];
  trace::Tracer* tracer = trace::Tracer::active();
  const double host_t0 = tracer != nullptr ? tracer->host_now_us() : 0.0;
  // Chunk c is row-major linear blocks [n·c/chunks, n·(c+1)/chunks): a pure
  // function of the grid, the worker count never enters.
  const std::uint64_t n = dims.num_blocks();
  const std::size_t chunks = Interpreter::canonical_chunks(dims);
  for (std::uint64_t lin = n * c / chunks; lin < n * (c + 1) / chunks; ++lin) {
    const auto bx = static_cast<std::uint32_t>(lin % dims.grid_x);
    const auto by = static_cast<std::uint32_t>(lin / dims.grid_x);
    interp_detail::run_tier2_block(prog, ir, dims, args, global, observer,
                                   options.max_instrs_per_thread, arena, profile, bx, by);
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
///
/// Runners pull chunk indices from one counter, each into its own profile
/// and arena. Profiles hold only integer sums, so any assignment of chunks
/// to runners merges to the same profile. One runner runs inline; with
/// more, all of them go through run::parallel_for on the interpreter pool
/// (the caller helps), which waits for this launch's runners only.
DynamicProfile execute_launch(const KernelIR& ir, const Tier2Program& prog,
                              const LaunchDims& dims, const KernelArgs& args,
                              AddressSpace& global, const Interpreter::Options& options) {
  const std::size_t chunks = Interpreter::canonical_chunks(dims);

  // Global atomics make cross-chunk memory order observable, so they run on
  // one runner, which takes the chunks in canonical order: exactly the
  // reference's row-major serial order.
  std::size_t runners = run::inner_parallel_workers(options.workers);
  if (prog.has_global_atomics) runners = 1;
  runners = std::min(runners, chunks);

  struct Runner {
    Tier2Arena arena;
    DynamicProfile profile;
  };
  std::vector<Runner> state(runners);
  std::vector<std::exception_ptr> chunk_errors(chunks);
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<bool> failed{false};
  const auto runner = [&](std::size_t w) {
    Runner& r = state[w];
    r.profile.block_visits.assign(ir.blocks.size(), 0);
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      try {
        run_chunk(prog, ir, dims, args, global, options, c, r.arena, r.profile);
      } catch (...) {
        chunk_errors[c] = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  if (runners == 1) {
    runner(0);
  } else {
    run::parallel_for(interp_pool(), runners, runner);
  }

  // Deterministic error reporting: the lowest-numbered failing chunk wins.
  // Chunks are taken in increasing order and a runner runs every chunk it
  // takes, so every chunk below a failing one has run.
  for (const std::exception_ptr& e : chunk_errors) {
    if (e) std::rethrow_exception(e);
  }

  DynamicProfile profile = std::move(state[0].profile);
  for (std::size_t w = 1; w < runners; ++w) {
    const DynamicProfile& p = state[w].profile;
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
      if (is_atomic_op(in.op)) return true;
    }
  }
  return false;
}

DynamicProfile Interpreter::run(const KernelIR& ir, const LaunchDims& dims,
                                const KernelArgs& args, AddressSpace& global,
                                const Options& options) {
  require_valid_launch(ir, dims, args);
  SIGVP_REQUIRE(options.observers.empty() || options.observers.size() == canonical_chunks(dims),
                ir.name + ": observers must be empty or one per canonical chunk");
  Tier2Engine& engine = Tier2Engine::instance();
  const std::shared_ptr<const Tier2Program> prog = engine.program(ir, dims.threads_per_block());
  engine.note_launch();

  if (engine.verify()) {
    // SIGVP_TIER_VERIFY divergence oracle: snapshot memory (a copy of the
    // touched pages only), run the engine for real (observer and all), then
    // replay the launch from the snapshot on the reference and insist on
    // identical profile + memory.
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
