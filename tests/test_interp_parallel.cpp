// Differential battery for the block-parallel interpreter: for every
// workload in the suite, the memory image must be byte-exact and the
// DynamicProfile bit-identical for every worker count (the determinism
// contract in DESIGN.md §10). Also covers the atomic serial fallback, the
// divergent-barrier release, the access observer, nested-parallelism
// budgeting, and program-cache invalidation.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "interp/decoded.hpp"
#include "interp/interpreter.hpp"
#include "interp/tier2.hpp"
#include "ir/builder.hpp"
#include "mem/allocator.hpp"
#include "run/thread_pool.hpp"
#include "util/check.hpp"
#include "workloads/suite.hpp"

namespace sigvp {
namespace {

using workloads::Workload;

constexpr std::uint64_t kSpace = 64ull * 1024 * 1024;

struct RunResult {
  std::vector<std::uint8_t> memory;
  DynamicProfile profile;
};

/// Fresh memory, deterministic inputs, one launch at `w.test_n` with the
/// given worker count (or on the reference executor); returns the full
/// memory image and the profile.
RunResult run_workload(const Workload& w, std::size_t workers, bool reference = false) {
  AddressSpace mem(kSpace, "m");
  FreeListAllocator alloc(4096, mem.size() - 4096);
  const auto bufs = w.buffers(w.test_n);
  std::vector<std::uint64_t> addrs;
  for (const auto& b : bufs) {
    const auto a = alloc.allocate(b.bytes);
    EXPECT_TRUE(a.has_value()) << w.app;
    addrs.push_back(*a);
  }
  for (std::size_t i = 0; i < bufs.size(); ++i) {
    if (!bufs[i].is_input) continue;
    for (std::uint64_t off = 0; off + 4 <= bufs[i].bytes; off += 4) {
      mem.write<float>(addrs[i] + off, 0.5f);
    }
  }

  Interpreter interp;
  Interpreter::Options options;
  options.workers = workers;
  const LaunchDims dims = w.dims(w.test_n);
  const KernelArgs args = w.args(addrs, w.test_n);
  RunResult out;
  out.profile = reference ? Interpreter::run_reference(w.kernel, dims, args, mem)
                          : interp.run(w.kernel, dims, args, mem, options);
  out.memory.resize(mem.size());
  mem.copy_out(out.memory.data(), 0, out.memory.size());
  return out;
}

void expect_profiles_identical(const DynamicProfile& a, const DynamicProfile& b,
                               const std::string& label) {
  EXPECT_EQ(a.block_visits, b.block_visits) << label;
  EXPECT_EQ(a.instr_counts, b.instr_counts) << label;
  EXPECT_EQ(a.global_load_bytes, b.global_load_bytes) << label;
  EXPECT_EQ(a.global_store_bytes, b.global_store_bytes) << label;
  EXPECT_EQ(a.barriers_waited, b.barriers_waited) << label;
  EXPECT_EQ(a.sfu_instrs, b.sfu_instrs) << label;
  EXPECT_EQ(a.sqrt_instrs, b.sqrt_instrs) << label;
}

class InterpParallelTest : public ::testing::TestWithParam<std::string> {
 protected:
  static const std::vector<Workload>& suite() {
    static const std::vector<Workload> s = workloads::make_suite();
    return s;
  }
  const Workload& workload() const { return workloads::find(suite(), GetParam()); }
};

TEST_P(InterpParallelTest, MemoryAndProfileBitIdenticalAcrossWorkerCounts) {
  const Workload& w = workload();
  const RunResult serial = run_workload(w, 1);
  for (std::size_t workers : {2u, 4u, 8u}) {
    const RunResult par = run_workload(w, workers);
    const std::string label = w.app + " @ workers=" + std::to_string(workers);
    EXPECT_TRUE(par.memory == serial.memory) << label << ": memory image diverged";
    expect_profiles_identical(serial.profile, par.profile, label);
  }
}

TEST_P(InterpParallelTest, NestedRunInsidePoolWorkerMatchesTopLevelRun) {
  // Inside a sweep worker the interpreter must collapse to serial (nested
  // budgeting) and still produce the identical result.
  const Workload& w = workload();
  const RunResult top = run_workload(w, 8);
  RunResult nested;
  run::ThreadPool pool(2);
  run::parallel_for(pool, 1, [&](std::size_t) {
    EXPECT_TRUE(run::ThreadPool::on_worker_thread());
    EXPECT_EQ(run::inner_parallel_workers(8), 1u);
    nested = run_workload(w, 8);
  });
  EXPECT_TRUE(nested.memory == top.memory) << w.app << ": nested memory image diverged";
  expect_profiles_identical(top.profile, nested.profile, w.app + " nested");
}

std::vector<std::string> all_names() {
  std::vector<std::string> names;
  for (const auto& w : workloads::make_suite()) names.push_back(w.app);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Suite, InterpParallelTest, ::testing::ValuesIn(all_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return n;
                         });

// --- atomic serial fallback ---------------------------------------------------

TEST(InterpParallel, AtomicDetectionMatchesKernelScan) {
  for (const Workload& w : workloads::make_suite()) {
    bool has_atomic = false;
    for (const auto& b : w.kernel.blocks) {
      for (const auto& in : b.instrs) {
        if (in.op == Opcode::kAtomAddGlobalI64 || in.op == Opcode::kAtomAddGlobalF32) {
          has_atomic = true;
        }
      }
    }
    EXPECT_EQ(Interpreter::uses_global_atomics(w.kernel), has_atomic) << w.app;
  }
  // The suite must actually exercise the serial-chunk path.
  EXPECT_TRUE(Interpreter::uses_global_atomics(
      workloads::find(workloads::make_suite(), "histogram").kernel));
}

TEST(InterpParallel, FloatAtomicAccumulationOrderSurvivesParallelRequest) {
  // f32 addition is not associative: thread t adds 2^(t mod 24) into one
  // cell, so any reordering of the additions across blocks changes the
  // rounded result. With 256 blocks (> 64 chunks) and 8 requested workers,
  // byte-exact equality with the serial run proves the atomic kernel really
  // fell back to canonical serial chunk order.
  KernelBuilder b("fatom", 1);
  const auto out = b.reg(), ctaid = b.reg(), tid = b.reg(), ntid = b.reg(), gid = b.reg(),
             t24 = b.reg(), lim = b.reg(), one = b.reg(), v = b.reg();
  b.block("entry");
  b.ld_param(out, 0);
  b.special(ctaid, SpecialReg::kCtaidX);
  b.special(ntid, SpecialReg::kNtidX);
  b.special(tid, SpecialReg::kTidX);
  b.mul_i(gid, ctaid, ntid);
  b.add_i(gid, gid, tid);
  b.mov_imm_i(lim, 24);
  b.rem_i(t24, gid, lim);
  b.mov_imm_i(one, 1);
  b.shl_b(t24, one, t24);  // 2^(gid % 24), exactly representable in f32
  b.cvt_i_to_f32(v, t24);
  b.atom_add_global_f32(v, v, out);
  b.ret();
  const KernelIR ir = b.build();
  ASSERT_TRUE(Interpreter::uses_global_atomics(ir));

  KernelArgs args;
  args.push_ptr(64);
  LaunchDims dims;
  dims.block_x = 8;
  dims.grid_x = 256;

  std::uint32_t serial_bits = 0;
  {
    AddressSpace mem(1 << 16, "m");
    Interpreter::Options opts;
    opts.workers = 1;
    Interpreter().run(ir, dims, args, mem, opts);
    serial_bits = std::bit_cast<std::uint32_t>(mem.read<float>(64));
  }
  {
    AddressSpace mem(1 << 16, "m");
    Interpreter::Options opts;
    opts.workers = 8;
    Interpreter().run(ir, dims, args, mem, opts);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(mem.read<float>(64)), serial_bits);
  }
}

// --- canonical chunking -------------------------------------------------------

TEST(InterpParallel, CanonicalChunksDependOnlyOnTheGrid) {
  LaunchDims d;
  d.grid_x = 1;
  EXPECT_EQ(Interpreter::canonical_chunks(d), 1u);
  d.grid_x = 63;
  EXPECT_EQ(Interpreter::canonical_chunks(d), 63u);
  d.grid_x = 64;
  EXPECT_EQ(Interpreter::canonical_chunks(d), 64u);
  d.grid_x = 1000;
  EXPECT_EQ(Interpreter::canonical_chunks(d), 64u);
  d.grid_x = 10;
  d.grid_y = 10;
  EXPECT_EQ(Interpreter::canonical_chunks(d), 64u);
  // block_x/block_y never enter.
  d.block_x = 128;
  EXPECT_EQ(Interpreter::canonical_chunks(d), 64u);
}

// --- observer -----------------------------------------------------------------

/// Simple guarded store kernel: thread gid stores gid into out[gid].
KernelIR make_store_kernel(const char* name) {
  KernelBuilder b(name, 2);
  const auto out = b.reg(), n = b.reg(), ctaid = b.reg(), ntid = b.reg(), tid = b.reg(),
             gid = b.reg(), cond = b.reg(), addr = b.reg();
  b.block("entry");
  b.ld_param(out, 0);
  b.ld_param(n, 1);
  b.special(ctaid, SpecialReg::kCtaidX);
  b.special(ntid, SpecialReg::kNtidX);
  b.special(tid, SpecialReg::kTidX);
  b.mul_i(gid, ctaid, ntid);
  b.add_i(gid, gid, tid);
  b.set_lt_i(cond, gid, n);
  b.bra_z(cond, "exit");
  b.block("body");
  b.addr_of(addr, out, gid, 3);
  b.st_global_i64(gid, addr);
  b.ret();
  b.block("exit");
  b.ret();
  return b.build();
}

TEST(InterpParallel, ObserverCoversEveryChunkAndAllTraffic) {
  const KernelIR ir = make_store_kernel("shards");
  KernelArgs args;
  args.push_ptr(0);
  args.push_i64(1000);
  LaunchDims dims;
  dims.block_x = 8;
  dims.grid_x = 128;
  const std::size_t chunks = Interpreter::canonical_chunks(dims);

  AddressSpace mem(1 << 16, "m");
  std::vector<ChunkCapture> captures(chunks);
  std::vector<ChunkObserver> observers;
  for (std::size_t c = 0; c < chunks; ++c) {
    observers.push_back({CacheModel(CacheConfig{4096, 64, 4}), &captures[c]});
  }
  Interpreter::Options opts;
  opts.workers = 8;
  opts.observers = observers;
  const DynamicProfile p = Interpreter().run(ir, dims, args, mem, opts);

  // Chunk c runs blocks 2c and 2c + 1, i.e. gids [16c, 16c + 16); only the
  // last chunk lies wholly past n = 1000 and stores nothing.
  std::uint64_t accesses = 0, written = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::uint64_t seen = observers[c].l2.stats().accesses;
    EXPECT_EQ(seen > 0, 16 * c < 1000) << "chunk " << c;
    accesses += seen;
    for (const MemChunk& w : captures[c].writes.ranges()) written += w.size;
    EXPECT_TRUE(captures[c].reads.ranges().empty());
  }
  // Every thread stores to its own 8-byte cell, one L2 line each, so the
  // captured write bytes add up to all the store traffic.
  EXPECT_EQ(accesses, 1000u);
  EXPECT_EQ(written, p.global_store_bytes);
  EXPECT_EQ(p.global_store_bytes, 8000u);

  // An observer span that is neither empty nor one per chunk is refused.
  opts.observers = std::span<ChunkObserver>(observers).first(chunks - 1);
  EXPECT_THROW(Interpreter().run(ir, dims, args, mem, opts), ContractError);
}

// --- divergent-exit barriers --------------------------------------------------

KernelIR make_divergent_barrier_kernel() {
  // Threads with tid < ntid/2 retire immediately; the rest hit bar.sync.
  KernelBuilder b("diverge", 0);
  const auto tid = b.reg(), ntid = b.reg(), half = b.reg(), two = b.reg(), cond = b.reg();
  b.block("entry");
  b.special(tid, SpecialReg::kTidX);
  b.special(ntid, SpecialReg::kNtidX);
  b.mov_imm_i(two, 2);
  b.div_i(half, ntid, two);
  b.set_lt_i(cond, tid, half);
  b.bra_z(cond, "wait");
  b.block("early");
  b.ret();
  b.block("wait");
  b.bar();
  b.ret();
  return b.build();
}

TEST(InterpParallel, DivergentBarrierReleasesSilentlyByDefault) {
  const KernelIR ir = make_divergent_barrier_kernel();
  AddressSpace mem(1 << 16, "m");
  LaunchDims dims;
  dims.block_x = 8;
  const DynamicProfile p = Interpreter().run(ir, dims, KernelArgs{}, mem);
  EXPECT_EQ(p.barriers_waited, 1u);  // CUDA exited-thread rule: it releases
}

// --- error determinism --------------------------------------------------------

TEST(InterpParallel, RunawayKernelThrowsForEveryWorkerCount) {
  KernelBuilder b("inf", 0);
  b.block("entry");
  b.jmp("entry");
  const KernelIR ir = b.build();
  LaunchDims dims;
  dims.grid_x = 128;
  for (std::size_t workers : {1u, 8u}) {
    AddressSpace mem(1 << 16, "m");
    Interpreter::Options opts;
    opts.max_instrs_per_thread = 1000;
    opts.workers = workers;
    EXPECT_THROW(Interpreter().run(ir, dims, KernelArgs{}, mem, opts), ContractError);
  }
}

// --- program cache ------------------------------------------------------------

TEST(InterpParallel, ProgramCacheReusesAndInvalidates) {
  Tier2Engine& engine = Tier2Engine::instance();
  KernelIR ir = make_store_kernel("cache");

  const auto p1 = engine.program(ir, 8);
  const auto p2 = engine.program(ir, 8);
  EXPECT_EQ(p1.get(), p2.get());  // warm hit: same program
  EXPECT_NE(engine.program(ir, 64).get(), p1.get());  // another stride lowers anew

  // Rebuild the kernel in place (same KernelIR object, different body): the
  // structural fingerprint must change and the next lookup must re-lower.
  const KernelIR replacement = make_divergent_barrier_kernel();
  ir.blocks = replacement.blocks;
  ir.num_regs = replacement.num_regs;
  ir.num_params = replacement.num_params;
  ir.shared_bytes = replacement.shared_bytes;
  const auto p3 = engine.program(ir, 8);
  EXPECT_NE(p1.get(), p3.get());
  EXPECT_NE(p1->fingerprint, p3->fingerprint);

  // Renaming alone is not a semantic change.
  KernelIR renamed = replacement;
  renamed.name = "other-name";
  EXPECT_EQ(interp_detail::kernel_fingerprint(renamed),
            interp_detail::kernel_fingerprint(replacement));
}

TEST(InterpParallel, RebuiltKernelExecutesNewBodyThroughTheCache) {
  // End-to-end invalidation: run, mutate in place, run again — the second
  // run must reflect the new body, not the cached decode of the old one.
  KernelIR ir;
  {
    KernelBuilder b("mut", 1);
    const auto out = b.reg(), v = b.reg();
    b.block("entry");
    b.ld_param(out, 0);
    b.mov_imm_i(v, 111);
    b.st_global_i64(v, out);
    b.ret();
    ir = b.build();
  }
  AddressSpace mem(1 << 16, "m");
  KernelArgs args;
  args.push_ptr(64);
  Interpreter().run(ir, LaunchDims{}, args, mem);
  EXPECT_EQ(mem.read<std::int64_t>(64), 111);

  {
    KernelBuilder b("mut", 1);
    const auto out = b.reg(), v = b.reg();
    b.block("entry");
    b.ld_param(out, 0);
    b.mov_imm_i(v, 222);
    b.st_global_i64(v, out);
    b.ret();
    const KernelIR next = b.build();
    ir.blocks = next.blocks;
  }
  Interpreter().run(ir, LaunchDims{}, args, mem);
  EXPECT_EQ(mem.read<std::int64_t>(64), 222);
}

TEST(InterpParallel, StructurallyEqualKernelsShareOneProgram) {
  // The program table is keyed by structural fingerprint: two distinct
  // KernelIR objects with one body (names differ) lower once.
  Tier2Engine& engine = Tier2Engine::instance();
  engine.reset();
  const KernelIR a = make_store_kernel("share-a");
  const KernelIR b = make_store_kernel("share-b");
  const auto pa = engine.program(a, 8);
  const auto pb = engine.program(b, 8);
  EXPECT_EQ(pa.get(), pb.get());
  EXPECT_EQ(engine.stats().compiles, 1u);
  EXPECT_EQ(engine.stats().lowered_entries, 1u);
  EXPECT_EQ(engine.stats().launches_tier2, 0u);  // a lookup is not a launch

  // Both run correctly on the shared program.
  for (const KernelIR* k : {&a, &b}) {
    AddressSpace mem(1 << 16, "m");
    KernelArgs args;
    args.push_ptr(64);
    args.push_i64(8);
    LaunchDims dims;
    dims.block_x = 8;
    Interpreter().run(*k, dims, args, mem);
    for (std::int64_t i = 0; i < 8; ++i) EXPECT_EQ(mem.read<std::int64_t>(64 + 8 * i), i);
  }
  EXPECT_EQ(engine.stats().compiles, 1u);
  EXPECT_EQ(engine.stats().launches_tier2, 2u);
  engine.reset();
}

TEST(InterpParallel, ConcurrentTopLevelLaunchesEachMatchTheReference) {
  // Two callers on their own threads share the interpreter pool at once;
  // each waits for its own runners only and gets the reference's bytes and
  // profile.
  const std::vector<Workload> suite = workloads::make_suite();
  const std::vector<const Workload*> kernels = {&workloads::find(suite, "matrixMul"),
                                                &workloads::find(suite, "convolutionSeparable")};
  std::vector<RunResult> reference;
  for (const Workload* w : kernels) reference.push_back(run_workload(*w, 1, true));
  for (int round = 0; round < 3; ++round) {
    std::vector<RunResult> got(kernels.size());
    std::vector<std::thread> callers;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
      callers.emplace_back([&, i] { got[i] = run_workload(*kernels[i], 4); });
    }
    for (std::thread& t : callers) t.join();
    for (std::size_t i = 0; i < kernels.size(); ++i) {
      const std::string label = kernels[i]->app + " round " + std::to_string(round);
      EXPECT_TRUE(got[i].memory == reference[i].memory) << label << ": memory diverged";
      expect_profiles_identical(reference[i].profile, got[i].profile, label);
    }
  }
}

}  // namespace
}  // namespace sigvp
