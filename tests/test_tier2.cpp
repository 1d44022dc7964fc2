// Differential battery for the kernel execution engine (DESIGN.md §15): for
// every workload in the suite, histogram's global atomics included, the
// engine's memory image and DynamicProfile must be byte-exact vs the serial
// reference interpreter at every worker count, and budget exhaustion must
// fail the same way; the engine's counters must be a pure function of the
// sim-domain launch stream (identical across worker counts and across
// resume-from-checkpoint); an in-place kernel rebuild must re-lower through
// the fingerprint; the program cache must stay within its cap; and the
// SIGVP_TIER_VERIFY oracle must pass cleanly on the suite.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "gpu/launch_cache.hpp"
#include "interp/interpreter.hpp"
#include "interp/tier2.hpp"
#include "ir/builder.hpp"
#include "mem/allocator.hpp"
#include "run/sweep.hpp"
#include "snapshot/io.hpp"
#include "snapshot/serial.hpp"
#include "snapshot/state.hpp"
#include "util/check.hpp"
#include "workloads/suite.hpp"

namespace sigvp {
namespace {

namespace fs = std::filesystem;
using workloads::Workload;

/// The engine is a process-wide singleton; every test that touches it runs
/// inside a sandbox that starts from a clean slate and restores the entry
/// verify flag on exit, so test order never leaks engine state (into this
/// binary or the tests around it).
struct EngineSandbox {
  bool verify;
  EngineSandbox() : verify(Tier2Engine::instance().verify()) {
    Tier2Engine::instance().reset();
  }
  ~EngineSandbox() {
    Tier2Engine& e = Tier2Engine::instance();
    e.set_verify(verify);
    e.reset();
  }
};

struct RunResult {
  std::uint64_t memory_hash = 0;
  DynamicProfile profile;
  std::string error;  // kernel-facing part of a ContractError; empty = ran clean
};

/// The kernel-facing message of a ContractError: the REQUIRE preamble embeds
/// the throw site (file:line), which rightly differs between the engine and
/// the reference, so compare from the em dash on.
std::string kernel_message(const std::string& what) {
  const std::size_t dash = what.find("\xE2\x80\x94");
  return dash == std::string::npos ? what : what.substr(dash);
}

/// Fresh memory sized to the workload's buffers, deterministic inputs, one
/// launch at `w.test_n` — on the engine at `workers`, or on the reference
/// when `workers` is 0. Returns the memory hash, the profile and the error.
RunResult run_workload(const Workload& w, std::size_t workers,
                       std::uint64_t budget = Interpreter::kDefaultMaxInstrsPerThread) {
  const auto bufs = w.buffers(w.test_n);
  std::uint64_t space = 1u << 16;
  for (const auto& b : bufs) space += (b.bytes + 4095) / 4096 * 4096;
  AddressSpace mem(space, "m");
  FreeListAllocator alloc(4096, mem.size() - 4096);
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

  const LaunchDims dims = w.dims(w.test_n);
  const KernelArgs args = w.args(addrs, w.test_n);
  RunResult out;
  try {
    if (workers == 0) {
      out.profile = Interpreter::run_reference(w.kernel, dims, args, mem, budget);
    } else {
      Interpreter::Options options;
      options.workers = workers;
      options.max_instrs_per_thread = budget;
      out.profile = Interpreter().run(w.kernel, dims, args, mem, options);
    }
  } catch (const ContractError& e) {
    out.error = kernel_message(e.what());
  }
  out.memory_hash = mem.hash_range(0, mem.size(), kMemHashSeed);
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

const std::vector<Workload>& suite() {
  static const std::vector<Workload> s = workloads::make_suite();
  return s;
}

// --- suite-wide engine-vs-reference differential ------------------------------

class Tier2DifferentialTest : public ::testing::TestWithParam<std::string> {
 protected:
  const Workload& workload() const { return workloads::find(suite(), GetParam()); }
};

TEST_P(Tier2DifferentialTest, MemoryAndProfileByteExactVsTier1AtEveryWorkerCount) {
  EngineSandbox sandbox;
  const Workload& w = workload();
  const RunResult ref = run_workload(w, 0);
  ASSERT_TRUE(ref.error.empty()) << ref.error;
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    const RunResult got = run_workload(w, workers);
    const std::string label = w.app + " engine @ workers=" + std::to_string(workers);
    EXPECT_TRUE(got.error.empty()) << label << ": " << got.error;
    EXPECT_EQ(got.memory_hash, ref.memory_hash) << label << ": memory image diverged";
    expect_profiles_identical(ref.profile, got.profile, label);
  }
}

std::vector<std::string> all_names() {
  std::vector<std::string> names;
  for (const auto& w : suite()) names.push_back(w.app);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Suite, Tier2DifferentialTest, ::testing::ValuesIn(all_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return n;
                         });

// --- budget exhaustion --------------------------------------------------------

TEST(Tier2Differential, BudgetExhaustionThrowsAtTheSamePointWithTheSameSideEffects) {
  // Budgets inside the vector prologue (1), mid-prologue (3) and past it:
  // the engine must throw the identical ContractError as the reference. At
  // one worker the partial memory image must match too; at more workers the
  // chunks after the first failing one may or may not have started, so only
  // the error (lowest failing chunk) is deterministic. A launch the budget
  // does not cut short must match in full at every worker count.
  EngineSandbox sandbox;
  for (const Workload& w : suite()) {
    for (const std::uint64_t budget : {1ull, 3ull, 17ull, 200ull}) {
      const RunResult ref = run_workload(w, 0, budget);
      for (std::size_t workers : {1u, 2u, 4u, 8u}) {
        const std::string label = w.app + " budget=" + std::to_string(budget) +
                                  " workers=" + std::to_string(workers);
        const RunResult got = run_workload(w, workers, budget);
        EXPECT_EQ(got.error, ref.error) << label;
        if (ref.error.empty() || workers == 1) {
          EXPECT_EQ(got.memory_hash, ref.memory_hash) << label << ": memory image diverged";
        }
        if (ref.error.empty()) expect_profiles_identical(ref.profile, got.profile, label);
      }
    }
  }
}

// --- engine counters ----------------------------------------------------------

TEST(Tier2Promotion, DecisionStreamIsIdenticalAcrossWorkerCounts) {
  // The engine's counters are a pure function of the sim-domain launch
  // stream: replaying the same launches at a different worker count must
  // produce the identical stats delta (DESIGN.md §15 determinism contract).
  EngineSandbox sandbox;
  Tier2Engine& eng = Tier2Engine::instance();
  const std::vector<const Workload*> seq = {
      &workloads::find(suite(), "vectorAdd"), &workloads::find(suite(), "matrixMul"),
      &workloads::find(suite(), "reduction"), &workloads::find(suite(), "histogram")};

  std::vector<Tier2Stats> deltas;
  for (const std::size_t workers : {1u, 8u}) {
    eng.reset();
    const Tier2Stats before = eng.stats();
    for (int round = 0; round < 2; ++round) {
      for (const Workload* w : seq) run_workload(*w, workers);
    }
    deltas.push_back(eng.stats() - before);
  }
  EXPECT_EQ(deltas[0], deltas[1]);
  EXPECT_EQ(deltas[0].launches_tier2, 2u * seq.size());  // every launch, atomics too
  EXPECT_EQ(deltas[0].launches_tier1, 0u);
  EXPECT_EQ(deltas[0].launches_warming, 0u);
  EXPECT_EQ(deltas[0].compiles, seq.size());  // lowered once, reused in round 2
}

run::SweepJob functional_job(const Workload& w, const char* name, std::size_t vps) {
  run::SweepJob job;
  job.name = name;
  job.group = w.app;
  job.config.mode = ExecMode::kFunctional;
  job.config.functional_io = true;
  workloads::AppTraits t = w.traits;
  t.iterations = 1;
  for (std::size_t i = 0; i < vps; ++i) {
    AppInstance a;
    a.workload = &w;
    a.n = w.test_n;
    a.traits = t;
    job.apps.push_back(std::move(a));
  }
  return job;
}

unsigned ceil_log2(std::uint64_t v) {
  unsigned s = 0;
  while ((1ull << s) < v) ++s;
  return s;
}

TEST(Tier2Engine, FunctionalScenarioRunsEveryLaunchOnTheEngine) {
  // One functional_io scenario with one VP per suite kernel: no launch may
  // bypass the engine, and each (kernel, SoA stride) pair is lowered once.
  EngineSandbox sandbox;
  LaunchCache::instance().clear();  // earlier tests' replays would hide launches
  Tier2Engine& eng = Tier2Engine::instance();
  ScenarioConfig config = functional_job(suite().front(), "x", 1).config;
  std::vector<AppInstance> apps;
  std::set<std::pair<const KernelIR*, unsigned>> pairs;
  for (const Workload& w : suite()) {
    AppInstance a = functional_job(w, "x", 1).apps.front();
    pairs.emplace(&w.kernel, ceil_log2(w.dims(a.n).threads_per_block()));
    apps.push_back(std::move(a));
  }

  const Tier2Stats before = eng.stats();
  run_scenario(config, apps);
  const Tier2Stats d = eng.stats() - before;
  EXPECT_GE(d.launches_tier2, suite().size());
  EXPECT_EQ(d.launches_tier1, 0u);
  EXPECT_EQ(d.launches_warming, 0u);
  EXPECT_EQ(d.compiles, pairs.size());
  LaunchCache::instance().clear();
}

// --- fingerprint invalidation and the cache bound -----------------------------

KernelIR make_store_const_kernel(std::int64_t value) {
  KernelBuilder b("t2mut", 1);
  const auto out = b.reg(), v = b.reg();
  b.block("entry");
  b.ld_param(out, 0);
  b.mov_imm_i(v, value);
  b.st_global_i64(v, out);
  b.ret();
  return b.build();
}

TEST(Tier2Promotion, InPlaceKernelRebuildRelowersThroughTheFingerprint) {
  EngineSandbox sandbox;
  Tier2Engine& eng = Tier2Engine::instance();

  KernelIR ir = make_store_const_kernel(111);
  AddressSpace mem(1 << 16, "m");
  KernelArgs args;
  args.push_ptr(64);

  const Tier2Stats before = eng.stats();
  Interpreter().run(ir, LaunchDims{}, args, mem);
  EXPECT_EQ(mem.read<std::int64_t>(64), 111);
  EXPECT_EQ((eng.stats() - before).compiles, 1u);

  // Rebuild the kernel in place (same KernelIR object, different body): the
  // next launch must execute the NEW body through a fresh lowering, not the
  // stale code cached under the old fingerprint.
  const KernelIR next = make_store_const_kernel(222);
  ir.blocks = next.blocks;
  Interpreter().run(ir, LaunchDims{}, args, mem);
  EXPECT_EQ(mem.read<std::int64_t>(64), 222);
  EXPECT_EQ((eng.stats() - before).compiles, 2u);

  // Same fingerprint again: cached, no third compile, and the in-place
  // refresh replaced the entry instead of adding one.
  Interpreter().run(ir, LaunchDims{}, args, mem);
  EXPECT_EQ((eng.stats() - before).compiles, 2u);
  EXPECT_EQ(eng.stats().lowered_entries, 1u);
}

TEST(Tier2Engine, ProgramCacheEvictsFifoAtItsEntryCap) {
  EngineSandbox sandbox;
  Tier2Engine& eng = Tier2Engine::instance();
  std::vector<KernelIR> kernels;
  kernels.reserve(Tier2Engine::kMaxEntries + 2);
  for (std::size_t i = 0; i < Tier2Engine::kMaxEntries + 2; ++i) {
    kernels.push_back(make_store_const_kernel(static_cast<std::int64_t>(i)));
  }
  AddressSpace mem(1 << 16, "m");
  KernelArgs args;
  args.push_ptr(64);
  for (const KernelIR& k : kernels) Interpreter().run(k, LaunchDims{}, args, mem);
  Tier2Stats s = eng.stats();
  EXPECT_EQ(s.compiles, kernels.size());
  EXPECT_EQ(s.lowered_entries, Tier2Engine::kMaxEntries);
  EXPECT_EQ(s.evictions, 2u);

  // The two oldest entries went first: the newest kernel is still cached,
  // the first one lowers again.
  Interpreter().run(kernels.back(), LaunchDims{}, args, mem);
  EXPECT_EQ(eng.stats().compiles, kernels.size());
  Interpreter().run(kernels.front(), LaunchDims{}, args, mem);
  EXPECT_EQ(mem.read<std::int64_t>(64), 0);
  s = eng.stats();
  EXPECT_EQ(s.compiles, kernels.size() + 1);
  EXPECT_EQ(s.evictions, 3u);
}

// --- SIGVP_TIER_VERIFY oracle -------------------------------------------------

TEST(Tier2Verify, OracleRunsCleanOnSuiteKernels) {
  EngineSandbox sandbox;
  Tier2Engine& eng = Tier2Engine::instance();
  eng.set_verify(true);

  const Tier2Stats before = eng.stats();
  const RunResult verified = run_workload(workloads::find(suite(), "matrixMul"), 4);
  run_workload(workloads::find(suite(), "convolutionSeparable"), 4);
  run_workload(workloads::find(suite(), "histogram"), 4);
  const Tier2Stats d = eng.stats() - before;
  EXPECT_EQ(d.verify_launches, 3u);  // every launch was cross-checked

  // And the verified result still matches a plain reference run.
  eng.set_verify(false);
  const RunResult ref = run_workload(workloads::find(suite(), "matrixMul"), 0);
  EXPECT_TRUE(verified.error.empty()) << verified.error;
  EXPECT_EQ(verified.memory_hash, ref.memory_hash);
  expect_profiles_identical(ref.profile, verified.profile, "verify smoke");
}

TEST(Tier2Verify, DivergenceCheckerAcceptsIdenticalAndRejectsPerturbed) {
  using interp_detail::check_tier_divergence;
  const Workload& w = workloads::find(suite(), "vectorAdd");
  const RunResult r = run_workload(w, 0);

  AddressSpace a(1 << 20, "a"), b(1 << 20, "b");
  EXPECT_NO_THROW(check_tier_divergence(w.kernel, r.profile, r.profile, a, b));

  DynamicProfile bad = r.profile;
  bad.global_store_bytes += 4;
  EXPECT_THROW(check_tier_divergence(w.kernel, r.profile, bad, a, b), ContractError);

  b.write<std::uint8_t>(12345, 0xAB);  // one flipped byte in the memory image
  EXPECT_THROW(check_tier_divergence(w.kernel, r.profile, r.profile, a, b), ContractError);
}

// --- engine state across resume-from-checkpoint -------------------------------

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("sigvp_tier2_test_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

std::vector<std::vector<std::uint8_t>> sweep_bytes(const run::SweepResult& r) {
  std::vector<std::vector<std::uint8_t>> out;
  for (const auto& j : r.jobs) {
    snapshot::Writer w;
    snapshot::save_scenario_result(w, j.result);
    out.push_back(w.take());
  }
  return out;
}

TEST(Tier2Promotion, ResumedSweepIsBitIdenticalDespiteColdTierState) {
  // A resumed process starts with an empty program cache, so the re-run jobs
  // lower kernels the uninterrupted run had already cached at the same point
  // in the stream. The results must not care: cache state is invisible in
  // the sim domain.
  EngineSandbox sandbox;
  Tier2Engine& eng = Tier2Engine::instance();
  std::vector<run::SweepJob> jobs;
  jobs.push_back(functional_job(workloads::find(suite(), "vectorAdd"), "t2-va", 2));
  jobs.push_back(functional_job(workloads::find(suite(), "reduction"), "t2-red", 2));

  eng.reset();
  const auto golden = sweep_bytes(run::SweepRunner(2).run(jobs));

  const TempDir tmp("resume");
  run::SweepSnapshotOptions snap;
  snap.dir = tmp.str();
  snap.every_us = 300.0;
  eng.reset();
  run::SweepResumeInfo cold;
  EXPECT_EQ(sweep_bytes(run::SweepRunner(2).run(jobs, snap, &cold)), golden);
  EXPECT_TRUE(cold.resumed_from.empty());

  // Craft the checkpoint a crash between the two jobs would leave: job 0
  // finished (splice), job 1 untouched (fresh run in the resumed process).
  snapshot::CheckpointStore store(tmp.str());
  ASSERT_FALSE(store.find_latest_valid().path.empty());
  snapshot::SweepCheckpoint cp = snapshot::decode_sweep_checkpoint(
      snapshot::load_snapshot_file(store.find_latest_valid().path));
  ASSERT_EQ(cp.jobs.size(), 2u);
  cp.jobs[1] = snapshot::JobCheckpoint{};
  snapshot::CheckpointStore(tmp.str()).publish(snapshot::encode_sweep_checkpoint(cp));

  eng.reset();  // the process restart loses all cached programs
  run::SweepResumeInfo ri;
  const run::SweepResult resumed = run::SweepRunner(2).run(jobs, snap, &ri);
  EXPECT_EQ(ri.jobs_resumed, 1u);
  EXPECT_FALSE(ri.resumed_from.empty());
  EXPECT_EQ(sweep_bytes(resumed), golden);
}

}  // namespace
}  // namespace sigvp
