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
#include <limits>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "gpu/launch_cache.hpp"
#include "interp/interpreter.hpp"
#include "interp/tier2.hpp"
#include "ir/builder.hpp"
#include "ir/validate.hpp"
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

/// Every byte of `mem`.
std::vector<std::uint8_t> all_bytes(const AddressSpace& mem) {
  std::vector<std::uint8_t> out(mem.size());
  mem.copy_out(out.data(), 0, out.size());
  return out;
}

struct RunResult {
  std::vector<std::uint8_t> memory;
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
/// when `workers` is 0. Returns the memory bytes, the profile and the error.
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
  out.memory = all_bytes(mem);
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
    EXPECT_TRUE(got.memory == ref.memory) << label << ": memory image diverged";
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
          EXPECT_TRUE(got.memory == ref.memory) << label << ": memory image diverged";
        }
        if (ref.error.empty()) expect_profiles_identical(ref.profile, got.profile, label);
      }
    }
  }
}

// --- integer wrap-around ------------------------------------------------------

TEST(Tier2Differential, IntegerOverflowWrapsIdenticallyInEveryEngineSite) {
  // Guest i64 add/sub/mul/neg/abs wrap modulo 2^64. Every op overflows for
  // some thread, at each engine site: the vector prologue (pure-register
  // prefix of the entry block), the threaded single-op handlers, and the
  // fused mul_add_i / shl_add_i / add_add_i / add_i_jmp superinstructions.
  // The i64 atomic add overflows too. The engine must match the reference
  // byte for byte, and both must hold the two's-complement results.
  EngineSandbox sandbox;
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::uint32_t kSlots = 14;
  constexpr std::uint64_t kAtomAddr = 0;  // one shared i64 counter
  const auto wrap = [](std::uint64_t v) { return static_cast<std::int64_t>(v); };

  KernelBuilder b("int_overflow", 0);
  const auto tid = b.reg(), cta = b.reg(), ntid = b.reg(), gid = b.reg();
  const auto max = b.reg(), min = b.reg(), one = b.reg(), stride = b.reg();
  const auto base = b.reg(), u = b.reg(), old = b.reg();
  std::vector<std::uint8_t> slot(kSlots);
  std::vector<std::uint8_t> val(kSlots);
  for (auto& r : slot) r = b.reg();
  for (auto& r : val) r = b.reg();
  b.block("entry");
  // Vector prologue: addresses, then five overflowing ops.
  b.special(tid, SpecialReg::kTidX);
  b.special(cta, SpecialReg::kCtaidX);
  b.special(ntid, SpecialReg::kNtidX);
  b.mov_imm_i(max, kMax);
  b.mov_imm_i(min, kMin);
  b.mov_imm_i(one, 1);
  b.mov_imm_i(stride, 8);
  b.mul_i(gid, cta, ntid);
  b.add_i(gid, gid, tid);
  b.mov_imm_i(base, 8 * (kSlots + 1));
  b.mul_i(base, base, gid);
  b.add_i(slot[0], base, stride);
  for (std::uint32_t k = 1; k < kSlots; ++k) b.add_i(slot[k], slot[k - 1], stride);
  b.add_i(val[0], max, gid);
  b.sub_i(val[1], min, gid);
  b.mul_i(val[2], max, gid);
  b.neg_i(val[3], min);
  b.abs_i(val[4], min);
  for (std::uint32_t k = 0; k < 5; ++k) b.st_global_i64(val[k], slot[k]);
  // Threaded single-op handlers, each followed by a store (no fusion).
  b.add_i(val[5], max, gid);
  b.st_global_i64(val[5], slot[5]);
  b.sub_i(val[6], min, gid);
  b.st_global_i64(val[6], slot[6]);
  b.mul_i(val[7], max, gid);
  b.st_global_i64(val[7], slot[7]);
  b.neg_i(val[8], min);
  b.st_global_i64(val[8], slot[8]);
  b.abs_i(val[9], min);
  b.st_global_i64(val[9], slot[9]);
  // Fused pairs: mul+add, shl+add, add+add, add+jmp.
  b.mul_i(val[10], max, gid);
  b.add_i(val[10], val[10], max);
  b.st_global_i64(val[10], slot[10]);
  b.shl_b(val[11], max, one);
  b.add_i(val[11], val[11], max);
  b.st_global_i64(val[11], slot[11]);
  b.add_i(val[12], max, gid);
  b.add_i(val[12], val[12], max);
  b.st_global_i64(val[12], slot[12]);
  b.mov_imm_i(u, kAtomAddr);
  b.atom_add_global_i64(old, max, u);
  b.add_i(val[13], min, gid);
  b.jmp("tail");
  b.block("tail");
  b.sub_i(val[13], val[13], one);
  b.st_global_i64(val[13], slot[13]);
  b.ret();
  const KernelIR ir = b.build();

  LaunchDims dims;
  dims.grid_x = 3;
  dims.block_x = 5;
  const std::uint64_t threads = dims.total_threads();
  const std::uint64_t bytes = 8 * (kSlots + 1) * (threads + 1);
  AddressSpace ref_mem(bytes, "ref");
  const DynamicProfile ref_profile = Interpreter::run_reference(
      ir, dims, {}, ref_mem, Interpreter::kDefaultMaxInstrsPerThread);
  const Tier2Stats before = Tier2Engine::instance().stats();
  for (std::size_t workers : {1u, 4u}) {
    AddressSpace mem(bytes, "engine");
    Interpreter::Options options;
    options.workers = workers;
    const DynamicProfile profile = Interpreter().run(ir, dims, {}, mem, options);
    expect_profiles_identical(ref_profile, profile, "workers=" + std::to_string(workers));
    EXPECT_TRUE(all_bytes(mem) == all_bytes(ref_mem)) << "workers=" << workers;
  }
  // The four fused pairs above (address arithmetic may fuse more).
  EXPECT_GE((Tier2Engine::instance().stats() - before).fused_superinsts, 4u);

  EXPECT_EQ(ref_mem.read<std::int64_t>(kAtomAddr),
            wrap(static_cast<std::uint64_t>(kMax) * threads));
  for (std::uint64_t g = 0; g < threads; ++g) {
    const std::uint64_t at = 8 * (kSlots + 1) * g + 8;
    const auto got = [&](std::uint32_t k) { return ref_mem.read<std::int64_t>(at + 8 * k); };
    const std::uint64_t umax = static_cast<std::uint64_t>(kMax);
    const std::uint64_t umin = static_cast<std::uint64_t>(kMin);
    for (std::uint32_t k : {0u, 5u}) EXPECT_EQ(got(k), wrap(umax + g)) << g;
    for (std::uint32_t k : {1u, 6u}) EXPECT_EQ(got(k), wrap(umin - g)) << g;
    for (std::uint32_t k : {2u, 7u}) EXPECT_EQ(got(k), wrap(umax * g)) << g;
    for (std::uint32_t k : {3u, 4u, 8u, 9u}) EXPECT_EQ(got(k), kMin) << g;
    EXPECT_EQ(got(10), wrap(umax * g + umax)) << g;
    EXPECT_EQ(got(11), wrap((umax << 1) + umax)) << g;
    EXPECT_EQ(got(12), wrap(umax + g + umax)) << g;
    EXPECT_EQ(got(13), wrap(umin + g - 1)) << g;
  }
}

TEST(Tier2Differential, IntegerDivisionOverflowIsDefinedIdenticallyInBothEngines) {
  // INT64_MIN / -1 is the one quotient that does not fit in an i64; on the
  // host it traps. Guest division defines it as INT64_MIN with remainder 0,
  // in the reference and the engine alike, next to ordinary truncating
  // division of negative operands.
  EngineSandbox sandbox;
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::uint32_t kSlots = 6;

  KernelBuilder b("int_div_overflow", 0);
  const auto tid = b.reg(), cta = b.reg(), ntid = b.reg(), gid = b.reg();
  const auto min = b.reg(), minus1 = b.reg(), two = b.reg(), base = b.reg(), a = b.reg();
  std::vector<std::uint8_t> val(kSlots);
  for (auto& r : val) r = b.reg();
  b.block("entry");
  b.special(tid, SpecialReg::kTidX);
  b.special(cta, SpecialReg::kCtaidX);
  b.special(ntid, SpecialReg::kNtidX);
  b.mul_i(gid, cta, ntid);
  b.add_i(gid, gid, tid);
  b.mov_imm_i(min, kMin);
  b.mov_imm_i(minus1, -1);
  b.mov_imm_i(two, 2);
  b.mov_imm_i(base, 8 * kSlots);
  b.mul_i(base, base, gid);
  b.div_i(val[0], min, minus1);
  b.rem_i(val[1], min, minus1);
  b.add_i(a, min, gid);  // INT64_MIN + gid: overflows only for gid 0
  b.div_i(val[2], a, minus1);
  b.rem_i(val[3], a, minus1);
  b.sub_i(a, minus1, gid);  // -1 - gid: ordinary truncation toward zero
  b.div_i(val[4], a, two);
  b.rem_i(val[5], a, two);
  for (std::uint32_t k = 0; k < kSlots; ++k) {
    b.st_global_i64(val[k], base, static_cast<std::int64_t>(8 * k));
  }
  b.ret();
  const KernelIR ir = b.build();

  LaunchDims dims;
  dims.grid_x = 3;
  dims.block_x = 5;
  const std::uint64_t threads = dims.total_threads();
  const std::uint64_t bytes = 8 * kSlots * threads;
  AddressSpace ref_mem(bytes, "ref");
  const DynamicProfile ref_profile = Interpreter::run_reference(ir, dims, {}, ref_mem);
  for (std::size_t workers : {1u, 4u}) {
    AddressSpace mem(bytes, "engine");
    Interpreter::Options options;
    options.workers = workers;
    const DynamicProfile profile = Interpreter().run(ir, dims, {}, mem, options);
    expect_profiles_identical(ref_profile, profile, "workers=" + std::to_string(workers));
    EXPECT_TRUE(all_bytes(mem) == all_bytes(ref_mem)) << "workers=" << workers;
  }

  for (std::uint64_t g = 0; g < threads; ++g) {
    const auto got = [&](std::uint32_t k) {
      return ref_mem.read<std::int64_t>(8 * kSlots * g + 8 * k);
    };
    const auto gi = static_cast<std::int64_t>(g);
    EXPECT_EQ(got(0), kMin) << g;
    EXPECT_EQ(got(1), 0) << g;
    EXPECT_EQ(got(2), g == 0 ? kMin : -(kMin + gi)) << g;
    EXPECT_EQ(got(3), 0) << g;
    EXPECT_EQ(got(4), (-1 - gi) / 2) << g;
    EXPECT_EQ(got(5), (-1 - gi) % 2) << g;
  }
}

// --- every pure op, in both engine sites -------------------------------------

/// Runs `ir` on the reference and on the engine at one and four workers over
/// fresh memory of `bytes` bytes; the engine's profile and memory must equal
/// the reference's. Returns the reference memory.
AddressSpace expect_engine_matches_reference(const KernelIR& ir, const LaunchDims& dims,
                                             const KernelArgs& args, std::uint64_t bytes) {
  AddressSpace ref_mem(bytes, "ref");
  const DynamicProfile ref_profile = Interpreter::run_reference(ir, dims, args, ref_mem);
  for (std::size_t workers : {1u, 4u}) {
    AddressSpace mem(bytes, "engine");
    Interpreter::Options options;
    options.workers = workers;
    const DynamicProfile profile = Interpreter().run(ir, dims, args, mem, options);
    const std::string label = ir.name + " workers=" + std::to_string(workers);
    expect_profiles_identical(ref_profile, profile, label);
    EXPECT_TRUE(all_bytes(mem) == all_bytes(ref_mem)) << label;
  }
  return ref_mem;
}

TEST(Tier2Differential, EveryPureOpMatchesTheReferenceInThePrologueAndTheThreadedCode) {
  // Each SIGVP_PURE_OPS row runs on edge values (NaN, ±0, ±inf, INT64_MIN
  // and MAX, shift counts of 64 and more, floats beyond the i64 range) and
  // seeded random bits, at two sites: in the entry block's vector prologue
  // (operands from immediate moves, before any memory op) and in threaded
  // code after a store. SFU ops never join the prologue, so both of their
  // copies run threaded. The engine's memory and profile must equal the
  // reference's.
  EngineSandbox sandbox;
  // clang-format off
  std::vector<std::uint64_t> values = {
      0, 1, ~0ull, 0x8000000000000000ull, 0x7fffffffffffffffull, 63, 64, 65, 200,
      0x7fc00000,                         // f32 NaN
      0x80000000,                         // f32 -0
      0x7f800000, 0xff800000,             // f32 ±inf
      0x7149f2ca, 0xf149f2ca,             // f32 ±1e30
      0x5f000000, 0xdf000000,             // f32 ±2^63
      0x3fc00000, 0xc0200000,             // f32 1.5, -2.5
      0x7ff8000000000000ull,              // f64 NaN (f64 -0 is INT64_MIN above)
      0x7ff0000000000000ull, 0xfff0000000000000ull,  // f64 ±inf
      0x7e37e43c8800759cull, 0xfe37e43c8800759cull,  // f64 ±1e300
      0x43e0000000000000ull, 0xc3e0000000000000ull,  // f64 ±2^63
      0x3ff8000000000000ull, 0xc004000000000000ull,  // f64 1.5, -2.5
  };
  // clang-format on
  std::mt19937_64 rng(24);
  for (int i = 0; i < 12; ++i) values.push_back(rng());
  struct Operands {
    std::uint64_t a, b, c;
  };
  std::vector<Operands> cases;
  for (const std::uint64_t v : values) {
    cases.push_back({v, values[rng() % values.size()], values[rng() % values.size()]});
  }
  const auto ncases = static_cast<std::uint32_t>(cases.size());

  const Opcode pure_ops[] = {
#define SIGVP_PURE_ROW(opc, name, body) Opcode::opc,
      SIGVP_PURE_OPS(SIGVP_PURE_ROW)
#undef SIGVP_PURE_ROW
  };
  for (const Opcode op : pure_ops) {
    SCOPED_TRACE(std::string(opcode_name(op)));
    // r0..r6: tid, ctaid, ntid, gid, row bytes, row base, A; r7 B, r8 C,
    // r9 the threaded copy's result, r10.. the prologue copies' results.
    enum : std::uint8_t { kTid, kCta, kNtid, kGid, kRowBytes, kBase, kA, kB, kC, kD };
    const auto prologue_dst = [](std::uint32_t k) { return static_cast<std::uint8_t>(kD + 1 + k); };
    KernelIR ir;
    ir.name = std::string("pure_") + std::string(opcode_name(op));
    ir.num_regs = kD + 1 + ncases;
    BasicBlock entry{"entry", {}};
    auto& code = entry.instrs;
    const auto emit = [&](Opcode o, std::uint8_t dst, std::uint8_t a = 0, std::uint8_t b = 0,
                          std::int64_t imm = 0) {
      code.push_back(Instr{o, dst, a, b, 0, imm, 0.0});
    };
    const auto emit_case = [&](const Operands& c, std::uint8_t dst) {
      emit(Opcode::kMovImmI, kA, 0, 0, static_cast<std::int64_t>(c.a));
      emit(Opcode::kMovImmI, kB, 0, 0, static_cast<std::int64_t>(c.b));
      emit(Opcode::kMovImmI, kC, 0, 0, static_cast<std::int64_t>(c.c));
      code.push_back(Instr{op, dst, kA, kB, kC, 0, 0.0});
    };
    emit(Opcode::kReadSpecial, kTid, 0, 0, static_cast<std::int64_t>(SpecialReg::kTidX));
    emit(Opcode::kReadSpecial, kCta, 0, 0, static_cast<std::int64_t>(SpecialReg::kCtaidX));
    emit(Opcode::kReadSpecial, kNtid, 0, 0, static_cast<std::int64_t>(SpecialReg::kNtidX));
    emit(Opcode::kMulI, kGid, kCta, kNtid);
    emit(Opcode::kAddI, kGid, kGid, kTid);
    emit(Opcode::kMovImmI, kRowBytes, 0, 0, 16 * ncases);
    emit(Opcode::kMulI, kBase, kGid, kRowBytes);
    for (std::uint32_t k = 0; k < ncases; ++k) emit_case(cases[k], prologue_dst(k));
    for (std::uint32_t k = 0; k < ncases; ++k) {
      emit(Opcode::kStGlobalI64, 0, kBase, prologue_dst(k), 8 * k);
    }
    for (std::uint32_t k = 0; k < ncases; ++k) {
      emit_case(cases[k], kD);
      emit(Opcode::kStGlobalI64, 0, kBase, kD, 8 * (ncases + k));
    }
    emit(Opcode::kRet, 0);
    ir.blocks.push_back(std::move(entry));
    validate_kernel(ir);

    LaunchDims dims;
    dims.grid_x = 2;
    dims.block_x = 3;
    // The prologue: the 7 address ops, then every case unless the op is an
    // SFU op (the prologue then stops at the first case's op).
    const auto lowered = interp_detail::lower_program(ir, 2);
    EXPECT_EQ(lowered->prologue.size(), is_sfu_op(op) ? 7u + 3u : 7u + 4u * ncases);
    expect_engine_matches_reference(ir, dims, {}, 16 * ncases * dims.total_threads());
  }
}

TEST(Tier2Differential, OpcodeOutsideTheTableIsRefusedByBothEngines) {
  // IR not made by the builder may hold any byte as its opcode. Both engines
  // refuse it at decode time instead of running a fallback handler or
  // jumping past the dispatch table.
  EngineSandbox sandbox;
  for (const int bad : {static_cast<int>(kOpcodeCount), 200, 255}) {
    KernelBuilder b("bad_opcode", 0);
    const auto x = b.reg();
    b.block("entry");
    b.mov_imm_i(x, 1);
    b.add_i(x, x, x);
    b.ret();
    KernelIR ir = b.build();
    ir.blocks[0].instrs[1].op = static_cast<Opcode>(bad);
    EXPECT_THROW(validate_kernel(ir), ContractError) << bad;
    AddressSpace mem(4096, "m");
    EXPECT_THROW(Interpreter::run_reference(ir, LaunchDims{}, {}, mem), ContractError) << bad;
    EXPECT_THROW(Interpreter().run(ir, LaunchDims{}, {}, mem), ContractError) << bad;
  }
}

TEST(Tier2Differential, AnAtomicWritesOnlyItsResultRegister) {
  // Each global atomic returns the old value in the register it names and
  // leaves every other register alone, r0 (here the pointer parameter)
  // included, in both engines.
  EngineSandbox sandbox;
  constexpr std::uint64_t kBuf = 64;
  KernelBuilder b("atomic_r0", 1);
  const auto p = b.reg(), one = b.reg(), onef = b.reg(), old = b.reg(), oldf = b.reg();
  const auto tid = b.reg(), stride = b.reg(), slot = b.reg();
  ASSERT_EQ(p, 0);
  b.block("entry");
  b.ld_param(p, 0);
  b.mov_imm_i(one, 1);
  b.mov_imm_f32(onef, 1.0f);
  b.atom_add_global_i64(old, one, p);
  b.atom_add_global_f32(oldf, onef, p, 8);
  b.special(tid, SpecialReg::kTidX);
  b.mov_imm_i(stride, 24);
  b.mul_i(slot, tid, stride);
  b.add_i(slot, slot, p);
  b.st_global_i64(p, slot, 16);
  b.st_global_i64(old, slot, 24);
  b.st_global_f32(oldf, slot, 32);
  b.ret();
  const KernelIR ir = b.build();

  KernelArgs args;
  args.push_ptr(kBuf);
  LaunchDims dims;
  dims.block_x = 4;
  const AddressSpace mem = expect_engine_matches_reference(ir, dims, args, 4096);
  EXPECT_EQ(mem.read<std::int64_t>(kBuf), 4);
  EXPECT_EQ(mem.read<float>(kBuf + 8), 4.0f);
  for (std::uint64_t t = 0; t < 4; ++t) {
    const std::uint64_t at = kBuf + 24 * t + 16;
    EXPECT_EQ(mem.read<std::uint64_t>(at), kBuf) << t;  // r0 still holds p
    EXPECT_EQ(mem.read<std::int64_t>(at + 8), static_cast<std::int64_t>(t)) << t;
    EXPECT_EQ(mem.read<float>(at + 16), static_cast<float>(t)) << t;
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
  // bypass the engine, and each (fingerprint, SoA stride) pair is lowered
  // once.
  EngineSandbox sandbox;
  LaunchCache::instance().clear();  // earlier tests' replays would hide launches
  Tier2Engine& eng = Tier2Engine::instance();
  ScenarioConfig config = functional_job(suite().front(), "x", 1).config;
  std::vector<AppInstance> apps;
  std::set<std::pair<std::uint64_t, unsigned>> pairs;
  for (const Workload& w : suite()) {
    AppInstance a = functional_job(w, "x", 1).apps.front();
    pairs.emplace(interp_detail::kernel_fingerprint(w.kernel),
                  ceil_log2(w.dims(a.n).threads_per_block()));
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

  // Same fingerprint again: cached, no third compile. The old body's
  // program stays resident under its own fingerprint until FIFO eviction
  // ages it out.
  Interpreter().run(ir, LaunchDims{}, args, mem);
  EXPECT_EQ((eng.stats() - before).compiles, 2u);
  EXPECT_EQ(eng.stats().lowered_entries, 2u);
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
  EXPECT_TRUE(verified.memory == ref.memory);
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

  // Bytes decide, not write history: a page written with zeros on one side
  // only is no divergence. A flipped byte names its 1 MiB window.
  AddressSpace c(3 << 20, "c"), d(3 << 20, "d");
  d.write<std::uint32_t>(5 << 18, 0);
  EXPECT_NO_THROW(check_tier_divergence(w.kernel, r.profile, r.profile, c, d));
  d.write<std::uint8_t>((3 << 19) + 7, 1);
  try {
    check_tier_divergence(w.kernel, r.profile, r.profile, c, d);
    ADD_FAILURE() << "flipped byte not detected";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("window [1048576, 2097152)"), std::string::npos)
        << e.what();
  }
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
