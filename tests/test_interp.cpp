#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <ostream>

#include "interp/interpreter.hpp"
#include "ir/builder.hpp"
#include "util/check.hpp"

namespace sigvp {
namespace {

constexpr std::uint64_t kMem = 1 << 16;

/// Runs a single-thread kernel built by `body` (which must store its result
/// and `ret`), returning the dynamic profile.
DynamicProfile run1(const std::function<void(KernelBuilder&)>& body, AddressSpace& mem,
                    const KernelArgs& args = {}, std::uint32_t num_params = 0) {
  KernelBuilder b("t", num_params);
  b.block("entry");
  body(b);
  const KernelIR ir = b.build();
  Interpreter interp;
  return interp.run(ir, LaunchDims{}, args, mem);
}

// --- arithmetic op coverage (parameterized) ----------------------------------

struct F64Case {
  const char* name;
  void (KernelBuilder::*emit)(std::uint8_t, std::uint8_t, std::uint8_t);
  double a, b, expected;
};

// gtest would otherwise print the raw bytes of the case, function pointers
// included, which puts run-dependent addresses into the listed test names.
void PrintTo(const F64Case& c, std::ostream* os) {
  *os << c.name << "(" << c.a << ", " << c.b << ") -> " << c.expected;
}

class F64BinaryTest : public ::testing::TestWithParam<F64Case> {};

TEST_P(F64BinaryTest, ComputesExpected) {
  const F64Case& c = GetParam();
  AddressSpace mem(kMem, "m");
  run1(
      [&](KernelBuilder& b) {
        const auto ra = b.reg(), rb = b.reg(), rc = b.reg(), addr = b.reg();
        b.mov_imm_f64(ra, c.a);
        b.mov_imm_f64(rb, c.b);
        (b.*c.emit)(rc, ra, rb);
        b.mov_imm_i(addr, 0);
        b.st_global_f64(rc, addr);
        b.ret();
      },
      mem);
  EXPECT_DOUBLE_EQ(mem.read<double>(0), c.expected) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, F64BinaryTest,
    ::testing::Values(
        F64Case{"add", &KernelBuilder::add_f64, 2.5, 1.25, 3.75},
        F64Case{"sub", &KernelBuilder::sub_f64, 2.5, 1.25, 1.25},
        F64Case{"mul", &KernelBuilder::mul_f64, 2.5, 4.0, 10.0},
        F64Case{"div", &KernelBuilder::div_f64, 10.0, 4.0, 2.5},
        F64Case{"min", &KernelBuilder::min_f64, 2.0, -3.0, -3.0},
        F64Case{"max", &KernelBuilder::max_f64, 2.0, -3.0, 2.0},
        F64Case{"setlt", &KernelBuilder::set_lt_f64, 1.0, 2.0, 4.94065645841246544e-324},
        F64Case{"setge", &KernelBuilder::set_ge_f64, 1.0, 2.0, 0.0}),
    [](const auto& info) { return info.param.name; });

struct IntCase {
  const char* name;
  void (KernelBuilder::*emit)(std::uint8_t, std::uint8_t, std::uint8_t);
  std::int64_t a, b, expected;
};

void PrintTo(const IntCase& c, std::ostream* os) {
  *os << c.name << "(" << c.a << ", " << c.b << ") -> " << c.expected;
}

class IntBinaryTest : public ::testing::TestWithParam<IntCase> {};

TEST_P(IntBinaryTest, ComputesExpected) {
  const IntCase& c = GetParam();
  AddressSpace mem(kMem, "m");
  run1(
      [&](KernelBuilder& b) {
        const auto ra = b.reg(), rb = b.reg(), rc = b.reg(), addr = b.reg();
        b.mov_imm_i(ra, c.a);
        b.mov_imm_i(rb, c.b);
        (b.*c.emit)(rc, ra, rb);
        b.mov_imm_i(addr, 0);
        b.st_global_i64(rc, addr);
        b.ret();
      },
      mem);
  EXPECT_EQ(mem.read<std::int64_t>(0), c.expected) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, IntBinaryTest,
    ::testing::Values(
        IntCase{"add", &KernelBuilder::add_i, 7, 5, 12},
        IntCase{"sub", &KernelBuilder::sub_i, 7, 5, 2},
        IntCase{"mul", &KernelBuilder::mul_i, -7, 5, -35},
        IntCase{"div", &KernelBuilder::div_i, 17, 5, 3},
        IntCase{"rem", &KernelBuilder::rem_i, 17, 5, 2},
        IntCase{"min", &KernelBuilder::min_i, -2, 3, -2},
        IntCase{"max", &KernelBuilder::max_i, -2, 3, 3},
        IntCase{"and", &KernelBuilder::and_b, 0b1100, 0b1010, 0b1000},
        IntCase{"or", &KernelBuilder::or_b, 0b1100, 0b1010, 0b1110},
        IntCase{"xor", &KernelBuilder::xor_b, 0b1100, 0b1010, 0b0110},
        IntCase{"shl", &KernelBuilder::shl_b, 3, 4, 48},
        IntCase{"shr", &KernelBuilder::shr_b, 48, 4, 3},
        IntCase{"shra", &KernelBuilder::shr_a, -16, 2, -4},
        IntCase{"setlt", &KernelBuilder::set_lt_i, 1, 2, 1},
        IntCase{"seteq", &KernelBuilder::set_eq_i, 2, 2, 1},
        IntCase{"setne", &KernelBuilder::set_ne_i, 2, 2, 0},
        IntCase{"setgt", &KernelBuilder::set_gt_i, 3, 2, 1},
        IntCase{"setle", &KernelBuilder::set_le_i, 3, 2, 0},
        IntCase{"setge", &KernelBuilder::set_ge_i, 2, 2, 1}),
    [](const auto& info) { return info.param.name; });

struct UnaryF32Case {
  const char* name;
  void (KernelBuilder::*emit)(std::uint8_t, std::uint8_t);
  float a, expected;
};

void PrintTo(const UnaryF32Case& c, std::ostream* os) {
  *os << c.name << "(" << c.a << ") -> " << c.expected;
}

class F32UnaryTest : public ::testing::TestWithParam<UnaryF32Case> {};

TEST_P(F32UnaryTest, ComputesExpected) {
  const UnaryF32Case& c = GetParam();
  AddressSpace mem(kMem, "m");
  run1(
      [&](KernelBuilder& b) {
        const auto ra = b.reg(), rc = b.reg(), addr = b.reg();
        b.mov_imm_f32(ra, c.a);
        (b.*c.emit)(rc, ra);
        b.mov_imm_i(addr, 0);
        b.st_global_f32(rc, addr);
        b.ret();
      },
      mem);
  EXPECT_NEAR(mem.read<float>(0), c.expected, 1e-5f) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, F32UnaryTest,
    ::testing::Values(
        UnaryF32Case{"sqrt", &KernelBuilder::sqrt_f32, 9.0f, 3.0f},
        UnaryF32Case{"rsqrt", &KernelBuilder::rsqrt_f32, 4.0f, 0.5f},
        UnaryF32Case{"exp", &KernelBuilder::exp_f32, 1.0f, 2.718282f},
        UnaryF32Case{"log", &KernelBuilder::log_f32, 2.718282f, 1.0f},
        UnaryF32Case{"sin", &KernelBuilder::sin_f32, 1.5707963f, 1.0f},
        UnaryF32Case{"cos", &KernelBuilder::cos_f32, 0.0f, 1.0f},
        UnaryF32Case{"abs", &KernelBuilder::abs_f32, -2.5f, 2.5f},
        UnaryF32Case{"neg", &KernelBuilder::neg_f32, 2.5f, -2.5f},
        UnaryF32Case{"floor", &KernelBuilder::floor_f32, 2.75f, 2.0f}),
    [](const auto& info) { return info.param.name; });

// --- conversions --------------------------------------------------------------

TEST(Interp, Conversions) {
  AddressSpace mem(kMem, "m");
  run1(
      [&](KernelBuilder& b) {
        const auto i = b.reg(), f32 = b.reg(), f64 = b.reg(), back = b.reg(), addr = b.reg();
        b.mov_imm_i(i, 41);
        b.cvt_i_to_f32(f32, i);
        b.cvt_f32_to_f64(f64, f32);
        b.cvt_f64_to_i(back, f64);
        b.mov_imm_i(addr, 0);
        b.st_global_i64(back, addr);
        b.st_global_f64(f64, addr, 8);
        b.ret();
      },
      mem);
  EXPECT_EQ(mem.read<std::int64_t>(0), 41);
  EXPECT_DOUBLE_EQ(mem.read<double>(8), 41.0);
}

TEST(Interp, SelectPicksByCondition) {
  AddressSpace mem(kMem, "m");
  run1(
      [&](KernelBuilder& b) {
        const auto c = b.reg(), x = b.reg(), y = b.reg(), r = b.reg(), addr = b.reg();
        b.mov_imm_i(c, 1);
        b.mov_imm_i(x, 10);
        b.mov_imm_i(y, 20);
        b.select(r, c, x, y);
        b.mov_imm_i(addr, 0);
        b.st_global_i64(r, addr);
        b.mov_imm_i(c, 0);
        b.select(r, c, x, y);
        b.st_global_i64(r, addr, 8);
        b.ret();
      },
      mem);
  EXPECT_EQ(mem.read<std::int64_t>(0), 10);
  EXPECT_EQ(mem.read<std::int64_t>(8), 20);
}

// --- control flow ---------------------------------------------------------------

TEST(Interp, LoopAccumulates) {
  AddressSpace mem(kMem, "m");
  const DynamicProfile p = run1(
      [&](KernelBuilder& b) {
        const auto i = b.reg(), bound = b.reg(), step = b.reg(), acc = b.reg(),
                   addr = b.reg();
        b.mov_imm_i(i, 0);
        b.mov_imm_i(bound, 10);
        b.mov_imm_i(step, 1);
        b.mov_imm_i(acc, 0);
        auto loop = b.loop_begin(i, bound, step, "L");
        b.add_i(acc, acc, i);
        b.loop_end(loop);
        b.mov_imm_i(addr, 0);
        b.st_global_i64(acc, addr);
        b.ret();
      },
      mem);
  EXPECT_EQ(mem.read<std::int64_t>(0), 45);  // 0+1+...+9
  // λ: entry 1, head 11, body 10, exit 1.
  EXPECT_EQ(p.block_visits[0], 1u);
  EXPECT_EQ(p.block_visits[1], 11u);
  EXPECT_EQ(p.block_visits[2], 10u);
  EXPECT_EQ(p.block_visits[3], 1u);
}

TEST(Interp, ProfileMatchesLambdaTimesMu) {
  AddressSpace mem(kMem, "m");
  const DynamicProfile p = run1(
      [&](KernelBuilder& b) {
        const auto i = b.reg(), bound = b.reg(), step = b.reg(), acc = b.reg(),
                   f = b.reg(), addr = b.reg();
        b.mov_imm_i(i, 0);
        b.mov_imm_i(bound, 7);
        b.mov_imm_i(step, 1);
        b.mov_imm_f64(acc, 0.0);
        b.mov_imm_f64(f, 1.5);
        auto loop = b.loop_begin(i, bound, step, "L");
        b.add_f64(acc, acc, f);
        b.mul_f64(f, f, f);
        b.loop_end(loop);
        b.mov_imm_i(addr, 0);
        b.st_global_f64(acc, addr);
        b.ret();
      },
      mem);
  // Rebuild σ from λ·µ and compare with the directly counted classes.
  KernelBuilder b2("shadow", 0);
  (void)b2;
  // The kernel is not retained here; instead verify the identity generally:
  // counts_from_visits is exercised against real kernels in test_workloads.
  EXPECT_GT(p.instr_counts[InstrClass::kFp64], 0u);
  // 7 iterations × (add.f64 + mul.f64); immediate moves classify as Int.
  EXPECT_EQ(p.instr_counts[InstrClass::kFp64], 14u);
}

TEST(Interp, MultiThreadGidAndGuard) {
  AddressSpace mem(kMem, "m");
  KernelBuilder b("gid", 2);
  const auto out = b.reg(), n = b.reg(), gid = b.reg(), ctaid = b.reg(), ntid = b.reg(),
             tid = b.reg(), cond = b.reg(), addr = b.reg();
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
  const KernelIR ir = b.build();

  Interpreter interp;
  KernelArgs args;
  args.push_ptr(0);
  args.push_i64(10);
  LaunchDims dims;
  dims.block_x = 4;
  dims.grid_x = 3;  // 12 threads, 10 active
  const DynamicProfile p = interp.run(ir, dims, args, mem);
  for (std::int64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(mem.read<std::int64_t>(static_cast<std::uint64_t>(i) * 8), i);
  }
  EXPECT_EQ(p.block_visits[0], 12u);
  EXPECT_EQ(p.block_visits[1], 10u);
  EXPECT_EQ(p.block_visits[2], 2u);
  EXPECT_EQ(p.global_store_bytes, 80u);
}

TEST(Interp, BarrierSynchronizesSharedMemory) {
  // Thread t writes shared[t]; after the barrier, thread t reads
  // shared[(t+1) % 8] — correct only if the barrier really synchronizes.
  AddressSpace mem(kMem, "m");
  KernelBuilder b("bar", 1);
  b.set_shared_bytes(8 * 8);
  const auto out = b.reg(), tid = b.reg(), saddr = b.reg(), zero = b.reg(),
             next = b.reg(), ntid = b.reg(), one = b.reg(), v = b.reg(), gaddr = b.reg();
  b.block("entry");
  b.ld_param(out, 0);
  b.special(tid, SpecialReg::kTidX);
  b.special(ntid, SpecialReg::kNtidX);
  b.mov_imm_i(zero, 0);
  b.mov_imm_i(one, 1);
  b.addr_of(saddr, zero, tid, 3);
  b.st_shared_i64(tid, saddr);
  b.bar();
  b.add_i(next, tid, one);
  b.rem_i(next, next, ntid);
  b.addr_of(saddr, zero, next, 3);
  b.ld_shared_i64(v, saddr);
  b.addr_of(gaddr, out, tid, 3);
  b.st_global_i64(v, gaddr);
  b.ret();
  const KernelIR ir = b.build();

  Interpreter interp;
  KernelArgs args;
  args.push_ptr(0);
  LaunchDims dims;
  dims.block_x = 8;
  const DynamicProfile p = interp.run(ir, dims, args, mem);
  for (std::int64_t t = 0; t < 8; ++t) {
    EXPECT_EQ(mem.read<std::int64_t>(static_cast<std::uint64_t>(t) * 8), (t + 1) % 8);
  }
  EXPECT_GE(p.barriers_waited, 1u);
}

TEST(Interp, AtomicAddAccumulatesAcrossThreads) {
  AddressSpace mem(kMem, "m");
  KernelBuilder b("atom", 1);
  const auto out = b.reg(), one = b.reg(), old = b.reg();
  b.block("entry");
  b.ld_param(out, 0);
  b.mov_imm_i(one, 1);
  // atom.add writes the old value into dst (scratch register `old`).
  (void)old;
  b.atom_add_global_i64(one, out);
  b.ret();
  const KernelIR ir = b.build();

  Interpreter interp;
  KernelArgs args;
  args.push_ptr(64);
  LaunchDims dims;
  dims.block_x = 32;
  dims.grid_x = 4;
  interp.run(ir, dims, args, mem);
  EXPECT_EQ(mem.read<std::int64_t>(64), 128);
}

// --- error handling --------------------------------------------------------------

TEST(Interp, IntegerDivisionByZeroThrows) {
  AddressSpace mem(kMem, "m");
  EXPECT_THROW(run1(
                   [&](KernelBuilder& b) {
                     const auto a = b.reg(), z = b.reg(), r = b.reg();
                     b.mov_imm_i(a, 1);
                     b.mov_imm_i(z, 0);
                     b.div_i(r, a, z);
                     b.ret();
                   },
                   mem),
               ContractError);
}

TEST(Interp, OutOfBoundsGlobalAccessThrows) {
  AddressSpace mem(128, "m");
  EXPECT_THROW(run1(
                   [&](KernelBuilder& b) {
                     const auto addr = b.reg(), v = b.reg();
                     b.mov_imm_i(addr, 1 << 20);
                     b.ld_global_f64(v, addr);
                     b.ret();
                   },
                   mem),
               ContractError);
}

TEST(Interp, RunawayLoopHitsInstructionBudget) {
  AddressSpace mem(kMem, "m");
  KernelBuilder b("inf", 0);
  b.block("entry");
  b.jmp("entry");
  const KernelIR ir = b.build();
  Interpreter interp;
  Interpreter::Options opts;
  opts.max_instrs_per_thread = 1000;
  EXPECT_THROW(interp.run(ir, LaunchDims{}, KernelArgs{}, mem, opts), ContractError);
}

TEST(Interp, TooFewArgumentsThrows) {
  AddressSpace mem(kMem, "m");
  KernelBuilder b("args", 2);
  const auto r = b.reg();
  b.block("entry");
  b.ld_param(r, 1);
  b.ret();
  const KernelIR ir = b.build();
  Interpreter interp;
  KernelArgs args;  // empty
  EXPECT_THROW(interp.run(ir, LaunchDims{}, args, mem), ContractError);
}

TEST(Interp, SharedOutOfBoundsThrows) {
  AddressSpace mem(kMem, "m");
  KernelBuilder b("shoob", 0);
  b.set_shared_bytes(16);
  const auto addr = b.reg(), v = b.reg();
  b.block("entry");
  b.mov_imm_i(addr, 64);
  b.ld_shared_f32(v, addr);
  b.ret();
  const KernelIR ir = b.build();
  Interpreter interp;
  EXPECT_THROW(interp.run(ir, LaunchDims{}, KernelArgs{}, mem), ContractError);
}

TEST(Interp, SpecialRegistersReportGeometry) {
  AddressSpace mem(kMem, "m");
  KernelBuilder b("specials", 1);
  const auto out = b.reg(), v = b.reg(), addr = b.reg();
  b.block("entry");
  b.ld_param(out, 0);
  b.mov(addr, out);
  for (SpecialReg sr : {SpecialReg::kNtidX, SpecialReg::kNtidY, SpecialReg::kNctaidX,
                        SpecialReg::kNctaidY}) {
    b.special(v, sr);
    b.st_global_i64(v, addr);
    const auto eight = b.reg();
    b.mov_imm_i(eight, 8);
    b.add_i(addr, addr, eight);
  }
  b.ret();
  const KernelIR ir = b.build();
  Interpreter interp;
  KernelArgs args;
  args.push_ptr(0);
  LaunchDims dims;
  dims.block_x = 3;
  dims.block_y = 2;
  dims.grid_x = 5;
  dims.grid_y = 4;
  interp.run(ir, dims, args, mem);
  EXPECT_EQ(mem.read<std::int64_t>(0), 3);
  EXPECT_EQ(mem.read<std::int64_t>(8), 2);
  EXPECT_EQ(mem.read<std::int64_t>(16), 5);
  EXPECT_EQ(mem.read<std::int64_t>(24), 4);
}

}  // namespace
}  // namespace sigvp
