#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <map>
#include <string>

#include "ir/builder.hpp"
#include "ir/disasm.hpp"
#include "ir/translation.hpp"
#include "ir/validate.hpp"
#include "util/check.hpp"
#include "workloads/suite.hpp"

namespace sigvp {
namespace {

KernelIR tiny_kernel() {
  KernelBuilder b("tiny", 1);
  const auto r0 = b.reg(), r1 = b.reg();
  b.block("entry");
  b.ld_param(r0, 0);
  b.mov_imm_i(r1, 7);
  b.add_i(r0, r0, r1);
  b.ret();
  return b.build();
}

TEST(Builder, BuildsValidKernel) {
  const KernelIR ir = tiny_kernel();
  EXPECT_EQ(ir.name, "tiny");
  EXPECT_EQ(ir.blocks.size(), 1u);
  EXPECT_EQ(ir.num_regs, 2u);
  EXPECT_EQ(ir.static_size(), 4u);
}

TEST(Builder, ResolvesForwardLabels) {
  KernelBuilder b("fwd", 0);
  const auto c = b.reg();
  b.block("entry");
  b.mov_imm_i(c, 0);
  b.bra_z(c, "target");
  b.block("mid");
  b.ret();
  b.block("target");
  b.ret();
  const KernelIR ir = b.build();
  EXPECT_EQ(ir.blocks[0].instrs.back().imm, 2);  // "target" is block 2
}

TEST(Builder, RejectsUndefinedLabel) {
  KernelBuilder b("bad", 0);
  b.block("entry");
  b.jmp("nowhere");
  EXPECT_THROW(b.build(), ContractError);
}

TEST(Builder, RejectsDuplicateLabel) {
  KernelBuilder b("dup", 0);
  b.block("entry");
  b.ret();
  EXPECT_THROW(b.block("entry"), ContractError);
}

TEST(Builder, RejectsEmitAfterTerminator) {
  KernelBuilder b("after", 0);
  const auto r = b.reg();
  b.block("entry");
  b.ret();
  EXPECT_THROW(b.mov_imm_i(r, 1), ContractError);
}

TEST(Builder, RejectsNewBlockWithoutTerminator) {
  KernelBuilder b("unterm", 0);
  const auto r = b.reg();
  b.block("entry");
  b.mov_imm_i(r, 1);
  EXPECT_THROW(b.block("next"), ContractError);
}

TEST(Builder, RejectsParamIndexOutOfRange) {
  KernelBuilder b("param", 1);
  const auto r = b.reg();
  b.block("entry");
  EXPECT_THROW(b.ld_param(r, 3), ContractError);
}

TEST(Builder, LoopHelperProducesHeadBodyExitBlocks) {
  KernelBuilder b("loop", 0);
  const auto i = b.reg(), bound = b.reg(), step = b.reg(), acc = b.reg();
  b.block("entry");
  b.mov_imm_i(i, 0);
  b.mov_imm_i(bound, 10);
  b.mov_imm_i(step, 1);
  b.mov_imm_i(acc, 0);
  auto loop = b.loop_begin(i, bound, step, "L");
  b.add_i(acc, acc, i);
  b.loop_end(loop);
  b.ret();
  const KernelIR ir = b.build();
  ASSERT_EQ(ir.blocks.size(), 4u);
  EXPECT_EQ(ir.blocks[1].label, "L.head");
  EXPECT_EQ(ir.blocks[2].label, "L.body");
  EXPECT_EQ(ir.blocks[3].label, "L.exit");
}

TEST(Validate, ConditionalTerminatorInFinalBlockRejected) {
  KernelIR ir;
  ir.name = "bad";
  ir.num_regs = 1;
  ir.blocks.push_back(BasicBlock{"entry", {Instr{Opcode::kBraZ, 0, 0, 0, 0, 0, 0.0}}});
  EXPECT_THROW(validate_kernel(ir), ContractError);
}

TEST(Validate, BranchTargetOutOfRangeRejected) {
  KernelIR ir;
  ir.name = "bad";
  ir.num_regs = 1;
  ir.blocks.push_back(BasicBlock{"entry", {Instr{Opcode::kJmp, 0, 0, 0, 0, 99, 0.0}}});
  EXPECT_THROW(validate_kernel(ir), ContractError);
}

TEST(Validate, SharedOpWithoutSharedBytesRejected) {
  KernelIR ir;
  ir.name = "bad";
  ir.num_regs = 2;
  ir.blocks.push_back(BasicBlock{
      "entry",
      {Instr{Opcode::kLdSharedF32, 0, 1, 0, 0, 0, 0.0}, Instr{Opcode::kRet, 0, 0, 0, 0, 0, 0.0}}});
  EXPECT_THROW(validate_kernel(ir), ContractError);
}

TEST(Validate, OpcodeOutsideTheTableRejected) {
  for (const int bad : {static_cast<int>(kOpcodeCount), 200, 255}) {
    KernelIR ir = tiny_kernel();
    ir.blocks[0].instrs[2].op = static_cast<Opcode>(bad);
    EXPECT_THROW(validate_kernel(ir), ContractError) << bad;
  }
}

TEST(Validate, RegisterOutOfRangeRejected) {
  KernelIR ir;
  ir.name = "bad";
  ir.num_regs = 1;
  ir.blocks.push_back(BasicBlock{
      "entry",
      {Instr{Opcode::kAddI, 0, 5, 0, 0, 0, 0.0}, Instr{Opcode::kRet, 0, 0, 0, 0, 0, 0.0}}});
  EXPECT_THROW(validate_kernel(ir), ContractError);
}

TEST(StaticCounts, ClassHistogramIsPerBlock) {
  KernelBuilder b("hist", 0);
  const auto a = b.reg(), c = b.reg();
  b.block("entry");
  b.mov_imm_f32(a, 1.0f);   // FP32? no: mov-imm classified Int
  b.add_f32(c, a, a);       // FP32
  b.and_b(c, a, a);         // Bit
  b.ret();                  // B
  const KernelIR ir = b.build();
  const ClassCounts mu = ir.blocks[0].static_counts();
  EXPECT_EQ(mu[InstrClass::kFp32], 1u);
  EXPECT_EQ(mu[InstrClass::kBit], 1u);
  EXPECT_EQ(mu[InstrClass::kBranch], 1u);
  EXPECT_EQ(mu[InstrClass::kInt], 1u);  // the immediate move
  EXPECT_EQ(mu.total(), 4u);
}

TEST(ClassCounts, ArithmeticAndScaling) {
  ClassCounts a;
  a[InstrClass::kInt] = 3;
  ClassCounts b;
  b[InstrClass::kInt] = 4;
  b[InstrClass::kFp64] = 1;
  const ClassCounts sum = a + b;
  EXPECT_EQ(sum[InstrClass::kInt], 7u);
  EXPECT_EQ(sum.scaled(2)[InstrClass::kFp64], 2u);
  EXPECT_EQ(sum.total(), 8u);
}

TEST(Opcode, EveryOpcodeHasNameAndClass) {
  // Sweep the full opcode range; names must be unique-ish and classes valid.
  for (int op = 0; op <= static_cast<int>(Opcode::kStSharedI64); ++op) {
    const Opcode o = static_cast<Opcode>(op);
    EXPECT_NE(opcode_name(o), "?") << "opcode " << op;
    const InstrClass c = instr_class(o);
    EXPECT_LT(static_cast<std::size_t>(c), kNumInstrClasses);
  }
}

TEST(Opcode, MemoryTraitsConsistent) {
  EXPECT_TRUE(is_memory_op(Opcode::kLdGlobalF32));
  EXPECT_TRUE(is_global_memory_op(Opcode::kAtomAddGlobalF32));
  EXPECT_FALSE(is_global_memory_op(Opcode::kLdSharedF32));
  EXPECT_EQ(memory_width_bytes(Opcode::kLdGlobalF64), 8u);
  EXPECT_EQ(memory_width_bytes(Opcode::kLdGlobalU8), 1u);
  EXPECT_EQ(memory_width_bytes(Opcode::kAddI), 0u);
  EXPECT_TRUE(is_terminator(Opcode::kRet));
  EXPECT_FALSE(is_terminator(Opcode::kBar));
  EXPECT_TRUE(is_branch_with_target(Opcode::kBraNZ));
  EXPECT_FALSE(is_branch_with_target(Opcode::kRet));
}

TEST(Opcode, EveryOpcodeFactMatchesThePinnedTable) {
  // Every per-opcode fact, pinned for the whole opcode set. The numeric
  // values must never move: kernel_fingerprint hashes them, and the
  // fingerprint keys the launch cache, the engine's program cache and
  // snapshot entries. Flags: T terminator, B branch with a target block,
  // M memory op, G global memory op, S SFU op, Q sqrt-class SFU op,
  // W writes its dst register.
  struct Row {
    Opcode op;
    int value;
    const char* name;
    InstrClass cls;
    std::uint32_t sources;
    std::uint32_t width;
    const char* flags;
  };
  // clang-format off
  const Row rows[] = {
      {Opcode::kNop,                0, "nop",                  InstrClass::kInt,   0, 0, ""},
      {Opcode::kMovImmI,            1, "mov.imm.i",            InstrClass::kInt,   0, 0, "W"},
      {Opcode::kMovImmF32,          2, "mov.imm.f32",          InstrClass::kInt,   0, 0, "W"},
      {Opcode::kMovImmF64,          3, "mov.imm.f64",          InstrClass::kInt,   0, 0, "W"},
      {Opcode::kMov,                4, "mov",                  InstrClass::kInt,   1, 0, "W"},
      {Opcode::kReadSpecial,        5, "mov.special",          InstrClass::kInt,   0, 0, "W"},
      {Opcode::kLdParam,            6, "ld.param",             InstrClass::kInt,   0, 0, "W"},
      {Opcode::kSelect,             7, "selp",                 InstrClass::kInt,   3, 0, "W"},
      {Opcode::kAddI,               8, "add.i",                InstrClass::kInt,   2, 0, "W"},
      {Opcode::kSubI,               9, "sub.i",                InstrClass::kInt,   2, 0, "W"},
      {Opcode::kMulI,              10, "mul.i",                InstrClass::kInt,   2, 0, "W"},
      {Opcode::kDivI,              11, "div.i",                InstrClass::kInt,   2, 0, "W"},
      {Opcode::kRemI,              12, "rem.i",                InstrClass::kInt,   2, 0, "W"},
      {Opcode::kMinI,              13, "min.i",                InstrClass::kInt,   2, 0, "W"},
      {Opcode::kMaxI,              14, "max.i",                InstrClass::kInt,   2, 0, "W"},
      {Opcode::kNegI,              15, "neg.i",                InstrClass::kInt,   1, 0, "W"},
      {Opcode::kAbsI,              16, "abs.i",                InstrClass::kInt,   1, 0, "W"},
      {Opcode::kSetLtI,            17, "set.lt.i",             InstrClass::kInt,   2, 0, "W"},
      {Opcode::kSetLeI,            18, "set.le.i",             InstrClass::kInt,   2, 0, "W"},
      {Opcode::kSetEqI,            19, "set.eq.i",             InstrClass::kInt,   2, 0, "W"},
      {Opcode::kSetNeI,            20, "set.ne.i",             InstrClass::kInt,   2, 0, "W"},
      {Opcode::kSetGtI,            21, "set.gt.i",             InstrClass::kInt,   2, 0, "W"},
      {Opcode::kSetGeI,            22, "set.ge.i",             InstrClass::kInt,   2, 0, "W"},
      {Opcode::kCvtF32ToI,         23, "cvt.i.f32",            InstrClass::kInt,   1, 0, "W"},
      {Opcode::kCvtF64ToI,         24, "cvt.i.f64",            InstrClass::kInt,   1, 0, "W"},
      {Opcode::kAndB,              25, "and.b",                InstrClass::kBit,   2, 0, "W"},
      {Opcode::kOrB,               26, "or.b",                 InstrClass::kBit,   2, 0, "W"},
      {Opcode::kXorB,              27, "xor.b",                InstrClass::kBit,   2, 0, "W"},
      {Opcode::kNotB,              28, "not.b",                InstrClass::kBit,   1, 0, "W"},
      {Opcode::kShlB,              29, "shl.b",                InstrClass::kBit,   2, 0, "W"},
      {Opcode::kShrB,              30, "shr.b",                InstrClass::kBit,   2, 0, "W"},
      {Opcode::kShrA,              31, "shr.a",                InstrClass::kBit,   2, 0, "W"},
      {Opcode::kAddF32,            32, "add.f32",              InstrClass::kFp32,  2, 0, "W"},
      {Opcode::kSubF32,            33, "sub.f32",              InstrClass::kFp32,  2, 0, "W"},
      {Opcode::kMulF32,            34, "mul.f32",              InstrClass::kFp32,  2, 0, "W"},
      {Opcode::kDivF32,            35, "div.f32",              InstrClass::kFp32,  2, 0, "W"},
      {Opcode::kFmaF32,            36, "fma.f32",              InstrClass::kFp32,  3, 0, "W"},
      {Opcode::kSqrtF32,           37, "sqrt.f32",             InstrClass::kFp32,  1, 0, "SQW"},
      {Opcode::kRsqrtF32,          38, "rsqrt.f32",            InstrClass::kFp32,  1, 0, "SQW"},
      {Opcode::kExpF32,            39, "exp.f32",              InstrClass::kFp32,  1, 0, "SW"},
      {Opcode::kLogF32,            40, "log.f32",              InstrClass::kFp32,  1, 0, "SW"},
      {Opcode::kSinF32,            41, "sin.f32",              InstrClass::kFp32,  1, 0, "SW"},
      {Opcode::kCosF32,            42, "cos.f32",              InstrClass::kFp32,  1, 0, "SW"},
      {Opcode::kMinF32,            43, "min.f32",              InstrClass::kFp32,  2, 0, "W"},
      {Opcode::kMaxF32,            44, "max.f32",              InstrClass::kFp32,  2, 0, "W"},
      {Opcode::kAbsF32,            45, "abs.f32",              InstrClass::kFp32,  1, 0, "W"},
      {Opcode::kNegF32,            46, "neg.f32",              InstrClass::kFp32,  1, 0, "W"},
      {Opcode::kFloorF32,          47, "floor.f32",            InstrClass::kFp32,  1, 0, "W"},
      {Opcode::kSetLtF32,          48, "set.lt.f32",           InstrClass::kFp32,  2, 0, "W"},
      {Opcode::kSetLeF32,          49, "set.le.f32",           InstrClass::kFp32,  2, 0, "W"},
      {Opcode::kSetEqF32,          50, "set.eq.f32",           InstrClass::kFp32,  2, 0, "W"},
      {Opcode::kSetGtF32,          51, "set.gt.f32",           InstrClass::kFp32,  2, 0, "W"},
      {Opcode::kSetGeF32,          52, "set.ge.f32",           InstrClass::kFp32,  2, 0, "W"},
      {Opcode::kCvtIToF32,         53, "cvt.f32.i",            InstrClass::kFp32,  1, 0, "W"},
      {Opcode::kCvtF64ToF32,       54, "cvt.f32.f64",          InstrClass::kFp32,  1, 0, "W"},
      {Opcode::kAddF64,            55, "add.f64",              InstrClass::kFp64,  2, 0, "W"},
      {Opcode::kSubF64,            56, "sub.f64",              InstrClass::kFp64,  2, 0, "W"},
      {Opcode::kMulF64,            57, "mul.f64",              InstrClass::kFp64,  2, 0, "W"},
      {Opcode::kDivF64,            58, "div.f64",              InstrClass::kFp64,  2, 0, "W"},
      {Opcode::kFmaF64,            59, "fma.f64",              InstrClass::kFp64,  3, 0, "W"},
      {Opcode::kSqrtF64,           60, "sqrt.f64",             InstrClass::kFp64,  1, 0, "SQW"},
      {Opcode::kExpF64,            61, "exp.f64",              InstrClass::kFp64,  1, 0, "SW"},
      {Opcode::kLogF64,            62, "log.f64",              InstrClass::kFp64,  1, 0, "SW"},
      {Opcode::kSinF64,            63, "sin.f64",              InstrClass::kFp64,  1, 0, "SW"},
      {Opcode::kCosF64,            64, "cos.f64",              InstrClass::kFp64,  1, 0, "SW"},
      {Opcode::kMinF64,            65, "min.f64",              InstrClass::kFp64,  2, 0, "W"},
      {Opcode::kMaxF64,            66, "max.f64",              InstrClass::kFp64,  2, 0, "W"},
      {Opcode::kAbsF64,            67, "abs.f64",              InstrClass::kFp64,  1, 0, "W"},
      {Opcode::kNegF64,            68, "neg.f64",              InstrClass::kFp64,  1, 0, "W"},
      {Opcode::kFloorF64,          69, "floor.f64",            InstrClass::kFp64,  1, 0, "W"},
      {Opcode::kSetLtF64,          70, "set.lt.f64",           InstrClass::kFp64,  2, 0, "W"},
      {Opcode::kSetLeF64,          71, "set.le.f64",           InstrClass::kFp64,  2, 0, "W"},
      {Opcode::kSetEqF64,          72, "set.eq.f64",           InstrClass::kFp64,  2, 0, "W"},
      {Opcode::kSetGtF64,          73, "set.gt.f64",           InstrClass::kFp64,  2, 0, "W"},
      {Opcode::kSetGeF64,          74, "set.ge.f64",           InstrClass::kFp64,  2, 0, "W"},
      {Opcode::kCvtIToF64,         75, "cvt.f64.i",            InstrClass::kFp64,  1, 0, "W"},
      {Opcode::kCvtF32ToF64,       76, "cvt.f64.f32",          InstrClass::kFp64,  1, 0, "W"},
      {Opcode::kJmp,               77, "bra",                  InstrClass::kBranch, 0, 0, "TB"},
      {Opcode::kBraZ,              78, "bra.z",                InstrClass::kBranch, 1, 0, "TB"},
      {Opcode::kBraNZ,             79, "bra.nz",               InstrClass::kBranch, 1, 0, "TB"},
      {Opcode::kRet,               80, "ret",                  InstrClass::kBranch, 0, 0, "T"},
      {Opcode::kBar,               81, "bar.sync",             InstrClass::kBranch, 0, 0, ""},
      {Opcode::kLdGlobalF32,       82, "ld.global.f32",        InstrClass::kLoad,  1, 4, "MGW"},
      {Opcode::kLdGlobalF64,       83, "ld.global.f64",        InstrClass::kLoad,  1, 8, "MGW"},
      {Opcode::kLdGlobalI32,       84, "ld.global.i32",        InstrClass::kLoad,  1, 4, "MGW"},
      {Opcode::kLdGlobalI64,       85, "ld.global.i64",        InstrClass::kLoad,  1, 8, "MGW"},
      {Opcode::kLdGlobalU8,        86, "ld.global.u8",         InstrClass::kLoad,  1, 1, "MGW"},
      {Opcode::kStGlobalF32,       87, "st.global.f32",        InstrClass::kStore, 2, 4, "MG"},
      {Opcode::kStGlobalF64,       88, "st.global.f64",        InstrClass::kStore, 2, 8, "MG"},
      {Opcode::kStGlobalI32,       89, "st.global.i32",        InstrClass::kStore, 2, 4, "MG"},
      {Opcode::kStGlobalI64,       90, "st.global.i64",        InstrClass::kStore, 2, 8, "MG"},
      {Opcode::kStGlobalU8,        91, "st.global.u8",         InstrClass::kStore, 2, 1, "MG"},
      {Opcode::kAtomAddGlobalI64,  92, "atom.add.global.i64",  InstrClass::kStore, 2, 8, "MGW"},
      {Opcode::kAtomAddGlobalF32,  93, "atom.add.global.f32",  InstrClass::kStore, 2, 4, "MGW"},
      {Opcode::kLdSharedF32,       94, "ld.shared.f32",        InstrClass::kLoad,  1, 4, "MW"},
      {Opcode::kLdSharedF64,       95, "ld.shared.f64",        InstrClass::kLoad,  1, 8, "MW"},
      {Opcode::kLdSharedI64,       96, "ld.shared.i64",        InstrClass::kLoad,  1, 8, "MW"},
      {Opcode::kStSharedF32,       97, "st.shared.f32",        InstrClass::kStore, 2, 4, "M"},
      {Opcode::kStSharedF64,       98, "st.shared.f64",        InstrClass::kStore, 2, 8, "M"},
      {Opcode::kStSharedI64,       99, "st.shared.i64",        InstrClass::kStore, 2, 8, "M"},
  };
  // clang-format on
  ASSERT_EQ(std::size(rows), 100u);
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    const Row& r = rows[i];
    const std::string flags = r.flags;
    const auto has = [&](char f) { return flags.find(f) != std::string::npos; };
    SCOPED_TRACE(r.name);
    EXPECT_EQ(r.value, static_cast<int>(i));
    EXPECT_EQ(static_cast<int>(r.op), r.value);
    EXPECT_EQ(opcode_name(r.op), r.name);
    EXPECT_EQ(instr_class(r.op), r.cls);
    EXPECT_EQ(source_count(r.op), r.sources);
    EXPECT_EQ(memory_width_bytes(r.op), r.width);
    EXPECT_EQ(is_terminator(r.op), has('T'));
    EXPECT_EQ(is_branch_with_target(r.op), has('B'));
    EXPECT_EQ(is_memory_op(r.op), has('M'));
    EXPECT_EQ(is_global_memory_op(r.op), has('G'));
    EXPECT_EQ(is_sfu_op(r.op), has('S'));
    EXPECT_EQ(is_sqrt_op(r.op), has('Q'));
    EXPECT_EQ(writes_register(r.op), has('W'));
  }
}

TEST(Disasm, RendersInstructionsAndBlockHistogram) {
  const KernelIR ir = tiny_kernel();
  const std::string text = disassemble(ir);
  EXPECT_NE(text.find(".kernel tiny"), std::string::npos);
  EXPECT_NE(text.find("ld.param"), std::string::npos);
  EXPECT_NE(text.find("add.i"), std::string::npos);
  EXPECT_NE(text.find("Int:3"), std::string::npos);
  EXPECT_NE(text.find("ret"), std::string::npos);
}

TEST(Opcode, SourceCountsMatchTheOperandsEachOpcodeReads) {
  EXPECT_EQ(source_count(Opcode::kLdParam), 0u);
  EXPECT_EQ(source_count(Opcode::kMov), 1u);
  EXPECT_EQ(source_count(Opcode::kSqrtF32), 1u);
  EXPECT_EQ(source_count(Opcode::kAddI), 2u);
  EXPECT_EQ(source_count(Opcode::kSelect), 3u);
  EXPECT_EQ(source_count(Opcode::kFmaF64), 3u);
  EXPECT_EQ(source_count(Opcode::kBraNZ), 1u);
  EXPECT_EQ(source_count(Opcode::kLdGlobalF32), 1u);
  EXPECT_EQ(source_count(Opcode::kStGlobalF32), 2u);
  EXPECT_EQ(source_count(Opcode::kAtomAddGlobalI64), 2u);
  EXPECT_TRUE(writes_register(Opcode::kAtomAddGlobalF32));
  EXPECT_TRUE(writes_register(Opcode::kLdSharedF64));
  EXPECT_FALSE(writes_register(Opcode::kStGlobalI64));
  EXPECT_FALSE(writes_register(Opcode::kBraZ));
  EXPECT_FALSE(writes_register(Opcode::kNop));
  for (int op = 0; op <= static_cast<int>(Opcode::kStSharedI64); ++op) {
    EXPECT_LE(source_count(static_cast<Opcode>(op)), 3u) << "opcode " << op;
  }
}

// --- translation-invariance proof ---------------------------------------------

using Reg = KernelBuilder::Reg;

/// A kernel over (p: pointer, q: pointer, n: i64) whose entry block loads
/// the three parameters into r0, r1, r2 and then runs `body`.
KernelIR params_kernel(const std::function<void(KernelBuilder&, Reg, Reg, Reg)>& body,
                       std::uint32_t shared_bytes = 0) {
  KernelBuilder b("reloc", 3);
  const Reg p = b.reg(), q = b.reg(), n = b.reg();
  if (shared_bytes > 0) b.set_shared_bytes(shared_bytes);
  b.block("entry");
  b.ld_param(p, 0);
  b.ld_param(q, 1);
  b.ld_param(n, 2);
  body(b, p, q, n);
  b.ret();
  return b.build();
}

void expect_refused(const KernelIR& ir, const std::string& reason) {
  const PointerParams proof = prove_translation_invariant(ir);
  EXPECT_FALSE(proof.proved());
  EXPECT_EQ(proof.mask, 0u);
  EXPECT_NE(proof.refusal.find(reason), std::string::npos) << proof.refusal;
}

TEST(Translation, AllowedFlowsProveAndNameThePointerParameters) {
  const KernelIR ir = params_kernel([](KernelBuilder& b, Reg p, Reg q, Reg n) {
    const Reg a = b.reg(), c = b.reg(), d = b.reg(), e = b.reg(), x = b.reg(), y = b.reg();
    const Reg lt = b.reg();
    b.add_i(a, n, p);       // offset + pointer
    b.sub_i(c, a, n);       // pointer - offset
    b.mov(d, c);
    b.set_lt_i(lt, n, n);   // scalar compare feeds the select condition
    b.select(e, lt, d, p);  // two pointer arms
    b.ld_global_f32(x, e, 4);
    b.sqrt_f32(y, x);       // unused src1/src2 alias r0 (= p): not a use
    b.st_global_f32(y, q, 8);
  });
  const PointerParams proof = prove_translation_invariant(ir);
  EXPECT_TRUE(proof.proved()) << proof.refusal;
  EXPECT_EQ(proof.mask, 0b011u);
}

TEST(Translation, KernelWithoutGlobalAccessesHasNoPointers) {
  const PointerParams proof = prove_translation_invariant(tiny_kernel());
  EXPECT_TRUE(proof.proved());
  EXPECT_EQ(proof.mask, 0u);
}

TEST(Translation, RefusesComparingAPointer) {
  expect_refused(params_kernel([](KernelBuilder& b, Reg p, Reg, Reg n) {
                   const Reg c = b.reg(), x = b.reg();
                   b.set_lt_i(c, p, n);
                   b.ld_global_f32(x, p);
                 }),
                 "compares a pointer");
}

TEST(Translation, RefusesScalingAPointer) {
  expect_refused(params_kernel([](KernelBuilder& b, Reg p, Reg, Reg n) {
                   const Reg s = b.reg(), x = b.reg();
                   b.mul_i(s, p, n);
                   b.ld_global_f32(x, p);
                 }),
                 "scales a pointer");
}

TEST(Translation, RefusesBranchingOnAPointer) {
  KernelBuilder b("branchy", 1);
  const Reg p = b.reg(), x = b.reg();
  b.block("entry");
  b.ld_param(p, 0);
  b.bra_nz(p, "load");
  b.block("skip");
  b.ret();
  b.block("load");
  b.ld_global_f32(x, p);
  b.ret();
  expect_refused(b.build(), "branches on a pointer");
}

TEST(Translation, RefusesPointersInSharedMemory) {
  expect_refused(params_kernel(
                     [](KernelBuilder& b, Reg p, Reg, Reg) {
                       const Reg x = b.reg();
                       b.ld_global_f32(x, p);
                       b.st_shared_i64(p, x);  // the pointer stored as shared data
                     },
                     64),
                 "pointer reaches shared memory");
}

TEST(Translation, RefusesStoringAPointerAsAValue) {
  expect_refused(params_kernel([](KernelBuilder& b, Reg p, Reg q, Reg) {
                   const Reg x = b.reg();
                   b.ld_global_i64(x, p);
                   b.st_global_i64(p, q);
                 }),
                 "stores a pointer as a value");
}

TEST(Translation, RefusesAddingTwoPointers) {
  expect_refused(params_kernel([](KernelBuilder& b, Reg p, Reg q, Reg) {
                   const Reg s = b.reg(), x = b.reg();
                   b.add_i(s, p, q);
                   b.ld_global_f32(x, s);
                 }),
                 "adds two pointers");
}

TEST(Translation, RefusesSubtractingAPointer) {
  expect_refused(params_kernel([](KernelBuilder& b, Reg p, Reg, Reg n) {
                   const Reg s = b.reg(), x = b.reg();
                   b.sub_i(s, n, p);
                   b.ld_global_f32(x, p);
                   b.st_global_f32(x, s);
                 }),
                 "subtracts a pointer");
}

TEST(Translation, RefusesAnAddressWithNoPointerBase) {
  expect_refused(params_kernel([](KernelBuilder& b, Reg p, Reg, Reg) {
                   const Reg a = b.reg(), x = b.reg();
                   b.ld_global_f32(x, p);
                   b.mov_imm_i(a, 4096);
                   b.st_global_f32(x, a);
                 }),
                 "global address with no pointer base");
}

TEST(Translation, RefusesSelectingOnAPointerOrBetweenKinds) {
  expect_refused(params_kernel([](KernelBuilder& b, Reg p, Reg q, Reg) {
                   const Reg s = b.reg(), x = b.reg();
                   b.select(s, p, q, q);
                   b.ld_global_f32(x, s);
                   b.ld_global_f32(x, p);
                 }),
                 "selects on a pointer");
  expect_refused(params_kernel([](KernelBuilder& b, Reg p, Reg, Reg n) {
                   const Reg s = b.reg(), x = b.reg();
                   b.select(s, n, p, n);
                   b.ld_global_f32(x, s);
                 }),
                 "selects between a pointer and a non-pointer");
}

TEST(Translation, RefusesARegisterHoldingPointerAndNonPointerValues) {
  // Pointer chasing: the loaded word becomes the next address.
  expect_refused(params_kernel([](KernelBuilder& b, Reg p, Reg, Reg) {
                   const Reg a = b.reg();
                   b.mov(a, p);
                   b.ld_global_i64(a, a);
                   b.ld_global_i64(a, a);
                 }),
                 "holds pointer and non-pointer values");
}

TEST(Translation, AnAtomicMayOverwriteAPointerRegisterOnlyWhenItIsDead) {
  // Atomics return the old value in dst; here dst is the pointer p itself.
  const KernelIR dead = params_kernel([](KernelBuilder& b, Reg p, Reg q, Reg) {
    const Reg x = b.reg();
    b.ld_global_i64(x, q);
    b.atom_add_global_i64(p, x, p);
  });
  const PointerParams proof = prove_translation_invariant(dead);
  EXPECT_TRUE(proof.proved()) << proof.refusal;
  EXPECT_EQ(proof.mask, 0b011u);
  expect_refused(params_kernel([](KernelBuilder& b, Reg p, Reg q, Reg) {
                   const Reg x = b.reg();
                   b.ld_global_i64(x, q);
                   b.atom_add_global_i64(p, x, p);
                   b.st_global_i64(x, p);  // reads the overwritten p
                 }),
                 "holds pointer and non-pointer values");
}

TEST(Translation, RefusesAPointerRegisterReadBeforeItIsWritten) {
  // The loop's first iteration reads `a` while it still holds zero.
  KernelBuilder b("early", 1);
  const Reg p = b.reg(), a = b.reg(), i = b.reg(), bound = b.reg(), step = b.reg(),
            x = b.reg();
  b.block("entry");
  b.mov_imm_i(i, 0);
  b.mov_imm_i(bound, 4);
  b.mov_imm_i(step, 1);
  const KernelBuilder::Loop loop = b.loop_begin(i, bound, step, "walk");
  b.ld_global_f32(x, a);
  b.ld_param(p, 0);
  b.add_i(a, p, i);
  b.loop_end(loop);
  b.ret();
  expect_refused(b.build(), "may be read before it is written");
}

TEST(Translation, ProvesEverySuiteAndAppSuiteKernel) {
  // Bit i: parameter i is a device pointer. Every kernel the workloads
  // launch is proved, so every VP's launches can share cache entries.
  const std::map<std::string, std::uint64_t> expected = {
      {"BlackScholes", 0b11111},
      {"Mandelbrot", 0b1},
      {"MonteCarlo", 0b1},
      {"SobelFilter", 0b11},
      {"VolumeFiltering", 0b11},
      {"bicubicTexture", 0b11},
      {"camPipeline/camBlur3", 0b11},
      {"camPipeline/camGain", 0b11},
      {"camPipeline/camQuant", 0b11},
      {"convolutionSeparable", 0b111},
      {"dct8x8", 0b111},
      {"graphAnalytics/bfsStep", 0b111},
      {"graphAnalytics/prContrib", 0b11},
      {"graphAnalytics/prGather", 0b111},
      {"histogram", 0b11},
      {"marchingCubes", 0b111},
      {"matrixMul", 0b111},
      {"mergeSort", 0b1},
      {"mlInference/mlpBias", 0b111},
      {"mlInference/mlpMatmul", 0b111},
      {"mlInference/softmax32", 0b11},
      {"nbody", 0b11},
      {"recursiveGaussian", 0b11},
      {"reduction", 0b11},
      {"segmentationTreeThrust", 0b11},
      {"simpleGL", 0b1},
      {"smokeParticles", 0b11},
      {"stereoDisparity", 0b111},
      {"vectorAdd", 0b111},
  };
  std::map<std::string, std::uint64_t> actual;
  for (const workloads::Workload& w : workloads::make_suite()) {
    const PointerParams proof = prove_translation_invariant(w.kernel);
    EXPECT_TRUE(proof.proved()) << w.app << ": " << proof.refusal;
    actual[w.app] = proof.mask;
  }
  for (const workloads::Workload& w : workloads::make_app_suite()) {
    for (const workloads::PipelineStage& st : w.stages) {
      const PointerParams proof = prove_translation_invariant(st.kernel);
      EXPECT_TRUE(proof.proved()) << w.app << "/" << st.name << ": " << proof.refusal;
      actual[w.app + "/" + st.name] = proof.mask;
    }
  }
  EXPECT_EQ(actual, expected);
}

TEST(Builder, RegisterBudgetEnforced) {
  KernelBuilder b("regs", 0);
  for (int i = 0; i < 256; ++i) b.reg();
  EXPECT_THROW(b.reg(), ContractError);
}

}  // namespace
}  // namespace sigvp
