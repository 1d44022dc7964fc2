#include <gtest/gtest.h>

#include <functional>
#include <map>

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
  // Atomics return the old value in dst, which the builder leaves at r0:
  // here r0 is the pointer p.
  const KernelIR dead = params_kernel([](KernelBuilder& b, Reg p, Reg q, Reg) {
    const Reg x = b.reg();
    b.ld_global_i64(x, q);
    b.atom_add_global_i64(x, p);
  });
  const PointerParams proof = prove_translation_invariant(dead);
  EXPECT_TRUE(proof.proved()) << proof.refusal;
  EXPECT_EQ(proof.mask, 0b011u);
  expect_refused(params_kernel([](KernelBuilder& b, Reg p, Reg q, Reg) {
                   const Reg x = b.reg();
                   b.ld_global_i64(x, q);
                   b.atom_add_global_i64(x, p);
                   b.st_global_i64(x, p);  // reads the overwritten r0
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
