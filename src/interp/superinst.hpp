#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "interp/decoded.hpp"

namespace sigvp::interp_detail {

/// The engine's semantics of every pure register op, written once:
///   X(opcode, snake name, body)
/// A pure op reads only registers and writes only its destination: no
/// memory, no control flow, no trap, no launch constant. In `body`, `D` is
/// the destination register and `A`/`B`/`C` are src0..src2 (RegValue).
/// tier2.cpp expands each row into the op's threaded handler, its
/// vector-prologue lane loop and the micro-ops of the fused
/// superinstructions; lowering derives which ops may join the vector
/// prologue from it. The reference (decoded.cpp) keeps hand-written bodies,
/// so the engine-vs-reference differentials compare two definitions; the
/// two share only the scalar helpers of interp/interpreter.hpp.
// clang-format off
#define SIGVP_PURE_OPS(X)                                                          \
  X(kMov,         mov,            D = A)                                           \
  X(kSelect,      select,         D = A.truthy() ? B : C)                          \
  X(kAddI,        add_i,          D.set_i(wrap_add_i(A.i(), B.i())))               \
  X(kSubI,        sub_i,          D.set_i(wrap_sub_i(A.i(), B.i())))               \
  X(kMulI,        mul_i,          D.set_i(wrap_mul_i(A.i(), B.i())))               \
  X(kMinI,        min_i,          D.set_i(std::min(A.i(), B.i())))                 \
  X(kMaxI,        max_i,          D.set_i(std::max(A.i(), B.i())))                 \
  X(kNegI,        neg_i,          D.set_i(wrap_neg_i(A.i())))                      \
  X(kAbsI,        abs_i,          D.set_i(wrap_abs_i(A.i())))                      \
  X(kSetLtI,      set_lt_i,       D.set_i(A.i() < B.i()))                          \
  X(kSetLeI,      set_le_i,       D.set_i(A.i() <= B.i()))                         \
  X(kSetEqI,      set_eq_i,       D.set_i(A.i() == B.i()))                         \
  X(kSetNeI,      set_ne_i,       D.set_i(A.i() != B.i()))                         \
  X(kSetGtI,      set_gt_i,       D.set_i(A.i() > B.i()))                          \
  X(kSetGeI,      set_ge_i,       D.set_i(A.i() >= B.i()))                         \
  X(kCvtF32ToI,   cvt_f32_to_i,   D.set_i(cvt_f32_to_i(A.f32())))                  \
  X(kCvtF64ToI,   cvt_f64_to_i,   D.set_i(cvt_f64_to_i(A.f64())))                  \
  X(kAndB,        and_b,          D.bits = A.bits & B.bits)                        \
  X(kOrB,         or_b,           D.bits = A.bits | B.bits)                        \
  X(kXorB,        xor_b,          D.bits = A.bits ^ B.bits)                        \
  X(kNotB,        not_b,          D.bits = ~A.bits)                                \
  X(kShlB,        shl_b,          D.bits = A.bits << (B.bits & 63))                \
  X(kShrB,        shr_b,          D.bits = A.bits >> (B.bits & 63))                \
  X(kShrA,        shr_a,          D.set_i(A.i() >> (B.bits & 63)))                 \
  X(kAddF32,      add_f32,        D.set_f32(A.f32() + B.f32()))                    \
  X(kSubF32,      sub_f32,        D.set_f32(A.f32() - B.f32()))                    \
  X(kMulF32,      mul_f32,        D.set_f32(A.f32() * B.f32()))                    \
  X(kDivF32,      div_f32,        D.set_f32(A.f32() / B.f32()))                    \
  X(kFmaF32,      fma_f32,        D.set_f32(std::fma(A.f32(), B.f32(), C.f32())))  \
  X(kSqrtF32,     sqrt_f32,       D.set_f32(std::sqrt(A.f32())))                   \
  X(kRsqrtF32,    rsqrt_f32,      D.set_f32(1.0f / std::sqrt(A.f32())))            \
  X(kExpF32,      exp_f32,        D.set_f32(std::exp(A.f32())))                    \
  X(kLogF32,      log_f32,        D.set_f32(std::log(A.f32())))                    \
  X(kSinF32,      sin_f32,        D.set_f32(std::sin(A.f32())))                    \
  X(kCosF32,      cos_f32,        D.set_f32(std::cos(A.f32())))                    \
  X(kMinF32,      min_f32,        D.set_f32(std::fmin(A.f32(), B.f32())))          \
  X(kMaxF32,      max_f32,        D.set_f32(std::fmax(A.f32(), B.f32())))          \
  X(kAbsF32,      abs_f32,        D.set_f32(std::fabs(A.f32())))                   \
  X(kNegF32,      neg_f32,        D.set_f32(-A.f32()))                             \
  X(kFloorF32,    floor_f32,      D.set_f32(std::floor(A.f32())))                  \
  X(kSetLtF32,    set_lt_f32,     D.set_i(A.f32() < B.f32()))                      \
  X(kSetLeF32,    set_le_f32,     D.set_i(A.f32() <= B.f32()))                     \
  X(kSetEqF32,    set_eq_f32,     D.set_i(A.f32() == B.f32()))                     \
  X(kSetGtF32,    set_gt_f32,     D.set_i(A.f32() > B.f32()))                      \
  X(kSetGeF32,    set_ge_f32,     D.set_i(A.f32() >= B.f32()))                     \
  X(kCvtIToF32,   cvt_i_to_f32,   D.set_f32(static_cast<float>(A.i())))            \
  X(kCvtF64ToF32, cvt_f64_to_f32, D.set_f32(static_cast<float>(A.f64())))          \
  X(kAddF64,      add_f64,        D.set_f64(A.f64() + B.f64()))                    \
  X(kSubF64,      sub_f64,        D.set_f64(A.f64() - B.f64()))                    \
  X(kMulF64,      mul_f64,        D.set_f64(A.f64() * B.f64()))                    \
  X(kDivF64,      div_f64,        D.set_f64(A.f64() / B.f64()))                    \
  X(kFmaF64,      fma_f64,        D.set_f64(std::fma(A.f64(), B.f64(), C.f64())))  \
  X(kSqrtF64,     sqrt_f64,       D.set_f64(std::sqrt(A.f64())))                   \
  X(kExpF64,      exp_f64,        D.set_f64(std::exp(A.f64())))                    \
  X(kLogF64,      log_f64,        D.set_f64(std::log(A.f64())))                    \
  X(kSinF64,      sin_f64,        D.set_f64(std::sin(A.f64())))                    \
  X(kCosF64,      cos_f64,        D.set_f64(std::cos(A.f64())))                    \
  X(kMinF64,      min_f64,        D.set_f64(std::fmin(A.f64(), B.f64())))          \
  X(kMaxF64,      max_f64,        D.set_f64(std::fmax(A.f64(), B.f64())))          \
  X(kAbsF64,      abs_f64,        D.set_f64(std::fabs(A.f64())))                   \
  X(kNegF64,      neg_f64,        D.set_f64(-A.f64()))                             \
  X(kFloorF64,    floor_f64,      D.set_f64(std::floor(A.f64())))                  \
  X(kSetLtF64,    set_lt_f64,     D.set_i(A.f64() < B.f64()))                      \
  X(kSetLeF64,    set_le_f64,     D.set_i(A.f64() <= B.f64()))                     \
  X(kSetEqF64,    set_eq_f64,     D.set_i(A.f64() == B.f64()))                     \
  X(kSetGtF64,    set_gt_f64,     D.set_i(A.f64() > B.f64()))                      \
  X(kSetGeF64,    set_ge_f64,     D.set_i(A.f64() >= B.f64()))                     \
  X(kCvtIToF64,   cvt_i_to_f64,   D.set_f64(static_cast<double>(A.i())))           \
  X(kCvtF32ToF64, cvt_f32_to_f64, D.set_f64(static_cast<double>(A.f32())))
// clang-format on

/// The peephole superinstructions: two micro-ops per dispatch. Every fused
/// op executes its constituent micro-ops in the original program order —
/// all destination registers are written, every memory access fires in
/// sequence, and the per-thread budget ticks once per micro-op — so fusion
/// is invisible to the byte-exactness contract by construction.
#define SIGVP_FUSED_OPS(X)                                                    \
  X(mul_add_i) X(shl_add_i) X(add_add_i) X(add_i_jmp)                         \
  X(set_lt_i_bra_z) X(set_lt_i_bra_nz) X(set_ge_i_bra_z) X(set_ge_i_bra_nz)  \
  X(ld_ld_f32) X(ld_add_f32) X(ld_mul_f32) X(ld_sub_f32)                      \
  X(add_st_f32) X(mul_st_f32) X(sub_st_f32) X(fma_st_f32) X(mul_add_f32)

/// Opcode space of the threaded-code engine (DESIGN.md §15): one generic
/// op per IR opcode, named and ordered as in SIGVP_OPCODES, then the fused
/// ops. The computed-goto label table in tier2.cpp is generated from the
/// same two lists, so an op without a body is a compile error, not a
/// runtime hole.
// clang-format off
enum class SOp : std::uint16_t {
#define SIGVP_SOP_GENERIC(op, name, ...) k_##name,
  SIGVP_OPCODES(SIGVP_SOP_GENERIC)
#undef SIGVP_SOP_GENERIC
#define SIGVP_SOP_FUSED(name) k_##name,
  SIGVP_FUSED_OPS(SIGVP_SOP_FUSED)
#undef SIGVP_SOP_FUSED
  kCount
};
// clang-format on

/// The generic (one micro-op) engine op of an opcode.
constexpr SOp generic_sop(Opcode op) { return static_cast<SOp>(op); }

/// Lanes of padding after each register's lane array in the SoA slab: one
/// cache line. Without it the lane arrays sit a power of two apart (2 KiB at
/// 256 threads), so one thread's registers all fall into two L1 sets and a
/// kernel with more live registers than those sets have ways misses on
/// nearly every register access (DESIGN.md §15).
inline constexpr std::uint32_t kLanePad = 8;

/// One Tier-2 threaded instruction. Register operands are pre-scaled SoA
/// slot offsets (`reg * lane_stride`), so a handler's register access is
/// `slab[lane + slot]` — the same single-add addressing the reference pays,
/// but with each architectural register's lanes contiguous in memory (the
/// layout the vector prologue's inner loops auto-vectorize over).
///
/// `d/a/b/c` are the first micro-op's dst/src0/src1/src2; `d2/a2/b2` belong
/// to the second micro-op of a fused pair. Branch targets are pre-resolved
/// flat pcs in the *lowered* code space.
struct Tier2Instr {
  std::uint32_t d = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
  std::uint32_t d2 = 0;
  std::uint32_t a2 = 0;
  std::uint32_t b2 = 0;
  std::uint16_t sop = 0;  // SOp index into the dispatch table
  std::int64_t imm = 0;
  std::int64_t imm2 = 0;
  std::uint32_t target_pc = 0;
  std::uint32_t target_block = 0;
  std::uint32_t fall_pc = 0;  // kInvalidPc when the lexically last block
  std::uint32_t fall_block = 0;
};

/// One instruction of the vectorized entry-block prologue, executed in lane
/// lockstep across the whole thread block (see Tier2Program::prologue).
/// Operands are pre-scaled SoA slot offsets like Tier2Instr.
struct VecOp {
  Opcode op = Opcode::kNop;
  std::uint32_t d = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
  std::int64_t imm = 0;
};

/// A kernel decoded and lowered to Tier-2 threaded code for one SoA stride —
/// the unit the engine's program cache holds and every launch executes.
///
/// The prologue is the maximal prefix of the entry block consisting of pure
/// register ops (no memory, no control flow, no div/rem traps): every thread
/// executes exactly these instructions first, they touch only lane-private
/// registers, call no observer and bump no λ, so running them lane-lockstep is
/// provably byte-exact and the inner loops vectorize over the contiguous SoA
/// lanes. The scalar code still contains the prologue instructions (lowered
/// 1:1, never fused), so execution can start from flat pc 0 whenever the
/// vector phase is skipped (e.g. a budget smaller than the prologue).
struct Tier2Program {
  std::vector<Tier2Instr> code;
  std::vector<std::uint32_t> block_first_pc;  // lowered pc of each block
  std::vector<DecodedBlock> blocks;           // static per-block summaries (λ·µ)
  std::vector<VecOp> prologue;
  std::uint32_t scalar_entry_pc = 0;  // lowered pc right after the prologue
  std::uint32_t num_regs = 1;
  std::uint32_t lane_stride = 1;  // SoA slots per register: 2^shift + kLanePad
  std::uint64_t fingerprint = 0;
  std::uint64_t pointer_mask = 0;  // prove_translation_invariant; 0 when refused
  std::uint32_t fused_pairs = 0;   // superinstructions formed by the peephole
  bool has_global_atomics = false;

  std::size_t mem_bytes() const {
    return code.size() * sizeof(Tier2Instr) + prologue.size() * sizeof(VecOp) +
           block_first_pc.size() * sizeof(std::uint32_t) +
           blocks.size() * sizeof(DecodedBlock);
  }
};

/// Decodes `ir` and lowers it into threaded code with operands pre-scaled
/// for an SoA lane stride of `(1 << stride_shift) + kLanePad`, where
/// `1 << stride_shift` must cover threads_per_block. Throws ContractError
/// on a terminator in mid-block, which the builder and validator never emit.
std::shared_ptr<const Tier2Program> lower_program(const KernelIR& ir, unsigned stride_shift);

}  // namespace sigvp::interp_detail
