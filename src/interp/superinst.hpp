#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "interp/decoded.hpp"

namespace sigvp::interp_detail {

/// Opcode space of the Tier-2 threaded-code engine (DESIGN.md §15). The
/// X-macro keeps the enum, the computed-goto label table, and the dispatch
/// bodies in tier2.cpp in lockstep: adding an op here without a body is a
/// compile error, not a runtime hole.
///
/// Generic ops mirror the reference handler set one-to-one; the fused block at
/// the end holds the peephole superinstructions. Every fused op executes its
/// constituent micro-ops in the original program order — all destination
/// registers are written, every memory access fires in sequence, and the
/// per-thread budget ticks once per micro-op — so fusion is invisible to the
/// byte-exactness contract by construction.
#define SIGVP_TIER2_OPS(X)                                                    \
  X(nop) X(load_const) X(mov) X(select) X(read_special) X(ld_param)           \
  X(add_i) X(sub_i) X(mul_i) X(div_i) X(rem_i) X(min_i) X(max_i)              \
  X(neg_i) X(abs_i)                                                           \
  X(set_lt_i) X(set_le_i) X(set_eq_i) X(set_ne_i) X(set_gt_i) X(set_ge_i)     \
  X(cvt_f32_to_i) X(cvt_f64_to_i)                                             \
  X(and_b) X(or_b) X(xor_b) X(not_b) X(shl_b) X(shr_b) X(shr_a)               \
  X(add_f32) X(sub_f32) X(mul_f32) X(div_f32) X(fma_f32) X(sqrt_f32)          \
  X(rsqrt_f32) X(exp_f32) X(log_f32) X(sin_f32) X(cos_f32) X(min_f32)         \
  X(max_f32) X(abs_f32) X(neg_f32) X(floor_f32)                               \
  X(set_lt_f32) X(set_le_f32) X(set_eq_f32) X(set_gt_f32) X(set_ge_f32)       \
  X(cvt_i_to_f32) X(cvt_f64_to_f32)                                           \
  X(add_f64) X(sub_f64) X(mul_f64) X(div_f64) X(fma_f64) X(sqrt_f64)          \
  X(exp_f64) X(log_f64) X(sin_f64) X(cos_f64) X(min_f64) X(max_f64)           \
  X(abs_f64) X(neg_f64) X(floor_f64)                                          \
  X(set_lt_f64) X(set_le_f64) X(set_eq_f64) X(set_gt_f64) X(set_ge_f64)       \
  X(cvt_i_to_f64) X(cvt_f32_to_f64)                                           \
  X(jmp) X(bra_z) X(bra_nz) X(ret) X(bar)                                     \
  X(ld_global_f32) X(ld_global_f64) X(ld_global_i32) X(ld_global_i64)         \
  X(ld_global_u8)                                                             \
  X(st_global_f32) X(st_global_f64) X(st_global_i32) X(st_global_i64)         \
  X(st_global_u8) X(atom_add_global_i64) X(atom_add_global_f32)               \
  X(ld_shared_f32) X(ld_shared_f64) X(ld_shared_i64)                          \
  X(st_shared_f32) X(st_shared_f64) X(st_shared_i64)                          \
  /* fused superinstructions (two micro-ops per dispatch) */                  \
  X(mul_add_i) X(shl_add_i) X(add_add_i) X(add_i_jmp)                         \
  X(set_lt_i_bra_z) X(set_lt_i_bra_nz) X(set_ge_i_bra_z) X(set_ge_i_bra_nz)  \
  X(ld_ld_f32) X(ld_add_f32) X(ld_mul_f32) X(ld_sub_f32)                      \
  X(add_st_f32) X(mul_st_f32) X(sub_st_f32) X(fma_st_f32) X(mul_add_f32)

enum class SOp : std::uint16_t {
#define SIGVP_T2_ENUM(name) k_##name,
  SIGVP_TIER2_OPS(SIGVP_T2_ENUM)
#undef SIGVP_T2_ENUM
      kCount
};

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
/// registers, fire no hooks and bump no λ, so running them lane-lockstep is
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
  std::uint32_t fused_pairs = 0;  // superinstructions formed by the peephole
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
