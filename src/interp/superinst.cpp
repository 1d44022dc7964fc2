#include "interp/superinst.hpp"

#include <utility>

#include "util/check.hpp"

namespace sigvp::interp_detail {

namespace {

/// Generic (one micro-op) Tier-2 opcode for an IR opcode.
SOp generic_sop(Opcode op) {
  switch (op) {
    case Opcode::kNop: return SOp::k_nop;
    case Opcode::kMovImmI:
    case Opcode::kMovImmF32:
    case Opcode::kMovImmF64: return SOp::k_load_const;
    case Opcode::kMov: return SOp::k_mov;
    case Opcode::kReadSpecial: return SOp::k_read_special;
    case Opcode::kLdParam: return SOp::k_ld_param;
    case Opcode::kSelect: return SOp::k_select;

    case Opcode::kAddI: return SOp::k_add_i;
    case Opcode::kSubI: return SOp::k_sub_i;
    case Opcode::kMulI: return SOp::k_mul_i;
    case Opcode::kDivI: return SOp::k_div_i;
    case Opcode::kRemI: return SOp::k_rem_i;
    case Opcode::kMinI: return SOp::k_min_i;
    case Opcode::kMaxI: return SOp::k_max_i;
    case Opcode::kNegI: return SOp::k_neg_i;
    case Opcode::kAbsI: return SOp::k_abs_i;
    case Opcode::kSetLtI: return SOp::k_set_lt_i;
    case Opcode::kSetLeI: return SOp::k_set_le_i;
    case Opcode::kSetEqI: return SOp::k_set_eq_i;
    case Opcode::kSetNeI: return SOp::k_set_ne_i;
    case Opcode::kSetGtI: return SOp::k_set_gt_i;
    case Opcode::kSetGeI: return SOp::k_set_ge_i;
    case Opcode::kCvtF32ToI: return SOp::k_cvt_f32_to_i;
    case Opcode::kCvtF64ToI: return SOp::k_cvt_f64_to_i;

    case Opcode::kAndB: return SOp::k_and_b;
    case Opcode::kOrB: return SOp::k_or_b;
    case Opcode::kXorB: return SOp::k_xor_b;
    case Opcode::kNotB: return SOp::k_not_b;
    case Opcode::kShlB: return SOp::k_shl_b;
    case Opcode::kShrB: return SOp::k_shr_b;
    case Opcode::kShrA: return SOp::k_shr_a;

    case Opcode::kAddF32: return SOp::k_add_f32;
    case Opcode::kSubF32: return SOp::k_sub_f32;
    case Opcode::kMulF32: return SOp::k_mul_f32;
    case Opcode::kDivF32: return SOp::k_div_f32;
    case Opcode::kFmaF32: return SOp::k_fma_f32;
    case Opcode::kSqrtF32: return SOp::k_sqrt_f32;
    case Opcode::kRsqrtF32: return SOp::k_rsqrt_f32;
    case Opcode::kExpF32: return SOp::k_exp_f32;
    case Opcode::kLogF32: return SOp::k_log_f32;
    case Opcode::kSinF32: return SOp::k_sin_f32;
    case Opcode::kCosF32: return SOp::k_cos_f32;
    case Opcode::kMinF32: return SOp::k_min_f32;
    case Opcode::kMaxF32: return SOp::k_max_f32;
    case Opcode::kAbsF32: return SOp::k_abs_f32;
    case Opcode::kNegF32: return SOp::k_neg_f32;
    case Opcode::kFloorF32: return SOp::k_floor_f32;
    case Opcode::kSetLtF32: return SOp::k_set_lt_f32;
    case Opcode::kSetLeF32: return SOp::k_set_le_f32;
    case Opcode::kSetEqF32: return SOp::k_set_eq_f32;
    case Opcode::kSetGtF32: return SOp::k_set_gt_f32;
    case Opcode::kSetGeF32: return SOp::k_set_ge_f32;
    case Opcode::kCvtIToF32: return SOp::k_cvt_i_to_f32;
    case Opcode::kCvtF64ToF32: return SOp::k_cvt_f64_to_f32;

    case Opcode::kAddF64: return SOp::k_add_f64;
    case Opcode::kSubF64: return SOp::k_sub_f64;
    case Opcode::kMulF64: return SOp::k_mul_f64;
    case Opcode::kDivF64: return SOp::k_div_f64;
    case Opcode::kFmaF64: return SOp::k_fma_f64;
    case Opcode::kSqrtF64: return SOp::k_sqrt_f64;
    case Opcode::kExpF64: return SOp::k_exp_f64;
    case Opcode::kLogF64: return SOp::k_log_f64;
    case Opcode::kSinF64: return SOp::k_sin_f64;
    case Opcode::kCosF64: return SOp::k_cos_f64;
    case Opcode::kMinF64: return SOp::k_min_f64;
    case Opcode::kMaxF64: return SOp::k_max_f64;
    case Opcode::kAbsF64: return SOp::k_abs_f64;
    case Opcode::kNegF64: return SOp::k_neg_f64;
    case Opcode::kFloorF64: return SOp::k_floor_f64;
    case Opcode::kSetLtF64: return SOp::k_set_lt_f64;
    case Opcode::kSetLeF64: return SOp::k_set_le_f64;
    case Opcode::kSetEqF64: return SOp::k_set_eq_f64;
    case Opcode::kSetGtF64: return SOp::k_set_gt_f64;
    case Opcode::kSetGeF64: return SOp::k_set_ge_f64;
    case Opcode::kCvtIToF64: return SOp::k_cvt_i_to_f64;
    case Opcode::kCvtF32ToF64: return SOp::k_cvt_f32_to_f64;

    case Opcode::kJmp: return SOp::k_jmp;
    case Opcode::kBraZ: return SOp::k_bra_z;
    case Opcode::kBraNZ: return SOp::k_bra_nz;
    case Opcode::kRet: return SOp::k_ret;
    case Opcode::kBar: return SOp::k_bar;

    case Opcode::kLdGlobalF32: return SOp::k_ld_global_f32;
    case Opcode::kLdGlobalF64: return SOp::k_ld_global_f64;
    case Opcode::kLdGlobalI32: return SOp::k_ld_global_i32;
    case Opcode::kLdGlobalI64: return SOp::k_ld_global_i64;
    case Opcode::kLdGlobalU8: return SOp::k_ld_global_u8;
    case Opcode::kStGlobalF32: return SOp::k_st_global_f32;
    case Opcode::kStGlobalF64: return SOp::k_st_global_f64;
    case Opcode::kStGlobalI32: return SOp::k_st_global_i32;
    case Opcode::kStGlobalI64: return SOp::k_st_global_i64;
    case Opcode::kStGlobalU8: return SOp::k_st_global_u8;

    case Opcode::kLdSharedF32: return SOp::k_ld_shared_f32;
    case Opcode::kLdSharedF64: return SOp::k_ld_shared_f64;
    case Opcode::kLdSharedI64: return SOp::k_ld_shared_i64;
    case Opcode::kStSharedF32: return SOp::k_st_shared_f32;
    case Opcode::kStSharedF64: return SOp::k_st_shared_f64;
    case Opcode::kStSharedI64: return SOp::k_st_shared_i64;

    case Opcode::kAtomAddGlobalI64: return SOp::k_atom_add_global_i64;
    case Opcode::kAtomAddGlobalF32: return SOp::k_atom_add_global_f32;
  }
  return SOp::kCount;
}

/// Peephole pair table. A fused superinstruction executes `x` then `y` as
/// two budget-ticked micro-ops in original order, so any operand overlap
/// (y reading x's dst, y overwriting x's dst, ...) is automatically correct;
/// the table only needs to name profitable adjacent shapes. Pairs whose
/// second op is a branch may only form at a block's end (the caller
/// guarantees `y` is then the block terminator).
SOp fuse_pair(Opcode x, Opcode y) {
  switch (x) {
    case Opcode::kMulI:
      if (y == Opcode::kAddI) return SOp::k_mul_add_i;  // gid = ctaid*ntid + tid
      break;
    case Opcode::kShlB:
      if (y == Opcode::kAddI) return SOp::k_shl_add_i;  // addr_of: base + (i<<log2)
      break;
    case Opcode::kAddI:
      if (y == Opcode::kAddI) return SOp::k_add_add_i;
      if (y == Opcode::kJmp) return SOp::k_add_i_jmp;  // loop-end increment+backedge
      break;
    case Opcode::kSetLtI:
      if (y == Opcode::kBraZ) return SOp::k_set_lt_i_bra_z;  // guard / loop head
      if (y == Opcode::kBraNZ) return SOp::k_set_lt_i_bra_nz;
      break;
    case Opcode::kSetGeI:
      if (y == Opcode::kBraZ) return SOp::k_set_ge_i_bra_z;
      if (y == Opcode::kBraNZ) return SOp::k_set_ge_i_bra_nz;
      break;
    case Opcode::kLdGlobalF32:
      if (y == Opcode::kLdGlobalF32) return SOp::k_ld_ld_f32;
      if (y == Opcode::kAddF32) return SOp::k_ld_add_f32;
      if (y == Opcode::kMulF32) return SOp::k_ld_mul_f32;
      if (y == Opcode::kSubF32) return SOp::k_ld_sub_f32;
      break;
    case Opcode::kAddF32:
      if (y == Opcode::kStGlobalF32) return SOp::k_add_st_f32;
      break;
    case Opcode::kMulF32:
      if (y == Opcode::kStGlobalF32) return SOp::k_mul_st_f32;
      // Two separate roundings, never contracted to an fma — bit-exactness.
      if (y == Opcode::kAddF32) return SOp::k_mul_add_f32;
      break;
    case Opcode::kSubF32:
      if (y == Opcode::kStGlobalF32) return SOp::k_sub_st_f32;
      break;
    case Opcode::kFmaF32:
      if (y == Opcode::kStGlobalF32) return SOp::k_fma_st_f32;
      break;
    default:
      break;
  }
  return SOp::kCount;
}

/// Ops eligible for the lane-lockstep vector prologue: pure register → no
/// memory traffic, no hooks, no λ, no control flow. DivI/RemI are excluded
/// (their zero-divisor trap would need per-lane unwind ordering); everything
/// else that only reads lane-private registers and launch constants is in.
bool vec_ok(Opcode op) {
  switch (op) {
    case Opcode::kMovImmI:
    case Opcode::kMovImmF32:
    case Opcode::kMovImmF64:
    case Opcode::kMov:
    case Opcode::kReadSpecial:
    case Opcode::kLdParam:  // uniform bounds check, broadcast value
    case Opcode::kSelect:
    case Opcode::kAddI:
    case Opcode::kSubI:
    case Opcode::kMulI:
    case Opcode::kMinI:
    case Opcode::kMaxI:
    case Opcode::kNegI:
    case Opcode::kAbsI:
    case Opcode::kSetLtI:
    case Opcode::kSetLeI:
    case Opcode::kSetEqI:
    case Opcode::kSetNeI:
    case Opcode::kSetGtI:
    case Opcode::kSetGeI:
    case Opcode::kCvtF32ToI:
    case Opcode::kCvtF64ToI:
    case Opcode::kAndB:
    case Opcode::kOrB:
    case Opcode::kXorB:
    case Opcode::kNotB:
    case Opcode::kShlB:
    case Opcode::kShrB:
    case Opcode::kShrA:
    case Opcode::kAddF32:
    case Opcode::kSubF32:
    case Opcode::kMulF32:
    case Opcode::kDivF32:
    case Opcode::kFmaF32:
    case Opcode::kMinF32:
    case Opcode::kMaxF32:
    case Opcode::kAbsF32:
    case Opcode::kNegF32:
    case Opcode::kFloorF32:
    case Opcode::kSetLtF32:
    case Opcode::kSetLeF32:
    case Opcode::kSetEqF32:
    case Opcode::kSetGtF32:
    case Opcode::kSetGeF32:
    case Opcode::kCvtIToF32:
    case Opcode::kCvtF64ToF32:
    case Opcode::kAddF64:
    case Opcode::kSubF64:
    case Opcode::kMulF64:
    case Opcode::kDivF64:
    case Opcode::kFmaF64:
    case Opcode::kMinF64:
    case Opcode::kMaxF64:
    case Opcode::kAbsF64:
    case Opcode::kNegF64:
    case Opcode::kFloorF64:
    case Opcode::kSetLtF64:
    case Opcode::kSetLeF64:
    case Opcode::kSetEqF64:
    case Opcode::kSetGtF64:
    case Opcode::kSetGeF64:
    case Opcode::kCvtIToF64:
    case Opcode::kCvtF32ToF64:
      return true;
    default:
      return false;
  }
}

bool sop_is_branch(SOp s) {
  switch (s) {
    case SOp::k_jmp:
    case SOp::k_bra_z:
    case SOp::k_bra_nz:
    case SOp::k_add_i_jmp:
    case SOp::k_set_lt_i_bra_z:
    case SOp::k_set_lt_i_bra_nz:
    case SOp::k_set_ge_i_bra_z:
    case SOp::k_set_ge_i_bra_nz:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::shared_ptr<const Tier2Program> lower_program(const KernelIR& ir, unsigned stride_shift) {
  DecodedProgram prog = decode_kernel(ir);
  for (const DecodedBlock& db : prog.blocks) {
    for (std::uint32_t k = 0; k + 1 < db.num_instrs; ++k) {
      // A mid-block terminator would make the block's lowered length
      // ambiguous.
      SIGVP_REQUIRE(!is_terminator(prog.code[db.first_pc + k].op),
                    ir.name + ": terminator in mid-block");
    }
  }

  auto out = std::make_shared<Tier2Program>();
  out->num_regs = prog.num_regs;
  out->lane_stride = (1u << stride_shift) + kLanePad;
  out->fingerprint = prog.fingerprint;
  out->has_global_atomics = Interpreter::uses_global_atomics(ir);
  out->block_first_pc.resize(prog.blocks.size());
  out->code.reserve(prog.code.size());

  const auto scale = [stride = out->lane_stride](std::uint16_t reg) {
    return static_cast<std::uint32_t>(reg) * stride;
  };

  // Vector prologue: maximal pure-register prefix of the entry block —
  // unless some branch re-enters block 0, in which case a mid-prologue pc
  // could be a jump target and the prefix is not straight-line for every
  // visit.
  bool entry_is_target = false;
  for (const DecodedInstr& d : prog.code) {
    if (is_branch_with_target(d.op) && d.target_block == 0) entry_is_target = true;
  }
  std::uint32_t prologue_len = 0;
  if (!entry_is_target) {
    const DecodedBlock& b0 = prog.blocks[0];
    while (prologue_len < b0.num_instrs &&
           vec_ok(prog.code[b0.first_pc + prologue_len].op)) {
      ++prologue_len;
    }
  }
  out->prologue.reserve(prologue_len);
  for (std::uint32_t k = 0; k < prologue_len; ++k) {
    const DecodedInstr& d = prog.code[prog.blocks[0].first_pc + k];
    VecOp v;
    v.op = d.op == Opcode::kMovImmF32 || d.op == Opcode::kMovImmF64 ? Opcode::kMovImmI : d.op;
    v.d = scale(d.dst);
    v.a = scale(d.src0);
    v.b = scale(d.src1);
    v.c = scale(d.src2);
    v.imm = d.imm;  // FP immediates already pre-encoded as bit patterns
    out->prologue.push_back(v);
  }

  // Lower each block: 1:1 for the prologue region (so scalar execution can
  // start at flat pc 0 when the vector phase is skipped), greedy
  // non-overlapping pair fusion for everything else. Fusion never crosses a
  // block boundary, and branch targets only ever point at a block's first
  // instruction, so no fused pair can hide a jump target.
  for (std::size_t bi = 0; bi < prog.blocks.size(); ++bi) {
    const DecodedBlock& db = prog.blocks[bi];
    out->block_first_pc[bi] = static_cast<std::uint32_t>(out->code.size());
    std::uint32_t k = 0;
    const std::uint32_t no_fuse_below = bi == 0 ? prologue_len : 0u;
    while (k < db.num_instrs) {
      const DecodedInstr& x = prog.code[db.first_pc + k];
      Tier2Instr t;
      t.d = scale(x.dst);
      t.a = scale(x.src0);
      t.b = scale(x.src1);
      t.c = scale(x.src2);
      t.imm = x.imm;
      SOp fused = SOp::kCount;
      if (k >= no_fuse_below && k + 1 < db.num_instrs) {
        const DecodedInstr& y = prog.code[db.first_pc + k + 1];
        fused = fuse_pair(x.op, y.op);
        if (fused != SOp::kCount) {
          t.sop = static_cast<std::uint16_t>(fused);
          t.d2 = scale(y.dst);
          t.a2 = scale(y.src0);
          t.b2 = scale(y.src1);
          t.imm2 = y.imm;
          // Branch metadata of a fused-with-branch pair comes from `y`.
          t.target_block = y.target_block;
          t.fall_pc = y.fall_pc;  // kInvalidPc marker survives; pc fixed below
          t.fall_block = y.fall_block;
          ++out->fused_pairs;
          k += 2;
        }
      }
      if (fused == SOp::kCount) {
        t.sop = static_cast<std::uint16_t>(generic_sop(x.op));
        t.target_block = x.target_block;
        t.fall_pc = x.fall_pc;
        t.fall_block = x.fall_block;
        k += 1;
      }
      out->code.push_back(t);
    }
  }
  out->scalar_entry_pc = prologue_len;  // prologue region lowered 1:1 from pc 0

  // Fix up branch targets into the lowered pc space.
  for (Tier2Instr& t : out->code) {
    if (!sop_is_branch(static_cast<SOp>(t.sop))) continue;
    t.target_pc = out->block_first_pc[t.target_block];
    if (t.fall_pc != kInvalidPc) t.fall_pc = out->block_first_pc[t.fall_block];
  }
  out->blocks = std::move(prog.blocks);
  return out;
}

}  // namespace sigvp::interp_detail
