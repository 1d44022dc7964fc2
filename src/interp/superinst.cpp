#include "interp/superinst.hpp"

#include <utility>
#include <vector>

#include "ir/translation.hpp"
#include "util/check.hpp"

namespace sigvp::interp_detail {

namespace {

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

/// True for the ops of SIGVP_PURE_OPS.
bool is_pure_op(Opcode op) {
  switch (op) {
    // clang-format off
#define SIGVP_PURE_CASE(opc, name, body) case Opcode::opc:
    SIGVP_PURE_OPS(SIGVP_PURE_CASE)
#undef SIGVP_PURE_CASE
    // clang-format on
      return true;
    default:
      return false;
  }
}

/// Ops eligible for the lane-lockstep vector prologue: no memory traffic,
/// no observer, no λ, no control flow. That is every pure op but the SFU ones,
/// plus the broadcasts of immediates, special registers and parameters
/// (ld_param's bounds check is uniform across lanes). DivI/RemI are not
/// pure: their zero-divisor trap would need per-lane unwind ordering.
bool vec_ok(Opcode op) {
  return (is_pure_op(op) && !is_sfu_op(op)) || op == Opcode::kMovImmI ||
         op == Opcode::kMovImmF32 || op == Opcode::kMovImmF64 || op == Opcode::kReadSpecial ||
         op == Opcode::kLdParam;
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
  out->pointer_mask = prove_translation_invariant(ir).mask;
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
  std::vector<std::size_t> branches;  // lowered pcs whose targets are fixed up below
  for (std::size_t bi = 0; bi < prog.blocks.size(); ++bi) {
    const DecodedBlock& db = prog.blocks[bi];
    out->block_first_pc[bi] = static_cast<std::uint32_t>(out->code.size());
    std::uint32_t k = 0;
    const std::uint32_t no_fuse_below = bi == 0 ? prologue_len : 0u;
    while (k < db.num_instrs) {
      const DecodedInstr& x = prog.code[db.first_pc + k];
      const DecodedInstr* last = &x;  // the instruction's last micro-op
      Tier2Instr t;
      t.sop = static_cast<std::uint16_t>(generic_sop(x.op));
      t.d = scale(x.dst);
      t.a = scale(x.src0);
      t.b = scale(x.src1);
      t.c = scale(x.src2);
      t.imm = x.imm;
      if (k >= no_fuse_below && k + 1 < db.num_instrs) {
        const DecodedInstr& y = prog.code[db.first_pc + k + 1];
        const SOp fused = fuse_pair(x.op, y.op);
        if (fused != SOp::kCount) {
          t.sop = static_cast<std::uint16_t>(fused);
          t.d2 = scale(y.dst);
          t.a2 = scale(y.src0);
          t.b2 = scale(y.src1);
          t.imm2 = y.imm;
          last = &y;
          ++out->fused_pairs;
        }
      }
      k += last == &x ? 1 : 2;
      // Branch metadata comes from the last micro-op (a fused pair's branch
      // is its second); the kInvalidPc fallthrough marker survives.
      t.target_block = last->target_block;
      t.fall_pc = last->fall_pc;
      t.fall_block = last->fall_block;
      if (is_branch_with_target(last->op)) branches.push_back(out->code.size());
      out->code.push_back(t);
    }
  }
  out->scalar_entry_pc = prologue_len;  // prologue region lowered 1:1 from pc 0

  // Fix up branch targets into the lowered pc space.
  for (const std::size_t pc : branches) {
    Tier2Instr& t = out->code[pc];
    t.target_pc = out->block_first_pc[t.target_block];
    if (t.fall_pc != kInvalidPc) t.fall_pc = out->block_first_pc[t.fall_block];
  }
  out->blocks = std::move(prog.blocks);
  return out;
}

}  // namespace sigvp::interp_detail
