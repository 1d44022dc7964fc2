#include "ir/builder.hpp"

#include <utility>

#include "ir/validate.hpp"
#include "util/check.hpp"

namespace sigvp {

KernelBuilder::KernelBuilder(std::string name, std::uint32_t num_params) {
  SIGVP_REQUIRE(!name.empty(), "kernel name must be non-empty");
  ir_.name = std::move(name);
  ir_.num_params = num_params;
}

KernelBuilder::Reg KernelBuilder::reg() {
  SIGVP_REQUIRE(next_reg_ < 256, "kernel exceeds the 256-register budget");
  return static_cast<Reg>(next_reg_++);
}

void KernelBuilder::set_shared_bytes(std::uint32_t bytes) { ir_.shared_bytes = bytes; }

void KernelBuilder::block(const std::string& label) {
  SIGVP_REQUIRE(!built_, "builder already finalized");
  SIGVP_REQUIRE(!label.empty(), "block label must be non-empty");
  SIGVP_REQUIRE(!label_to_block_.contains(label), "duplicate block label: " + label);
  if (!ir_.blocks.empty()) {
    const BasicBlock& prev = ir_.blocks.back();
    SIGVP_REQUIRE(!prev.instrs.empty() && is_terminator(prev.instrs.back().op),
                  "previous block must end with a terminator before opening " + label);
  }
  label_to_block_[label] = ir_.blocks.size();
  ir_.blocks.push_back(BasicBlock{label, {}});
}

BasicBlock& KernelBuilder::current() {
  SIGVP_REQUIRE(!ir_.blocks.empty(), "open a block before emitting instructions");
  return ir_.blocks.back();
}

void KernelBuilder::emit(Instr instr) {
  SIGVP_REQUIRE(!built_, "builder already finalized");
  BasicBlock& b = current();
  SIGVP_REQUIRE(b.instrs.empty() || !is_terminator(b.instrs.back().op),
                "cannot emit past the terminator of block " + b.label);
  b.instrs.push_back(instr);
}

void KernelBuilder::emit_load(Opcode op, Reg dst, Reg addr, std::int64_t offset) {
  emit(Instr{op, dst, addr, 0, 0, offset, 0.0});
}

void KernelBuilder::emit_store(Opcode op, Reg value, Reg addr, std::int64_t offset) {
  // Stores carry the value register in src1 and the address in src0.
  emit(Instr{op, 0, addr, value, 0, offset, 0.0});
}

void KernelBuilder::mov_imm_i(Reg dst, std::int64_t value) {
  emit(Instr{Opcode::kMovImmI, dst, 0, 0, 0, value, 0.0});
}
void KernelBuilder::mov_imm_f32(Reg dst, float value) {
  emit(Instr{Opcode::kMovImmF32, dst, 0, 0, 0, 0, static_cast<double>(value)});
}
void KernelBuilder::mov_imm_f64(Reg dst, double value) {
  emit(Instr{Opcode::kMovImmF64, dst, 0, 0, 0, 0, value});
}
void KernelBuilder::mov(Reg dst, Reg src) { emit(Instr{Opcode::kMov, dst, src, 0, 0, 0, 0.0}); }
void KernelBuilder::special(Reg dst, SpecialReg sr) {
  emit(Instr{Opcode::kReadSpecial, dst, 0, 0, 0, static_cast<std::int64_t>(sr), 0.0});
}
void KernelBuilder::ld_param(Reg dst, std::uint32_t param_index) {
  SIGVP_REQUIRE(param_index < ir_.num_params, "parameter index out of range");
  emit(Instr{Opcode::kLdParam, dst, 0, 0, 0, static_cast<std::int64_t>(param_index), 0.0});
}
void KernelBuilder::select(Reg dst, Reg cond, Reg if_true, Reg if_false) {
  emit(Instr{Opcode::kSelect, dst, cond, if_true, if_false, 0, 0.0});
}

#define SIGVP_BIN(fn, opcode)                                            \
  void KernelBuilder::fn(Reg dst, Reg a, Reg b) {                        \
    emit(Instr{Opcode::opcode, dst, a, b, 0, 0, 0.0});                   \
  }
#define SIGVP_UN(fn, opcode)                                             \
  void KernelBuilder::fn(Reg dst, Reg a) {                               \
    emit(Instr{Opcode::opcode, dst, a, 0, 0, 0, 0.0});                   \
  }

SIGVP_BIN(add_i, kAddI)
SIGVP_BIN(sub_i, kSubI)
SIGVP_BIN(mul_i, kMulI)
SIGVP_BIN(div_i, kDivI)
SIGVP_BIN(rem_i, kRemI)
SIGVP_BIN(min_i, kMinI)
SIGVP_BIN(max_i, kMaxI)
SIGVP_UN(neg_i, kNegI)
SIGVP_UN(abs_i, kAbsI)
SIGVP_BIN(set_lt_i, kSetLtI)
SIGVP_BIN(set_le_i, kSetLeI)
SIGVP_BIN(set_eq_i, kSetEqI)
SIGVP_BIN(set_ne_i, kSetNeI)
SIGVP_BIN(set_gt_i, kSetGtI)
SIGVP_BIN(set_ge_i, kSetGeI)
SIGVP_UN(cvt_f32_to_i, kCvtF32ToI)
SIGVP_UN(cvt_f64_to_i, kCvtF64ToI)

SIGVP_BIN(and_b, kAndB)
SIGVP_BIN(or_b, kOrB)
SIGVP_BIN(xor_b, kXorB)
SIGVP_UN(not_b, kNotB)
SIGVP_BIN(shl_b, kShlB)
SIGVP_BIN(shr_b, kShrB)
SIGVP_BIN(shr_a, kShrA)

SIGVP_BIN(add_f32, kAddF32)
SIGVP_BIN(sub_f32, kSubF32)
SIGVP_BIN(mul_f32, kMulF32)
SIGVP_BIN(div_f32, kDivF32)
SIGVP_UN(sqrt_f32, kSqrtF32)
SIGVP_UN(rsqrt_f32, kRsqrtF32)
SIGVP_UN(exp_f32, kExpF32)
SIGVP_UN(log_f32, kLogF32)
SIGVP_UN(sin_f32, kSinF32)
SIGVP_UN(cos_f32, kCosF32)
SIGVP_BIN(min_f32, kMinF32)
SIGVP_BIN(max_f32, kMaxF32)
SIGVP_UN(abs_f32, kAbsF32)
SIGVP_UN(neg_f32, kNegF32)
SIGVP_UN(floor_f32, kFloorF32)
SIGVP_BIN(set_lt_f32, kSetLtF32)
SIGVP_BIN(set_le_f32, kSetLeF32)
SIGVP_BIN(set_eq_f32, kSetEqF32)
SIGVP_BIN(set_gt_f32, kSetGtF32)
SIGVP_BIN(set_ge_f32, kSetGeF32)
SIGVP_UN(cvt_i_to_f32, kCvtIToF32)
SIGVP_UN(cvt_f64_to_f32, kCvtF64ToF32)

SIGVP_BIN(add_f64, kAddF64)
SIGVP_BIN(sub_f64, kSubF64)
SIGVP_BIN(mul_f64, kMulF64)
SIGVP_BIN(div_f64, kDivF64)
SIGVP_UN(sqrt_f64, kSqrtF64)
SIGVP_UN(exp_f64, kExpF64)
SIGVP_UN(log_f64, kLogF64)
SIGVP_UN(sin_f64, kSinF64)
SIGVP_UN(cos_f64, kCosF64)
SIGVP_BIN(min_f64, kMinF64)
SIGVP_BIN(max_f64, kMaxF64)
SIGVP_UN(abs_f64, kAbsF64)
SIGVP_UN(neg_f64, kNegF64)
SIGVP_UN(floor_f64, kFloorF64)
SIGVP_BIN(set_lt_f64, kSetLtF64)
SIGVP_BIN(set_le_f64, kSetLeF64)
SIGVP_BIN(set_eq_f64, kSetEqF64)
SIGVP_BIN(set_gt_f64, kSetGtF64)
SIGVP_BIN(set_ge_f64, kSetGeF64)
SIGVP_UN(cvt_i_to_f64, kCvtIToF64)
SIGVP_UN(cvt_f32_to_f64, kCvtF32ToF64)

#undef SIGVP_BIN
#undef SIGVP_UN

void KernelBuilder::fma_f32(Reg dst, Reg a, Reg b, Reg c) {
  emit(Instr{Opcode::kFmaF32, dst, a, b, c, 0, 0.0});
}
void KernelBuilder::fma_f64(Reg dst, Reg a, Reg b, Reg c) {
  emit(Instr{Opcode::kFmaF64, dst, a, b, c, 0, 0.0});
}

void KernelBuilder::jmp(const std::string& label) {
  pending_.push_back({ir_.blocks.size() - 1, current().instrs.size(), label});
  emit(Instr{Opcode::kJmp, 0, 0, 0, 0, -1, 0.0});
}
void KernelBuilder::bra_z(Reg cond, const std::string& label) {
  pending_.push_back({ir_.blocks.size() - 1, current().instrs.size(), label});
  emit(Instr{Opcode::kBraZ, 0, cond, 0, 0, -1, 0.0});
}
void KernelBuilder::bra_nz(Reg cond, const std::string& label) {
  pending_.push_back({ir_.blocks.size() - 1, current().instrs.size(), label});
  emit(Instr{Opcode::kBraNZ, 0, cond, 0, 0, -1, 0.0});
}
void KernelBuilder::ret() { emit(Instr{Opcode::kRet, 0, 0, 0, 0, 0, 0.0}); }
void KernelBuilder::bar() { emit(Instr{Opcode::kBar, 0, 0, 0, 0, 0, 0.0}); }

void KernelBuilder::ld_global_f32(Reg dst, Reg addr, std::int64_t offset) {
  emit_load(Opcode::kLdGlobalF32, dst, addr, offset);
}
void KernelBuilder::ld_global_f64(Reg dst, Reg addr, std::int64_t offset) {
  emit_load(Opcode::kLdGlobalF64, dst, addr, offset);
}
void KernelBuilder::ld_global_i32(Reg dst, Reg addr, std::int64_t offset) {
  emit_load(Opcode::kLdGlobalI32, dst, addr, offset);
}
void KernelBuilder::ld_global_i64(Reg dst, Reg addr, std::int64_t offset) {
  emit_load(Opcode::kLdGlobalI64, dst, addr, offset);
}
void KernelBuilder::ld_global_u8(Reg dst, Reg addr, std::int64_t offset) {
  emit_load(Opcode::kLdGlobalU8, dst, addr, offset);
}
void KernelBuilder::st_global_f32(Reg value, Reg addr, std::int64_t offset) {
  emit_store(Opcode::kStGlobalF32, value, addr, offset);
}
void KernelBuilder::st_global_f64(Reg value, Reg addr, std::int64_t offset) {
  emit_store(Opcode::kStGlobalF64, value, addr, offset);
}
void KernelBuilder::st_global_i32(Reg value, Reg addr, std::int64_t offset) {
  emit_store(Opcode::kStGlobalI32, value, addr, offset);
}
void KernelBuilder::st_global_i64(Reg value, Reg addr, std::int64_t offset) {
  emit_store(Opcode::kStGlobalI64, value, addr, offset);
}
void KernelBuilder::st_global_u8(Reg value, Reg addr, std::int64_t offset) {
  emit_store(Opcode::kStGlobalU8, value, addr, offset);
}
void KernelBuilder::atom_add_global_i64(Reg dst, Reg value, Reg addr, std::int64_t offset) {
  emit(Instr{Opcode::kAtomAddGlobalI64, dst, addr, value, 0, offset, 0.0});
}
void KernelBuilder::atom_add_global_f32(Reg dst, Reg value, Reg addr, std::int64_t offset) {
  emit(Instr{Opcode::kAtomAddGlobalF32, dst, addr, value, 0, offset, 0.0});
}
void KernelBuilder::ld_shared_f32(Reg dst, Reg addr, std::int64_t offset) {
  emit_load(Opcode::kLdSharedF32, dst, addr, offset);
}
void KernelBuilder::ld_shared_f64(Reg dst, Reg addr, std::int64_t offset) {
  emit_load(Opcode::kLdSharedF64, dst, addr, offset);
}
void KernelBuilder::ld_shared_i64(Reg dst, Reg addr, std::int64_t offset) {
  emit_load(Opcode::kLdSharedI64, dst, addr, offset);
}
void KernelBuilder::st_shared_f32(Reg value, Reg addr, std::int64_t offset) {
  emit_store(Opcode::kStSharedF32, value, addr, offset);
}
void KernelBuilder::st_shared_f64(Reg value, Reg addr, std::int64_t offset) {
  emit_store(Opcode::kStSharedF64, value, addr, offset);
}
void KernelBuilder::st_shared_i64(Reg value, Reg addr, std::int64_t offset) {
  emit_store(Opcode::kStSharedI64, value, addr, offset);
}

void KernelBuilder::addr_of(Reg dst, Reg base, Reg index, int log2_elem_size) {
  SIGVP_REQUIRE(log2_elem_size >= 0 && log2_elem_size <= 4, "element size must be 1..16 bytes");
  const Reg shift = reg();
  mov_imm_i(shift, log2_elem_size);
  const Reg scaled = reg();
  shl_b(scaled, index, shift);
  add_i(dst, base, scaled);
}

KernelBuilder::Loop KernelBuilder::loop_begin(Reg counter, Reg bound, Reg step,
                                              const std::string& name) {
  Loop loop;
  loop.counter = counter;
  loop.bound = bound;
  loop.step = step;
  loop.cond = reg();
  loop.head = name + ".head";
  loop.exit = name + ".exit";
  jmp(loop.head);
  block(loop.head);
  set_lt_i(loop.cond, counter, bound);
  bra_z(loop.cond, loop.exit);
  block(name + ".body");
  return loop;
}

void KernelBuilder::loop_end(const Loop& loop) {
  add_i(loop.counter, loop.counter, loop.step);
  jmp(loop.head);
  block(loop.exit);
}

KernelIR KernelBuilder::build() {
  SIGVP_REQUIRE(!built_, "builder already finalized");
  SIGVP_REQUIRE(!ir_.blocks.empty(), "kernel has no blocks");
  for (const PendingBranch& pb : pending_) {
    auto it = label_to_block_.find(pb.label);
    SIGVP_REQUIRE(it != label_to_block_.end(), "undefined label: " + pb.label);
    ir_.blocks[pb.block].instrs[pb.instr].imm = static_cast<std::int64_t>(it->second);
  }
  ir_.num_regs = next_reg_;
  built_ = true;
  validate_kernel(ir_);
  return std::move(ir_);
}

}  // namespace sigvp
