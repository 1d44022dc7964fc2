#include "interp/decoded.hpp"

#include <bit>
#include <cmath>
#include <cstring>

#include "util/check.hpp"

namespace sigvp::interp_detail {

[[noreturn]] void throw_budget_exhausted(const KernelIR& ir) {
  sigvp::detail::raise_contract_error(
      "precondition", "instrs_executed <= max_instrs_per_thread", __FILE__, __LINE__,
      ir.name + ": per-thread instruction budget exhausted");
}

[[noreturn]] void throw_shared_oob(const KernelIR& ir) {
  sigvp::detail::raise_contract_error("precondition", "shared access in bounds", __FILE__,
                                      __LINE__, ir.name + ": shared-memory access out of bounds");
}

[[noreturn]] void throw_div_zero(const KernelIR& ir) {
  sigvp::detail::raise_contract_error("precondition", "divisor != 0", __FILE__, __LINE__,
                                      ir.name + ": integer division by zero");
}

[[noreturn]] void throw_rem_zero(const KernelIR& ir) {
  sigvp::detail::raise_contract_error("precondition", "divisor != 0", __FILE__, __LINE__,
                                      ir.name + ": integer remainder by zero");
}

[[noreturn]] void throw_bad_param(const KernelIR& ir) {
  sigvp::detail::raise_contract_error(
      "precondition", "param index < argument count", __FILE__, __LINE__,
      ir.name + ": kernel launched with too few arguments");
}

[[noreturn]] void throw_bad_fallthrough(const KernelIR& ir) {
  sigvp::detail::raise_contract_error("invariant", "fallthrough block exists", __FILE__, __LINE__,
                                      ir.name + ": branch to nonexistent block");
}

namespace {

// ---------------------------------------------------------------------------
// Handlers. Each handler is one specialized opcode: operands are pre-widened
// slots, branch targets are pre-resolved flat pcs, FP immediates are
// pre-encoded register bit patterns. Handlers advance t.pc themselves.
// ---------------------------------------------------------------------------

#define SIGVP_OP(name) \
  void name(ExecContext& m, ThreadState& t, const DecodedInstr& d)

// Straight-line op: body computes into r[...], pc advances by one.
#define SIGVP_SIMPLE_OP(name, ...)                     \
  SIGVP_OP(name) {                                     \
    (void)m;                                           \
    RegValue* const r = t.regs;                        \
    (void)r;                                           \
    __VA_ARGS__;                                       \
    ++t.pc;                                            \
  }

SIGVP_SIMPLE_OP(op_nop, (void)d)
SIGVP_SIMPLE_OP(op_load_const, r[d.dst].bits = static_cast<std::uint64_t>(d.imm))
SIGVP_SIMPLE_OP(op_mov, r[d.dst] = r[d.src0])
SIGVP_SIMPLE_OP(op_select, r[d.dst] = r[d.src0].truthy() ? r[d.src1] : r[d.src2])

SIGVP_OP(op_read_special) {
  std::uint64_t v = 0;
  switch (static_cast<SpecialReg>(d.imm)) {
    case SpecialReg::kTidX: v = t.tid_x; break;
    case SpecialReg::kTidY: v = t.tid_y; break;
    case SpecialReg::kCtaidX: v = m.ctaid_x; break;
    case SpecialReg::kCtaidY: v = m.ctaid_y; break;
    case SpecialReg::kNtidX: v = m.dims.block_x; break;
    case SpecialReg::kNtidY: v = m.dims.block_y; break;
    case SpecialReg::kNctaidX: v = m.dims.grid_x; break;
    case SpecialReg::kNctaidY: v = m.dims.grid_y; break;
  }
  t.regs[d.dst].bits = v;
  ++t.pc;
}

SIGVP_OP(op_ld_param) {
  if (static_cast<std::size_t>(d.imm) >= m.argc) [[unlikely]] throw_bad_param(*m.ir);
  t.regs[d.dst].bits = m.argv[static_cast<std::size_t>(d.imm)];
  ++t.pc;
}

// --- integer -----------------------------------------------------------------
SIGVP_SIMPLE_OP(op_add_i, r[d.dst].set_i(r[d.src0].i() + r[d.src1].i()))
SIGVP_SIMPLE_OP(op_sub_i, r[d.dst].set_i(r[d.src0].i() - r[d.src1].i()))
SIGVP_SIMPLE_OP(op_mul_i, r[d.dst].set_i(r[d.src0].i() * r[d.src1].i()))
SIGVP_OP(op_div_i) {
  RegValue* const r = t.regs;
  if (r[d.src1].i() == 0) [[unlikely]] throw_div_zero(*m.ir);
  r[d.dst].set_i(r[d.src0].i() / r[d.src1].i());
  ++t.pc;
}
SIGVP_OP(op_rem_i) {
  RegValue* const r = t.regs;
  if (r[d.src1].i() == 0) [[unlikely]] throw_rem_zero(*m.ir);
  r[d.dst].set_i(r[d.src0].i() % r[d.src1].i());
  ++t.pc;
}
SIGVP_SIMPLE_OP(op_min_i, r[d.dst].set_i(std::min(r[d.src0].i(), r[d.src1].i())))
SIGVP_SIMPLE_OP(op_max_i, r[d.dst].set_i(std::max(r[d.src0].i(), r[d.src1].i())))
SIGVP_SIMPLE_OP(op_neg_i, r[d.dst].set_i(-r[d.src0].i()))
SIGVP_SIMPLE_OP(op_abs_i, r[d.dst].set_i(std::abs(r[d.src0].i())))
SIGVP_SIMPLE_OP(op_set_lt_i, r[d.dst].set_i(r[d.src0].i() < r[d.src1].i()))
SIGVP_SIMPLE_OP(op_set_le_i, r[d.dst].set_i(r[d.src0].i() <= r[d.src1].i()))
SIGVP_SIMPLE_OP(op_set_eq_i, r[d.dst].set_i(r[d.src0].i() == r[d.src1].i()))
SIGVP_SIMPLE_OP(op_set_ne_i, r[d.dst].set_i(r[d.src0].i() != r[d.src1].i()))
SIGVP_SIMPLE_OP(op_set_gt_i, r[d.dst].set_i(r[d.src0].i() > r[d.src1].i()))
SIGVP_SIMPLE_OP(op_set_ge_i, r[d.dst].set_i(r[d.src0].i() >= r[d.src1].i()))
SIGVP_SIMPLE_OP(op_cvt_f32_to_i, r[d.dst].set_i(static_cast<std::int64_t>(r[d.src0].f32())))
SIGVP_SIMPLE_OP(op_cvt_f64_to_i, r[d.dst].set_i(static_cast<std::int64_t>(r[d.src0].f64())))

// --- bit ---------------------------------------------------------------------
SIGVP_SIMPLE_OP(op_and_b, r[d.dst].bits = r[d.src0].bits & r[d.src1].bits)
SIGVP_SIMPLE_OP(op_or_b, r[d.dst].bits = r[d.src0].bits | r[d.src1].bits)
SIGVP_SIMPLE_OP(op_xor_b, r[d.dst].bits = r[d.src0].bits ^ r[d.src1].bits)
SIGVP_SIMPLE_OP(op_not_b, r[d.dst].bits = ~r[d.src0].bits)
SIGVP_SIMPLE_OP(op_shl_b, r[d.dst].bits = r[d.src0].bits << (r[d.src1].bits & 63))
SIGVP_SIMPLE_OP(op_shr_b, r[d.dst].bits = r[d.src0].bits >> (r[d.src1].bits & 63))
SIGVP_SIMPLE_OP(op_shr_a, r[d.dst].set_i(r[d.src0].i() >> (r[d.src1].bits & 63)))

// --- fp32 --------------------------------------------------------------------
SIGVP_SIMPLE_OP(op_add_f32, r[d.dst].set_f32(r[d.src0].f32() + r[d.src1].f32()))
SIGVP_SIMPLE_OP(op_sub_f32, r[d.dst].set_f32(r[d.src0].f32() - r[d.src1].f32()))
SIGVP_SIMPLE_OP(op_mul_f32, r[d.dst].set_f32(r[d.src0].f32() * r[d.src1].f32()))
SIGVP_SIMPLE_OP(op_div_f32, r[d.dst].set_f32(r[d.src0].f32() / r[d.src1].f32()))
SIGVP_SIMPLE_OP(op_fma_f32,
                r[d.dst].set_f32(std::fma(r[d.src0].f32(), r[d.src1].f32(), r[d.src2].f32())))
SIGVP_SIMPLE_OP(op_sqrt_f32, r[d.dst].set_f32(std::sqrt(r[d.src0].f32())))
SIGVP_SIMPLE_OP(op_rsqrt_f32, r[d.dst].set_f32(1.0f / std::sqrt(r[d.src0].f32())))
SIGVP_SIMPLE_OP(op_exp_f32, r[d.dst].set_f32(std::exp(r[d.src0].f32())))
SIGVP_SIMPLE_OP(op_log_f32, r[d.dst].set_f32(std::log(r[d.src0].f32())))
SIGVP_SIMPLE_OP(op_sin_f32, r[d.dst].set_f32(std::sin(r[d.src0].f32())))
SIGVP_SIMPLE_OP(op_cos_f32, r[d.dst].set_f32(std::cos(r[d.src0].f32())))
SIGVP_SIMPLE_OP(op_min_f32, r[d.dst].set_f32(std::fmin(r[d.src0].f32(), r[d.src1].f32())))
SIGVP_SIMPLE_OP(op_max_f32, r[d.dst].set_f32(std::fmax(r[d.src0].f32(), r[d.src1].f32())))
SIGVP_SIMPLE_OP(op_abs_f32, r[d.dst].set_f32(std::fabs(r[d.src0].f32())))
SIGVP_SIMPLE_OP(op_neg_f32, r[d.dst].set_f32(-r[d.src0].f32()))
SIGVP_SIMPLE_OP(op_floor_f32, r[d.dst].set_f32(std::floor(r[d.src0].f32())))
SIGVP_SIMPLE_OP(op_set_lt_f32, r[d.dst].set_i(r[d.src0].f32() < r[d.src1].f32()))
SIGVP_SIMPLE_OP(op_set_le_f32, r[d.dst].set_i(r[d.src0].f32() <= r[d.src1].f32()))
SIGVP_SIMPLE_OP(op_set_eq_f32, r[d.dst].set_i(r[d.src0].f32() == r[d.src1].f32()))
SIGVP_SIMPLE_OP(op_set_gt_f32, r[d.dst].set_i(r[d.src0].f32() > r[d.src1].f32()))
SIGVP_SIMPLE_OP(op_set_ge_f32, r[d.dst].set_i(r[d.src0].f32() >= r[d.src1].f32()))
SIGVP_SIMPLE_OP(op_cvt_i_to_f32, r[d.dst].set_f32(static_cast<float>(r[d.src0].i())))
SIGVP_SIMPLE_OP(op_cvt_f64_to_f32, r[d.dst].set_f32(static_cast<float>(r[d.src0].f64())))

// --- fp64 --------------------------------------------------------------------
SIGVP_SIMPLE_OP(op_add_f64, r[d.dst].set_f64(r[d.src0].f64() + r[d.src1].f64()))
SIGVP_SIMPLE_OP(op_sub_f64, r[d.dst].set_f64(r[d.src0].f64() - r[d.src1].f64()))
SIGVP_SIMPLE_OP(op_mul_f64, r[d.dst].set_f64(r[d.src0].f64() * r[d.src1].f64()))
SIGVP_SIMPLE_OP(op_div_f64, r[d.dst].set_f64(r[d.src0].f64() / r[d.src1].f64()))
SIGVP_SIMPLE_OP(op_fma_f64,
                r[d.dst].set_f64(std::fma(r[d.src0].f64(), r[d.src1].f64(), r[d.src2].f64())))
SIGVP_SIMPLE_OP(op_sqrt_f64, r[d.dst].set_f64(std::sqrt(r[d.src0].f64())))
SIGVP_SIMPLE_OP(op_exp_f64, r[d.dst].set_f64(std::exp(r[d.src0].f64())))
SIGVP_SIMPLE_OP(op_log_f64, r[d.dst].set_f64(std::log(r[d.src0].f64())))
SIGVP_SIMPLE_OP(op_sin_f64, r[d.dst].set_f64(std::sin(r[d.src0].f64())))
SIGVP_SIMPLE_OP(op_cos_f64, r[d.dst].set_f64(std::cos(r[d.src0].f64())))
SIGVP_SIMPLE_OP(op_min_f64, r[d.dst].set_f64(std::fmin(r[d.src0].f64(), r[d.src1].f64())))
SIGVP_SIMPLE_OP(op_max_f64, r[d.dst].set_f64(std::fmax(r[d.src0].f64(), r[d.src1].f64())))
SIGVP_SIMPLE_OP(op_abs_f64, r[d.dst].set_f64(std::fabs(r[d.src0].f64())))
SIGVP_SIMPLE_OP(op_neg_f64, r[d.dst].set_f64(-r[d.src0].f64()))
SIGVP_SIMPLE_OP(op_floor_f64, r[d.dst].set_f64(std::floor(r[d.src0].f64())))
SIGVP_SIMPLE_OP(op_set_lt_f64, r[d.dst].set_i(r[d.src0].f64() < r[d.src1].f64()))
SIGVP_SIMPLE_OP(op_set_le_f64, r[d.dst].set_i(r[d.src0].f64() <= r[d.src1].f64()))
SIGVP_SIMPLE_OP(op_set_eq_f64, r[d.dst].set_i(r[d.src0].f64() == r[d.src1].f64()))
SIGVP_SIMPLE_OP(op_set_gt_f64, r[d.dst].set_i(r[d.src0].f64() > r[d.src1].f64()))
SIGVP_SIMPLE_OP(op_set_ge_f64, r[d.dst].set_i(r[d.src0].f64() >= r[d.src1].f64()))
SIGVP_SIMPLE_OP(op_cvt_i_to_f64, r[d.dst].set_f64(static_cast<double>(r[d.src0].i())))
SIGVP_SIMPLE_OP(op_cvt_f32_to_f64, r[d.dst].set_f64(static_cast<double>(r[d.src0].f32())))

// --- control flow ------------------------------------------------------------

inline void take_branch(ExecContext& m, ThreadState& t, std::uint32_t pc, std::uint32_t block) {
  t.pc = pc;
  ++m.block_visits[block];
}

SIGVP_OP(op_jmp) { take_branch(m, t, d.target_pc, d.target_block); }

SIGVP_OP(op_bra_z) {
  if (!t.regs[d.src0].truthy()) {
    take_branch(m, t, d.target_pc, d.target_block);
  } else {
    if (d.fall_pc == kInvalidPc) [[unlikely]] throw_bad_fallthrough(*m.ir);
    take_branch(m, t, d.fall_pc, d.fall_block);
  }
}

SIGVP_OP(op_bra_nz) {
  if (t.regs[d.src0].truthy()) {
    take_branch(m, t, d.target_pc, d.target_block);
  } else {
    if (d.fall_pc == kInvalidPc) [[unlikely]] throw_bad_fallthrough(*m.ir);
    take_branch(m, t, d.fall_pc, d.fall_block);
  }
}

SIGVP_OP(op_ret) {
  (void)m;
  (void)d;
  t.done = true;
}

SIGVP_OP(op_bar) {
  (void)m;
  (void)d;
  t.at_barrier = true;
  ++t.pc;
}

// --- global memory -----------------------------------------------------------

#define SIGVP_GADDR() (t.regs[d.src0].bits + static_cast<std::uint64_t>(d.imm))

#define SIGVP_LD_GLOBAL(name, type, assign)                              \
  SIGVP_OP(name) {                                                       \
    const std::uint64_t addr = SIGVP_GADDR();                            \
    const type v = m.global->read<type>(addr);                           \
    assign;                                                              \
    ++t.pc;                                                              \
  }

#define SIGVP_ST_GLOBAL(name, type, value)                               \
  SIGVP_OP(name) {                                                       \
    const std::uint64_t addr = SIGVP_GADDR();                            \
    m.global->write<type>(addr, (value));                                \
    ++t.pc;                                                              \
  }

SIGVP_LD_GLOBAL(op_ld_global_f32, float, t.regs[d.dst].set_f32(v))
SIGVP_LD_GLOBAL(op_ld_global_f64, double, t.regs[d.dst].set_f64(v))
SIGVP_LD_GLOBAL(op_ld_global_i32, std::int32_t, t.regs[d.dst].set_i(v))
SIGVP_LD_GLOBAL(op_ld_global_i64, std::int64_t, t.regs[d.dst].set_i(v))
SIGVP_LD_GLOBAL(op_ld_global_u8, std::uint8_t, t.regs[d.dst].bits = v)
SIGVP_ST_GLOBAL(op_st_global_f32, float, t.regs[d.src1].f32())
SIGVP_ST_GLOBAL(op_st_global_f64, double, t.regs[d.src1].f64())
SIGVP_ST_GLOBAL(op_st_global_i32, std::int32_t, static_cast<std::int32_t>(t.regs[d.src1].i()))
SIGVP_ST_GLOBAL(op_st_global_i64, std::int64_t, t.regs[d.src1].i())
SIGVP_ST_GLOBAL(op_st_global_u8, std::uint8_t, static_cast<std::uint8_t>(t.regs[d.src1].bits))

SIGVP_OP(op_atom_add_global_i64) {
  const std::uint64_t addr = SIGVP_GADDR();
  const std::int64_t old = m.global->read<std::int64_t>(addr);
  m.global->write<std::int64_t>(addr, old + t.regs[d.src1].i());
  t.regs[d.dst].set_i(old);
  ++t.pc;
}

SIGVP_OP(op_atom_add_global_f32) {
  const std::uint64_t addr = SIGVP_GADDR();
  const float old = m.global->read<float>(addr);
  m.global->write<float>(addr, old + t.regs[d.src1].f32());
  t.regs[d.dst].set_f32(old);
  ++t.pc;
}

// --- shared memory -----------------------------------------------------------

#define SIGVP_LD_SHARED(name, type, assign)                                \
  SIGVP_OP(name) {                                                         \
    const std::uint64_t addr = SIGVP_GADDR();                              \
    if (addr + sizeof(type) > m.shared_size || addr + sizeof(type) < addr) \
        [[unlikely]] throw_shared_oob(*m.ir);                              \
    type v;                                                                \
    std::memcpy(&v, m.shared + addr, sizeof(type));                        \
    assign;                                                                \
    ++t.pc;                                                                \
  }

#define SIGVP_ST_SHARED(name, type, value)                                 \
  SIGVP_OP(name) {                                                         \
    const std::uint64_t addr = SIGVP_GADDR();                              \
    if (addr + sizeof(type) > m.shared_size || addr + sizeof(type) < addr) \
        [[unlikely]] throw_shared_oob(*m.ir);                              \
    const type v = (value);                                                \
    std::memcpy(m.shared + addr, &v, sizeof(type));                        \
    ++t.pc;                                                                \
  }

SIGVP_LD_SHARED(op_ld_shared_f32, float, t.regs[d.dst].set_f32(v))
SIGVP_LD_SHARED(op_ld_shared_f64, double, t.regs[d.dst].set_f64(v))
SIGVP_LD_SHARED(op_ld_shared_i64, std::int64_t, t.regs[d.dst].set_i(v))
SIGVP_ST_SHARED(op_st_shared_f32, float, t.regs[d.src1].f32())
SIGVP_ST_SHARED(op_st_shared_f64, double, t.regs[d.src1].f64())
SIGVP_ST_SHARED(op_st_shared_i64, std::int64_t, t.regs[d.src1].i())

#undef SIGVP_GADDR
#undef SIGVP_LD_GLOBAL
#undef SIGVP_ST_GLOBAL
#undef SIGVP_LD_SHARED
#undef SIGVP_ST_SHARED
#undef SIGVP_SIMPLE_OP
#undef SIGVP_OP

InstrFn handler_for(Opcode op) {
  switch (op) {
    case Opcode::kNop: return op_nop;
    case Opcode::kMovImmI:
    case Opcode::kMovImmF32:
    case Opcode::kMovImmF64: return op_load_const;
    case Opcode::kMov: return op_mov;
    case Opcode::kReadSpecial: return op_read_special;
    case Opcode::kLdParam: return op_ld_param;
    case Opcode::kSelect: return op_select;

    case Opcode::kAddI: return op_add_i;
    case Opcode::kSubI: return op_sub_i;
    case Opcode::kMulI: return op_mul_i;
    case Opcode::kDivI: return op_div_i;
    case Opcode::kRemI: return op_rem_i;
    case Opcode::kMinI: return op_min_i;
    case Opcode::kMaxI: return op_max_i;
    case Opcode::kNegI: return op_neg_i;
    case Opcode::kAbsI: return op_abs_i;
    case Opcode::kSetLtI: return op_set_lt_i;
    case Opcode::kSetLeI: return op_set_le_i;
    case Opcode::kSetEqI: return op_set_eq_i;
    case Opcode::kSetNeI: return op_set_ne_i;
    case Opcode::kSetGtI: return op_set_gt_i;
    case Opcode::kSetGeI: return op_set_ge_i;
    case Opcode::kCvtF32ToI: return op_cvt_f32_to_i;
    case Opcode::kCvtF64ToI: return op_cvt_f64_to_i;

    case Opcode::kAndB: return op_and_b;
    case Opcode::kOrB: return op_or_b;
    case Opcode::kXorB: return op_xor_b;
    case Opcode::kNotB: return op_not_b;
    case Opcode::kShlB: return op_shl_b;
    case Opcode::kShrB: return op_shr_b;
    case Opcode::kShrA: return op_shr_a;

    case Opcode::kAddF32: return op_add_f32;
    case Opcode::kSubF32: return op_sub_f32;
    case Opcode::kMulF32: return op_mul_f32;
    case Opcode::kDivF32: return op_div_f32;
    case Opcode::kFmaF32: return op_fma_f32;
    case Opcode::kSqrtF32: return op_sqrt_f32;
    case Opcode::kRsqrtF32: return op_rsqrt_f32;
    case Opcode::kExpF32: return op_exp_f32;
    case Opcode::kLogF32: return op_log_f32;
    case Opcode::kSinF32: return op_sin_f32;
    case Opcode::kCosF32: return op_cos_f32;
    case Opcode::kMinF32: return op_min_f32;
    case Opcode::kMaxF32: return op_max_f32;
    case Opcode::kAbsF32: return op_abs_f32;
    case Opcode::kNegF32: return op_neg_f32;
    case Opcode::kFloorF32: return op_floor_f32;
    case Opcode::kSetLtF32: return op_set_lt_f32;
    case Opcode::kSetLeF32: return op_set_le_f32;
    case Opcode::kSetEqF32: return op_set_eq_f32;
    case Opcode::kSetGtF32: return op_set_gt_f32;
    case Opcode::kSetGeF32: return op_set_ge_f32;
    case Opcode::kCvtIToF32: return op_cvt_i_to_f32;
    case Opcode::kCvtF64ToF32: return op_cvt_f64_to_f32;

    case Opcode::kAddF64: return op_add_f64;
    case Opcode::kSubF64: return op_sub_f64;
    case Opcode::kMulF64: return op_mul_f64;
    case Opcode::kDivF64: return op_div_f64;
    case Opcode::kFmaF64: return op_fma_f64;
    case Opcode::kSqrtF64: return op_sqrt_f64;
    case Opcode::kExpF64: return op_exp_f64;
    case Opcode::kLogF64: return op_log_f64;
    case Opcode::kSinF64: return op_sin_f64;
    case Opcode::kCosF64: return op_cos_f64;
    case Opcode::kMinF64: return op_min_f64;
    case Opcode::kMaxF64: return op_max_f64;
    case Opcode::kAbsF64: return op_abs_f64;
    case Opcode::kNegF64: return op_neg_f64;
    case Opcode::kFloorF64: return op_floor_f64;
    case Opcode::kSetLtF64: return op_set_lt_f64;
    case Opcode::kSetLeF64: return op_set_le_f64;
    case Opcode::kSetEqF64: return op_set_eq_f64;
    case Opcode::kSetGtF64: return op_set_gt_f64;
    case Opcode::kSetGeF64: return op_set_ge_f64;
    case Opcode::kCvtIToF64: return op_cvt_i_to_f64;
    case Opcode::kCvtF32ToF64: return op_cvt_f32_to_f64;

    case Opcode::kJmp: return op_jmp;
    case Opcode::kBraZ: return op_bra_z;
    case Opcode::kBraNZ: return op_bra_nz;
    case Opcode::kRet: return op_ret;
    case Opcode::kBar: return op_bar;

    case Opcode::kLdGlobalF32: return op_ld_global_f32;
    case Opcode::kLdGlobalF64: return op_ld_global_f64;
    case Opcode::kLdGlobalI32: return op_ld_global_i32;
    case Opcode::kLdGlobalI64: return op_ld_global_i64;
    case Opcode::kLdGlobalU8: return op_ld_global_u8;
    case Opcode::kStGlobalF32: return op_st_global_f32;
    case Opcode::kStGlobalF64: return op_st_global_f64;
    case Opcode::kStGlobalI32: return op_st_global_i32;
    case Opcode::kStGlobalI64: return op_st_global_i64;
    case Opcode::kStGlobalU8: return op_st_global_u8;
    case Opcode::kAtomAddGlobalI64: return op_atom_add_global_i64;
    case Opcode::kAtomAddGlobalF32: return op_atom_add_global_f32;

    case Opcode::kLdSharedF32: return op_ld_shared_f32;
    case Opcode::kLdSharedF64: return op_ld_shared_f64;
    case Opcode::kLdSharedI64: return op_ld_shared_i64;
    case Opcode::kStSharedF32: return op_st_shared_f32;
    case Opcode::kStSharedF64: return op_st_shared_f64;
    case Opcode::kStSharedI64: return op_st_shared_i64;
  }
  return op_nop;
}

void fnv1a(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
}

/// Runs `t` until it retires or parks at a barrier. The budget check is a
/// single counter compare; all error formatting lives on cold paths.
inline void run_thread(ExecContext& m, ThreadState& t, std::uint64_t max_instrs) {
  const DecodedInstr* const code = m.code;
  while (!t.done && !t.at_barrier) {
    const DecodedInstr& d = code[t.pc];
    if (++t.instrs_executed > max_instrs) [[unlikely]] throw_budget_exhausted(*m.ir);
    d.fn(m, t, d);
  }
}

}  // namespace

std::uint64_t kernel_fingerprint(const KernelIR& ir) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  fnv1a(h, ir.num_params);
  fnv1a(h, ir.num_regs);
  fnv1a(h, ir.shared_bytes);
  fnv1a(h, ir.blocks.size());
  for (const BasicBlock& b : ir.blocks) {
    fnv1a(h, b.instrs.size());
    for (const Instr& in : b.instrs) {
      fnv1a(h, static_cast<std::uint64_t>(in.op) | (static_cast<std::uint64_t>(in.dst) << 8) |
                   (static_cast<std::uint64_t>(in.src0) << 16) |
                   (static_cast<std::uint64_t>(in.src1) << 24) |
                   (static_cast<std::uint64_t>(in.src2) << 32));
      fnv1a(h, std::bit_cast<std::uint64_t>(in.imm));
      fnv1a(h, std::bit_cast<std::uint64_t>(in.fimm));
    }
  }
  return h;
}

DecodedProgram decode_kernel(const KernelIR& ir) {
  SIGVP_REQUIRE(!ir.blocks.empty(), ir.name + ": kernel has no blocks");

  DecodedProgram prog;
  prog.num_regs = ir.num_regs == 0 ? 1 : ir.num_regs;
  prog.fingerprint = kernel_fingerprint(ir);

  // Pass 1: flatten, record block boundaries and static per-block summaries.
  prog.blocks.resize(ir.blocks.size());
  std::size_t total = 0;
  for (const BasicBlock& b : ir.blocks) total += b.instrs.size();
  prog.code.reserve(total);

  for (std::size_t bi = 0; bi < ir.blocks.size(); ++bi) {
    const BasicBlock& b = ir.blocks[bi];
    DecodedBlock& db = prog.blocks[bi];
    db.first_pc = static_cast<std::uint32_t>(prog.code.size());
    db.num_instrs = static_cast<std::uint32_t>(b.instrs.size());
    db.mu = b.static_counts();
    SIGVP_REQUIRE(!b.instrs.empty() && is_terminator(b.instrs.back().op),
                  ir.name + ": pc ran past the end of a block");
    for (const Instr& in : b.instrs) {
      DecodedInstr d;
      d.op = in.op;
      d.fn = handler_for(in.op);
      d.dst = in.dst;
      d.src0 = in.src0;
      d.src1 = in.src1;
      d.src2 = in.src2;
      d.imm = in.imm;
      switch (in.op) {
        // Pre-encode FP immediates as destination bit patterns so the three
        // kMovImm* opcodes share one handler.
        case Opcode::kMovImmF32:
          d.imm = static_cast<std::int64_t>(
              std::bit_cast<std::uint32_t>(static_cast<float>(in.fimm)));
          break;
        case Opcode::kMovImmF64:
          d.imm = std::bit_cast<std::int64_t>(in.fimm);
          break;
        default:
          break;
      }
      if (is_sfu_op(in.op)) {
        if (is_sqrt_op(in.op)) {
          ++db.sqrt_instrs;
        } else {
          ++db.sfu_instrs;
        }
      }
      if (is_global_memory_op(in.op)) {
        const std::uint32_t width = memory_width_bytes(in.op);
        switch (in.op) {
          case Opcode::kLdGlobalF32:
          case Opcode::kLdGlobalF64:
          case Opcode::kLdGlobalI32:
          case Opcode::kLdGlobalI64:
          case Opcode::kLdGlobalU8:
            db.global_load_bytes += width;
            break;
          default:  // stores and atomics count as store traffic
            db.global_store_bytes += width;
            break;
        }
      }
      prog.code.push_back(d);
    }
  }

  // Pass 2: resolve branch targets to flat pcs.
  const auto nblocks = ir.blocks.size();
  for (std::size_t bi = 0; bi < nblocks; ++bi) {
    const DecodedBlock& db = prog.blocks[bi];
    for (std::uint32_t k = 0; k < db.num_instrs; ++k) {
      DecodedInstr& d = prog.code[db.first_pc + k];
      if (!is_branch_with_target(d.op)) continue;
      const auto target = static_cast<std::size_t>(d.imm);
      SIGVP_REQUIRE(target < nblocks, ir.name + ": branch to nonexistent block");
      d.target_pc = prog.blocks[target].first_pc;
      d.target_block = static_cast<std::uint32_t>(target);
      if (bi + 1 < nblocks) {
        d.fall_pc = prog.blocks[bi + 1].first_pc;
        d.fall_block = static_cast<std::uint32_t>(bi + 1);
      } else {
        d.fall_pc = kInvalidPc;
        d.fall_block = 0;
      }
    }
  }
  return prog;
}

void run_decoded_block(const DecodedProgram& prog, const KernelIR& ir, const LaunchDims& dims,
                       const KernelArgs& args, AddressSpace& global,
                       std::uint64_t max_instrs_per_thread, ExecArena& arena,
                       DynamicProfile& profile, std::uint32_t ctaid_x, std::uint32_t ctaid_y) {
  const std::uint64_t nthreads = dims.threads_per_block();
  const std::uint32_t nregs = prog.num_regs;

  // Arena reuse: these assignments recycle the previous block's capacity.
  arena.threads.resize(static_cast<std::size_t>(nthreads));
  arena.regs.assign(static_cast<std::size_t>(nthreads) * nregs, RegValue{});
  arena.shared.assign(ir.shared_bytes, 0);

  ExecContext m;
  m.code = prog.code.data();
  m.dims = dims;
  m.argv = args.values.data();
  m.argc = args.values.size();
  m.global = &global;
  m.block_visits = profile.block_visits.data();
  m.shared = arena.shared.data();
  m.shared_size = arena.shared.size();
  m.ctaid_x = ctaid_x;
  m.ctaid_y = ctaid_y;
  m.ir = &ir;

  for (std::uint32_t ty = 0; ty < dims.block_y; ++ty) {
    for (std::uint32_t tx = 0; tx < dims.block_x; ++tx) {
      ThreadState& t = arena.threads[static_cast<std::size_t>(ty) * dims.block_x + tx];
      t.regs = arena.regs.data() +
               (static_cast<std::size_t>(ty) * dims.block_x + tx) * nregs;
      t.pc = 0;  // entry block starts at flat pc 0
      t.done = false;
      t.at_barrier = false;
      t.tid_x = tx;
      t.tid_y = ty;
      t.instrs_executed = 0;
      ++m.block_visits[0];  // λ of the entry block, one per thread
    }
  }

  // Barrier-phase scheduling: run each runnable thread until it retires or
  // parks at a barrier; release the barrier when no runnable thread is left.
  while (true) {
    for (ThreadState& t : arena.threads) {
      if (t.done || t.at_barrier) continue;
      run_thread(m, t, max_instrs_per_thread);
    }
    std::size_t waiting = 0;
    for (const ThreadState& t : arena.threads) {
      if (t.at_barrier) ++waiting;
    }
    if (waiting == 0) break;
    // All non-retired threads are parked: the barrier releases (CUDA's
    // exited-thread rule — threads that already returned do not take part).
    for (ThreadState& t : arena.threads) t.at_barrier = false;
    ++profile.barriers_waited;
  }
}

}  // namespace sigvp::interp_detail
