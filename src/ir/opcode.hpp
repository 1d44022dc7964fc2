#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>

#include "ir/instr_class.hpp"

namespace sigvp {

/// Memory space an opcode accesses: global memory (byte address =
/// regs[src0] + imm), the per-block shared scratchpad, or none.
enum class MemSpace : std::uint8_t { kNone, kGlobal, kShared };

/// Transcendental/special-function kind. Real GPUs run these on SFU
/// hardware; software emulators pay a libm call for each (kLibm: exp, log,
/// sin, cos), which is why FP-special-heavy apps emulate so badly. CPUs
/// handle the kSqrt ones (sqrt, rsqrt) cheaply in hardware.
enum class SfuKind : std::uint8_t { kNone, kSqrt, kLibm };

/// The opcode table of the kernel IR: one row per opcode and every static
/// fact about it, written once. Each row is
///   X(enumerator, snake name, PTX name, class, sources, bytes, space, sfu)
/// - class: the paper's instruction class (InstrClass::k<class>);
/// - sources: number of register operands read, src0, src1, ... Unused
///   `src*` fields default to register 0, so dataflow over the IR must
///   consult this instead of the raw fields;
/// - bytes: bytes moved by a memory opcode (0 otherwise); space: MemSpace;
/// - sfu: SfuKind.
/// The snake name names the opcode's handler in each interpreter engine.
///
/// Rows are in enum order and the numeric values must never move:
/// kernel_fingerprint hashes them, and the fingerprint keys the launch
/// cache, the engine's program cache and snapshot entries. Append new
/// opcodes at the end.
///
/// The set mirrors what the paper's profiler distinguishes: FP32/FP64
/// arithmetic (including the transcendental ops CUDA maps onto the SFU),
/// integer and bit ops used for address math, control flow, and
/// global/shared memory accesses. Register moves are class Int (they issue
/// on the ALU); kCvtIToF32/kCvtF64ToF32 produce an FP32 result, so they are
/// FP32. Branch targets are block indices in `imm`.
// clang-format off
#define SIGVP_OPCODES(X)                                                                    \
  X(kNop,              nop,                 "nop",                 Int,    0, 0, None,   None) \
  X(kMovImmI,          mov_imm_i,           "mov.imm.i",           Int,    0, 0, None,   None) \
  X(kMovImmF32,        mov_imm_f32,         "mov.imm.f32",         Int,    0, 0, None,   None) \
  X(kMovImmF64,        mov_imm_f64,         "mov.imm.f64",         Int,    0, 0, None,   None) \
  X(kMov,              mov,                 "mov",                 Int,    1, 0, None,   None) \
  X(kReadSpecial,      read_special,        "mov.special",         Int,    0, 0, None,   None) \
  X(kLdParam,          ld_param,            "ld.param",            Int,    0, 0, None,   None) \
  X(kSelect,           select,              "selp",                Int,    3, 0, None,   None) \
  X(kAddI,             add_i,               "add.i",               Int,    2, 0, None,   None) \
  X(kSubI,             sub_i,               "sub.i",               Int,    2, 0, None,   None) \
  X(kMulI,             mul_i,               "mul.i",               Int,    2, 0, None,   None) \
  X(kDivI,             div_i,               "div.i",               Int,    2, 0, None,   None) \
  X(kRemI,             rem_i,               "rem.i",               Int,    2, 0, None,   None) \
  X(kMinI,             min_i,               "min.i",               Int,    2, 0, None,   None) \
  X(kMaxI,             max_i,               "max.i",               Int,    2, 0, None,   None) \
  X(kNegI,             neg_i,               "neg.i",               Int,    1, 0, None,   None) \
  X(kAbsI,             abs_i,               "abs.i",               Int,    1, 0, None,   None) \
  X(kSetLtI,           set_lt_i,            "set.lt.i",            Int,    2, 0, None,   None) \
  X(kSetLeI,           set_le_i,            "set.le.i",            Int,    2, 0, None,   None) \
  X(kSetEqI,           set_eq_i,            "set.eq.i",            Int,    2, 0, None,   None) \
  X(kSetNeI,           set_ne_i,            "set.ne.i",            Int,    2, 0, None,   None) \
  X(kSetGtI,           set_gt_i,            "set.gt.i",            Int,    2, 0, None,   None) \
  X(kSetGeI,           set_ge_i,            "set.ge.i",            Int,    2, 0, None,   None) \
  X(kCvtF32ToI,        cvt_f32_to_i,        "cvt.i.f32",           Int,    1, 0, None,   None) \
  X(kCvtF64ToI,        cvt_f64_to_i,        "cvt.i.f64",           Int,    1, 0, None,   None) \
  X(kAndB,             and_b,               "and.b",               Bit,    2, 0, None,   None) \
  X(kOrB,              or_b,                "or.b",                Bit,    2, 0, None,   None) \
  X(kXorB,             xor_b,               "xor.b",               Bit,    2, 0, None,   None) \
  X(kNotB,             not_b,               "not.b",               Bit,    1, 0, None,   None) \
  X(kShlB,             shl_b,               "shl.b",               Bit,    2, 0, None,   None) \
  X(kShrB,             shr_b,               "shr.b",               Bit,    2, 0, None,   None) \
  X(kShrA,             shr_a,               "shr.a",               Bit,    2, 0, None,   None) \
  X(kAddF32,           add_f32,             "add.f32",             Fp32,   2, 0, None,   None) \
  X(kSubF32,           sub_f32,             "sub.f32",             Fp32,   2, 0, None,   None) \
  X(kMulF32,           mul_f32,             "mul.f32",             Fp32,   2, 0, None,   None) \
  X(kDivF32,           div_f32,             "div.f32",             Fp32,   2, 0, None,   None) \
  X(kFmaF32,           fma_f32,             "fma.f32",             Fp32,   3, 0, None,   None) \
  X(kSqrtF32,          sqrt_f32,            "sqrt.f32",            Fp32,   1, 0, None,   Sqrt) \
  X(kRsqrtF32,         rsqrt_f32,           "rsqrt.f32",           Fp32,   1, 0, None,   Sqrt) \
  X(kExpF32,           exp_f32,             "exp.f32",             Fp32,   1, 0, None,   Libm) \
  X(kLogF32,           log_f32,             "log.f32",             Fp32,   1, 0, None,   Libm) \
  X(kSinF32,           sin_f32,             "sin.f32",             Fp32,   1, 0, None,   Libm) \
  X(kCosF32,           cos_f32,             "cos.f32",             Fp32,   1, 0, None,   Libm) \
  X(kMinF32,           min_f32,             "min.f32",             Fp32,   2, 0, None,   None) \
  X(kMaxF32,           max_f32,             "max.f32",             Fp32,   2, 0, None,   None) \
  X(kAbsF32,           abs_f32,             "abs.f32",             Fp32,   1, 0, None,   None) \
  X(kNegF32,           neg_f32,             "neg.f32",             Fp32,   1, 0, None,   None) \
  X(kFloorF32,         floor_f32,           "floor.f32",           Fp32,   1, 0, None,   None) \
  X(kSetLtF32,         set_lt_f32,          "set.lt.f32",          Fp32,   2, 0, None,   None) \
  X(kSetLeF32,         set_le_f32,          "set.le.f32",          Fp32,   2, 0, None,   None) \
  X(kSetEqF32,         set_eq_f32,          "set.eq.f32",          Fp32,   2, 0, None,   None) \
  X(kSetGtF32,         set_gt_f32,          "set.gt.f32",          Fp32,   2, 0, None,   None) \
  X(kSetGeF32,         set_ge_f32,          "set.ge.f32",          Fp32,   2, 0, None,   None) \
  X(kCvtIToF32,        cvt_i_to_f32,        "cvt.f32.i",           Fp32,   1, 0, None,   None) \
  X(kCvtF64ToF32,      cvt_f64_to_f32,      "cvt.f32.f64",         Fp32,   1, 0, None,   None) \
  X(kAddF64,           add_f64,             "add.f64",             Fp64,   2, 0, None,   None) \
  X(kSubF64,           sub_f64,             "sub.f64",             Fp64,   2, 0, None,   None) \
  X(kMulF64,           mul_f64,             "mul.f64",             Fp64,   2, 0, None,   None) \
  X(kDivF64,           div_f64,             "div.f64",             Fp64,   2, 0, None,   None) \
  X(kFmaF64,           fma_f64,             "fma.f64",             Fp64,   3, 0, None,   None) \
  X(kSqrtF64,          sqrt_f64,            "sqrt.f64",            Fp64,   1, 0, None,   Sqrt) \
  X(kExpF64,           exp_f64,             "exp.f64",             Fp64,   1, 0, None,   Libm) \
  X(kLogF64,           log_f64,             "log.f64",             Fp64,   1, 0, None,   Libm) \
  X(kSinF64,           sin_f64,             "sin.f64",             Fp64,   1, 0, None,   Libm) \
  X(kCosF64,           cos_f64,             "cos.f64",             Fp64,   1, 0, None,   Libm) \
  X(kMinF64,           min_f64,             "min.f64",             Fp64,   2, 0, None,   None) \
  X(kMaxF64,           max_f64,             "max.f64",             Fp64,   2, 0, None,   None) \
  X(kAbsF64,           abs_f64,             "abs.f64",             Fp64,   1, 0, None,   None) \
  X(kNegF64,           neg_f64,             "neg.f64",             Fp64,   1, 0, None,   None) \
  X(kFloorF64,         floor_f64,           "floor.f64",           Fp64,   1, 0, None,   None) \
  X(kSetLtF64,         set_lt_f64,          "set.lt.f64",          Fp64,   2, 0, None,   None) \
  X(kSetLeF64,         set_le_f64,          "set.le.f64",          Fp64,   2, 0, None,   None) \
  X(kSetEqF64,         set_eq_f64,          "set.eq.f64",          Fp64,   2, 0, None,   None) \
  X(kSetGtF64,         set_gt_f64,          "set.gt.f64",          Fp64,   2, 0, None,   None) \
  X(kSetGeF64,         set_ge_f64,          "set.ge.f64",          Fp64,   2, 0, None,   None) \
  X(kCvtIToF64,        cvt_i_to_f64,        "cvt.f64.i",           Fp64,   1, 0, None,   None) \
  X(kCvtF32ToF64,      cvt_f32_to_f64,      "cvt.f64.f32",         Fp64,   1, 0, None,   None) \
  X(kJmp,              jmp,                 "bra",                 Branch, 0, 0, None,   None) \
  X(kBraZ,             bra_z,               "bra.z",               Branch, 1, 0, None,   None) \
  X(kBraNZ,            bra_nz,              "bra.nz",              Branch, 1, 0, None,   None) \
  X(kRet,              ret,                 "ret",                 Branch, 0, 0, None,   None) \
  X(kBar,              bar,                 "bar.sync",            Branch, 0, 0, None,   None) \
  X(kLdGlobalF32,      ld_global_f32,       "ld.global.f32",       Load,   1, 4, Global, None) \
  X(kLdGlobalF64,      ld_global_f64,       "ld.global.f64",       Load,   1, 8, Global, None) \
  X(kLdGlobalI32,      ld_global_i32,       "ld.global.i32",       Load,   1, 4, Global, None) \
  X(kLdGlobalI64,      ld_global_i64,       "ld.global.i64",       Load,   1, 8, Global, None) \
  X(kLdGlobalU8,       ld_global_u8,        "ld.global.u8",        Load,   1, 1, Global, None) \
  X(kStGlobalF32,      st_global_f32,       "st.global.f32",       Store,  2, 4, Global, None) \
  X(kStGlobalF64,      st_global_f64,       "st.global.f64",       Store,  2, 8, Global, None) \
  X(kStGlobalI32,      st_global_i32,       "st.global.i32",       Store,  2, 4, Global, None) \
  X(kStGlobalI64,      st_global_i64,       "st.global.i64",       Store,  2, 8, Global, None) \
  X(kStGlobalU8,       st_global_u8,        "st.global.u8",        Store,  2, 1, Global, None) \
  X(kAtomAddGlobalI64, atom_add_global_i64, "atom.add.global.i64", Store,  2, 8, Global, None) \
  X(kAtomAddGlobalF32, atom_add_global_f32, "atom.add.global.f32", Store,  2, 4, Global, None) \
  X(kLdSharedF32,      ld_shared_f32,       "ld.shared.f32",       Load,   1, 4, Shared, None) \
  X(kLdSharedF64,      ld_shared_f64,       "ld.shared.f64",       Load,   1, 8, Shared, None) \
  X(kLdSharedI64,      ld_shared_i64,       "ld.shared.i64",       Load,   1, 8, Shared, None) \
  X(kStSharedF32,      st_shared_f32,       "st.shared.f32",       Store,  2, 4, Shared, None) \
  X(kStSharedF64,      st_shared_f64,       "st.shared.f64",       Store,  2, 8, Shared, None) \
  X(kStSharedI64,      st_shared_i64,       "st.shared.i64",       Store,  2, 8, Shared, None)
// clang-format on

/// PTX-like opcode set of the kernel IR (SIGVP_OPCODES, in table order).
// clang-format off
enum class Opcode : std::uint8_t {
#define SIGVP_OPCODE_ENUM(op, ...) op,
  SIGVP_OPCODES(SIGVP_OPCODE_ENUM)
#undef SIGVP_OPCODE_ENUM
};
// clang-format on

/// The static facts of one opcode: a row of SIGVP_OPCODES.
struct OpcodeInfo {
  std::string_view name;  // PTX name
  InstrClass cls = InstrClass::kInt;
  std::uint8_t sources = 0;
  std::uint8_t width = 0;
  MemSpace space = MemSpace::kNone;
  SfuKind sfu = SfuKind::kNone;
};

// clang-format off
inline constexpr OpcodeInfo kOpcodeInfo[] = {
#define SIGVP_OPCODE_INFO(op, snake, ptx, cls, src, bytes, space, sfu) \
  {ptx, InstrClass::k##cls, src, bytes, MemSpace::k##space, SfuKind::k##sfu},
  SIGVP_OPCODES(SIGVP_OPCODE_INFO)
#undef SIGVP_OPCODE_INFO
};
// clang-format on

/// Number of opcodes; every valid Opcode is below it. validate_kernel and
/// decode_kernel reject IR holding any other value.
inline constexpr std::size_t kOpcodeCount = std::size(kOpcodeInfo);

/// Facts of `op`. A value outside the table reads as a nameless ("?")
/// operand-less Int op, so diagnostics over unvalidated IR stay in bounds.
constexpr OpcodeInfo opcode_info(Opcode op) {
  const auto i = static_cast<std::size_t>(op);
  return i < kOpcodeCount ? kOpcodeInfo[i] : OpcodeInfo{"?"};
}

/// Built-in per-thread values a kernel can read (CUDA's special registers).
enum class SpecialReg : std::uint8_t {
  kTidX = 0,
  kTidY,
  kCtaidX,
  kCtaidY,
  kNtidX,
  kNtidY,
  kNctaidX,
  kNctaidY,
};

/// Maps an opcode to the paper's 7 instruction classes.
constexpr InstrClass instr_class(Opcode op) { return opcode_info(op).cls; }

constexpr std::string_view opcode_name(Opcode op) { return opcode_info(op).name; }

/// Number of register operands an opcode reads (see SIGVP_OPCODES).
constexpr std::uint32_t source_count(Opcode op) { return opcode_info(op).sources; }

/// Number of bytes moved by a memory opcode (0 for non-memory opcodes).
constexpr std::uint32_t memory_width_bytes(Opcode op) { return opcode_info(op).width; }

/// True for global/shared memory loads or stores (including atomics).
constexpr bool is_memory_op(Opcode op) { return opcode_info(op).space != MemSpace::kNone; }
constexpr bool is_global_memory_op(Opcode op) {
  return opcode_info(op).space == MemSpace::kGlobal;
}
constexpr bool is_shared_memory_op(Opcode op) {
  return opcode_info(op).space == MemSpace::kShared;
}

/// True for the global atomics (read-modify-write; they return the old value
/// in dst).
constexpr bool is_atomic_op(Opcode op) {
  return op == Opcode::kAtomAddGlobalI64 || op == Opcode::kAtomAddGlobalF32;
}

/// True for transcendental/special-function opcodes (sqrt, rsqrt, exp, log,
/// sin, cos); is_sqrt_op is the cheap-on-a-CPU subset (see SfuKind).
constexpr bool is_sfu_op(Opcode op) { return opcode_info(op).sfu != SfuKind::kNone; }
constexpr bool is_sqrt_op(Opcode op) { return opcode_info(op).sfu == SfuKind::kSqrt; }

/// True for opcodes that terminate a basic block (kJmp/kBraZ/kBraNZ/kRet):
/// every class-B op but the barrier.
constexpr bool is_terminator(Opcode op) {
  return instr_class(op) == InstrClass::kBranch && op != Opcode::kBar;
}

/// True for conditional or unconditional jumps carrying a block target.
constexpr bool is_branch_with_target(Opcode op) {
  return is_terminator(op) && op != Opcode::kRet;
}

/// True when the opcode writes its `dst` register: everything but kNop,
/// control flow and the stores proper (atomics return the old value).
constexpr bool writes_register(Opcode op) {
  const InstrClass c = instr_class(op);
  return op != Opcode::kNop && c != InstrClass::kBranch &&
         (c != InstrClass::kStore || is_atomic_op(op));
}

constexpr std::string_view special_reg_name(SpecialReg sr) {
  switch (sr) {
    case SpecialReg::kTidX: return "%tid.x";
    case SpecialReg::kTidY: return "%tid.y";
    case SpecialReg::kCtaidX: return "%ctaid.x";
    case SpecialReg::kCtaidY: return "%ctaid.y";
    case SpecialReg::kNtidX: return "%ntid.x";
    case SpecialReg::kNtidY: return "%ntid.y";
    case SpecialReg::kNctaidX: return "%nctaid.x";
    case SpecialReg::kNctaidY: return "%nctaid.y";
  }
  return "%?";
}

}  // namespace sigvp
