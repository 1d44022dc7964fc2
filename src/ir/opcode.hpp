#pragma once

#include <cstdint>
#include <string_view>

#include "ir/instr_class.hpp"

namespace sigvp {

/// PTX-like opcode set of the kernel IR.
///
/// The set intentionally mirrors what the paper's profiler distinguishes:
/// FP32/FP64 arithmetic (including the transcendental ops CUDA maps onto the
/// SFU), integer and bit ops used for address math, control flow, and
/// global/shared memory accesses.
enum class Opcode : std::uint8_t {
  kNop = 0,

  // Data movement (classified as Int: register moves issue on the ALU).
  kMovImmI,   // dst <- imm (i64)
  kMovImmF32, // dst <- fimm (f32)
  kMovImmF64, // dst <- fimm (f64)
  kMov,       // dst <- src0
  kReadSpecial,  // dst <- special register (imm = SpecialReg)
  kLdParam,      // dst <- kernel parameter (imm = param index)
  kSelect,       // dst <- src0 ? src1 : src2

  // Integer arithmetic.
  kAddI, kSubI, kMulI, kDivI, kRemI, kMinI, kMaxI, kNegI, kAbsI,
  kSetLtI, kSetLeI, kSetEqI, kSetNeI, kSetGtI, kSetGeI,
  kCvtF32ToI, kCvtF64ToI,

  // Bit manipulation.
  kAndB, kOrB, kXorB, kNotB, kShlB, kShrB, kShrA,

  // FP32 arithmetic (kCvtIToF32/kCvtF64ToF32 produce an FP32 result).
  kAddF32, kSubF32, kMulF32, kDivF32, kFmaF32,
  kSqrtF32, kRsqrtF32, kExpF32, kLogF32, kSinF32, kCosF32,
  kMinF32, kMaxF32, kAbsF32, kNegF32, kFloorF32,
  kSetLtF32, kSetLeF32, kSetEqF32, kSetGtF32, kSetGeF32,
  kCvtIToF32, kCvtF64ToF32,

  // FP64 arithmetic.
  kAddF64, kSubF64, kMulF64, kDivF64, kFmaF64,
  kSqrtF64, kExpF64, kLogF64, kSinF64, kCosF64,
  kMinF64, kMaxF64, kAbsF64, kNegF64, kFloorF64,
  kSetLtF64, kSetLeF64, kSetEqF64, kSetGtF64, kSetGeF64,
  kCvtIToF64, kCvtF32ToF64,

  // Control flow (class B). Branch targets are block indices in `imm`.
  kJmp, kBraZ, kBraNZ, kRet, kBar,

  // Global memory (byte address = regs[src0] + imm).
  kLdGlobalF32, kLdGlobalF64, kLdGlobalI32, kLdGlobalI64, kLdGlobalU8,
  kStGlobalF32, kStGlobalF64, kStGlobalI32, kStGlobalI64, kStGlobalU8,
  kAtomAddGlobalI64, kAtomAddGlobalF32,

  // Shared memory (per-block scratchpad; byte address = regs[src0] + imm).
  kLdSharedF32, kLdSharedF64, kLdSharedI64,
  kStSharedF32, kStSharedF64, kStSharedI64,
};

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
InstrClass instr_class(Opcode op);

/// True for opcodes that terminate a basic block (kJmp/kBraZ/kBraNZ/kRet).
bool is_terminator(Opcode op);

/// True for conditional or unconditional jumps carrying a block target.
bool is_branch_with_target(Opcode op);

/// True for global/shared memory loads or stores (including atomics).
bool is_memory_op(Opcode op);
bool is_global_memory_op(Opcode op);

/// True for transcendental/special-function opcodes (sqrt, rsqrt, exp, log,
/// sin, cos). Real GPUs run these on SFU hardware; software emulators pay a
/// libm call for each, which is why FP-special-heavy apps emulate so badly.
bool is_sfu_op(Opcode op);

/// Subset of the SFU ops that CPUs handle cheaply in hardware (sqrt/rsqrt
/// have SSE instructions); the rest (exp/log/sin/cos) are full libm calls.
bool is_sqrt_op(Opcode op);

/// Number of register operands an opcode reads: its sources are src0, src1,
/// ... up to this count. Unused `src*` fields default to register 0, so
/// dataflow over the IR must consult this instead of the raw fields.
std::uint32_t source_count(Opcode op);

/// True when the opcode writes its `dst` register.
bool writes_register(Opcode op);

/// Number of bytes moved by a memory opcode (0 for non-memory opcodes).
std::uint32_t memory_width_bytes(Opcode op);

std::string_view opcode_name(Opcode op);
std::string_view special_reg_name(SpecialReg sr);

}  // namespace sigvp
