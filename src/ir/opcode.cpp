#include "ir/opcode.hpp"

namespace sigvp {

InstrClass instr_class(Opcode op) {
  switch (op) {
    case Opcode::kNop:
    case Opcode::kMovImmI:
    case Opcode::kMovImmF32:
    case Opcode::kMovImmF64:
    case Opcode::kMov:
    case Opcode::kReadSpecial:
    case Opcode::kLdParam:
    case Opcode::kSelect:
    case Opcode::kAddI:
    case Opcode::kSubI:
    case Opcode::kMulI:
    case Opcode::kDivI:
    case Opcode::kRemI:
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
      return InstrClass::kInt;

    case Opcode::kAndB:
    case Opcode::kOrB:
    case Opcode::kXorB:
    case Opcode::kNotB:
    case Opcode::kShlB:
    case Opcode::kShrB:
    case Opcode::kShrA:
      return InstrClass::kBit;

    case Opcode::kAddF32:
    case Opcode::kSubF32:
    case Opcode::kMulF32:
    case Opcode::kDivF32:
    case Opcode::kFmaF32:
    case Opcode::kSqrtF32:
    case Opcode::kRsqrtF32:
    case Opcode::kExpF32:
    case Opcode::kLogF32:
    case Opcode::kSinF32:
    case Opcode::kCosF32:
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
      return InstrClass::kFp32;

    case Opcode::kAddF64:
    case Opcode::kSubF64:
    case Opcode::kMulF64:
    case Opcode::kDivF64:
    case Opcode::kFmaF64:
    case Opcode::kSqrtF64:
    case Opcode::kExpF64:
    case Opcode::kLogF64:
    case Opcode::kSinF64:
    case Opcode::kCosF64:
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
      return InstrClass::kFp64;

    case Opcode::kJmp:
    case Opcode::kBraZ:
    case Opcode::kBraNZ:
    case Opcode::kRet:
    case Opcode::kBar:
      return InstrClass::kBranch;

    case Opcode::kLdGlobalF32:
    case Opcode::kLdGlobalF64:
    case Opcode::kLdGlobalI32:
    case Opcode::kLdGlobalI64:
    case Opcode::kLdGlobalU8:
    case Opcode::kLdSharedF32:
    case Opcode::kLdSharedF64:
    case Opcode::kLdSharedI64:
      return InstrClass::kLoad;

    case Opcode::kStGlobalF32:
    case Opcode::kStGlobalF64:
    case Opcode::kStGlobalI32:
    case Opcode::kStGlobalI64:
    case Opcode::kStGlobalU8:
    case Opcode::kAtomAddGlobalI64:
    case Opcode::kAtomAddGlobalF32:
    case Opcode::kStSharedF32:
    case Opcode::kStSharedF64:
    case Opcode::kStSharedI64:
      return InstrClass::kStore;
  }
  return InstrClass::kInt;
}

bool is_terminator(Opcode op) {
  switch (op) {
    case Opcode::kJmp:
    case Opcode::kBraZ:
    case Opcode::kBraNZ:
    case Opcode::kRet:
      return true;
    default:
      return false;
  }
}

bool is_branch_with_target(Opcode op) {
  switch (op) {
    case Opcode::kJmp:
    case Opcode::kBraZ:
    case Opcode::kBraNZ:
      return true;
    default:
      return false;
  }
}

bool is_memory_op(Opcode op) {
  const InstrClass c = instr_class(op);
  return c == InstrClass::kLoad || c == InstrClass::kStore;
}

bool is_global_memory_op(Opcode op) {
  switch (op) {
    case Opcode::kLdGlobalF32:
    case Opcode::kLdGlobalF64:
    case Opcode::kLdGlobalI32:
    case Opcode::kLdGlobalI64:
    case Opcode::kLdGlobalU8:
    case Opcode::kStGlobalF32:
    case Opcode::kStGlobalF64:
    case Opcode::kStGlobalI32:
    case Opcode::kStGlobalI64:
    case Opcode::kStGlobalU8:
    case Opcode::kAtomAddGlobalI64:
    case Opcode::kAtomAddGlobalF32:
      return true;
    default:
      return false;
  }
}

bool is_sfu_op(Opcode op) {
  switch (op) {
    case Opcode::kSqrtF32:
    case Opcode::kRsqrtF32:
    case Opcode::kExpF32:
    case Opcode::kLogF32:
    case Opcode::kSinF32:
    case Opcode::kCosF32:
    case Opcode::kSqrtF64:
    case Opcode::kExpF64:
    case Opcode::kLogF64:
    case Opcode::kSinF64:
    case Opcode::kCosF64:
      return true;
    default:
      return false;
  }
}

bool is_sqrt_op(Opcode op) {
  switch (op) {
    case Opcode::kSqrtF32:
    case Opcode::kRsqrtF32:
    case Opcode::kSqrtF64:
      return true;
    default:
      return false;
  }
}

std::uint32_t source_count(Opcode op) {
  switch (op) {
    case Opcode::kNop:
    case Opcode::kMovImmI:
    case Opcode::kMovImmF32:
    case Opcode::kMovImmF64:
    case Opcode::kReadSpecial:
    case Opcode::kLdParam:
    case Opcode::kJmp:
    case Opcode::kRet:
    case Opcode::kBar:
      return 0;

    case Opcode::kMov:
    case Opcode::kNegI:
    case Opcode::kAbsI:
    case Opcode::kCvtF32ToI:
    case Opcode::kCvtF64ToI:
    case Opcode::kNotB:
    case Opcode::kSqrtF32:
    case Opcode::kRsqrtF32:
    case Opcode::kExpF32:
    case Opcode::kLogF32:
    case Opcode::kSinF32:
    case Opcode::kCosF32:
    case Opcode::kAbsF32:
    case Opcode::kNegF32:
    case Opcode::kFloorF32:
    case Opcode::kCvtIToF32:
    case Opcode::kCvtF64ToF32:
    case Opcode::kSqrtF64:
    case Opcode::kExpF64:
    case Opcode::kLogF64:
    case Opcode::kSinF64:
    case Opcode::kCosF64:
    case Opcode::kAbsF64:
    case Opcode::kNegF64:
    case Opcode::kFloorF64:
    case Opcode::kCvtIToF64:
    case Opcode::kCvtF32ToF64:
    case Opcode::kBraZ:
    case Opcode::kBraNZ:
    case Opcode::kLdGlobalF32:
    case Opcode::kLdGlobalF64:
    case Opcode::kLdGlobalI32:
    case Opcode::kLdGlobalI64:
    case Opcode::kLdGlobalU8:
    case Opcode::kLdSharedF32:
    case Opcode::kLdSharedF64:
    case Opcode::kLdSharedI64:
      return 1;

    case Opcode::kSelect:
    case Opcode::kFmaF32:
    case Opcode::kFmaF64:
      return 3;

    default:  // binary ALU ops, stores (address, value) and atomics
      return 2;
  }
}

bool writes_register(Opcode op) {
  switch (instr_class(op)) {
    case InstrClass::kBranch:
      return false;
    case InstrClass::kStore:
      return op == Opcode::kAtomAddGlobalI64 || op == Opcode::kAtomAddGlobalF32;
    default:
      return op != Opcode::kNop;
  }
}

std::uint32_t memory_width_bytes(Opcode op) {
  switch (op) {
    case Opcode::kLdGlobalU8:
    case Opcode::kStGlobalU8:
      return 1;
    case Opcode::kLdGlobalF32:
    case Opcode::kLdGlobalI32:
    case Opcode::kStGlobalF32:
    case Opcode::kStGlobalI32:
    case Opcode::kAtomAddGlobalF32:
    case Opcode::kLdSharedF32:
    case Opcode::kStSharedF32:
      return 4;
    case Opcode::kLdGlobalF64:
    case Opcode::kLdGlobalI64:
    case Opcode::kStGlobalF64:
    case Opcode::kStGlobalI64:
    case Opcode::kAtomAddGlobalI64:
    case Opcode::kLdSharedF64:
    case Opcode::kLdSharedI64:
    case Opcode::kStSharedF64:
    case Opcode::kStSharedI64:
      return 8;
    default:
      return 0;
  }
}

std::string_view opcode_name(Opcode op) {
  switch (op) {
    case Opcode::kNop: return "nop";
    case Opcode::kMovImmI: return "mov.imm.i";
    case Opcode::kMovImmF32: return "mov.imm.f32";
    case Opcode::kMovImmF64: return "mov.imm.f64";
    case Opcode::kMov: return "mov";
    case Opcode::kReadSpecial: return "mov.special";
    case Opcode::kLdParam: return "ld.param";
    case Opcode::kSelect: return "selp";
    case Opcode::kAddI: return "add.i";
    case Opcode::kSubI: return "sub.i";
    case Opcode::kMulI: return "mul.i";
    case Opcode::kDivI: return "div.i";
    case Opcode::kRemI: return "rem.i";
    case Opcode::kMinI: return "min.i";
    case Opcode::kMaxI: return "max.i";
    case Opcode::kNegI: return "neg.i";
    case Opcode::kAbsI: return "abs.i";
    case Opcode::kSetLtI: return "set.lt.i";
    case Opcode::kSetLeI: return "set.le.i";
    case Opcode::kSetEqI: return "set.eq.i";
    case Opcode::kSetNeI: return "set.ne.i";
    case Opcode::kSetGtI: return "set.gt.i";
    case Opcode::kSetGeI: return "set.ge.i";
    case Opcode::kCvtF32ToI: return "cvt.i.f32";
    case Opcode::kCvtF64ToI: return "cvt.i.f64";
    case Opcode::kAndB: return "and.b";
    case Opcode::kOrB: return "or.b";
    case Opcode::kXorB: return "xor.b";
    case Opcode::kNotB: return "not.b";
    case Opcode::kShlB: return "shl.b";
    case Opcode::kShrB: return "shr.b";
    case Opcode::kShrA: return "shr.a";
    case Opcode::kAddF32: return "add.f32";
    case Opcode::kSubF32: return "sub.f32";
    case Opcode::kMulF32: return "mul.f32";
    case Opcode::kDivF32: return "div.f32";
    case Opcode::kFmaF32: return "fma.f32";
    case Opcode::kSqrtF32: return "sqrt.f32";
    case Opcode::kRsqrtF32: return "rsqrt.f32";
    case Opcode::kExpF32: return "exp.f32";
    case Opcode::kLogF32: return "log.f32";
    case Opcode::kSinF32: return "sin.f32";
    case Opcode::kCosF32: return "cos.f32";
    case Opcode::kMinF32: return "min.f32";
    case Opcode::kMaxF32: return "max.f32";
    case Opcode::kAbsF32: return "abs.f32";
    case Opcode::kNegF32: return "neg.f32";
    case Opcode::kFloorF32: return "floor.f32";
    case Opcode::kSetLtF32: return "set.lt.f32";
    case Opcode::kSetLeF32: return "set.le.f32";
    case Opcode::kSetEqF32: return "set.eq.f32";
    case Opcode::kSetGtF32: return "set.gt.f32";
    case Opcode::kSetGeF32: return "set.ge.f32";
    case Opcode::kCvtIToF32: return "cvt.f32.i";
    case Opcode::kCvtF64ToF32: return "cvt.f32.f64";
    case Opcode::kAddF64: return "add.f64";
    case Opcode::kSubF64: return "sub.f64";
    case Opcode::kMulF64: return "mul.f64";
    case Opcode::kDivF64: return "div.f64";
    case Opcode::kFmaF64: return "fma.f64";
    case Opcode::kSqrtF64: return "sqrt.f64";
    case Opcode::kExpF64: return "exp.f64";
    case Opcode::kLogF64: return "log.f64";
    case Opcode::kSinF64: return "sin.f64";
    case Opcode::kCosF64: return "cos.f64";
    case Opcode::kMinF64: return "min.f64";
    case Opcode::kMaxF64: return "max.f64";
    case Opcode::kAbsF64: return "abs.f64";
    case Opcode::kNegF64: return "neg.f64";
    case Opcode::kFloorF64: return "floor.f64";
    case Opcode::kSetLtF64: return "set.lt.f64";
    case Opcode::kSetLeF64: return "set.le.f64";
    case Opcode::kSetEqF64: return "set.eq.f64";
    case Opcode::kSetGtF64: return "set.gt.f64";
    case Opcode::kSetGeF64: return "set.ge.f64";
    case Opcode::kCvtIToF64: return "cvt.f64.i";
    case Opcode::kCvtF32ToF64: return "cvt.f64.f32";
    case Opcode::kJmp: return "bra";
    case Opcode::kBraZ: return "bra.z";
    case Opcode::kBraNZ: return "bra.nz";
    case Opcode::kRet: return "ret";
    case Opcode::kBar: return "bar.sync";
    case Opcode::kLdGlobalF32: return "ld.global.f32";
    case Opcode::kLdGlobalF64: return "ld.global.f64";
    case Opcode::kLdGlobalI32: return "ld.global.i32";
    case Opcode::kLdGlobalI64: return "ld.global.i64";
    case Opcode::kLdGlobalU8: return "ld.global.u8";
    case Opcode::kStGlobalF32: return "st.global.f32";
    case Opcode::kStGlobalF64: return "st.global.f64";
    case Opcode::kStGlobalI32: return "st.global.i32";
    case Opcode::kStGlobalI64: return "st.global.i64";
    case Opcode::kStGlobalU8: return "st.global.u8";
    case Opcode::kAtomAddGlobalI64: return "atom.add.global.i64";
    case Opcode::kAtomAddGlobalF32: return "atom.add.global.f32";
    case Opcode::kLdSharedF32: return "ld.shared.f32";
    case Opcode::kLdSharedF64: return "ld.shared.f64";
    case Opcode::kLdSharedI64: return "ld.shared.i64";
    case Opcode::kStSharedF32: return "st.shared.f32";
    case Opcode::kStSharedF64: return "st.shared.f64";
    case Opcode::kStSharedI64: return "st.shared.i64";
  }
  return "?";
}

std::string_view special_reg_name(SpecialReg sr) {
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
