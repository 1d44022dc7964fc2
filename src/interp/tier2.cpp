#include "interp/tier2.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

#include "trace/trace.hpp"
#include "util/check.hpp"

namespace sigvp {
namespace interp_detail {

namespace {

// ---------------------------------------------------------------------------
// Execution context. The cold error paths are the reference interpreter's
// (decoded.hpp), so a launch fails with the same message on both.
// ---------------------------------------------------------------------------

struct T2Ctx {
  const Tier2Instr* code = nullptr;
  LaunchDims dims;
  const std::uint64_t* argv = nullptr;
  std::size_t argc = 0;
  AddressSpace* global = nullptr;
  const MemAccessHook* hook = nullptr;
  std::uint64_t* block_visits = nullptr;
  std::uint8_t* shared = nullptr;
  std::size_t shared_size = 0;
  std::uint32_t ctaid_x = 0;
  std::uint32_t ctaid_y = 0;
  const KernelIR* ir = nullptr;  // cold paths only (error messages)
  RegValue* slab = nullptr;      // SoA register slab of the current block
};

[[noreturn]] __attribute__((noinline, cold)) void throw_vec_unsupported(const T2Ctx& m) {
  sigvp::detail::raise_contract_error("invariant", "prologue op is vectorizable", __FILE__,
                                      __LINE__,
                                      m.ir->name + ": non-vector op reached the prologue");
}

// ---------------------------------------------------------------------------
// Vector prologue: the pure-register prefix of the entry block, executed in
// lane lockstep over the SoA slab. Each case is a tight loop over lanes with
// contiguous loads/stores (register r's lanes live at slab[r * lane_stride..]),
// which the compiler auto-vectorizes. Semantically this is exactly "every
// thread runs the prefix before anything else" — legal because the prefix
// touches no memory, fires no hooks, bumps no λ, and cannot branch, so no
// thread can observe another thread's progress through it.
// ---------------------------------------------------------------------------

void run_vec_prologue(T2Ctx& m, const std::vector<VecOp>& ops, std::uint32_t lanes,
                      const T2Thread* threads) {
  RegValue* const slab = m.slab;
  for (const VecOp& v : ops) {
    RegValue* const D = slab + v.d;
    const RegValue* const A = slab + v.a;
    const RegValue* const B = slab + v.b;
    const RegValue* const C = slab + v.c;

#define T2_VEC(opc, stmt)                                 \
  case Opcode::opc:                                       \
    for (std::uint32_t l = 0; l < lanes; ++l) { stmt; }   \
    break;

    switch (v.op) {
      case Opcode::kMovImmI: {  // FP immediates pre-encoded as bit patterns
        const std::uint64_t bits = static_cast<std::uint64_t>(v.imm);
        for (std::uint32_t l = 0; l < lanes; ++l) D[l].bits = bits;
        break;
      }
      case Opcode::kReadSpecial: {
        switch (static_cast<SpecialReg>(v.imm)) {
          case SpecialReg::kTidX:
            for (std::uint32_t l = 0; l < lanes; ++l) D[l].bits = threads[l].tid_x;
            break;
          case SpecialReg::kTidY:
            for (std::uint32_t l = 0; l < lanes; ++l) D[l].bits = threads[l].tid_y;
            break;
          case SpecialReg::kCtaidX:
            for (std::uint32_t l = 0; l < lanes; ++l) D[l].bits = m.ctaid_x;
            break;
          case SpecialReg::kCtaidY:
            for (std::uint32_t l = 0; l < lanes; ++l) D[l].bits = m.ctaid_y;
            break;
          case SpecialReg::kNtidX:
            for (std::uint32_t l = 0; l < lanes; ++l) D[l].bits = m.dims.block_x;
            break;
          case SpecialReg::kNtidY:
            for (std::uint32_t l = 0; l < lanes; ++l) D[l].bits = m.dims.block_y;
            break;
          case SpecialReg::kNctaidX:
            for (std::uint32_t l = 0; l < lanes; ++l) D[l].bits = m.dims.grid_x;
            break;
          case SpecialReg::kNctaidY:
            for (std::uint32_t l = 0; l < lanes; ++l) D[l].bits = m.dims.grid_y;
            break;
        }
        break;
      }
      case Opcode::kLdParam: {
        if (static_cast<std::size_t>(v.imm) >= m.argc) [[unlikely]] throw_bad_param(*m.ir);
        const std::uint64_t val = m.argv[static_cast<std::size_t>(v.imm)];
        for (std::uint32_t l = 0; l < lanes; ++l) D[l].bits = val;
        break;
      }
      T2_VEC(kMov, D[l] = A[l])
      T2_VEC(kSelect, D[l] = A[l].truthy() ? B[l] : C[l])
      T2_VEC(kAddI, D[l].set_i(A[l].i() + B[l].i()))
      T2_VEC(kSubI, D[l].set_i(A[l].i() - B[l].i()))
      T2_VEC(kMulI, D[l].set_i(A[l].i() * B[l].i()))
      T2_VEC(kMinI, D[l].set_i(std::min(A[l].i(), B[l].i())))
      T2_VEC(kMaxI, D[l].set_i(std::max(A[l].i(), B[l].i())))
      T2_VEC(kNegI, D[l].set_i(-A[l].i()))
      T2_VEC(kAbsI, D[l].set_i(std::abs(A[l].i())))
      T2_VEC(kSetLtI, D[l].set_i(A[l].i() < B[l].i()))
      T2_VEC(kSetLeI, D[l].set_i(A[l].i() <= B[l].i()))
      T2_VEC(kSetEqI, D[l].set_i(A[l].i() == B[l].i()))
      T2_VEC(kSetNeI, D[l].set_i(A[l].i() != B[l].i()))
      T2_VEC(kSetGtI, D[l].set_i(A[l].i() > B[l].i()))
      T2_VEC(kSetGeI, D[l].set_i(A[l].i() >= B[l].i()))
      T2_VEC(kCvtF32ToI, D[l].set_i(static_cast<std::int64_t>(A[l].f32())))
      T2_VEC(kCvtF64ToI, D[l].set_i(static_cast<std::int64_t>(A[l].f64())))
      T2_VEC(kAndB, D[l].bits = A[l].bits & B[l].bits)
      T2_VEC(kOrB, D[l].bits = A[l].bits | B[l].bits)
      T2_VEC(kXorB, D[l].bits = A[l].bits ^ B[l].bits)
      T2_VEC(kNotB, D[l].bits = ~A[l].bits)
      T2_VEC(kShlB, D[l].bits = A[l].bits << (B[l].bits & 63))
      T2_VEC(kShrB, D[l].bits = A[l].bits >> (B[l].bits & 63))
      T2_VEC(kShrA, D[l].set_i(A[l].i() >> (B[l].bits & 63)))
      T2_VEC(kAddF32, D[l].set_f32(A[l].f32() + B[l].f32()))
      T2_VEC(kSubF32, D[l].set_f32(A[l].f32() - B[l].f32()))
      T2_VEC(kMulF32, D[l].set_f32(A[l].f32() * B[l].f32()))
      T2_VEC(kDivF32, D[l].set_f32(A[l].f32() / B[l].f32()))
      T2_VEC(kFmaF32, D[l].set_f32(std::fma(A[l].f32(), B[l].f32(), C[l].f32())))
      T2_VEC(kMinF32, D[l].set_f32(std::fmin(A[l].f32(), B[l].f32())))
      T2_VEC(kMaxF32, D[l].set_f32(std::fmax(A[l].f32(), B[l].f32())))
      T2_VEC(kAbsF32, D[l].set_f32(std::fabs(A[l].f32())))
      T2_VEC(kNegF32, D[l].set_f32(-A[l].f32()))
      T2_VEC(kFloorF32, D[l].set_f32(std::floor(A[l].f32())))
      T2_VEC(kSetLtF32, D[l].set_i(A[l].f32() < B[l].f32()))
      T2_VEC(kSetLeF32, D[l].set_i(A[l].f32() <= B[l].f32()))
      T2_VEC(kSetEqF32, D[l].set_i(A[l].f32() == B[l].f32()))
      T2_VEC(kSetGtF32, D[l].set_i(A[l].f32() > B[l].f32()))
      T2_VEC(kSetGeF32, D[l].set_i(A[l].f32() >= B[l].f32()))
      T2_VEC(kCvtIToF32, D[l].set_f32(static_cast<float>(A[l].i())))
      T2_VEC(kCvtF64ToF32, D[l].set_f32(static_cast<float>(A[l].f64())))
      T2_VEC(kAddF64, D[l].set_f64(A[l].f64() + B[l].f64()))
      T2_VEC(kSubF64, D[l].set_f64(A[l].f64() - B[l].f64()))
      T2_VEC(kMulF64, D[l].set_f64(A[l].f64() * B[l].f64()))
      T2_VEC(kDivF64, D[l].set_f64(A[l].f64() / B[l].f64()))
      T2_VEC(kFmaF64, D[l].set_f64(std::fma(A[l].f64(), B[l].f64(), C[l].f64())))
      T2_VEC(kMinF64, D[l].set_f64(std::fmin(A[l].f64(), B[l].f64())))
      T2_VEC(kMaxF64, D[l].set_f64(std::fmax(A[l].f64(), B[l].f64())))
      T2_VEC(kAbsF64, D[l].set_f64(std::fabs(A[l].f64())))
      T2_VEC(kNegF64, D[l].set_f64(-A[l].f64()))
      T2_VEC(kFloorF64, D[l].set_f64(std::floor(A[l].f64())))
      T2_VEC(kSetLtF64, D[l].set_i(A[l].f64() < B[l].f64()))
      T2_VEC(kSetLeF64, D[l].set_i(A[l].f64() <= B[l].f64()))
      T2_VEC(kSetEqF64, D[l].set_i(A[l].f64() == B[l].f64()))
      T2_VEC(kSetGtF64, D[l].set_i(A[l].f64() > B[l].f64()))
      T2_VEC(kSetGeF64, D[l].set_i(A[l].f64() >= B[l].f64()))
      T2_VEC(kCvtIToF64, D[l].set_f64(static_cast<double>(A[l].i())))
      T2_VEC(kCvtF32ToF64, D[l].set_f64(static_cast<double>(A[l].f32())))
      default:
        throw_vec_unsupported(m);  // lowering and this switch drifted apart
    }
#undef T2_VEC
  }
}

// ---------------------------------------------------------------------------
// Threaded-code scalar executor. One computed-goto dispatch per (possibly
// fused) superinstruction: no indirect call, no per-instruction done/barrier
// flag checks — ret/bar exit through their own labels. `T2_TICK()` charges
// the per-thread budget before each micro-op body, exactly where the
// reference checks it, so budget exhaustion fires at the same dynamic
// instruction with the same partial side effects.
// ---------------------------------------------------------------------------

void run_t2_thread(T2Ctx& m, T2Thread& t, const std::uint64_t max_instrs) {
  const Tier2Instr* d = m.code + t.pc;
  RegValue* const r = m.slab + t.lane;  // r[slot] = this thread's register
  std::uint64_t n = t.instrs_executed;

#if defined(__GNUC__) || defined(__clang__)
  static const void* const table[] = {
#define SIGVP_T2_LABEL(name) &&t2_##name,
      SIGVP_TIER2_OPS(SIGVP_T2_LABEL)
#undef SIGVP_T2_LABEL
  };
#define T2_CASE(name) t2_##name:
#define T2_GO() goto* table[d->sop]
#define T2_END()
  T2_GO();
#else
#define T2_CASE(name) case SOp::k_##name:
#define T2_GO() goto t2_dispatch
#define T2_END() \
  default: break; \
  }
t2_dispatch:
  switch (static_cast<SOp>(d->sop)) {
#endif

#define T2_TICK() \
  do { if (++n > max_instrs) [[unlikely]] throw_budget_exhausted(*m.ir); } while (0)
#define T2_NEXT() \
  do { ++d; T2_GO(); } while (0)
// Branch: bump λ of the target block, jump. Operands are captured before
// `d` moves.
#define T2_TAKE(pc_expr, blk_expr)                       \
  do {                                                   \
    const std::uint32_t t2_p = (pc_expr);                \
    const std::uint32_t t2_b = (blk_expr);               \
    ++m.block_visits[t2_b];                              \
    d = m.code + t2_p;                                   \
    T2_GO();                                             \
  } while (0)
#define T2_SIMPLE(name, body) \
  T2_CASE(name) { T2_TICK(); body; T2_NEXT(); }
#define T2_GADDR(slot, immv) (r[(slot)].bits + static_cast<std::uint64_t>(immv))

  T2_SIMPLE(nop, (void)0)
  T2_SIMPLE(load_const, r[d->d].bits = static_cast<std::uint64_t>(d->imm))
  T2_SIMPLE(mov, r[d->d] = r[d->a])
  T2_SIMPLE(select, r[d->d] = r[d->a].truthy() ? r[d->b] : r[d->c])

  T2_CASE(read_special) {
    T2_TICK();
    std::uint64_t v = 0;
    switch (static_cast<SpecialReg>(d->imm)) {
      case SpecialReg::kTidX: v = t.tid_x; break;
      case SpecialReg::kTidY: v = t.tid_y; break;
      case SpecialReg::kCtaidX: v = m.ctaid_x; break;
      case SpecialReg::kCtaidY: v = m.ctaid_y; break;
      case SpecialReg::kNtidX: v = m.dims.block_x; break;
      case SpecialReg::kNtidY: v = m.dims.block_y; break;
      case SpecialReg::kNctaidX: v = m.dims.grid_x; break;
      case SpecialReg::kNctaidY: v = m.dims.grid_y; break;
    }
    r[d->d].bits = v;
    T2_NEXT();
  }

  T2_CASE(ld_param) {
    T2_TICK();
    if (static_cast<std::size_t>(d->imm) >= m.argc) [[unlikely]] throw_bad_param(*m.ir);
    r[d->d].bits = m.argv[static_cast<std::size_t>(d->imm)];
    T2_NEXT();
  }

  // --- integer ---------------------------------------------------------------
  T2_SIMPLE(add_i, r[d->d].set_i(r[d->a].i() + r[d->b].i()))
  T2_SIMPLE(sub_i, r[d->d].set_i(r[d->a].i() - r[d->b].i()))
  T2_SIMPLE(mul_i, r[d->d].set_i(r[d->a].i() * r[d->b].i()))
  T2_CASE(div_i) {
    T2_TICK();
    if (r[d->b].i() == 0) [[unlikely]] throw_div_zero(*m.ir);
    r[d->d].set_i(r[d->a].i() / r[d->b].i());
    T2_NEXT();
  }
  T2_CASE(rem_i) {
    T2_TICK();
    if (r[d->b].i() == 0) [[unlikely]] throw_rem_zero(*m.ir);
    r[d->d].set_i(r[d->a].i() % r[d->b].i());
    T2_NEXT();
  }
  T2_SIMPLE(min_i, r[d->d].set_i(std::min(r[d->a].i(), r[d->b].i())))
  T2_SIMPLE(max_i, r[d->d].set_i(std::max(r[d->a].i(), r[d->b].i())))
  T2_SIMPLE(neg_i, r[d->d].set_i(-r[d->a].i()))
  T2_SIMPLE(abs_i, r[d->d].set_i(std::abs(r[d->a].i())))
  T2_SIMPLE(set_lt_i, r[d->d].set_i(r[d->a].i() < r[d->b].i()))
  T2_SIMPLE(set_le_i, r[d->d].set_i(r[d->a].i() <= r[d->b].i()))
  T2_SIMPLE(set_eq_i, r[d->d].set_i(r[d->a].i() == r[d->b].i()))
  T2_SIMPLE(set_ne_i, r[d->d].set_i(r[d->a].i() != r[d->b].i()))
  T2_SIMPLE(set_gt_i, r[d->d].set_i(r[d->a].i() > r[d->b].i()))
  T2_SIMPLE(set_ge_i, r[d->d].set_i(r[d->a].i() >= r[d->b].i()))
  T2_SIMPLE(cvt_f32_to_i, r[d->d].set_i(static_cast<std::int64_t>(r[d->a].f32())))
  T2_SIMPLE(cvt_f64_to_i, r[d->d].set_i(static_cast<std::int64_t>(r[d->a].f64())))

  // --- bit -------------------------------------------------------------------
  T2_SIMPLE(and_b, r[d->d].bits = r[d->a].bits & r[d->b].bits)
  T2_SIMPLE(or_b, r[d->d].bits = r[d->a].bits | r[d->b].bits)
  T2_SIMPLE(xor_b, r[d->d].bits = r[d->a].bits ^ r[d->b].bits)
  T2_SIMPLE(not_b, r[d->d].bits = ~r[d->a].bits)
  T2_SIMPLE(shl_b, r[d->d].bits = r[d->a].bits << (r[d->b].bits & 63))
  T2_SIMPLE(shr_b, r[d->d].bits = r[d->a].bits >> (r[d->b].bits & 63))
  T2_SIMPLE(shr_a, r[d->d].set_i(r[d->a].i() >> (r[d->b].bits & 63)))

  // --- fp32 ------------------------------------------------------------------
  T2_SIMPLE(add_f32, r[d->d].set_f32(r[d->a].f32() + r[d->b].f32()))
  T2_SIMPLE(sub_f32, r[d->d].set_f32(r[d->a].f32() - r[d->b].f32()))
  T2_SIMPLE(mul_f32, r[d->d].set_f32(r[d->a].f32() * r[d->b].f32()))
  T2_SIMPLE(div_f32, r[d->d].set_f32(r[d->a].f32() / r[d->b].f32()))
  T2_SIMPLE(fma_f32, r[d->d].set_f32(std::fma(r[d->a].f32(), r[d->b].f32(), r[d->c].f32())))
  T2_SIMPLE(sqrt_f32, r[d->d].set_f32(std::sqrt(r[d->a].f32())))
  T2_SIMPLE(rsqrt_f32, r[d->d].set_f32(1.0f / std::sqrt(r[d->a].f32())))
  T2_SIMPLE(exp_f32, r[d->d].set_f32(std::exp(r[d->a].f32())))
  T2_SIMPLE(log_f32, r[d->d].set_f32(std::log(r[d->a].f32())))
  T2_SIMPLE(sin_f32, r[d->d].set_f32(std::sin(r[d->a].f32())))
  T2_SIMPLE(cos_f32, r[d->d].set_f32(std::cos(r[d->a].f32())))
  T2_SIMPLE(min_f32, r[d->d].set_f32(std::fmin(r[d->a].f32(), r[d->b].f32())))
  T2_SIMPLE(max_f32, r[d->d].set_f32(std::fmax(r[d->a].f32(), r[d->b].f32())))
  T2_SIMPLE(abs_f32, r[d->d].set_f32(std::fabs(r[d->a].f32())))
  T2_SIMPLE(neg_f32, r[d->d].set_f32(-r[d->a].f32()))
  T2_SIMPLE(floor_f32, r[d->d].set_f32(std::floor(r[d->a].f32())))
  T2_SIMPLE(set_lt_f32, r[d->d].set_i(r[d->a].f32() < r[d->b].f32()))
  T2_SIMPLE(set_le_f32, r[d->d].set_i(r[d->a].f32() <= r[d->b].f32()))
  T2_SIMPLE(set_eq_f32, r[d->d].set_i(r[d->a].f32() == r[d->b].f32()))
  T2_SIMPLE(set_gt_f32, r[d->d].set_i(r[d->a].f32() > r[d->b].f32()))
  T2_SIMPLE(set_ge_f32, r[d->d].set_i(r[d->a].f32() >= r[d->b].f32()))
  T2_SIMPLE(cvt_i_to_f32, r[d->d].set_f32(static_cast<float>(r[d->a].i())))
  T2_SIMPLE(cvt_f64_to_f32, r[d->d].set_f32(static_cast<float>(r[d->a].f64())))

  // --- fp64 ------------------------------------------------------------------
  T2_SIMPLE(add_f64, r[d->d].set_f64(r[d->a].f64() + r[d->b].f64()))
  T2_SIMPLE(sub_f64, r[d->d].set_f64(r[d->a].f64() - r[d->b].f64()))
  T2_SIMPLE(mul_f64, r[d->d].set_f64(r[d->a].f64() * r[d->b].f64()))
  T2_SIMPLE(div_f64, r[d->d].set_f64(r[d->a].f64() / r[d->b].f64()))
  T2_SIMPLE(fma_f64, r[d->d].set_f64(std::fma(r[d->a].f64(), r[d->b].f64(), r[d->c].f64())))
  T2_SIMPLE(sqrt_f64, r[d->d].set_f64(std::sqrt(r[d->a].f64())))
  T2_SIMPLE(exp_f64, r[d->d].set_f64(std::exp(r[d->a].f64())))
  T2_SIMPLE(log_f64, r[d->d].set_f64(std::log(r[d->a].f64())))
  T2_SIMPLE(sin_f64, r[d->d].set_f64(std::sin(r[d->a].f64())))
  T2_SIMPLE(cos_f64, r[d->d].set_f64(std::cos(r[d->a].f64())))
  T2_SIMPLE(min_f64, r[d->d].set_f64(std::fmin(r[d->a].f64(), r[d->b].f64())))
  T2_SIMPLE(max_f64, r[d->d].set_f64(std::fmax(r[d->a].f64(), r[d->b].f64())))
  T2_SIMPLE(abs_f64, r[d->d].set_f64(std::fabs(r[d->a].f64())))
  T2_SIMPLE(neg_f64, r[d->d].set_f64(-r[d->a].f64()))
  T2_SIMPLE(floor_f64, r[d->d].set_f64(std::floor(r[d->a].f64())))
  T2_SIMPLE(set_lt_f64, r[d->d].set_i(r[d->a].f64() < r[d->b].f64()))
  T2_SIMPLE(set_le_f64, r[d->d].set_i(r[d->a].f64() <= r[d->b].f64()))
  T2_SIMPLE(set_eq_f64, r[d->d].set_i(r[d->a].f64() == r[d->b].f64()))
  T2_SIMPLE(set_gt_f64, r[d->d].set_i(r[d->a].f64() > r[d->b].f64()))
  T2_SIMPLE(set_ge_f64, r[d->d].set_i(r[d->a].f64() >= r[d->b].f64()))
  T2_SIMPLE(cvt_i_to_f64, r[d->d].set_f64(static_cast<double>(r[d->a].i())))
  T2_SIMPLE(cvt_f32_to_f64, r[d->d].set_f64(static_cast<double>(r[d->a].f32())))

  // --- control flow ----------------------------------------------------------
  T2_CASE(jmp) {
    T2_TICK();
    T2_TAKE(d->target_pc, d->target_block);
  }
  T2_CASE(bra_z) {
    T2_TICK();
    if (!r[d->a].truthy()) T2_TAKE(d->target_pc, d->target_block);
    if (d->fall_pc == kInvalidPc) [[unlikely]] throw_bad_fallthrough(*m.ir);
    T2_TAKE(d->fall_pc, d->fall_block);
  }
  T2_CASE(bra_nz) {
    T2_TICK();
    if (r[d->a].truthy()) T2_TAKE(d->target_pc, d->target_block);
    if (d->fall_pc == kInvalidPc) [[unlikely]] throw_bad_fallthrough(*m.ir);
    T2_TAKE(d->fall_pc, d->fall_block);
  }
  T2_CASE(ret) {
    T2_TICK();
    t.done = true;
    t.pc = static_cast<std::uint32_t>(d - m.code);
    t.instrs_executed = n;
    return;
  }
  T2_CASE(bar) {
    T2_TICK();
    t.at_barrier = true;
    t.pc = static_cast<std::uint32_t>(d - m.code) + 1;
    t.instrs_executed = n;
    return;
  }

  // --- global memory (the hook fires before the access) ---------------------
#define T2_LD_GLOBAL(name, type, assign)                        \
  T2_CASE(name) {                                               \
    T2_TICK();                                                  \
    const std::uint64_t addr = T2_GADDR(d->a, d->imm);          \
    if (m.hook) (*m.hook)(addr, sizeof(type), false);           \
    const type v = m.global->read<type>(addr);                  \
    assign;                                                     \
    T2_NEXT();                                                  \
  }
#define T2_ST_GLOBAL(name, type, value)                         \
  T2_CASE(name) {                                               \
    T2_TICK();                                                  \
    const std::uint64_t addr = T2_GADDR(d->a, d->imm);          \
    if (m.hook) (*m.hook)(addr, sizeof(type), true);            \
    m.global->write<type>(addr, (value));                       \
    T2_NEXT();                                                  \
  }

  T2_LD_GLOBAL(ld_global_f32, float, r[d->d].set_f32(v))
  T2_LD_GLOBAL(ld_global_f64, double, r[d->d].set_f64(v))
  T2_LD_GLOBAL(ld_global_i32, std::int32_t, r[d->d].set_i(v))
  T2_LD_GLOBAL(ld_global_i64, std::int64_t, r[d->d].set_i(v))
  T2_LD_GLOBAL(ld_global_u8, std::uint8_t, r[d->d].bits = v)
  T2_ST_GLOBAL(st_global_f32, float, r[d->b].f32())
  T2_ST_GLOBAL(st_global_f64, double, r[d->b].f64())
  T2_ST_GLOBAL(st_global_i32, std::int32_t, static_cast<std::int32_t>(r[d->b].i()))
  T2_ST_GLOBAL(st_global_i64, std::int64_t, r[d->b].i())
  T2_ST_GLOBAL(st_global_u8, std::uint8_t, static_cast<std::uint8_t>(r[d->b].bits))

  // Global atomics: a plain read-modify-write. Kernels containing them run
  // their chunks serially in canonical order (see Interpreter::run), so no
  // two threads ever race on the cell.
  T2_CASE(atom_add_global_i64) {
    T2_TICK();
    const std::uint64_t addr = T2_GADDR(d->a, d->imm);
    if (m.hook) (*m.hook)(addr, 8, true);
    const std::int64_t old = m.global->read<std::int64_t>(addr);
    m.global->write<std::int64_t>(addr, old + r[d->b].i());
    r[d->d].set_i(old);
    T2_NEXT();
  }
  T2_CASE(atom_add_global_f32) {
    T2_TICK();
    const std::uint64_t addr = T2_GADDR(d->a, d->imm);
    if (m.hook) (*m.hook)(addr, 4, true);
    const float old = m.global->read<float>(addr);
    m.global->write<float>(addr, old + r[d->b].f32());
    r[d->d].set_f32(old);
    T2_NEXT();
  }

  // --- shared memory ---------------------------------------------------------
#define T2_LD_SHARED(name, type, assign)                                   \
  T2_CASE(name) {                                                          \
    T2_TICK();                                                             \
    const std::uint64_t addr = T2_GADDR(d->a, d->imm);                     \
    if (addr + sizeof(type) > m.shared_size || addr + sizeof(type) < addr) \
        [[unlikely]] throw_shared_oob(*m.ir);                              \
    type v;                                                                \
    std::memcpy(&v, m.shared + addr, sizeof(type));                        \
    assign;                                                                \
    T2_NEXT();                                                             \
  }
#define T2_ST_SHARED(name, type, value)                                    \
  T2_CASE(name) {                                                          \
    T2_TICK();                                                             \
    const std::uint64_t addr = T2_GADDR(d->a, d->imm);                     \
    if (addr + sizeof(type) > m.shared_size || addr + sizeof(type) < addr) \
        [[unlikely]] throw_shared_oob(*m.ir);                              \
    const type v = (value);                                                \
    std::memcpy(m.shared + addr, &v, sizeof(type));                        \
    T2_NEXT();                                                             \
  }

  T2_LD_SHARED(ld_shared_f32, float, r[d->d].set_f32(v))
  T2_LD_SHARED(ld_shared_f64, double, r[d->d].set_f64(v))
  T2_LD_SHARED(ld_shared_i64, std::int64_t, r[d->d].set_i(v))
  T2_ST_SHARED(st_shared_f32, float, r[d->b].f32())
  T2_ST_SHARED(st_shared_f64, double, r[d->b].f64())
  T2_ST_SHARED(st_shared_i64, std::int64_t, r[d->b].i())

  // --- fused superinstructions ----------------------------------------------
  // Each fused handler is its constituent generic bodies back to back, each
  // behind its own budget tick; `2`-suffixed operands belong to the second
  // micro-op.
  T2_CASE(mul_add_i) {
    T2_TICK();
    r[d->d].set_i(r[d->a].i() * r[d->b].i());
    T2_TICK();
    r[d->d2].set_i(r[d->a2].i() + r[d->b2].i());
    T2_NEXT();
  }
  T2_CASE(shl_add_i) {
    T2_TICK();
    r[d->d].bits = r[d->a].bits << (r[d->b].bits & 63);
    T2_TICK();
    r[d->d2].set_i(r[d->a2].i() + r[d->b2].i());
    T2_NEXT();
  }
  T2_CASE(add_add_i) {
    T2_TICK();
    r[d->d].set_i(r[d->a].i() + r[d->b].i());
    T2_TICK();
    r[d->d2].set_i(r[d->a2].i() + r[d->b2].i());
    T2_NEXT();
  }
  T2_CASE(add_i_jmp) {
    T2_TICK();
    r[d->d].set_i(r[d->a].i() + r[d->b].i());
    T2_TICK();
    T2_TAKE(d->target_pc, d->target_block);
  }
#define T2_SET_BRA(name, cmp, taken_when_false)                              \
  T2_CASE(name) {                                                            \
    T2_TICK();                                                               \
    r[d->d].set_i(r[d->a].i() cmp r[d->b].i());                              \
    T2_TICK();                                                               \
    if (r[d->a2].truthy() != (taken_when_false))                             \
      T2_TAKE(d->target_pc, d->target_block);                                \
    if (d->fall_pc == kInvalidPc) [[unlikely]] throw_bad_fallthrough(*m.ir); \
    T2_TAKE(d->fall_pc, d->fall_block);                                      \
  }
  // bra_z takes when the predicate is false; bra_nz when it is true.
  T2_SET_BRA(set_lt_i_bra_z, <, true)
  T2_SET_BRA(set_lt_i_bra_nz, <, false)
  T2_SET_BRA(set_ge_i_bra_z, >=, true)
  T2_SET_BRA(set_ge_i_bra_nz, >=, false)
#undef T2_SET_BRA
  T2_CASE(ld_ld_f32) {
    T2_TICK();
    {
      const std::uint64_t addr = T2_GADDR(d->a, d->imm);
      if (m.hook) (*m.hook)(addr, 4, false);
      r[d->d].set_f32(m.global->read<float>(addr));
    }
    T2_TICK();
    {
      const std::uint64_t addr = T2_GADDR(d->a2, d->imm2);
      if (m.hook) (*m.hook)(addr, 4, false);
      r[d->d2].set_f32(m.global->read<float>(addr));
    }
    T2_NEXT();
  }
#define T2_LD_ARITH(name, op)                                   \
  T2_CASE(name) {                                               \
    T2_TICK();                                                  \
    const std::uint64_t addr = T2_GADDR(d->a, d->imm);          \
    if (m.hook) (*m.hook)(addr, 4, false);                      \
    r[d->d].set_f32(m.global->read<float>(addr));               \
    T2_TICK();                                                  \
    r[d->d2].set_f32(r[d->a2].f32() op r[d->b2].f32());         \
    T2_NEXT();                                                  \
  }
  T2_LD_ARITH(ld_add_f32, +)
  T2_LD_ARITH(ld_mul_f32, *)
  T2_LD_ARITH(ld_sub_f32, -)
#undef T2_LD_ARITH
#define T2_ARITH_ST(name, op)                                   \
  T2_CASE(name) {                                               \
    T2_TICK();                                                  \
    r[d->d].set_f32(r[d->a].f32() op r[d->b].f32());            \
    T2_TICK();                                                  \
    const std::uint64_t addr = T2_GADDR(d->a2, d->imm2);        \
    if (m.hook) (*m.hook)(addr, 4, true);                       \
    m.global->write<float>(addr, r[d->b2].f32());               \
    T2_NEXT();                                                  \
  }
  T2_ARITH_ST(add_st_f32, +)
  T2_ARITH_ST(mul_st_f32, *)
  T2_ARITH_ST(sub_st_f32, -)
#undef T2_ARITH_ST
  T2_CASE(fma_st_f32) {
    T2_TICK();
    r[d->d].set_f32(std::fma(r[d->a].f32(), r[d->b].f32(), r[d->c].f32()));
    T2_TICK();
    const std::uint64_t addr = T2_GADDR(d->a2, d->imm2);
    if (m.hook) (*m.hook)(addr, 4, true);
    m.global->write<float>(addr, r[d->b2].f32());
    T2_NEXT();
  }
  T2_CASE(mul_add_f32) {
    // Two separate roundings through set_f32's bit_cast — never an fma.
    T2_TICK();
    r[d->d].set_f32(r[d->a].f32() * r[d->b].f32());
    T2_TICK();
    r[d->d2].set_f32(r[d->a2].f32() + r[d->b2].f32());
    T2_NEXT();
  }

  T2_END()

#undef T2_LD_GLOBAL
#undef T2_ST_GLOBAL
#undef T2_LD_SHARED
#undef T2_ST_SHARED
#undef T2_SIMPLE
#undef T2_GADDR
#undef T2_TAKE
#undef T2_NEXT
#undef T2_TICK
#undef T2_CASE
#undef T2_GO
#undef T2_END
}

}  // namespace

void run_tier2_block(const Tier2Program& prog2, const KernelIR& ir, const LaunchDims& dims,
                     const KernelArgs& args, AddressSpace& global, const MemAccessHook* hook,
                     std::uint64_t max_instrs_per_thread, Tier2Arena& arena,
                     DynamicProfile& profile, std::uint32_t ctaid_x, std::uint32_t ctaid_y) {
  const auto nthreads = static_cast<std::uint32_t>(dims.threads_per_block());

  arena.threads.resize(nthreads);
  arena.slab.assign(static_cast<std::size_t>(prog2.num_regs) * prog2.lane_stride, RegValue{});
  arena.shared.assign(ir.shared_bytes, 0);

  T2Ctx m;
  m.code = prog2.code.data();
  m.dims = dims;
  m.argv = args.values.data();
  m.argc = args.values.size();
  m.global = &global;
  m.hook = hook;
  m.block_visits = profile.block_visits.data();
  m.shared = arena.shared.data();
  m.shared_size = arena.shared.size();
  m.ctaid_x = ctaid_x;
  m.ctaid_y = ctaid_y;
  m.ir = &ir;
  m.slab = arena.slab.data();

  for (std::uint32_t ty = 0; ty < dims.block_y; ++ty) {
    for (std::uint32_t tx = 0; tx < dims.block_x; ++tx) {
      const std::uint32_t lane = ty * dims.block_x + tx;
      T2Thread& t = arena.threads[lane];
      t.pc = 0;
      t.lane = lane;
      t.tid_x = tx;
      t.tid_y = ty;
      t.done = false;
      t.at_barrier = false;
      t.instrs_executed = 0;
      ++m.block_visits[0];  // λ of the entry block, one per thread
    }
  }

  // Vector phase: run the pure-register prologue for all lanes at once, then
  // park every thread right after it with the budget charged. Skipped when
  // the budget could expire inside the prologue — the scalar code contains
  // the prologue instructions too, so starting from pc 0 reproduces the
  // reference's budget exhaustion exactly.
  if (!prog2.prologue.empty() && max_instrs_per_thread >= prog2.prologue.size()) {
    run_vec_prologue(m, prog2.prologue, nthreads, arena.threads.data());
    for (T2Thread& t : arena.threads) {
      t.pc = prog2.scalar_entry_pc;
      t.instrs_executed = prog2.prologue.size();
    }
  }

  // Barrier-phase scheduling, identical to run_decoded_block: a barrier
  // releases once every non-retired thread is parked at it (CUDA's
  // exited-thread rule).
  while (true) {
    for (T2Thread& t : arena.threads) {
      if (t.done || t.at_barrier) continue;
      run_t2_thread(m, t, max_instrs_per_thread);
    }
    std::size_t waiting = 0;
    for (const T2Thread& t : arena.threads) {
      if (t.at_barrier) ++waiting;
    }
    if (waiting == 0) break;
    for (T2Thread& t : arena.threads) t.at_barrier = false;
    ++profile.barriers_waited;
  }
}

void check_tier_divergence(const KernelIR& ir, const DynamicProfile& ref,
                           const DynamicProfile& got, const AddressSpace& ref_mem,
                           const AddressSpace& got_mem) {
  const auto fail = [&](const std::string& what) {
    throw ContractError("SIGVP_TIER_VERIFY: kernel '" + ir.name +
                        "' diverged between the engine and the reference — " + what);
  };
  if (got.block_visits != ref.block_visits) fail("block_visits (λ) mismatch");
  if (got.instr_counts.counts != ref.instr_counts.counts) {
    fail("per-class instruction counts mismatch");
  }
  if (got.global_load_bytes != ref.global_load_bytes) fail("global_load_bytes mismatch");
  if (got.global_store_bytes != ref.global_store_bytes) fail("global_store_bytes mismatch");
  if (got.barriers_waited != ref.barriers_waited) fail("barriers_waited mismatch");
  if (got.sfu_instrs != ref.sfu_instrs) fail("sfu_instrs mismatch");
  if (got.sqrt_instrs != ref.sqrt_instrs) fail("sqrt_instrs mismatch");
  if (got_mem.size() != ref_mem.size()) fail("address-space size mismatch");
  constexpr std::uint64_t kWindow = 1u << 20;
  for (std::uint64_t off = 0; off < got_mem.size(); off += kWindow) {
    const std::uint64_t len = std::min<std::uint64_t>(kWindow, got_mem.size() - off);
    if (got_mem.hash_range(off, len, kMemHashSeed) !=
        ref_mem.hash_range(off, len, kMemHashSeed)) {
      fail("memory mismatch in window [" + std::to_string(off) + ", " +
           std::to_string(off + len) + ")");
    }
  }
}

}  // namespace interp_detail

// ---------------------------------------------------------------------------
// Tier2Engine
// ---------------------------------------------------------------------------

namespace {

unsigned stride_shift_for(std::uint64_t threads_per_block) {
  unsigned s = 0;
  while ((1ull << s) < threads_per_block) ++s;
  return s;
}

}  // namespace

Tier2Engine::Tier2Engine() {
  if (const char* v = std::getenv("SIGVP_TIER_VERIFY")) {
    if (v[0] != '\0' && !(v[0] == '0' && v[1] == '\0')) {
      verify_.store(true, std::memory_order_relaxed);
    }
  }
}

Tier2Engine& Tier2Engine::instance() {
  static Tier2Engine engine;
  return engine;
}

Tier2Stats Tier2Engine::stats() const {
  Tier2Stats s;
  s.launches_tier2 = launches_.load(std::memory_order_relaxed);
  s.compiles = compiles_.load(std::memory_order_relaxed);
  s.fused_superinsts = fused_superinsts_.load(std::memory_order_relaxed);
  s.verify_launches = verify_launches_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  s.lowered_entries = programs_.size();
  return s;
}

void Tier2Engine::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  programs_.clear();
  fifo_.clear();
  fifo_head_ = 0;
  cur_bytes_ = 0;
  launches_.store(0, std::memory_order_relaxed);
  compiles_.store(0, std::memory_order_relaxed);
  fused_superinsts_.store(0, std::memory_order_relaxed);
  verify_launches_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

std::shared_ptr<const interp_detail::Tier2Program> Tier2Engine::program(
    const KernelIR& ir, std::uint64_t threads_per_block) {
  launches_.fetch_add(1, std::memory_order_relaxed);
  const Key key{&ir, stride_shift_for(threads_per_block)};
  const std::uint64_t fp = interp_detail::kernel_fingerprint(ir);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = programs_.find(key);
    if (it != programs_.end() && it->second->fingerprint == fp) return it->second;
  }
  // Lower outside the lock: concurrent launches of distinct kernels lower in
  // parallel. Lowering is deterministic, so a rare duplicate lowering of the
  // same kernel is identical work; only the unique insert is counted.
  trace::Tracer* tracer = trace::Tracer::active();
  const double host_t0 = tracer != nullptr ? tracer->host_now_us() : 0.0;
  std::shared_ptr<const interp_detail::Tier2Program> prog =
      interp_detail::lower_program(ir, key.second);

  std::lock_guard<std::mutex> lock(mutex_);
  auto it = programs_.find(key);
  if (it != programs_.end()) {
    if (it->second->fingerprint == fp) return it->second;  // lost the race
    // Stale fingerprint: replace in place, keeping the key's original FIFO
    // position so eviction order stays a function of first insertion.
    cur_bytes_ -= it->second->mem_bytes();
    it->second = prog;
  } else {
    programs_.emplace(key, prog);
    fifo_.push_back(key);
  }
  cur_bytes_ += prog->mem_bytes();
  compiles_.fetch_add(1, std::memory_order_relaxed);
  fused_superinsts_.fetch_add(prog->fused_pairs, std::memory_order_relaxed);
  if (tracer != nullptr) {
    tracer->complete(tracer->host_pid(), tracer->host_tid(), "tier2", "lower:" + ir.name,
                     host_t0, tracer->host_now_us() - host_t0,
                     {trace::arg("fused", static_cast<int>(prog->fused_pairs)),
                      trace::arg("instrs", static_cast<int>(prog->code.size()))});
  }
  while (programs_.size() > kMaxEntries || cur_bytes_ > kMaxBytes) {
    if (fifo_head_ >= fifo_.size()) break;  // invariant: never reached
    auto victim = programs_.find(fifo_[fifo_head_++]);
    if (victim != programs_.end()) {
      cur_bytes_ -= victim->second->mem_bytes();
      programs_.erase(victim);
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Amortized compaction of the consumed FIFO prefix.
  if (fifo_head_ > 64 && fifo_head_ * 2 > fifo_.size()) {
    fifo_.erase(fifo_.begin(), fifo_.begin() + static_cast<std::ptrdiff_t>(fifo_head_));
    fifo_head_ = 0;
  }
  return prog;
}

}  // namespace sigvp
