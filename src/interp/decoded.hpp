#pragma once

#include <cstdint>
#include <vector>

#include "interp/interpreter.hpp"
#include "interp/launch.hpp"
#include "interp/profile.hpp"
#include "ir/program.hpp"
#include "mem/address_space.hpp"

namespace sigvp::interp_detail {

struct DecodedInstr;
struct ExecContext;
struct ThreadState;

/// Specialized handler for one pre-decoded instruction. Handlers advance
/// `t.pc` themselves (branches jump, everything else increments).
using InstrFn = void (*)(ExecContext&, ThreadState&, const DecodedInstr&);

/// Flat-pc sentinel for "fallthrough past the last block" — taken paths are
/// resolved at decode time, but a conditional terminator in the lexically
/// last block has no fallthrough successor; executing that path is the same
/// "branch to nonexistent block" invariant the tree-walking interpreter
/// raised lazily, so it stays a runtime error.
inline constexpr std::uint32_t kInvalidPc = 0xFFFFFFFFu;

/// One pre-decoded instruction: a specialized handler plus widened operand
/// slots and fully resolved control-flow targets. Floating-point immediates
/// are pre-encoded into `imm` as the destination register's bit pattern, so
/// kMovImmI/kMovImmF32/kMovImmF64 all collapse into one "load constant bits"
/// handler and `fimm` disappears from the hot image entirely.
struct DecodedInstr {
  InstrFn fn = nullptr;
  std::uint16_t dst = 0;
  std::uint16_t src0 = 0;
  std::uint16_t src1 = 0;
  std::uint16_t src2 = 0;
  std::int64_t imm = 0;           // immediate bits / param index / byte offset / SpecialReg
  std::uint32_t target_pc = 0;    // flat pc of the taken branch target
  std::uint32_t target_block = 0; // block id of the taken target (λ accounting)
  std::uint32_t fall_pc = 0;      // flat pc of the not-taken successor (kInvalidPc if none)
  std::uint32_t fall_block = 0;   // block id of the not-taken successor
  Opcode op = Opcode::kNop;       // retained for scans and diagnostics
};

/// Per-block static summaries hoisted out of the execution loop. The
/// interpreter's determinism contract (DynamicProfile == λ·µ exactly, see
/// interp/profile.hpp) means every per-class/per-byte counter can be
/// reconstructed from λ after the run instead of being bumped per
/// instruction — the single biggest win of the pre-decoded design.
struct DecodedBlock {
  std::uint32_t first_pc = 0;     // flat pc of the block's first instruction
  std::uint32_t num_instrs = 0;
  ClassCounts mu;                 // static per-class counts (kNop excluded)
  std::uint64_t sfu_instrs = 0;   // exp/log/sin/cos (libm-priced)
  std::uint64_t sqrt_instrs = 0;  // sqrt/rsqrt (cheap on a CPU)
  std::uint64_t global_load_bytes = 0;
  std::uint64_t global_store_bytes = 0;
};

/// A KernelIR decoded once into the flat handler array, ready to execute.
struct DecodedProgram {
  std::vector<DecodedInstr> code;
  std::vector<DecodedBlock> blocks;
  std::uint32_t num_regs = 1;     // always >= 1 (a zero-reg kernel gets a scratch slot)
  std::uint64_t fingerprint = 0;  // structural hash used for cache invalidation
};

/// Cold error paths shared by the reference and the engine, so a launch
/// fails with the same message on both. Out of line, so the dispatch loops
/// stay branch-predictable and free of string construction.
[[noreturn]] __attribute__((noinline, cold)) void throw_budget_exhausted(const KernelIR& ir);
[[noreturn]] __attribute__((noinline, cold)) void throw_shared_oob(const KernelIR& ir);
[[noreturn]] __attribute__((noinline, cold)) void throw_div_zero(const KernelIR& ir);
[[noreturn]] __attribute__((noinline, cold)) void throw_rem_zero(const KernelIR& ir);
[[noreturn]] __attribute__((noinline, cold)) void throw_bad_param(const KernelIR& ir);
[[noreturn]] __attribute__((noinline, cold)) void throw_bad_fallthrough(const KernelIR& ir);

/// Structural fingerprint of a kernel: opcode/operand/immediate stream plus
/// the launch-relevant header fields. The kernel name is deliberately
/// excluded (renaming is not a semantic change).
std::uint64_t kernel_fingerprint(const KernelIR& ir);

/// Decodes `ir` into the flat executable form. Throws ContractError on
/// branches to nonexistent blocks (the builder/validator never emit them).
DecodedProgram decode_kernel(const KernelIR& ir);

/// Per-thread execution state. Registers live in the arena's slab, not in
/// the struct, so a block switch is a pointer rebase instead of a
/// reallocation.
struct ThreadState {
  RegValue* regs = nullptr;
  std::uint32_t pc = 0;
  bool done = false;
  bool at_barrier = false;
  std::uint32_t tid_x = 0;
  std::uint32_t tid_y = 0;
  std::uint64_t instrs_executed = 0;
};

/// Everything a handler may touch, flattened into one context block.
struct ExecContext {
  const DecodedInstr* code = nullptr;
  LaunchDims dims;
  const std::uint64_t* argv = nullptr;
  std::size_t argc = 0;
  AddressSpace* global = nullptr;
  std::uint64_t* block_visits = nullptr;
  std::uint8_t* shared = nullptr;
  std::size_t shared_size = 0;
  std::uint32_t ctaid_x = 0;
  std::uint32_t ctaid_y = 0;
  const KernelIR* ir = nullptr;  // cold paths only (error messages)
};

/// Reusable per-worker scratch: thread states, one register slab for the
/// whole block, and the shared-memory image. Blocks executed back-to-back
/// on one worker reuse the same allocations.
struct ExecArena {
  std::vector<ThreadState> threads;
  std::vector<RegValue> regs;
  std::vector<std::uint8_t> shared;
};

/// Executes one thread block `(ctaid_x, ctaid_y)` of `prog` and accumulates
/// λ/barrier counts into `profile` (which must have `block_visits` sized to
/// the kernel's block count). The reference block loop behind
/// Interpreter::run_reference: serial, hook-free, one indirect call per
/// instruction.
void run_decoded_block(const DecodedProgram& prog, const KernelIR& ir, const LaunchDims& dims,
                       const KernelArgs& args, AddressSpace& global,
                       std::uint64_t max_instrs_per_thread, ExecArena& arena,
                       DynamicProfile& profile, std::uint32_t ctaid_x, std::uint32_t ctaid_y);

}  // namespace sigvp::interp_detail
