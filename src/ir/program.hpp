#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/instr_class.hpp"
#include "ir/opcode.hpp"

namespace sigvp {

/// One IR instruction. Field meaning depends on the opcode:
///  - dst/src0/src1/src2: register indices;
///  - imm: integer immediate, kernel-parameter index, SpecialReg value,
///    branch-target block index, or byte offset for memory ops;
///  - fimm: floating-point immediate for kMovImmF32/kMovImmF64.
struct Instr {
  Opcode op = Opcode::kNop;
  std::uint8_t dst = 0;
  std::uint8_t src0 = 0;
  std::uint8_t src1 = 0;
  std::uint8_t src2 = 0;
  std::int64_t imm = 0;
  double fimm = 0.0;
};

/// A basic block: straight-line code ending in exactly one terminator
/// (kJmp / kBraZ / kBraNZ / kRet). Conditional terminators fall through to
/// the lexically next block when the branch is not taken.
///
/// Blocks are the paper's unit of profiling: λ_b counts block executions and
/// µ{b,i} counts static instructions of class i in block b (Eq. 1, Fig. 8).
struct BasicBlock {
  std::string label;
  std::vector<Instr> instrs;

  /// Static per-class instruction histogram µ_b of this block.
  ClassCounts static_counts() const;
};

/// A complete kernel program in the IR.
///
/// The same KernelIR object runs unmodified on all execution paths
/// (GPU-emulation-on-VP, the host GPU device model, and ΣVP multiplexing) —
/// this is the repository's stand-in for the paper's binary compatibility.
struct KernelIR {
  std::string name;
  std::uint32_t num_params = 0;
  std::uint32_t num_regs = 0;
  std::uint32_t shared_bytes = 0;
  std::vector<BasicBlock> blocks;  // block 0 is the entry block

  /// Static per-class totals over all blocks.
  ClassCounts static_counts() const;

  /// Total static instruction count.
  std::uint64_t static_size() const;
};

}  // namespace sigvp
