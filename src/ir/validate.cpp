#include "ir/validate.hpp"

#include <string>

#include "util/check.hpp"

namespace sigvp {

namespace {

void check_regs(const KernelIR& ir, const Instr& in, const std::string& where) {
  const auto nr = ir.num_regs;
  auto check = [&](std::uint8_t r, const char* slot) {
    SIGVP_REQUIRE(r < nr || nr == 0,
                  "register " + std::string(slot) + "=" + std::to_string(r) +
                      " out of range in " + where);
  };
  // Not every slot is meaningful for every opcode, but unused slots are
  // zero-initialized by the builder, so a uniform check stays sound.
  check(in.dst, "dst");
  check(in.src0, "src0");
  check(in.src1, "src1");
  check(in.src2, "src2");
}

}  // namespace

void validate_kernel(const KernelIR& ir) {
  SIGVP_REQUIRE(!ir.name.empty(), "kernel must be named");
  SIGVP_REQUIRE(!ir.blocks.empty(), "kernel must have at least one block");

  for (std::size_t bi = 0; bi < ir.blocks.size(); ++bi) {
    const BasicBlock& b = ir.blocks[bi];
    const std::string where = ir.name + "/" + b.label;
    SIGVP_REQUIRE(!b.instrs.empty(), "empty block " + where);

    for (std::size_t ii = 0; ii < b.instrs.size(); ++ii) {
      const Instr& in = b.instrs[ii];
      SIGVP_REQUIRE(static_cast<std::size_t>(in.op) < kOpcodeCount,
                    "unknown opcode " + std::to_string(static_cast<int>(in.op)) + " in " + where);
      const bool last = (ii + 1 == b.instrs.size());

      if (is_terminator(in.op)) {
        SIGVP_REQUIRE(last, "terminator mid-block in " + where);
      } else {
        SIGVP_REQUIRE(!last, "block " + where + " does not end with a terminator");
      }

      if (is_branch_with_target(in.op)) {
        SIGVP_REQUIRE(in.imm >= 0 && static_cast<std::size_t>(in.imm) < ir.blocks.size(),
                      "branch target out of range in " + where);
        if (in.op != Opcode::kJmp) {
          // Conditional terminators fall through to the lexically next block.
          SIGVP_REQUIRE(bi + 1 < ir.blocks.size(),
                        "conditional terminator in the final block " + where);
        }
      }

      if (in.op == Opcode::kLdParam) {
        SIGVP_REQUIRE(in.imm >= 0 && static_cast<std::uint32_t>(in.imm) < ir.num_params,
                      "parameter index out of range in " + where);
      }

      if (is_shared_memory_op(in.op)) {
        SIGVP_REQUIRE(ir.shared_bytes > 0,
                      "shared-memory access without shared_bytes in " + where);
      }

      check_regs(ir, in, where);
    }
  }
}

}  // namespace sigvp
