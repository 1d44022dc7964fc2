#include "ir/program.hpp"

namespace sigvp {

ClassCounts BasicBlock::static_counts() const {
  ClassCounts out;
  for (const Instr& in : instrs) {
    if (in.op == Opcode::kNop) continue;
    out[instr_class(in.op)] += 1;
  }
  return out;
}

ClassCounts KernelIR::static_counts() const {
  ClassCounts out;
  for (const BasicBlock& b : blocks) out += b.static_counts();
  return out;
}

std::uint64_t KernelIR::static_size() const {
  std::uint64_t n = 0;
  for (const BasicBlock& b : blocks) n += b.instrs.size();
  return n;
}

}  // namespace sigvp
