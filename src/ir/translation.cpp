#include "ir/translation.hpp"

#include <array>
#include <bit>
#include <bitset>
#include <vector>

namespace sigvp {

namespace {

using RegSet = std::bitset<256>;  // register indices are 8-bit

std::uint8_t source(const Instr& in, std::uint32_t k) {
  return k == 0 ? in.src0 : k == 1 ? in.src1 : in.src2;
}

/// Why `in` misuses a pointer value, or nullptr when every pointer use it
/// makes is one the proof allows. `ptr(r)`: register r holds pointer values.
template <class IsPtr>
const char* misuse(const Instr& in, IsPtr ptr) {
  switch (in.op) {
    case Opcode::kMov:
      return nullptr;
    case Opcode::kAddI:
      return ptr(in.src0) && ptr(in.src1) ? "adds two pointers" : nullptr;
    case Opcode::kSubI:
      return ptr(in.src1) ? "subtracts a pointer" : nullptr;
    case Opcode::kSelect:
      if (ptr(in.src0)) return "selects on a pointer";
      return ptr(in.src1) != ptr(in.src2) ? "selects between a pointer and a non-pointer"
                                          : nullptr;
    default:
      break;
  }
  if (is_global_memory_op(in.op)) {
    if (!ptr(in.src0)) return "global address with no pointer base";
    return source_count(in.op) > 1 && ptr(in.src1) ? "stores a pointer as a value" : nullptr;
  }
  bool reads_pointer = false;
  for (std::uint32_t k = 0; k < source_count(in.op); ++k) reads_pointer |= ptr(source(in, k));
  if (!reads_pointer) return nullptr;
  if (is_memory_op(in.op)) return "pointer reaches shared memory";
  if (in.op == Opcode::kBraZ || in.op == Opcode::kBraNZ) return "branches on a pointer";
  if (opcode_name(in.op).starts_with("set.")) return "compares a pointer";
  switch (in.op) {
    case Opcode::kMulI:
    case Opcode::kDivI:
    case Opcode::kShlB:
    case Opcode::kShrB:
    case Opcode::kShrA:
      return "scales a pointer";
    default:
      return "computes on a pointer";
  }
}

/// Source slots through which a pointer value passes on unchanged (plus a
/// non-pointer offset): the flows `misuse` allows.
bool carries_pointer(Opcode op, std::uint32_t slot) {
  switch (op) {
    case Opcode::kMov:
    case Opcode::kSubI:
      return slot == 0;
    case Opcode::kAddI:
      return true;
    case Opcode::kSelect:
      return slot != 0;
    default:
      return false;
  }
}

/// True when `in` writes a pointer value to its dst.
template <class IsPtr>
bool defines_pointer(const Instr& in, std::uint64_t mask, IsPtr ptr) {
  if (in.op == Opcode::kLdParam) return ((mask >> in.imm) & 1) != 0;
  for (std::uint32_t k = 0; k < source_count(in.op); ++k) {
    if (carries_pointer(in.op, k) && ptr(source(in, k))) return true;
  }
  return false;
}

/// Registers live on exit from each block (backward may analysis).
std::vector<RegSet> live_out(const KernelIR& ir) {
  const std::size_t nb = ir.blocks.size();
  std::vector<RegSet> in(nb), out(nb);
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t b = nb; b-- > 0;) {
      const Instr& last = ir.blocks[b].instrs.back();
      RegSet live;
      if (is_branch_with_target(last.op) && static_cast<std::size_t>(last.imm) < nb) {
        live |= in[static_cast<std::size_t>(last.imm)];
      }
      if (last.op != Opcode::kJmp && last.op != Opcode::kRet && b + 1 < nb) live |= in[b + 1];
      out[b] = live;
      const std::vector<Instr>& instrs = ir.blocks[b].instrs;
      for (std::size_t i = instrs.size(); i-- > 0;) {
        if (writes_register(instrs[i].op)) live.reset(instrs[i].dst);
        for (std::uint32_t k = 0; k < source_count(instrs[i].op); ++k) {
          live.set(source(instrs[i], k));
        }
      }
      if (live != in[b]) {
        in[b] = live;
        changed = true;
      }
    }
  }
  return out;
}

std::string at(const KernelIR& ir, std::size_t bi, std::size_t ii) {
  return std::string(opcode_name(ir.blocks[bi].instrs[ii].op)) + " in block '" +
         ir.blocks[bi].label + "', instr " + std::to_string(ii);
}

}  // namespace

PointerParams prove_translation_invariant(const KernelIR& ir) {
  PointerParams out;
  if (ir.num_params > 64) {
    out.refusal = "more than 64 parameters";
    return out;
  }
  for (const BasicBlock& b : ir.blocks) {
    if (b.instrs.empty()) {
      out.refusal = "empty block '" + b.label + "'";
      return out;
    }
    for (const Instr& in : b.instrs) {
      if (in.op == Opcode::kLdParam && (in.imm < 0 || in.imm >= ir.num_params)) {
        out.refusal = "parameter index out of range in block '" + b.label + "'";
        return out;
      }
    }
  }

  // The parameters each register's value may be based on, following only
  // the pointer-carrying flows (flow-insensitive fixpoint).
  std::array<std::uint64_t, 256> base{};
  for (bool changed = true; changed;) {
    changed = false;
    for (const BasicBlock& b : ir.blocks) {
      for (const Instr& in : b.instrs) {
        if (!writes_register(in.op)) continue;
        std::uint64_t t = in.op == Opcode::kLdParam ? std::uint64_t{1} << in.imm : 0;
        for (std::uint32_t k = 0; k < source_count(in.op); ++k) {
          if (carries_pointer(in.op, k)) t |= base[source(in, k)];
        }
        if ((t & ~base[in.dst]) != 0) {
          base[in.dst] |= t;
          changed = true;
        }
      }
    }
  }

  // Guess the pointer parameters; the checks below are the proof. A
  // parameter is a pointer when it is the only possible base of some global
  // address, or when it may be a base and is never used as a non-pointer
  // (compared, scaled, stored, branched on, ...): an offset added to a
  // pointer is usually also bounds-checked.
  std::uint64_t candidates = 0, sole = 0, scalar = 0;
  for (const BasicBlock& b : ir.blocks) {
    for (const Instr& in : b.instrs) {
      if (is_global_memory_op(in.op)) {
        const std::uint64_t m = base[in.src0];
        candidates |= m;
        if (std::has_single_bit(m)) sole |= m;
      }
      for (std::uint32_t k = 0; k < source_count(in.op); ++k) {
        const bool address = k == 0 && is_global_memory_op(in.op);
        if (!address && !carries_pointer(in.op, k)) scalar |= base[source(in, k)];
      }
    }
  }
  const std::uint64_t mask = sole | (candidates & ~scalar);
  auto ptr = [&](std::uint8_t r) { return (base[r] & mask) != 0; };

  auto refuse = [&](const std::string& reason) {
    out.refusal = reason;
    return out;
  };
  for (std::size_t bi = 0; bi < ir.blocks.size(); ++bi) {
    const std::vector<Instr>& instrs = ir.blocks[bi].instrs;
    for (std::size_t ii = 0; ii < instrs.size(); ++ii) {
      if (const char* why = misuse(instrs[ii], ptr)) {
        return refuse(std::string(why) + " (" + at(ir, bi, ii) + ")");
      }
    }
  }

  // A register keeps one kind wherever it is live: a def that leaves a
  // non-pointer in a pointer register is refused unless the value is dead
  // (an atomic's unused result, say). A pointer register live on entry
  // would be read while it still holds zero.
  const std::vector<RegSet> exits = live_out(ir);
  for (std::size_t bi = 0; bi < ir.blocks.size(); ++bi) {
    RegSet live = exits[bi];
    const std::vector<Instr>& instrs = ir.blocks[bi].instrs;
    for (std::size_t ii = instrs.size(); ii-- > 0;) {
      const Instr& in = instrs[ii];
      if (writes_register(in.op)) {
        if (live[in.dst] && ptr(in.dst) && !defines_pointer(in, mask, ptr)) {
          return refuse("register r" + std::to_string(in.dst) +
                        " holds pointer and non-pointer values (" + at(ir, bi, ii) + ")");
        }
        live.reset(in.dst);
      }
      for (std::uint32_t k = 0; k < source_count(in.op); ++k) live.set(source(in, k));
    }
    if (bi == 0) {
      for (std::size_t r = 0; r < live.size(); ++r) {
        if (live[r] && ptr(static_cast<std::uint8_t>(r))) {
          return refuse("pointer register r" + std::to_string(r) +
                        " may be read before it is written");
        }
      }
    }
  }
  out.mask = mask;
  return out;
}

}  // namespace sigvp
