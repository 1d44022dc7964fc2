#pragma once

#include <cstdint>
#include <string>

#include "ir/program.hpp"

namespace sigvp {

/// Outcome of the translation-invariance proof: which kernel parameters are
/// device pointers, or why the kernel cannot be relocated.
struct PointerParams {
  std::uint64_t mask = 0;  // bit i set: parameter i is a pointer (0 when refused)
  std::string refusal;     // empty when the proof holds

  bool proved() const { return refusal.empty(); }
};

/// Proves that a launch of `ir` commutes with a common shift δ of its
/// pointer arguments: run with every pointer argument moved by δ over memory
/// moved by δ, the kernel takes the same branches, reads and writes the same
/// values, and touches exactly the addresses of the original run plus δ.
/// The launch cache relies on it to serve one VP's launch from another's
/// (DESIGN.md §11).
///
/// A pointer parameter is one whose value reaches a global address operand.
/// Values derived from a pointer ("pointer values") may flow only through
///  - mov;
///  - add.i with exactly one pointer operand;
///  - sub.i whose subtrahend is not a pointer;
///  - select with a non-pointer condition and two pointer arms;
/// and then only into the address (src0) of a global load, store or atomic.
/// Every other use refuses the kernel with a reason: comparing, scaling or
/// branching on a pointer, pointers in shared memory, storing a pointer as a
/// value, adding two pointers, a global address with no pointer base, a
/// live value of the other kind in a pointer register, or a pointer
/// register that may be read before it is written (registers start at
/// zero).
///
/// The analysis is flow-insensitive over registers (one kind per register)
/// and reads each opcode's real operand count (`source_count`), since unused
/// `src*` fields alias register 0. A refused kernel has an empty mask.
PointerParams prove_translation_invariant(const KernelIR& ir);

}  // namespace sigvp
