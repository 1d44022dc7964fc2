#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/program.hpp"

namespace sigvp {

/// Fluent construction of KernelIR programs.
///
/// The builder plays the role of the CUDA-C compiler front-end in this
/// reproduction: workload kernels are written against it and the result is
/// the "binary" every execution path consumes. Branch targets are symbolic
/// labels resolved (and the whole program validated) in build().
///
/// Example — vectorAdd:
///   KernelBuilder b("vectorAdd", /*num_params=*/4);
///   auto [a, c, n] = ...;  // registers via b.reg()
///   b.block("entry");
///   ... b.ld_param(a, 0); ...
///   b.ret();
///   KernelIR ir = b.build();
class KernelBuilder {
 public:
  using Reg = std::uint8_t;

  KernelBuilder(std::string name, std::uint32_t num_params);

  /// Allocates a fresh register (at most 255 per kernel).
  Reg reg();

  /// Declares per-block shared-memory usage in bytes.
  void set_shared_bytes(std::uint32_t bytes);

  /// Starts a new basic block with a unique label. The first block created
  /// is the kernel entry. The previous block must already be terminated.
  void block(const std::string& label);

  // --- data movement -------------------------------------------------------
  void mov_imm_i(Reg dst, std::int64_t value);
  void mov_imm_f32(Reg dst, float value);
  void mov_imm_f64(Reg dst, double value);
  void mov(Reg dst, Reg src);
  void special(Reg dst, SpecialReg sr);
  void ld_param(Reg dst, std::uint32_t param_index);
  void select(Reg dst, Reg cond, Reg if_true, Reg if_false);

  // --- integer -------------------------------------------------------------
  void add_i(Reg dst, Reg a, Reg b);
  void sub_i(Reg dst, Reg a, Reg b);
  void mul_i(Reg dst, Reg a, Reg b);
  void div_i(Reg dst, Reg a, Reg b);
  void rem_i(Reg dst, Reg a, Reg b);
  void min_i(Reg dst, Reg a, Reg b);
  void max_i(Reg dst, Reg a, Reg b);
  void neg_i(Reg dst, Reg a);
  void abs_i(Reg dst, Reg a);
  void set_lt_i(Reg dst, Reg a, Reg b);
  void set_le_i(Reg dst, Reg a, Reg b);
  void set_eq_i(Reg dst, Reg a, Reg b);
  void set_ne_i(Reg dst, Reg a, Reg b);
  void set_gt_i(Reg dst, Reg a, Reg b);
  void set_ge_i(Reg dst, Reg a, Reg b);
  void cvt_f32_to_i(Reg dst, Reg a);
  void cvt_f64_to_i(Reg dst, Reg a);

  // --- bit -----------------------------------------------------------------
  void and_b(Reg dst, Reg a, Reg b);
  void or_b(Reg dst, Reg a, Reg b);
  void xor_b(Reg dst, Reg a, Reg b);
  void not_b(Reg dst, Reg a);
  void shl_b(Reg dst, Reg a, Reg b);
  void shr_b(Reg dst, Reg a, Reg b);
  void shr_a(Reg dst, Reg a, Reg b);

  // --- fp32 ----------------------------------------------------------------
  void add_f32(Reg dst, Reg a, Reg b);
  void sub_f32(Reg dst, Reg a, Reg b);
  void mul_f32(Reg dst, Reg a, Reg b);
  void div_f32(Reg dst, Reg a, Reg b);
  void fma_f32(Reg dst, Reg a, Reg b, Reg c);  // dst = a*b + c
  void sqrt_f32(Reg dst, Reg a);
  void rsqrt_f32(Reg dst, Reg a);
  void exp_f32(Reg dst, Reg a);
  void log_f32(Reg dst, Reg a);
  void sin_f32(Reg dst, Reg a);
  void cos_f32(Reg dst, Reg a);
  void min_f32(Reg dst, Reg a, Reg b);
  void max_f32(Reg dst, Reg a, Reg b);
  void abs_f32(Reg dst, Reg a);
  void neg_f32(Reg dst, Reg a);
  void floor_f32(Reg dst, Reg a);
  void set_lt_f32(Reg dst, Reg a, Reg b);
  void set_le_f32(Reg dst, Reg a, Reg b);
  void set_eq_f32(Reg dst, Reg a, Reg b);
  void set_gt_f32(Reg dst, Reg a, Reg b);
  void set_ge_f32(Reg dst, Reg a, Reg b);
  void cvt_i_to_f32(Reg dst, Reg a);
  void cvt_f64_to_f32(Reg dst, Reg a);

  // --- fp64 ----------------------------------------------------------------
  void add_f64(Reg dst, Reg a, Reg b);
  void sub_f64(Reg dst, Reg a, Reg b);
  void mul_f64(Reg dst, Reg a, Reg b);
  void div_f64(Reg dst, Reg a, Reg b);
  void fma_f64(Reg dst, Reg a, Reg b, Reg c);
  void sqrt_f64(Reg dst, Reg a);
  void exp_f64(Reg dst, Reg a);
  void log_f64(Reg dst, Reg a);
  void sin_f64(Reg dst, Reg a);
  void cos_f64(Reg dst, Reg a);
  void min_f64(Reg dst, Reg a, Reg b);
  void max_f64(Reg dst, Reg a, Reg b);
  void abs_f64(Reg dst, Reg a);
  void neg_f64(Reg dst, Reg a);
  void floor_f64(Reg dst, Reg a);
  void set_lt_f64(Reg dst, Reg a, Reg b);
  void set_le_f64(Reg dst, Reg a, Reg b);
  void set_eq_f64(Reg dst, Reg a, Reg b);
  void set_gt_f64(Reg dst, Reg a, Reg b);
  void set_ge_f64(Reg dst, Reg a, Reg b);
  void cvt_i_to_f64(Reg dst, Reg a);
  void cvt_f32_to_f64(Reg dst, Reg a);

  // --- control flow --------------------------------------------------------
  void jmp(const std::string& label);
  void bra_z(Reg cond, const std::string& label);
  void bra_nz(Reg cond, const std::string& label);
  void ret();
  void bar();

  // --- memory (byte address = regs[addr] + offset) --------------------------
  void ld_global_f32(Reg dst, Reg addr, std::int64_t offset = 0);
  void ld_global_f64(Reg dst, Reg addr, std::int64_t offset = 0);
  void ld_global_i32(Reg dst, Reg addr, std::int64_t offset = 0);
  void ld_global_i64(Reg dst, Reg addr, std::int64_t offset = 0);
  void ld_global_u8(Reg dst, Reg addr, std::int64_t offset = 0);
  void st_global_f32(Reg value, Reg addr, std::int64_t offset = 0);
  void st_global_f64(Reg value, Reg addr, std::int64_t offset = 0);
  void st_global_i32(Reg value, Reg addr, std::int64_t offset = 0);
  void st_global_i64(Reg value, Reg addr, std::int64_t offset = 0);
  void st_global_u8(Reg value, Reg addr, std::int64_t offset = 0);
  /// Atomic add of `value` to the global cell; `dst` receives the old value.
  void atom_add_global_i64(Reg dst, Reg value, Reg addr, std::int64_t offset = 0);
  void atom_add_global_f32(Reg dst, Reg value, Reg addr, std::int64_t offset = 0);
  void ld_shared_f32(Reg dst, Reg addr, std::int64_t offset = 0);
  void ld_shared_f64(Reg dst, Reg addr, std::int64_t offset = 0);
  void ld_shared_i64(Reg dst, Reg addr, std::int64_t offset = 0);
  void st_shared_f32(Reg value, Reg addr, std::int64_t offset = 0);
  void st_shared_f64(Reg value, Reg addr, std::int64_t offset = 0);
  void st_shared_i64(Reg value, Reg addr, std::int64_t offset = 0);

  // --- composites ----------------------------------------------------------

  /// dst = base + (index << log2_elem_size); emits one Bit + one Int op,
  /// matching the address math a real compiler generates.
  void addr_of(Reg dst, Reg base, Reg index, int log2_elem_size);

  /// Structured counted loop. The caller initializes `counter`, `bound`
  /// and `step` beforehand. loop_begin terminates the current block; the
  /// loop body starts immediately after it; loop_end jumps back to the
  /// header and opens the exit block.
  struct Loop {
    Reg counter;
    Reg bound;
    Reg step;
    Reg cond;
    std::string head;
    std::string exit;
  };
  Loop loop_begin(Reg counter, Reg bound, Reg step, const std::string& name);
  void loop_end(const Loop& loop);

  /// Finalizes the program: resolves labels, runs the validator, and
  /// returns the immutable IR. The builder must not be reused afterwards.
  KernelIR build();

 private:
  struct PendingBranch {
    std::size_t block;
    std::size_t instr;
    std::string label;
  };

  BasicBlock& current();
  void emit(Instr instr);
  void emit_store(Opcode op, Reg value, Reg addr, std::int64_t offset);
  void emit_load(Opcode op, Reg dst, Reg addr, std::int64_t offset);

  KernelIR ir_;
  std::map<std::string, std::size_t> label_to_block_;
  std::vector<PendingBranch> pending_;
  std::uint32_t next_reg_ = 0;
  bool built_ = false;
};

}  // namespace sigvp
