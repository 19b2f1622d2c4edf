// Portable interpreter backend: compiles the IR into a flat register
// bytecode and evaluates it per cell. Slower than the JIT but has no
// external toolchain dependency; its primary role is differential testing
// (JIT vs interpreter must agree to machine precision) and running on hosts
// without a compiler.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "pfc/backend/kernel_runner.hpp"
#include "pfc/ir/kernel.hpp"

namespace pfc::backend {

class InterpreterKernel {
 public:
  explicit InterpreterKernel(const ir::Kernel& k);

  const ir::Kernel& kernel() const { return kernel_; }

  /// Executes the kernel over the block (same semantics as run_compiled,
  /// including optional sub-box `range` execution).
  void run(const Binding& b, const std::array<long long, 3>& n, double t,
           long long t_step, ThreadPool* pool = nullptr,
           const CellRange* range = nullptr) const;

  /// Virtual registers used (a crude complexity metric for tests).
  int num_registers() const { return num_regs_; }

 private:
  enum class Op : std::uint8_t {
    Const, Param, Coord, Time, TimeStep,
    Load, Store,
    Add, Mul, Div, Neg, PowInt, PowGen,
    Sqrt, RSqrt, Exp, Log, Sin, Cos, Tanh, Abs,
    Min, Max, Select, Less, Greater, LessEq, GreaterEq,
    Philox, CopyReg,
  };

  struct Instr {
    Op op;
    int dst = -1;
    int a = -1, b = -1, c = -1;
    double imm = 0.0;
    int field = -1;                 ///< Load/Store: index into kernel.fields
    std::array<int, 3> off{0, 0, 0};
    int component = 0;
    long pow_n = 0;                 ///< PowInt exponent / Coord dim / Param i
    std::array<int, 7> rng_args{};  ///< Philox operand registers
  };

  struct CompileCtx;

  int compile_expr(const sym::Expr& e, std::vector<Instr>& seg,
                   CompileCtx& ctx);

  ir::Kernel kernel_;
  ReadRanges reads_;  ///< marshal()'s read analysis, computed once
  // segments: 0 = invariant, 1 = per-z, 2 = per-y, 3 = body
  std::array<std::vector<Instr>, 4> segs_;
  int num_regs_ = 0;
};

}  // namespace pfc::backend
