// Intermediate representation layer (paper §3.4).
//
// A Kernel is a loop nest over the block interior with a static-single-
// assignment body: temporaries (Symbols, assigned exactly once) followed by
// field stores. Construction from the stencil representation performs
//   * global CSE across all assignments,
//   * loop-invariant classification: every temporary gets the innermost
//     loop level it genuinely depends on. With the fixed zyx loop order
//     (x innermost, matching the fzyx memory layout), subexpressions that
//     depend only on the z coordinate and time — the analytic temperature
//     T(z, t) of the paper — are hoisted out of the two inner loops,
//   * parameter discovery: free symbols become runtime scalar arguments.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "pfc/fd/stencil.hpp"

namespace pfc::ir {

/// Loop level a computation lives at. Loop order is fixed as z (outermost),
/// y, x (innermost, unit stride).
enum class Level : int {
  Invariant = -1,  ///< computed once per kernel launch
  PerZ = 2,        ///< once per z iteration
  PerY = 1,        ///< once per (z, y) iteration
  Body = 0,        ///< per cell
};

struct ScheduledAssignment {
  fd::Assignment assign;
  Level level = Level::Body;
};

struct BuildOptions {
  bool cse = true;
  bool hoist_invariants = true;
  int dims = 3;
};

class Kernel {
 public:
  std::string name;
  int dims = 3;
  std::array<int, 3> extent_plus{0, 0, 0};

  /// All assignments in execution order; temps before their uses. The
  /// backends emit each at its loop level.
  std::vector<ScheduledAssignment> body;

  /// Deterministic argument order for the generated function.
  std::vector<FieldPtr> fields;        ///< union of reads and writes
  std::vector<sym::Expr> scalar_params;  ///< free symbols (excl. builtins)

  std::vector<FieldPtr> reads, writes;

  /// True if any expression references the time-step counter or time symbol
  /// (fluctuations, analytic temperature).
  bool uses_time = false;

  /// Per-dimension: true if any expression references that loop coordinate
  /// (Philox counters, analytic T(z)). The emitters materialize the
  /// int→double coordinate conversions only when these are set.
  std::array<bool, 3> uses_coord{false, false, false};

  /// Positions (body indices) of modelled __threadfence() barriers inserted
  /// by the GPU register transformations; consumed by the GPU perf model.
  std::vector<std::size_t> fence_positions;

  /// Ghost layers this kernel requires.
  std::array<int, 3> access_radius() const;

  /// Assignments at a given level, in order.
  std::vector<const ScheduledAssignment*> at_level(Level l) const;

  /// Number of temporaries (Symbol lhs) in the body.
  std::size_t num_temps() const;
};

/// Lowers a stencil kernel into the IR.
Kernel build_kernel(const fd::StencilKernel& sk, const BuildOptions& opts = {});

/// The level build_kernel gives a temp defined as `e`: the innermost loop
/// whose coordinate `e` depends on, where `temps` holds the level of each
/// temp it reads (field accesses and Philox draws are per cell).
Level level_of(const sym::Expr& e, int dims,
               const std::unordered_map<std::string, Level>& temps);

}  // namespace pfc::ir
