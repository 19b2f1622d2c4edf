// Explicit SIMD vectorization of the innermost (x) loop (paper §3.5,
// "C + OpenMP + SIMD"): instead of relying on the autovectorizer, the
// backend widens every Level::Body assignment to a configurable vector
// width. This header holds the planning half of the pass; the C emitter
// consumes the plan and renders vector lanes through GCC/Clang vector
// extensions.
//
// The plan classifies every value the body touches:
//   * contiguous  — FieldRef accesses; unit stride along x in the fzyx
//                   layout, rendered as (un)aligned vector loads/stores,
//   * broadcast   — scalars defined above Body level (hoisted temps,
//                   runtime parameters, y/z coordinates, time); widened
//                   once at their definition level, not per cell,
//   * lane-serial — operations with no vector form (libm
//                   transcendentals); executed per lane inside the vector
//                   body, so they do not amortize with the width. Philox
//                   is not one: it runs on integer vectors.
//
// The x loop itself is split into a scalar alignment peel (so the primary
// destination row reaches a full-vector boundary), an aligned vector main
// loop, and a scalar remainder; one scalar loop serves peel and remainder.
#pragma once

#include <utility>

#include "pfc/ir/kernel.hpp"

namespace pfc::ir {

struct VectorizeOptions {
  /// Doubles per vector: 1 (disabled), 2, 4 or 8.
  int width = 8;
  /// Use non-temporal stores for write-only destination fields (bypasses
  /// the cache hierarchy; pays off once the destination exceeds the LLC).
  bool streaming_stores = false;
};

/// True for the widths the backend can lower (power of two, at most one
/// 512-bit register of doubles).
bool vector_width_supported(int width);

/// The lowering decisions for one kernel at one width.
struct VectorPlan {
  /// Chosen width; 1 means the kernel stays scalar.
  int width = 1;
  bool enabled() const { return width > 1; }

  /// Scalars defined outside the body but read inside it, with the loop
  /// level of their definition: the emitter hoists one stride-0 broadcast
  /// (`<name>_v = set1(<name>)`) to exactly that level.
  std::vector<std::pair<sym::Expr, Level>> broadcasts;

  /// Builtin scalars the body reads directly (coordinates get an iota /
  /// broadcast vector mirror, time a function-scope broadcast).
  std::array<bool, 3> body_uses_coord{false, false, false};
  bool body_uses_time = false;
  bool body_uses_timestep = false;

  /// Indices into kernel.fields of write-only fields (never read by this
  /// kernel) — the candidates for non-temporal streaming stores.
  std::vector<std::size_t> streamed_fields;
  /// Index into kernel.fields of the first written field; the alignment
  /// peel targets its rows, so its stores use aligned (or streaming) form.
  std::size_t primary_write = std::size_t(-1);

  /// Per-cell normalized FLOPs of the scalar body (pre-widening) and the
  /// effective per-cell cost after widening: vectorizable work divides by
  /// the width, lane-serial calls do not.
  long long flops_per_cell_scalar = 0;
  double flops_per_cell_vector = 0.0;
  /// Lane-serial calls per cell (libm transcendentals).
  long long lane_serial_calls = 0;

  bool is_streamed(std::size_t field_index) const {
    for (std::size_t i : streamed_fields) {
      if (i == field_index) return true;
    }
    return false;
  }
};

/// Plans the vector lowering of `k`. Returns a scalar plan (width 1) when
/// opts.width <= 1 or the kernel writes nothing; throws pfc::Error for an
/// unsupported width.
VectorPlan plan_vectorize(const Kernel& k, const VectorizeOptions& opts);

}  // namespace pfc::ir
