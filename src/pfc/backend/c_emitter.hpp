// C backend (paper §3.5): renders an IR kernel into a self-contained C++
// translation unit. The generated loop nest is ordered z, y, x to match the
// fzyx layout (unit stride innermost); hoisted temporaries are emitted at
// their loop level, which is how the analytic-temperature optimization
// materializes in code. Every loop dim d runs over the caller's
// [lo[d], hi[d]) sub-box: a thread pool splits the outermost loop into
// slabs (the role OpenMP plays in the paper's generated code), and the
// driver runs disjoint interior/frontier boxes to hide ghost exchange
// behind interior compute.
//
// With vector_width > 1 the emitter consumes an ir::VectorPlan and renders
// the paper's "C + OpenMP + SIMD" form explicitly: the x loop splits into a
// scalar alignment peel, an aligned vector main loop stepping `width` cells
// through GCC/Clang vector extensions, and a scalar remainder; the scalar
// body is emitted once, in a loop that walks the peel and then the
// remainder after the vector loop. Hoisted scalars get one broadcast at
// their definition level, contiguous field accesses become vector loads,
// and write-only destinations can use non-temporal streaming stores (fenced
// before the slab returns).
#pragma once

#include <string>
#include <vector>

#include "pfc/ir/kernel.hpp"

namespace pfc::backend {

struct CEmitOptions {
  /// Use approximate fast-math forms for div/sqrt/rsqrt (paper §3.5).
  bool fast_math = false;
  /// Include the runtime preamble (Philox etc.). Disable when several
  /// kernels are emitted into one translation unit. emit_model ignores it.
  bool include_preamble = true;
  /// Emit `#pragma omp simd`-style ivdep hints on the inner loop (scalar
  /// code only; explicit vectorization needs no hint).
  bool simd_hint = true;
  /// Doubles per vector lane group: 1 emits the scalar loop, 2/4/8 emit the
  /// explicit-SIMD split loop. All kernels of one translation unit must use
  /// the same width (the vector preamble is emitted once).
  int vector_width = 1;
  /// Non-temporal stores for write-only destination fields.
  bool streaming_stores = false;
};

/// Returns the generated source. The entry point is named
/// `sanitize_identifier(kernel.name)` with the KernelFn signature declared
/// in codegen_common.hpp.
std::string emit_c(const ir::Kernel& k, const CEmitOptions& opts = {});

/// The sanitized entry-point name for a kernel.
std::string entry_name(const ir::Kernel& k);

/// A model's kernels as the JIT tiers compile them.
struct ModelSource {
  /// One translation unit per kernel, each with the preamble it needs, so
  /// the kernels compile side by side.
  std::vector<std::string> units;
  /// The same kernels as one translation unit: each emit_c output followed
  /// by a newline, the preamble only in the first. It keys the model's
  /// kernel-cache entry and is the source the compile report shows.
  std::string joined;
};

/// Emits `kernels` at one width (opts.include_preamble is ignored).
ModelSource emit_model(const std::vector<const ir::Kernel*>& kernels,
                       const CEmitOptions& opts);

}  // namespace pfc::backend
