// Binding of runtime arrays to kernel arguments, validation, and threaded
// slab dispatch — shared by the JIT and interpreter backends.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "pfc/backend/codegen_common.hpp"
#include "pfc/field/array.hpp"
#include "pfc/obs/trace.hpp"
#include "pfc/support/thread_pool.hpp"

namespace pfc::backend {

/// Runtime arguments of one kernel launch. `arrays` must match
/// kernel.fields order; `params` must match kernel.scalar_params order.
struct Binding {
  std::vector<Array*> arrays;
  std::vector<double> params;
  /// Global cell offset of this block (coordinates/RNG counters become
  /// global when blocks tile a distributed domain).
  std::array<long long, 3> block_offset{0, 0, 0};
};

/// Marshalled raw arguments in the generated-code ABI.
struct RawArgs {
  std::vector<double*> fields;
  std::vector<long long> strides;  // 4 per field
  std::array<long long, 3> n{1, 1, 1};
  std::array<long long, 3> block_off{0, 0, 0};
};

/// Half-open iteration sub-box [lo, hi) in kernel loop coordinates (same
/// coordinates as the generated loop nest: 0..n+extent_plus per used dim,
/// [0, 1) on unused dims). Used by the driver to run the interior/frontier
/// decomposition that hides ghost exchange.
struct CellRange {
  std::array<long long, 3> lo{0, 0, 0};
  std::array<long long, 3> hi{1, 1, 1};
  long long cells() const {
    long long c = 1;
    for (int d = 0; d < 3; ++d) {
      const long long e = hi[std::size_t(d)] - lo[std::size_t(d)];
      if (e <= 0) return 0;
      c *= e;
    }
    return c;
  }
};

/// The full iteration box of `k` over a block interior of size `n`.
CellRange full_range(const ir::Kernel& k, const std::array<long long, 3>& n);

/// Per-dim signed offset range over all reads of one field.
struct OffsetRange {
  std::array<int, 3> lo{0, 0, 0}, hi{0, 0, 0};
};

/// Per-field read-offset ranges of one kernel, keyed by field id.
using ReadRanges = std::unordered_map<std::uint64_t, OffsetRange>;

/// Exact per-field read-offset ranges of a kernel. The same analysis
/// marshal() uses for ghost validation; the driver derives frontier
/// widths from it. It walks every assignment's expression tree,
/// so callers that launch a kernel repeatedly compute it once.
ReadRanges read_offset_ranges(const ir::Kernel& k);

/// Validates shapes/ghost layers against the kernel's needs and marshals.
/// `n` is the block interior size in cells (the cell lattice; staggered
/// arrays must be allocated with interior n + extent_plus). `reads` is
/// read_offset_ranges(k) computed ahead (nullptr = analyze k now); every
/// check runs on every call either way.
RawArgs marshal(const ir::Kernel& k, const Binding& b,
                const std::array<long long, 3>& n,
                const ReadRanges* reads = nullptr);

/// Runs a compiled kernel over the block, splitting the outermost used loop
/// across `pool` (nullptr = serial). When `tracer` is non-null each slab
/// launch records a span from its executing thread (category "slab"), so
/// the timeline shows the per-thread work distribution under the driver's
/// kernel span. `vector_width` is the SIMD width the kernel was emitted
/// with; for 1-D kernels (where x itself is the slab-split loop) slab
/// boundaries are rounded to multiples of it, and since pfc::Array aligns
/// x = 0 those boundaries are vector-aligned addresses, so each slab runs
/// its main loop from its first cell with no peel. `range` restricts the
/// sweep to a sub-box (nullptr = full box); the emitted peel re-anchors to
/// the sub-box, and the compile line's lack of FMA contraction makes a
/// cell's bits independent of the loop body that computes it, so results
/// are bitwise identical to the monolithic sweep.
///
/// `plan` switches the outer-loop split from dynamic parallel_for chunks to
/// static ownership: worker w always executes the slab plan->slab(w, ...)
/// of the box, the same rows for every kernel launch of a step and the same
/// rows Array::first_touch_fill placed on w's NUMA node. Slab boundaries
/// and therefore results are bitwise identical either way (the plan uses
/// parallel_for's chunk math); static ownership only fixes *which worker*
/// runs each slab. Ignored when pool is null.
///
/// `reads` is handed to marshal() (nullptr = analyze k on this launch).
void run_compiled(const ir::Kernel& k, KernelFn fn, const Binding& b,
                  const std::array<long long, 3>& n, double t,
                  long long t_step, ThreadPool* pool = nullptr,
                  obs::TraceRecorder* tracer = nullptr,
                  int vector_width = 1, const CellRange* range = nullptr,
                  const SlabPlan* plan = nullptr,
                  const ReadRanges* reads = nullptr);

}  // namespace pfc::backend
