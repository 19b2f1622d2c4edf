// Binding of runtime arrays to kernel arguments, validation, threaded slab
// dispatch and the face-once tile runner — shared by the JIT and
// interpreter backends.
#pragma once

#include <cstdint>
#include <functional>
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

/// Splits the outer loop of `box` (dim dims - 1) into slabs and calls
/// launch(lo, hi) for each: once when `pool` is null, has one worker or the
/// box has fewer than two rows; on worker w's plan->slab when `plan` is set;
/// else in parallel_for chunks rounded to `align` rows.
void for_each_slab(const CellRange& box, int dims, ThreadPool* pool,
                   const SlabPlan* plan, long long align,
                   const std::function<void(long long, long long)>& launch);

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

/// A full kernel's face-once plan (DESIGN.md §5d): the PDE's split form
/// standing in for the recompute body. The face passes (the staggered-flux
/// kernels, one per axis) fill a per-thread window of the flux, T + 1 outer
/// rows deep; the cell pass reads the window and stores what the full
/// kernel stores. The full kernel keeps its contract: a launch marshals
/// the full kernel's binding and maps every pass argument onto it.
struct FaceOnce {
  /// Face passes, then the cell pass.
  std::vector<ir::Kernel> passes;
  /// Per pass: the axis its faces lie across (the dim its iteration box
  /// grows by one along), -1 for the cell pass.
  std::vector<int> axis;
  /// Per pass and pass field: that field's position in the full kernel's
  /// fields, or -1 for the window.
  std::vector<std::vector<int>> fields;
  /// Per pass and scalar parameter: its position in the full kernel's.
  std::vector<std::vector<int>> params;
  int flux_components = 0;

  bool empty() const { return passes.empty(); }
};

/// The face-once plan of `full` from its split form: fd::discretize's
/// staggered kernels, each storing `flux` at the lower face of its cells
/// along its axis, then its main kernel, reading the flux at offset 0 and
/// one face up. Empty when `full` is 1-D, has an extent, or does not bind
/// every field and parameter the split form reads, or when the split form
/// is not face passes of unit extent followed by one cell pass.
FaceOnce make_face_once(const ir::Kernel& full, std::vector<ir::Kernel> split,
                        const FieldPtr& flux);

/// Runs pass `i` of a face-once plan over `box` on the calling thread, with
/// the pass's own raw arguments and scalar parameters.
using PassFn = std::function<void(std::size_t i, const RawArgs& raw,
                                  const double* params,
                                  const CellRange& box)>;

/// One face-once launch of `full`: the binding, box, pool, dispatch and
/// trace semantics of run_compiled. Each slab runs tile by tile, T outer
/// rows at a time: the face passes fill the executing thread's window
/// (the outer-axis faces of rows [a, b], the other faces of rows [a, b)),
/// then the cell pass reads it. A tile's top face row is the next tile's
/// bottom one; consecutive tiles walk the window in opposite directions,
/// so that row stays where it is and is not recomputed. `tile_rows` is T;
/// <= 0 sizes it to the rows whose window fits in half the per-core L2
/// (support::Topology::l2_bytes), at least 1. Every face value is computed
/// by the same pass code as in the split pair, so results equal the split
/// pair with a whole-block flux array bit for bit at every T.
void run_face_once(const ir::Kernel& full, const FaceOnce& fo,
                   const PassFn& pass, const Binding& b,
                   const std::array<long long, 3>& n, long long t_step,
                   ThreadPool* pool = nullptr,
                   obs::TraceRecorder* tracer = nullptr,
                   const CellRange* range = nullptr,
                   const SlabPlan* plan = nullptr,
                   const ReadRanges* reads = nullptr,
                   long long tile_rows = 0);

}  // namespace pfc::backend
