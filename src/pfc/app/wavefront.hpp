// Temporal-blocking wavefront schedule (DESIGN.md §11): fuses the φ and µ
// sweeps of one Euler substep over outer-axis tiles so the µ sweep reads
// φ_dst while it is still cache-resident.
//
// The schedule is derived from the same read-offset analysis marshal()
// validates ghosts with (backend::read_offset_ranges), generalizing the
// frontier-width back-propagation of the distributed overlap driver to
// per-stage run-ahead intervals along the outer axis. Execution is
// race-free by construction — each worker owns a fixed row slab, cross-
// worker dependencies are precomputed in a parallel prologue and sealed by
// one barrier — and bitwise identical to the unfused reference order at
// every vector width (each stage still executes the identical sub-range
// launches the unfused path could have issued).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "pfc/app/compiler.hpp"
#include "pfc/grid/boundary.hpp"

namespace pfc::app {

/// One fused kernel launch position with its dependency geometry along the
/// outer axis. All row quantities are in that stage's iteration
/// coordinates (0 .. n + extent_plus).
struct WavefrontStage {
  const CompiledKernel* kernel = nullptr;
  /// Run-ahead interval relative to the front: when the final stage has
  /// completed rows [., b), this stage must have completed [., b + ext_hi)
  /// and owns rows shifted by ext_lo at slab boundaries.
  long long ext_lo = 0;
  long long ext_hi = 0;
  /// Domain-edge prologue strip widths: worker 0 precomputes rows
  /// [0, edge_lo), the last worker [box_hi - edge_hi, box_hi) — the rows
  /// the barrier ghost fill and the wrap-around reads need.
  long long edge_lo = 0;
  long long edge_hi = 0;
  /// Ghosted array this stage writes that later stages read (φ_dst):
  /// transverse ghosts are filled right after each row band is computed;
  /// outer-axis ghosts at the barrier. Null for the terminal stage.
  Array* ghost_fill = nullptr;
};

struct WavefrontSchedule {
  std::vector<WavefrontStage> stages;
  int outer = 2;       ///< outer axis index (dims - 1)
  long long span = 0;  ///< max (ext_hi - ext_lo): the blocking lookahead
  /// Minimum slab rows a worker needs for disjoint prologue strips; fused
  /// execution must be declined when a slab is thinner.
  long long min_slab_rows = 0;
  bool valid() const { return !stages.empty(); }
};

/// Builds the schedule for `chain` (the φ kernel, then the µ kernel).
/// `ghost` is the ghost-layer count of the ghosted arrays; `array_of`
/// resolves a written field id to its runtime array (used to attach
/// in-schedule ghost fills). Returns an invalid schedule for 1-D chains.
WavefrontSchedule build_wavefront(
    const std::vector<const CompiledKernel*>& chain, int dims, int ghost,
    const std::function<Array*(std::uint64_t)>& array_of);

/// Everything one fused substep needs.
struct WavefrontRun {
  const WavefrontSchedule* schedule = nullptr;
  /// Bindings parallel to schedule->stages.
  std::vector<backend::Binding> bindings;
  std::array<long long, 3> cells{1, 1, 1};
  double t = 0.0;
  long long t_step = 0;
  ThreadPool* pool = nullptr;  ///< null = single worker
  const SlabPlan* plan = nullptr;  ///< static ownership (required with pool)
  grid::BoundaryKind boundary = grid::BoundaryKind::Periodic;
  long long tile_rows = 1;
};

/// Executes one fused substep. Returns wall seconds per stage (max over
/// workers — the critical-path attribution the kernel timers record).
/// The caller still performs the end-of-substep full ghost fills of the
/// destination arrays and the src/dst swap.
std::vector<double> run_wavefront(const WavefrontRun& r);

}  // namespace pfc::app
