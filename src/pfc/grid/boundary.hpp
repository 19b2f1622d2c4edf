// Single-block boundary handling: fills ghost layers either periodically or
// with zero-gradient (Neumann) copies of the boundary cells. The driver
// goes through ghost_exchange, which copies between blocks (a periodic
// one-block forest is its own neighbour) and uses these fills only at
// domain walls; the wavefront schedule and perfbench call them directly.
#pragma once

#include "pfc/field/array.hpp"
#include "pfc/support/enum_names.hpp"

namespace pfc::grid {

enum class BoundaryKind { Periodic, ZeroGradient };
constexpr support::EnumNames<BoundaryKind, 2> enum_names(BoundaryKind) {
  return {"boundary", {{BoundaryKind::Periodic, "periodic"},
                       {BoundaryKind::ZeroGradient, "zero_gradient"}}};
}

/// Fills all ghost layers of `a` along every used spatial dimension.
/// Axis-sequential sweeps (x, then y, then z) over the already-extended
/// range fill edge and corner ghosts without diagonal copies.
void fill_ghosts(Array& a, BoundaryKind kind);

/// Fills ghosts along a single axis (used by the ghost exchange for
/// non-periodic domain boundaries on boundary blocks).
void fill_ghosts_axis(Array& a, int axis, BoundaryKind kind,
                      bool lower = true, bool upper = true);

/// Fills ghosts along `axis` only where the coordinate along
/// `restrict_axis` (> `axis`, interior coordinates) lies in
/// [row_lo, row_hi). Writes exactly the values the full fill would for
/// those rows, so incremental row-by-row filling — the wavefront schedule
/// fills the transverse ghosts of each freshly computed row band — is
/// bitwise identical to one full sweep.
void fill_ghosts_axis_rows(Array& a, int axis, BoundaryKind kind,
                           int restrict_axis, std::int64_t row_lo,
                           std::int64_t row_hi);

/// All transverse fills of the wavefront: axes < `outer_axis` in the same
/// order fill_ghosts uses, restricted to outer rows [row_lo, row_hi).
void fill_ghosts_transverse_rows(Array& a, BoundaryKind kind, int outer_axis,
                                 std::int64_t row_lo, std::int64_t row_hi);

}  // namespace pfc::grid
