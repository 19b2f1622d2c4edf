#include "pfc/grid/boundary.hpp"

#include <algorithm>

#include "pfc/support/assert.hpp"

namespace pfc::grid {

namespace {

/// Iterates the array range extended by ghosts in axes < `axis` (already
/// filled by earlier sweeps) and interior in axes > `axis`.
struct Range {
  std::int64_t lo[3], hi[3];
};

Range sweep_range(const Array& a, int axis) {
  Range r;
  const int g = a.ghost_layers();
  for (int d = 0; d < 3; ++d) {
    const bool used = d < a.field()->spatial_dims();
    const int gd = used ? g : 0;
    if (d < axis) {
      r.lo[d] = -gd;
      r.hi[d] = a.size()[std::size_t(d)] + gd;
    } else {
      r.lo[d] = 0;
      r.hi[d] = a.size()[std::size_t(d)];
    }
  }
  return r;
}

/// Ghost -gi takes cell n - gi (periodic) or 0, ghost n - 1 + gi takes
/// cell gi - 1 or n - 1, over the transverse range r. Along x each row
/// fills its own ends; along y and z whole x-rows are copied.
void fill_axis_over(Array& a, int axis, BoundaryKind kind, bool lower,
                    bool upper, const Range& r) {
  const int g = a.ghost_layers();
  const std::int64_t n = a.size()[std::size_t(axis)];
  const bool periodic = kind == BoundaryKind::Periodic;
  const auto lower_src = [&](int gi) { return periodic ? n - gi : 0; };
  const auto upper_src = [&](int gi) { return periodic ? gi - 1 : n - 1; };

  for (int c = 0; c < a.components(); ++c) {
    if (axis == 0) {
      for (std::int64_t z = r.lo[2]; z < r.hi[2]; ++z) {
        for (std::int64_t y = r.lo[1]; y < r.hi[1]; ++y) {
          double* row = a.origin(c) + y * a.stride(1) + z * a.stride(2);
          for (int gi = 1; gi <= g; ++gi) {
            if (lower) row[-gi] = row[lower_src(gi)];
            if (upper) row[n - 1 + gi] = row[upper_src(gi)];
          }
        }
      }
      continue;
    }
    const int other = 3 - axis;  // the transverse axis besides x
    const std::int64_t len = r.hi[0] - r.lo[0];
    const auto row = [&](std::int64_t w, std::int64_t v) {
      return a.origin(c) + r.lo[0] + w * a.stride(axis) + v * a.stride(other);
    };
    for (std::int64_t v = r.lo[other]; v < r.hi[other]; ++v) {
      for (int gi = 1; gi <= g; ++gi) {
        if (lower) std::copy_n(row(lower_src(gi), v), len, row(-gi, v));
        if (upper) std::copy_n(row(upper_src(gi), v), len, row(n - 1 + gi, v));
      }
    }
  }
}

}  // namespace

void fill_ghosts_axis(Array& a, int axis, BoundaryKind kind, bool lower,
                      bool upper) {
  if (a.ghost_layers() == 0 || axis >= a.field()->spatial_dims()) return;
  fill_axis_over(a, axis, kind, lower, upper, sweep_range(a, axis));
}

void fill_ghosts_axis_rows(Array& a, int axis, BoundaryKind kind,
                           int restrict_axis, std::int64_t row_lo,
                           std::int64_t row_hi) {
  if (a.ghost_layers() == 0 || axis >= a.field()->spatial_dims()) return;
  PFC_ASSERT(restrict_axis > axis,
             "row restriction must be on a later (interior-range) axis");
  Range r = sweep_range(a, axis);
  r.lo[restrict_axis] = std::max(r.lo[restrict_axis], row_lo);
  r.hi[restrict_axis] = std::min(r.hi[restrict_axis], row_hi);
  if (r.lo[restrict_axis] >= r.hi[restrict_axis]) return;
  fill_axis_over(a, axis, kind, true, true, r);
}

void fill_ghosts_transverse_rows(Array& a, BoundaryKind kind, int outer_axis,
                                 std::int64_t row_lo, std::int64_t row_hi) {
  for (int axis = 0; axis < outer_axis && axis < a.field()->spatial_dims();
       ++axis) {
    fill_ghosts_axis_rows(a, axis, kind, outer_axis, row_lo, row_hi);
  }
}

void fill_ghosts(Array& a, BoundaryKind kind) {
  for (int axis = 0; axis < a.field()->spatial_dims(); ++axis) {
    fill_ghosts_axis(a, axis, kind);
  }
}

}  // namespace pfc::grid
