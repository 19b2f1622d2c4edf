// Runtime lattice storage bound to a symbolic Field.
//
// Layout is waLBerla's "fzyx": the component index is the outermost (slowest)
// dimension, i.e. a structure-of-arrays layout. Each x-line occupies
// round_up(n_x + 2g, 8) doubles and its first interior cell x = 0 is 64-byte
// aligned, in every line of every component (paper §3.5: "arrays are
// allocated and padded such that the beginning of each line is sufficiently
// aligned"), so a full-row sweep runs its SIMD loop from x = 0 with no
// scalar peel. A line's left ghosts x = -g .. -1 sit in the tail padding of
// the line before it; the very first line's sit at the end of one lead pad
// of round_up(g, 8) doubles, the only memory this layout adds.
//
// Coordinates are *interior* coordinates: (0,0,0) is the first non-ghost
// cell; ghost cells live at -g .. -1 and n .. n+g-1.
#pragma once

#include <array>
#include <cstdint>

#include "pfc/field/field.hpp"
#include "pfc/support/aligned.hpp"

namespace pfc {

class ThreadPool;

class Array {
 public:
  /// Creates storage for `field` with the given interior size (cells per
  /// spatial dim; unused dims must be 1) and `ghost_layers` ghost cells on
  /// every used spatial boundary. Values are zero-initialized.
  Array(FieldPtr field, std::array<std::int64_t, 3> interior_size,
        int ghost_layers);

  /// As above, but the zero fill is executed by `first_touch_pool` with the
  /// same static outer-axis slab partition the kernel dispatch uses, so on
  /// NUMA systems each worker's slab is first-touched — and therefore
  /// page-resident — on that worker's local node (DESIGN.md §11). A null
  /// pool falls back to the serial fill.
  Array(FieldPtr field, std::array<std::int64_t, 3> interior_size,
        int ghost_layers, ThreadPool* first_touch_pool);

  Array(Array&&) noexcept = default;
  Array& operator=(Array&&) noexcept = default;

  const FieldPtr& field() const { return field_; }
  const std::array<std::int64_t, 3>& size() const { return size_; }
  int ghost_layers() const { return ghosts_; }
  int components() const { return field_->components(); }

  /// Stride (in doubles) along spatial dim d; stride(0) == 1 by layout.
  std::int64_t stride(int d) const { return strides_[std::size_t(d)]; }
  std::int64_t component_stride() const { return comp_stride_; }

  /// Total allocated doubles: the lead pad plus one component stride per
  /// component.
  std::int64_t allocated() const { return alloc_; }

  /// Pointer to interior origin (0,0,0) of component c.
  double* origin(int c) {
    return data_.get() + origin_offset_ + c * comp_stride_;
  }
  const double* origin(int c) const {
    return data_.get() + origin_offset_ + c * comp_stride_;
  }

  double& at(std::int64_t x, std::int64_t y, std::int64_t z, int c = 0) {
    return data_[std::size_t(index(x, y, z, c))];
  }
  double at(std::int64_t x, std::int64_t y, std::int64_t z, int c = 0) const {
    return data_[std::size_t(index(x, y, z, c))];
  }

  /// Linear offset from the buffer start for interior coordinates.
  std::int64_t index(std::int64_t x, std::int64_t y, std::int64_t z,
                     int c) const;

  void fill(double v);
  void fill_component(int c, double v);

  /// Parallel fill partitioned like the kernel dispatch slabs (outer used
  /// axis, worker 0 taking the lower ghost rows, the last worker the upper
  /// ones). Establishes NUMA page placement on first touch; also safe to
  /// call later (values only). Serial when pool is null or single-threaded.
  void first_touch_fill(ThreadPool* pool, double v = 0.0);

  /// Copies interior + ghosts from another array of identical shape. With a
  /// pool the copy splits into per-thread memcpy chunks (the Heun staging
  /// copy is memory-bound and scales with threads).
  void copy_from(const Array& other);
  void copy_from(const Array& other, ThreadPool* pool);

  /// In-place blend `this = 0.5 * (this + u0)` over the whole buffer —
  /// interior, ghosts and padding alike (padding is zero in both operands).
  /// Shapes must match; splits across `pool` when given. This is Heun's
  /// trapezoidal average u_new = (u0 + u2) / 2.
  void average_with(const Array& u0, ThreadPool* pool = nullptr);

  /// Swaps buffers with another array of identical shape (the src/dst swap
  /// at the end of every time step).
  void swap(Array& other) noexcept;

  /// Swaps only the data buffers, keeping each array bound to its own
  /// symbolic field — the src/dst pointer swap of Algorithm 1. Shapes and
  /// component counts must match.
  void swap_data(Array& other);

  /// Interior doubles across all components (checkpoint payload size).
  std::int64_t interior_count() const {
    return size_[0] * size_[1] * size_[2] * components();
  }

  /// Serializes the interior (no ghosts, no padding) into `dst` in
  /// (c, z, y, x) order, x fastest — the checkpoint wire layout, identical
  /// whatever the padded in-memory strides are.
  void copy_interior_out(double* dst) const;
  /// Inverse of copy_interior_out; ghost layers are left untouched (the
  /// caller refreshes them via boundary fill / ghost exchange).
  void copy_interior_in(const double* src);

  /// Max |a - b| over the interior (all components). Shapes must match.
  static double max_abs_diff(const Array& a, const Array& b);

  /// Sum over the interior of component c.
  double interior_sum(int c = 0) const;

 private:
  /// Offset of component 0's first cell (x, y, z) = (-g, -g, -g). Component
  /// c's cells, ghosts included, lie in [first_cell() + c * comp_stride,
  /// first_cell() + (c + 1) * comp_stride).
  std::int64_t first_cell() const;

  FieldPtr field_;
  std::array<std::int64_t, 3> size_{};
  std::array<std::int64_t, 3> strides_{};
  std::array<int, 3> ghosts_per_dim_{};
  std::int64_t comp_stride_ = 0;
  std::int64_t origin_offset_ = 0;
  std::int64_t alloc_ = 0;
  int ghosts_ = 0;
  AlignedPtr<double> data_;
};

}  // namespace pfc
