#include "pfc/field/array.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "pfc/support/thread_pool.hpp"

namespace pfc {

namespace {
constexpr std::int64_t kLinePad = 8;  // doubles per AVX-512 vector
}

Array::Array(FieldPtr field, std::array<std::int64_t, 3> interior_size,
             int ghost_layers)
    : Array(std::move(field), interior_size, ghost_layers, nullptr) {}

Array::Array(FieldPtr field, std::array<std::int64_t, 3> interior_size,
             int ghost_layers, ThreadPool* first_touch_pool)
    : field_(std::move(field)), size_(interior_size), ghosts_(ghost_layers) {
  PFC_REQUIRE(ghost_layers >= 0, "negative ghost layers");
  for (int d = 0; d < 3; ++d) {
    PFC_REQUIRE(size_[std::size_t(d)] >= 1, "array size must be >= 1");
    const bool used = d < field_->spatial_dims();
    PFC_REQUIRE(used || size_[std::size_t(d)] == 1,
                "unused spatial dim of " + field_->name() + " must be 1");
    ghosts_per_dim_[std::size_t(d)] = used ? ghost_layers : 0;
  }

  const std::int64_t nx = size_[0] + 2 * ghosts_per_dim_[0];
  const std::int64_t ny = size_[1] + 2 * ghosts_per_dim_[1];
  const std::int64_t nz = size_[2] + 2 * ghosts_per_dim_[2];
  const std::int64_t line = std::int64_t(round_up(std::size_t(nx), kLinePad));
  strides_ = {1, line, line * ny};
  comp_stride_ = line * ny * nz;
  // x = 0 of every line starts a line slot, so it is vector-aligned. A
  // line's left x ghosts sit in the tail padding of the slot before it
  // (line >= nx leaves g spare doubles there); the first line's sit at the
  // end of one lead pad.
  const std::int64_t lead =
      std::int64_t(round_up(std::size_t(ghosts_per_dim_[0]), kLinePad));
  origin_offset_ = lead + ghosts_per_dim_[1] * strides_[1] +
                   ghosts_per_dim_[2] * strides_[2];
  alloc_ = lead + comp_stride_ * field_->components();
  data_ = make_aligned<double>(std::size_t(alloc_));
  first_touch_fill(first_touch_pool, 0.0);
}

void Array::first_touch_fill(ThreadPool* pool, double v) {
  if (pool == nullptr || pool->num_threads() == 1 ||
      field_->spatial_dims() < 2) {
    fill(v);
    return;
  }
  // Partition raw outer-axis rows exactly like the static kernel dispatch:
  // interior rows chunked by SlabPlan, worker 0 extended down over the
  // lower ghost rows, the last worker up over the upper ones. Rows along
  // the outer axis are contiguous within a component in fzyx layout, so
  // each worker touches one contiguous region per component.
  const int outer = field_->spatial_dims() - 1;
  const std::int64_t n = size_[std::size_t(outer)];
  const std::int64_t g = ghosts_per_dim_[std::size_t(outer)];
  const std::int64_t row_stride = strides_[std::size_t(outer)];
  const SlabPlan plan = SlabPlan::make(0, n, pool->num_threads());
  const int comps = field_->components();
  const std::int64_t comp_stride = comp_stride_;
  // the rows below start at each component's first ghost cell; the lead
  // pad before component 0 and the g spare doubles after the last
  // component are filled here
  const std::int64_t first = first_cell();
  const std::int64_t end = first + comps * comp_stride;
  std::fill_n(data_.get(), std::size_t(first), v);
  std::fill_n(data_.get() + end, std::size_t(alloc_ - end), v);
  double* base = data_.get() + first;
  pool->run_on_all([&](int w) {
    const auto [lo, hi] = plan.slab(w, -g, n + g);
    if (lo >= hi) return;
    for (int c = 0; c < comps; ++c) {
      double* p = base + c * comp_stride + (lo + g) * row_stride;
      std::fill_n(p, std::size_t((hi - lo) * row_stride), v);
    }
  });
}

std::int64_t Array::index(std::int64_t x, std::int64_t y, std::int64_t z,
                          int c) const {
  PFC_ASSERT(x >= -ghosts_per_dim_[0] && x < size_[0] + ghosts_per_dim_[0]);
  PFC_ASSERT(y >= -ghosts_per_dim_[1] && y < size_[1] + ghosts_per_dim_[1]);
  PFC_ASSERT(z >= -ghosts_per_dim_[2] && z < size_[2] + ghosts_per_dim_[2]);
  PFC_ASSERT(c >= 0 && c < field_->components());
  return origin_offset_ + x * strides_[0] + y * strides_[1] +
         z * strides_[2] + c * comp_stride_;
}

void Array::fill(double v) {
  std::fill_n(data_.get(), std::size_t(alloc_), v);
}

void Array::fill_component(int c, double v) {
  std::fill_n(data_.get() + first_cell() + c * comp_stride_,
              std::size_t(comp_stride_), v);
}

std::int64_t Array::first_cell() const {
  return origin_offset_ - ghosts_per_dim_[0] * strides_[0] -
         ghosts_per_dim_[1] * strides_[1] - ghosts_per_dim_[2] * strides_[2];
}

void Array::copy_from(const Array& other) {
  PFC_REQUIRE(alloc_ == other.alloc_ && size_ == other.size_,
              "copy_from: shape mismatch");
  std::memcpy(data_.get(), other.data_.get(),
              std::size_t(alloc_) * sizeof(double));
}

void Array::copy_from(const Array& other, ThreadPool* pool) {
  if (pool == nullptr || pool->num_threads() == 1) {
    copy_from(other);
    return;
  }
  PFC_REQUIRE(alloc_ == other.alloc_ && size_ == other.size_,
              "copy_from: shape mismatch");
  double* dst = data_.get();
  const double* src = other.data_.get();
  pool->parallel_for(
      0, alloc_,
      [dst, src](std::int64_t lo, std::int64_t hi) {
        std::memcpy(dst + lo, src + lo,
                    std::size_t(hi - lo) * sizeof(double));
      },
      /*chunk_align=*/8);
}

void Array::average_with(const Array& u0, ThreadPool* pool) {
  PFC_REQUIRE(alloc_ == u0.alloc_ && size_ == u0.size_,
              "average_with: shape mismatch");
  double* dst = data_.get();
  const double* src = u0.data_.get();
  const auto blend = [dst, src](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      dst[i] = 0.5 * (dst[i] + src[i]);
    }
  };
  if (pool == nullptr || pool->num_threads() == 1) {
    blend(0, alloc_);
    return;
  }
  pool->parallel_for(0, alloc_, blend, /*chunk_align=*/8);
}

void Array::swap(Array& other) noexcept {
  std::swap(field_, other.field_);
  std::swap(size_, other.size_);
  std::swap(strides_, other.strides_);
  std::swap(ghosts_per_dim_, other.ghosts_per_dim_);
  std::swap(comp_stride_, other.comp_stride_);
  std::swap(origin_offset_, other.origin_offset_);
  std::swap(alloc_, other.alloc_);
  std::swap(ghosts_, other.ghosts_);
  std::swap(data_, other.data_);
}

void Array::swap_data(Array& other) {
  PFC_REQUIRE(alloc_ == other.alloc_ && size_ == other.size_ &&
                  field_->components() == other.field_->components(),
              "swap_data: shape mismatch");
  std::swap(data_, other.data_);
}

void Array::copy_interior_out(double* dst) const {
  for (int c = 0; c < field_->components(); ++c) {
    for (std::int64_t z = 0; z < size_[2]; ++z) {
      for (std::int64_t y = 0; y < size_[1]; ++y) {
        const double* line = &data_[std::size_t(index(0, y, z, c))];
        std::memcpy(dst, line, std::size_t(size_[0]) * sizeof(double));
        dst += size_[0];
      }
    }
  }
}

void Array::copy_interior_in(const double* src) {
  for (int c = 0; c < field_->components(); ++c) {
    for (std::int64_t z = 0; z < size_[2]; ++z) {
      for (std::int64_t y = 0; y < size_[1]; ++y) {
        double* line = &data_[std::size_t(index(0, y, z, c))];
        std::memcpy(line, src, std::size_t(size_[0]) * sizeof(double));
        src += size_[0];
      }
    }
  }
}

double Array::max_abs_diff(const Array& a, const Array& b) {
  PFC_REQUIRE(a.size_ == b.size_ &&
                  a.field_->components() == b.field_->components(),
              "max_abs_diff: shape mismatch");
  double m = 0.0;
  for (int c = 0; c < a.field_->components(); ++c) {
    for (std::int64_t z = 0; z < a.size_[2]; ++z) {
      for (std::int64_t y = 0; y < a.size_[1]; ++y) {
        for (std::int64_t x = 0; x < a.size_[0]; ++x) {
          m = std::max(m, std::abs(a.at(x, y, z, c) - b.at(x, y, z, c)));
        }
      }
    }
  }
  return m;
}

double Array::interior_sum(int c) const {
  double s = 0.0;
  for (std::int64_t z = 0; z < size_[2]; ++z) {
    for (std::int64_t y = 0; y < size_[1]; ++y) {
      for (std::int64_t x = 0; x < size_[0]; ++x) {
        s += at(x, y, z, c);
      }
    }
  }
  return s;
}

}  // namespace pfc
