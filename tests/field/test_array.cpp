#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "pfc/field/array.hpp"
#include "pfc/support/thread_pool.hpp"

namespace pfc {
namespace {

/// Calls f(x, y, z, c) for every cell of `a`, ghosts included.
template <typename F>
void for_each_cell(const Array& a, F&& f) {
  const auto& n = a.size();
  const int dims = a.field()->spatial_dims();
  const auto g = [&](int d) -> std::int64_t {
    return d < dims ? a.ghost_layers() : 0;
  };
  for (int c = 0; c < a.components(); ++c) {
    for (std::int64_t z = -g(2); z < n[2] + g(2); ++z) {
      for (std::int64_t y = -g(1); y < n[1] + g(1); ++y) {
        for (std::int64_t x = -g(0); x < n[0] + g(0); ++x) {
          f(x, y, z, c);
        }
      }
    }
  }
}

/// Two-component arrays over ghost widths {0, 1, 2}, 1-/2-/3-D and the
/// x extents {1, 7, 8, 64, 168}: odd, exactly one vector, the workload
/// block widths.
template <typename F>
void for_each_shape(F&& f) {
  for (int dims = 1; dims <= 3; ++dims) {
    auto field = Field::create("phi" + std::to_string(dims), dims, 2);
    for (int g : {0, 1, 2}) {
      for (std::int64_t nx : {1, 7, 8, 64, 168}) {
        const Array a(field,
                      {nx, dims >= 2 ? 5 : 1, dims >= 3 ? 3 : 1}, g);
        SCOPED_TRACE("dims " + std::to_string(dims) + " g " +
                     std::to_string(g) + " nx " + std::to_string(nx));
        f(a);
      }
    }
  }
}

TEST(ArrayTest, LayoutAndStrides) {
  auto f = Field::create("phi", 3, 4);
  Array a(f, {10, 6, 5}, 1);
  EXPECT_EQ(a.stride(0), 1);
  // x line = 10 + 2 ghosts = 12 -> padded to 16
  EXPECT_EQ(a.stride(1), 16);
  EXPECT_EQ(a.stride(2), 16 * 8);
  EXPECT_EQ(a.component_stride(), 16 * 8 * 7);
  // one lead pad of round_up(g, 8) doubles holds the first line's ghosts
  EXPECT_EQ(a.allocated(), 8 + 4 * 16 * 8 * 7);
}

TEST(ArrayTest, OriginIsAligned) {
  // x = 0 of every line, ghost lines included, starts a 64-byte vector
  for_each_shape([](const Array& a) {
    const int dims = a.field()->spatial_dims();
    const std::int64_t gy = dims >= 2 ? a.ghost_layers() : 0;
    const std::int64_t gz = dims >= 3 ? a.ghost_layers() : 0;
    for (int c = 0; c < a.components(); ++c) {
      for (std::int64_t z = -gz; z < a.size()[2] + gz; ++z) {
        for (std::int64_t y = -gy; y < a.size()[1] + gy; ++y) {
          const double* line =
              a.origin(c) + y * a.stride(1) + z * a.stride(2);
          EXPECT_EQ(reinterpret_cast<std::uintptr_t>(line) % 64, 0u)
              << "line (y " << y << ", z " << z << ", c " << c << ")";
        }
      }
    }
  });
}

TEST(ArrayTest, GhostsNeverAlias) {
  for_each_shape([](const Array& a) {
    std::vector<std::int64_t> idx;
    for_each_cell(a, [&](std::int64_t x, std::int64_t y, std::int64_t z,
                         int c) { idx.push_back(a.index(x, y, z, c)); });
    std::sort(idx.begin(), idx.end());
    ASSERT_FALSE(idx.empty());
    EXPECT_GE(idx.front(), 0);
    EXPECT_LT(idx.back(), a.allocated());
    EXPECT_EQ(std::adjacent_find(idx.begin(), idx.end()), idx.end())
        << "two cells share one double";

    Array b(a.field(), a.size(), a.ghost_layers());
    double v = 0.0;
    for_each_cell(b, [&](std::int64_t x, std::int64_t y, std::int64_t z,
                         int c) { b.at(x, y, z, c) = v += 1.0; });
    v = 0.0;
    for_each_cell(b, [&](std::int64_t x, std::int64_t y, std::int64_t z,
                         int c) {
      v += 1.0;
      if (b.at(x, y, z, c) != v) {
        ADD_FAILURE() << "cell (" << x << ", " << y << ", " << z << ", " << c
                      << ") reads " << b.at(x, y, z, c) << ", wrote " << v;
      }
    });
  });
}

TEST(ArrayTest, InteriorAndGhostAccess) {
  auto f = Field::create("phi", 3, 2);
  Array a(f, {4, 4, 4}, 1);
  a.at(0, 0, 0, 0) = 1.5;
  a.at(-1, -1, -1, 1) = 2.5;
  a.at(4, 4, 4, 1) = 3.5;
  EXPECT_DOUBLE_EQ(a.at(0, 0, 0, 0), 1.5);
  EXPECT_DOUBLE_EQ(a.at(-1, -1, -1, 1), 2.5);
  EXPECT_DOUBLE_EQ(a.at(4, 4, 4, 1), 3.5);
}

TEST(ArrayTest, OutOfRangeThrows) {
  auto f = Field::create("phi", 3, 1);
  Array a(f, {4, 4, 4}, 1);
  EXPECT_THROW(a.at(5, 0, 0, 0), Error);
  EXPECT_THROW(a.at(0, 0, 0, 1), Error);
}

TEST(ArrayTest, TwoDimensionalHasNoZGhosts) {
  auto f = Field::create("phi", 2, 1);
  Array a(f, {8, 8, 1}, 2);
  EXPECT_NO_THROW(a.at(-2, -2, 0));
  EXPECT_THROW(a.at(0, 0, 1), Error);
  EXPECT_THROW(Array(f, {8, 8, 2}, 1), Error);  // unused dim must be 1
}

TEST(ArrayTest, FillSwapDiffSum) {
  auto f = Field::create("phi", 3, 1);
  Array a(f, {4, 4, 4}, 1), b(f, {4, 4, 4}, 1);
  a.fill(1.0);
  b.fill(3.0);
  EXPECT_DOUBLE_EQ(Array::max_abs_diff(a, b), 2.0);
  EXPECT_DOUBLE_EQ(a.interior_sum(), 64.0);
  a.swap(b);
  EXPECT_DOUBLE_EQ(a.interior_sum(), 192.0);
  b.copy_from(a);
  EXPECT_DOUBLE_EQ(Array::max_abs_diff(a, b), 0.0);
}

TEST(ArrayTest, FillComponentIsolated) {
  // every cell of the filled component reads the value, ghosts included,
  // and no cell of its neighbours (the first and last components too)
  auto f = Field::create("phi", 3, 3);
  for (int g : {1, 2}) {
    for (int filled = 0; filled < 3; ++filled) {
      Array a(f, {4, 4, 4}, g);
      a.fill_component(filled, 7.0);
      for_each_cell(a, [&](std::int64_t x, std::int64_t y, std::int64_t z,
                           int c) {
        const double want = c == filled ? 7.0 : 0.0;
        if (a.at(x, y, z, c) != want) {
          ADD_FAILURE() << "g " << g << " fill " << filled << ": cell (" << x
                        << ", " << y << ", " << z << ", " << c << ") reads "
                        << a.at(x, y, z, c);
        }
      });
    }
  }
}

TEST(ArrayTest, FirstTouchFillCoversEveryCell) {
  ThreadPool pool(3);
  for (int dims : {2, 3}) {
    auto f = Field::create("ft" + std::to_string(dims), dims, 2);
    Array a(f, {9, 7, dims == 3 ? 5 : 1}, 2, &pool);
    a.first_touch_fill(&pool, 2.5);
    for_each_cell(a, [&](std::int64_t x, std::int64_t y, std::int64_t z,
                         int c) {
      if (a.at(x, y, z, c) != 2.5) {
        ADD_FAILURE() << "dims " << dims << ": cell (" << x << ", " << y
                      << ", " << z << ", " << c << ") reads "
                      << a.at(x, y, z, c);
      }
    });
  }
}

}  // namespace
}  // namespace pfc
