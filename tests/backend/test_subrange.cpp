// Sub-range kernel execution tests: a sweep decomposed into an interior
// box plus disjoint frontier slabs must reproduce the monolithic sweep
// bit-for-bit, at every vector width and with coordinate-keyed noise.
//
// This is the contract the distributed overlap path relies on: frontier
// slabs run first, the interior runs while the ghost exchange is in
// flight, and the union must equal one full sweep exactly. A sub-range
// moves cells between loop bodies: a full row starts its vector loop at
// the aligned x = 0, while a box starting at x = 1 peels up to w - 1
// cells in scalar code. The union stays exact because the default compile
// line has no FMA contraction, so every body computes a cell with the
// same IEEE operations; these tests compile with that default and guard
// it.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "pfc/app/compiler.hpp"
#include "pfc/app/params.hpp"
#include "pfc/backend/c_emitter.hpp"
#include "pfc/backend/jit.hpp"
#include "pfc/backend/kernel_runner.hpp"
#include "pfc/fd/discretize.hpp"
#include "pfc/ir/kernel.hpp"

namespace pfc::backend {
namespace {

using sym::Expr;
using sym::num;

struct Setup {
  FieldPtr src, dst;
  ir::Kernel kernel;
};

/// Stencil + parameter + coordinates + lane-serial exp, optional philox
/// noise keyed on global coordinates (counters must not shift under
/// sub-range execution).
Setup make_kernel(int dims, bool with_noise) {
  static int counter = 0;
  const std::string suffix = "sr" + std::to_string(counter++);
  auto src = Field::create("sr_src" + suffix, dims, 1);
  auto dst = Field::create("sr_dst" + suffix, dims, 1);
  fd::PdeUpdate pde;
  pde.name = "subrange" + suffix;
  pde.src = src;
  pde.dst = dst;
  Expr u = sym::at(src);
  Expr lap = num(0);
  for (int d = 0; d < dims; ++d) {
    lap = lap + sym::diff_op(sym::diff_op(u, d), d);
  }
  Expr rhs = 0.1 * lap + sym::symbol("kappa") * u +
             0.001 * sym::exp_(-(u * u)) + 1e-4 * sym::coord(0);
  if (with_noise) rhs = rhs + 0.01 * sym::random_uniform(0);
  pde.rhs = {rhs};
  fd::DiscretizeOptions o;
  o.dims = dims;
  o.dt = 1.0;
  o.rng_seed = 11;
  ir::BuildOptions bo;
  bo.dims = dims;
  auto sk = fd::discretize(pde, o).kernels[0];
  return {src, dst, ir::build_kernel(sk, bo)};
}

void fill_pattern(Array& a) {
  const auto& n = a.size();
  const int g = a.ghost_layers();
  for (int c = 0; c < a.components(); ++c) {
    for (std::int64_t z = -((n[2] > 1) ? g : 0);
         z < n[2] + ((n[2] > 1) ? g : 0); ++z) {
      for (std::int64_t y = -g; y < n[1] + g; ++y) {
        for (std::int64_t x = -g; x < n[0] + g; ++x) {
          a.at(x, y, z, c) =
              std::sin(0.3 * double(x)) * std::cos(0.2 * double(y)) +
              0.1 * double(z) + 0.05 * c;
        }
      }
    }
  }
}

/// Onion decomposition of `full` into an inset interior plus <= 2*dims
/// disjoint frontier slabs of width `w`, peeled outermost-dim-first (the
/// same shape the distributed driver builds).
CellRange peel(const CellRange& full, long long w, int dims,
               std::vector<CellRange>& slabs) {
  CellRange inner = full;
  for (int d = dims - 1; d >= 0; --d) {
    const auto dd = std::size_t(d);
    if (inner.hi[dd] - inner.lo[dd] <= 0) continue;
    CellRange lo_slab = inner;
    lo_slab.hi[dd] = std::min(inner.hi[dd], inner.lo[dd] + w);
    if (lo_slab.cells() > 0) slabs.push_back(lo_slab);
    CellRange hi_slab = inner;
    hi_slab.lo[dd] = std::max(lo_slab.hi[dd], inner.hi[dd] - w);
    if (hi_slab.cells() > 0) slabs.push_back(hi_slab);
    inner.lo[dd] = lo_slab.hi[dd];
    inner.hi[dd] = hi_slab.lo[dd];
  }
  return inner;
}

struct Compiled {
  JitLibrary lib;
  KernelFn fn;
};

Compiled compile_at(const Setup& s, int width) {
  CEmitOptions eo;
  eo.vector_width = width;
  JitLibrary lib = JitLibrary::compile(emit_c(s.kernel, eo));
  KernelFn fn = lib.get(entry_name(s.kernel));
  return {std::move(lib), fn};
}

Binding make_binding(const Setup& s, Array& src_a, Array& dst_a) {
  Binding b;
  b.arrays.resize(s.kernel.fields.size());
  for (std::size_t i = 0; i < s.kernel.fields.size(); ++i) {
    b.arrays[i] = s.kernel.fields[i]->id() == s.src->id() ? &src_a : &dst_a;
  }
  b.params.assign(s.kernel.scalar_params.size(), 0.25);
  b.block_offset = {40, 50, 60};  // noise counters use global coordinates
  return b;
}

/// Runs the kernel over interior + frontier slabs (frontier first, like
/// the overlap step) and over the full box; both must match bitwise.
void expect_decomposed_matches(const Setup& s, int width, int dims,
                               const std::array<long long, 3>& n,
                               long long shell_w) {
  Array src_a(s.src, {n[0], n[1], n[2]}, 1);
  fill_pattern(src_a);
  const Compiled c = compile_at(s, width);

  Array mono(s.dst, {n[0], n[1], n[2]}, 1);
  run_compiled(s.kernel, c.fn, make_binding(s, src_a, mono), n, 0.5, 3,
               nullptr, nullptr, width);

  const CellRange full = full_range(s.kernel, n);
  std::vector<CellRange> slabs;
  const CellRange interior = peel(full, shell_w, dims, slabs);
  long long covered = interior.cells();
  Array split(s.dst, {n[0], n[1], n[2]}, 1);
  const Binding b = make_binding(s, src_a, split);
  for (const CellRange& sl : slabs) {
    covered += sl.cells();
    run_compiled(s.kernel, c.fn, b, n, 0.5, 3, nullptr, nullptr, width, &sl);
  }
  run_compiled(s.kernel, c.fn, b, n, 0.5, 3, nullptr, nullptr, width,
               &interior);

  EXPECT_EQ(covered, full.cells()) << "decomposition must tile the box";
  EXPECT_EQ(Array::max_abs_diff(mono, split), 0.0)
      << "width " << width << " shell " << shell_w;
}

TEST(SubRangeTest, FullRangeCoversExtents) {
  auto s = make_kernel(2, false);
  const CellRange r = full_range(s.kernel, {13, 7, 1});
  EXPECT_EQ(r.lo, (std::array<long long, 3>{0, 0, 0}));
  EXPECT_EQ(r.hi[0], 13 + s.kernel.extent_plus[0]);
  EXPECT_EQ(r.hi[1], 7 + s.kernel.extent_plus[1]);
  EXPECT_EQ(r.hi[2], 1);
  EXPECT_GT(r.cells(), 0);
}

TEST(SubRangeTest, EmptyRangeIsANoOp) {
  auto s = make_kernel(2, false);
  const std::array<long long, 3> n{9, 5, 1};
  Array src_a(s.src, {n[0], n[1], n[2]}, 1);
  fill_pattern(src_a);
  const Compiled c = compile_at(s, 1);
  Array dst(s.dst, {n[0], n[1], n[2]}, 1);
  Array untouched(s.dst, {n[0], n[1], n[2]}, 1);
  const CellRange empty{{3, 3, 0}, {3, 5, 1}};  // hi[0] == lo[0]
  EXPECT_EQ(empty.cells(), 0);
  run_compiled(s.kernel, c.fn, make_binding(s, src_a, dst), n, 0.5, 3,
               nullptr, nullptr, 1, &empty);
  EXPECT_EQ(Array::max_abs_diff(dst, untouched), 0.0);
}

TEST(SubRangeTest, ReadOffsetRangesSeeTheStencil) {
  auto s = make_kernel(3, false);
  const auto ranges = read_offset_ranges(s.kernel);
  ASSERT_TRUE(ranges.count(s.src->id()));
  const OffsetRange& r = ranges.at(s.src->id());
  for (int d = 0; d < 3; ++d) {
    EXPECT_EQ(r.lo[std::size_t(d)], -1) << "dim " << d;
    EXPECT_EQ(r.hi[std::size_t(d)], 1) << "dim " << d;
  }
  EXPECT_EQ(ranges.count(s.dst->id()), 0u) << "dst is write-only";
}

class SubRangeEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SubRangeEquivalence, InteriorPlusFrontierMatchesMonolithic) {
  const int width = GetParam();
  // odd extents: peel + main + remainder all non-empty at every width,
  // and the shell slabs start at unaligned x offsets
  auto s3 = make_kernel(3, false);
  expect_decomposed_matches(s3, width, 3, {13, 7, 5}, 1);
  expect_decomposed_matches(s3, width, 3, {13, 7, 5}, 2);
  auto s2 = make_kernel(2, false);
  expect_decomposed_matches(s2, width, 2, {17, 9, 1}, 2);
}

TEST_P(SubRangeEquivalence, DegenerateBoxIsAllFrontier) {
  // 2W >= extent in y: the interior collapses to empty and the whole box
  // lands in the frontier slabs — still an exact tiling
  const int width = GetParam();
  auto s = make_kernel(2, false);
  expect_decomposed_matches(s, width, 2, {11, 4, 1}, 2);
}

TEST_P(SubRangeEquivalence, NoiseCountersDoNotShift) {
  // philox is keyed on global coordinates; a sub-range sweep must draw the
  // identical stream for every cell it covers
  const int width = GetParam();
  auto s = make_kernel(2, true);
  expect_decomposed_matches(s, width, 2, {13, 9, 1}, 2);
  auto s3 = make_kernel(3, true);
  expect_decomposed_matches(s3, width, 3, {7, 5, 3}, 1);
}

INSTANTIATE_TEST_SUITE_P(Widths, SubRangeEquivalence,
                         ::testing::Values(1, 4, 8));

TEST(SubRangeTest, ThreadedInteriorMatchesSerial) {
  auto s = make_kernel(3, false);
  const std::array<long long, 3> n{21, 9, 7};
  Array src_a(s.src, {n[0], n[1], n[2]}, 1);
  fill_pattern(src_a);
  const Compiled c = compile_at(s, 8);
  const CellRange full = full_range(s.kernel, n);
  std::vector<CellRange> slabs;
  const CellRange interior = peel(full, 1, 3, slabs);

  Array serial(s.dst, {n[0], n[1], n[2]}, 1);
  run_compiled(s.kernel, c.fn, make_binding(s, src_a, serial), n, 0, 0,
               nullptr, nullptr, 8, &interior);
  Array par(s.dst, {n[0], n[1], n[2]}, 1);
  ThreadPool pool(4);
  run_compiled(s.kernel, c.fn, make_binding(s, src_a, par), n, 0, 0, &pool,
               nullptr, 8, &interior);
  EXPECT_EQ(Array::max_abs_diff(serial, par), 0.0);
}

/// The split-staggered pipeline through the compiled-model layer: flux
/// precompute kernel feeding the main update, both executed sub-ranged
/// (with the flux kernel's wider box) vs. monolithic, two Heun-like
/// passes with a src/dst swap in between.
TEST(SubRangeTest, SplitStaggeredPipelineMatches) {
  app::GrandChemParams params = app::make_p1(2);
  app::GrandChemModel model(params);
  app::CompileOptions co;
  co.split_phi = true;
  co.split_mu = true;
  co.vector_width = 8;
  const app::CompiledModel cm = app::ModelCompiler(co).compile(model);
  ASSERT_GE(cm.phi_kernels.size(), 2u) << "split must stage a flux kernel";
  ASSERT_TRUE(cm.phi_flux_field.has_value());

  const std::array<long long, 3> n{19, 9, 1};
  const auto make_arrays = [&] {
    struct Fields {
      Array phi_src, phi_dst, flux;
    };
    Array ps(model.phi_src(), {n[0], n[1], n[2]}, 1);
    Array pd(model.phi_dst(), {n[0], n[1], n[2]}, 1);
    Array fl(*cm.phi_flux_field, {n[0] + 1, n[1] + 1, n[2]}, 0);
    fill_pattern(ps);
    return Fields{std::move(ps), std::move(pd), std::move(fl)};
  };
  // mu is read by the phi kernels; give it a fixed pattern
  Array mu(model.mu_src(), {n[0], n[1], n[2]}, 1);
  fill_pattern(mu);

  const auto bind = [&](const ir::Kernel& k, Array& ps, Array& pd,
                        Array& fl) {
    Binding b;
    b.arrays.resize(k.fields.size());
    for (std::size_t i = 0; i < k.fields.size(); ++i) {
      const auto id = k.fields[i]->id();
      if (id == model.phi_src()->id()) {
        b.arrays[i] = &ps;
      } else if (id == model.phi_dst()->id()) {
        b.arrays[i] = &pd;
      } else if (id == (*cm.phi_flux_field)->id()) {
        b.arrays[i] = &fl;
      } else {
        b.arrays[i] = &mu;
      }
    }
    return b;
  };

  const auto run_pass = [&](bool decomposed, Array& ps, Array& pd,
                            Array& fl) {
    for (const app::CompiledKernel& k : cm.phi_kernels) {
      const Binding b = bind(k.ir, ps, pd, fl);
      if (!decomposed) {
        k.run(b, n, 0.0, 0);
        continue;
      }
      const CellRange full = full_range(k.ir, n);
      std::vector<CellRange> slabs;
      // the flux kernel needs a wider shell (main reads flux at x, x+1)
      const CellRange interior = peel(full, 2, 2, slabs);
      for (const CellRange& sl : slabs) k.run(b, n, 0.0, 0, nullptr, nullptr, &sl);
      k.run(b, n, 0.0, 0, nullptr, nullptr, &interior);
    }
  };

  // stage the update back into src (fields are identity-checked by
  // marshal, so the arrays cannot simply be swapped)
  const auto feed_back = [&](Array& src, const Array& dst) {
    for (int c = 0; c < src.components(); ++c) {
      for (long long y = 0; y < n[1]; ++y) {
        for (long long x = 0; x < n[0]; ++x) {
          src.at(x, y, 0, c) = dst.at(x, y, 0, c);
        }
      }
    }
  };
  auto a = make_arrays();
  auto b2 = make_arrays();
  for (int pass = 0; pass < 2; ++pass) {  // Heun-style double application
    run_pass(false, a.phi_src, a.phi_dst, a.flux);
    run_pass(true, b2.phi_src, b2.phi_dst, b2.flux);
    feed_back(a.phi_src, a.phi_dst);
    feed_back(b2.phi_src, b2.phi_dst);
  }
  EXPECT_EQ(Array::max_abs_diff(a.phi_src, b2.phi_src), 0.0);
  EXPECT_EQ(Array::max_abs_diff(a.flux, b2.flux), 0.0);
}

}  // namespace
}  // namespace pfc::backend
