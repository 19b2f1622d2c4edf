// Explicit-SIMD vectorization tests: the VectorPlan analysis and bitwise
// scalar-vs-vector equivalence of the generated C across widths, odd
// extents (peel + remainder loops), streaming stores, lane-serial calls
// (philox, exp) and the full split-staggered model pipeline.
//
// Bitwise equality holds because the production compile line has no FMA
// contraction (-ffp-contract=off in JitLibrary::Options::optimization) and
// every vector op is either an IEEE-exact packed instruction (+ - * / sqrt,
// the integer Philox), a vector select with the scalar dialect's semantics
// (min/max/compare) or a lane loop calling the identical scalar routine
// (exp, ...). The suite compiles with the default options, so it guards
// that default.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "pfc/app/compiler.hpp"
#include "pfc/app/params.hpp"
#include "pfc/app/simulation.hpp"
#include "pfc/backend/c_emitter.hpp"
#include "pfc/backend/jit.hpp"
#include "pfc/backend/kernel_runner.hpp"
#include "pfc/fd/discretize.hpp"
#include "pfc/fd/stencil.hpp"
#include "pfc/ir/kernel.hpp"
#include "pfc/ir/vectorize.hpp"
#include "pfc/rng/philox.hpp"

namespace pfc::backend {
namespace {

using sym::Expr;
using sym::num;

struct Setup {
  FieldPtr src, dst;
  ir::Kernel kernel;
};

/// A kernel that exercises every vector code path: stencil loads, a free
/// scalar parameter (invariant broadcast), a z-dependent hoisted temp
/// (per-z broadcast), the x coordinate (iota vector), an IEEE sqrt, a
/// lane-serial exp and optional philox noise.
Setup make_rich_kernel(int dims, bool with_noise) {
  static int counter = 0;
  const std::string suffix = "v" + std::to_string(counter++);
  auto src = Field::create("r_src" + suffix, dims, 1);
  auto dst = Field::create("r_dst" + suffix, dims, 1);
  fd::PdeUpdate pde;
  pde.name = "rich" + suffix;
  pde.src = src;
  pde.dst = dst;
  Expr u = sym::at(src);
  Expr lap = num(0);
  for (int d = 0; d < dims; ++d) {
    lap = lap + sym::diff_op(sym::diff_op(u, d), d);
  }
  Expr rhs = 0.1 * lap + sym::symbol("kappa") * u +
             0.01 * sym::sqrt_(u * u + 1.0) +
             0.001 * sym::exp_(-(u * u)) + 1e-4 * sym::coord(0);
  if (dims == 3) rhs = rhs + 1e-3 * sym::coord(2) * sym::coord(2);
  if (with_noise) rhs = rhs + 0.01 * sym::random_uniform(0);
  pde.rhs = {rhs};
  fd::DiscretizeOptions o;
  o.dims = dims;
  o.dt = 1.0;
  o.rng_seed = 7;
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

/// Runs `kernel` emitted at `width` and returns the destination array.
Array run_at_width(const Setup& s, int width, bool streaming,
                   const std::array<long long, 3>& n, Array& src_a) {
  CEmitOptions eo;
  eo.vector_width = width;
  eo.streaming_stores = streaming;
  JitLibrary lib = JitLibrary::compile(emit_c(s.kernel, eo));
  KernelFn fn = lib.get(entry_name(s.kernel));

  Array dst(s.dst, {n[0], n[1], n[2]}, 1);
  Binding b;
  b.arrays.resize(s.kernel.fields.size());
  for (std::size_t i = 0; i < s.kernel.fields.size(); ++i) {
    b.arrays[i] = s.kernel.fields[i]->id() == s.src->id() ? &src_a : &dst;
  }
  b.params.assign(s.kernel.scalar_params.size(), 0.25);  // kappa
  b.block_offset = {40, 50, 60};  // exercise global coordinates
  run_compiled(s.kernel, fn, b, n, 0.5, 3, nullptr, nullptr, width);
  return dst;
}

TEST(VectorPlanTest, ScalarWidthDisablesPlan) {
  auto s = make_rich_kernel(3, false);
  const auto plan = ir::plan_vectorize(s.kernel, {1, false});
  EXPECT_FALSE(plan.enabled());
  EXPECT_GT(plan.flops_per_cell_scalar, 0);
}

TEST(VectorPlanTest, PlanClassifiesKernel) {
  auto s = make_rich_kernel(3, false);
  const auto plan = ir::plan_vectorize(s.kernel, {8, true});
  EXPECT_TRUE(plan.enabled());
  EXPECT_EQ(plan.width, 8);
  EXPECT_TRUE(plan.body_uses_coord[0]);  // iota path
  ASSERT_NE(plan.primary_write, std::size_t(-1));
  EXPECT_EQ(s.kernel.fields[plan.primary_write]->id(), s.dst->id());
  // dst is write-only -> streamed when streaming stores are requested
  EXPECT_TRUE(plan.is_streamed(plan.primary_write));
  // kappa is a free parameter -> hoisted broadcast
  EXPECT_FALSE(plan.broadcasts.empty());
  // exp is lane-serial and keeps its full cost; everything else amortizes
  EXPECT_GE(plan.lane_serial_calls, 1);
  EXPECT_LT(plan.flops_per_cell_vector, double(plan.flops_per_cell_scalar));
  EXPECT_GT(plan.flops_per_cell_vector,
            double(plan.flops_per_cell_scalar) / 8.0);
}

TEST(VectorPlanTest, RejectsUnsupportedWidth) {
  auto s = make_rich_kernel(2, false);
  EXPECT_THROW(ir::plan_vectorize(s.kernel, {3, false}), Error);
  EXPECT_THROW(ir::plan_vectorize(s.kernel, {16, false}), Error);
}

TEST(VectorEmitTest, SourceContainsVectorConstructs) {
  auto s = make_rich_kernel(3, false);
  CEmitOptions eo;
  eo.vector_width = 8;
  eo.streaming_stores = true;
  const std::string src = emit_c(s.kernel, eo);
  EXPECT_NE(src.find("vectorized: width 8"), std::string::npos);
  EXPECT_NE(src.find("#define PFC_VW 8"), std::string::npos);
  EXPECT_NE(src.find("_xpeel"), std::string::npos);  // alignment peel
  EXPECT_NE(src.find("pfc_vd_set1"), std::string::npos);
  EXPECT_NE(src.find("pfc_vd_stream("), std::string::npos);
  EXPECT_NE(src.find("pfc_vd_stream_fence"), std::string::npos);
  // scalar emission stays free of vector runtime
  const std::string scalar = emit_c(s.kernel);
  EXPECT_EQ(scalar.find("pfc_vd"), std::string::npos);
}

/// Number of non-overlapping occurrences of `needle` in `hay`.
int count_of(const std::string& hay, const std::string& needle) {
  int count = 0;
  for (std::size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

// The vectorized kernel holds its scalar body once: one loop serves the
// alignment peel and the remainder, so every scalar store of the kernel
// appears exactly as often as in the scalar emission.
TEST(VectorEmitTest, ScalarBodyEmittedOnce) {
  auto s = make_rich_kernel(3, true);
  CEmitOptions eo;
  eo.vector_width = 8;
  const std::string vec = emit_c(s.kernel, eo);
  const std::string scalar = emit_c(s.kernel);
  const std::string body_start =
      "const double _xg = (double)(x + block_off[0]);";
  EXPECT_EQ(count_of(scalar, body_start), 1);
  EXPECT_EQ(count_of(vec, body_start), 1) << vec;
  // the scalar store line (f_<dst>[x + ...] = ...) appears once in each
  const std::size_t store = scalar.find("  f_r_dst");
  ASSERT_NE(store, std::string::npos) << scalar;
  const std::string line =
      scalar.substr(store, scalar.find('\n', store) - store);
  const std::string trimmed = line.substr(line.find_first_not_of(' '));
  EXPECT_EQ(count_of(scalar, trimmed), 1);
  EXPECT_EQ(count_of(vec, trimmed), 1) << trimmed;
  EXPECT_EQ(count_of(vec, "for (long long x ="), 2);  // vector + scalar
}

class VectorEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(VectorEquivalence, BitwiseMatchesScalar) {
  const int width = GetParam();
  // odd x extent: peel + main + remainder all non-empty at every width
  const std::array<long long, 3> n{13, 7, 5};
  auto s = make_rich_kernel(3, false);
  Array src_a(s.src, {n[0], n[1], n[2]}, 1);
  fill_pattern(src_a);
  Array ref = run_at_width(s, 1, false, n, src_a);
  Array vec = run_at_width(s, width, false, n, src_a);
  EXPECT_EQ(Array::max_abs_diff(ref, vec), 0.0) << "width " << width;
}

/// Builds a kernel storing `rhs[c]` into component c of `out`.
ir::Kernel make_store_kernel(const std::string& name, const FieldPtr& out,
                             const std::vector<Expr>& rhs, int dims) {
  fd::StencilKernel sk;
  sk.name = name;
  for (std::size_t c = 0; c < rhs.size(); ++c) {
    sk.assignments.push_back({sym::at(out, int(c)), rhs[c]});
  }
  fd::recompute_field_lists(sk);
  ir::BuildOptions bo;
  bo.dims = dims;
  return ir::build_kernel(sk, bo);
}

/// Runs `k` emitted at `width` over `n` with `arrays` bound in k.fields
/// order.
void run_kernel(const ir::Kernel& k, int width, std::vector<Array*> arrays,
                const std::array<long long, 3>& n,
                const std::array<long long, 3>& block_offset,
                long long t_step) {
  CEmitOptions eo;
  eo.vector_width = width;
  JitLibrary lib = JitLibrary::compile(emit_c(k, eo));
  Binding b;
  b.arrays = std::move(arrays);
  b.block_offset = block_offset;
  run_compiled(k, lib.get(entry_name(k)), b, n, 0.0, t_step, nullptr,
               nullptr, width);
}

// min/max, the comparisons and select on NaN, ±0, ±inf and equal operands:
// the vector helpers must give the scalar dialect's bits (fmin/fmax return
// the non-NaN operand). Each (a, b) pair sits at a different x in every
// row, so each pair meets vector lanes as well as peel/remainder cells.
TEST_P(VectorEquivalence, HelpersMatchScalarDialectBitwise) {
  const int width = GetParam();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double vals[] = {nan, -nan, 0.0, -0.0, inf, -inf, 1.0, -2.5};
  constexpr int kVals = 8;
  const std::string tag = "h" + std::to_string(width);
  auto a = Field::create("ha_" + tag, 2, 1);
  auto b = Field::create("hb_" + tag, 2, 1);
  auto out = Field::create("hout_" + tag, 2, 8);
  const Expr ea = sym::at(a), eb = sym::at(b);
  const ir::Kernel k = make_store_kernel(
      "helpers_" + tag, out,
      {sym::min_(ea, eb), sym::max_(ea, eb),
       sym::call(sym::Func::Less, {ea, eb}),
       sym::call(sym::Func::Greater, {ea, eb}),
       sym::call(sym::Func::LessEq, {ea, eb}),
       sym::call(sym::Func::GreaterEq, {ea, eb}), sym::select(ea, eb, ea),
       sym::select(eb, ea, eb)},
      2);

  const std::array<long long, 3> n{kVals * kVals + 3, 8, 1};
  Array aa(a, {n[0], n[1], 1}, 0), ab(b, {n[0], n[1], 1}, 0);
  for (long long y = 0; y < n[1]; ++y) {
    for (long long x = 0; x < n[0]; ++x) {
      const long long p = (x + 5 * y) % (kVals * kVals);
      aa.at(x, y, 0) = vals[p / kVals];
      ab.at(x, y, 0) = vals[p % kVals];
    }
  }
  const auto run = [&](int w) {
    Array o(out, {n[0], n[1], 1}, 0);
    std::vector<Array*> arrays;
    for (const auto& f : k.fields) {
      arrays.push_back(f->id() == a->id() ? &aa
                       : f->id() == b->id() ? &ab
                                            : &o);
    }
    run_kernel(k, w, arrays, n, {0, 0, 0}, 0);
    return o;
  };
  const Array ref = run(1);
  const Array vec = run(width);
  int differ = 0;
  for (int c = 0; c < 8; ++c) {
    for (long long y = 0; y < n[1]; ++y) {
      for (long long x = 0; x < n[0]; ++x) {
        const double r = ref.at(x, y, 0, c), v = vec.at(x, y, 0, c);
        if (std::memcmp(&r, &v, sizeof r) != 0) {
          ++differ;
          ADD_FAILURE() << "output " << c << " a=" << aa.at(x, y, 0)
                        << " b=" << ab.at(x, y, 0) << ": scalar " << r
                        << ", width " << width << " " << v;
        }
      }
    }
  }
  EXPECT_EQ(differ, 0);
}

// The integer-vector Philox against the host generator: counters at and
// above 2^32 (x + block_off, y, z and t_step are cut to their low 32 bits
// in both), streams 0-2 and a seed with bit 63 set.
TEST_P(VectorEquivalence, PhiloxMatchesHostAtLargeCounters) {
  const int width = GetParam();
  const std::uint64_t seed = 0xd1b54a32d192ed03ull;
  const std::string tag = "p" + std::to_string(width);
  auto out = Field::create("pout_" + tag, 3, 3);
  fd::DiscretizeOptions o;
  o.dims = 3;
  o.rng_seed = seed;
  std::vector<Expr> rhs;
  for (int s = 0; s < 3; ++s) {
    rhs.push_back(fd::discretize_expression(sym::random_uniform(s), o));
  }
  const ir::Kernel k = make_store_kernel("philox_" + tag, out, rhs, 3);

  const long long two32 = 1ll << 32;
  const std::array<long long, 3> n{37, 3, 2};
  const std::array<long long, 3> off{two32 - 20, two32 - 1, two32};
  for (const long long t_step : {two32, two32 + 3}) {
    for (const int w : {1, width}) {
      Array a(out, {n[0], n[1], n[2]}, 0);
      run_kernel(k, w, {&a}, n, off, t_step);
      int differ = 0;
      for (int s = 0; s < 3; ++s) {
        for (long long z = 0; z < n[2]; ++z) {
          for (long long y = 0; y < n[1]; ++y) {
            for (long long x = 0; x < n[0]; ++x) {
              const double expect = rng::philox_uniform(
                  std::uint64_t(x + off[0]), std::uint64_t(y + off[1]),
                  std::uint64_t(z + off[2]), std::uint64_t(t_step), seed,
                  std::uint64_t(s));
              differ += a.at(x, y, z, s) != expect;
            }
          }
        }
      }
      EXPECT_EQ(differ, 0) << "width " << w << " t_step " << t_step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, VectorEquivalence,
                         ::testing::Values(2, 4, 8));

TEST(VectorEquivalenceTest, TinyAndAlignedExtents) {
  // x extents around/below the vector width: degenerate main loops,
  // peel-clamped rows, exact multiples
  auto s = make_rich_kernel(2, false);
  for (const long long nx : {1LL, 3LL, 8LL, 16LL, 17LL}) {
    const std::array<long long, 3> n{nx, 4, 1};
    Array src_a(s.src, {n[0], n[1], n[2]}, 1);
    fill_pattern(src_a);
    Array ref = run_at_width(s, 1, false, n, src_a);
    Array vec = run_at_width(s, 8, false, n, src_a);
    EXPECT_EQ(Array::max_abs_diff(ref, vec), 0.0) << "nx " << nx;
  }
}

TEST(VectorEquivalenceTest, StreamingStoresMatch) {
  const std::array<long long, 3> n{19, 6, 4};
  auto s = make_rich_kernel(3, false);
  Array src_a(s.src, {n[0], n[1], n[2]}, 1);
  fill_pattern(src_a);
  Array ref = run_at_width(s, 1, false, n, src_a);
  Array vec = run_at_width(s, 8, true, n, src_a);
  EXPECT_EQ(Array::max_abs_diff(ref, vec), 0.0);
}

TEST(VectorEquivalenceTest, LaneSerialNoiseMatches) {
  // philox runs one scalar call per lane, keyed on global coordinates; the
  // vector loop must reproduce the scalar stream bit-for-bit
  const std::array<long long, 3> n{11, 5, 1};
  auto s = make_rich_kernel(2, true);
  Array src_a(s.src, {n[0], n[1], n[2]}, 1);
  fill_pattern(src_a);
  Array ref = run_at_width(s, 1, false, n, src_a);
  Array vec = run_at_width(s, 8, false, n, src_a);
  EXPECT_EQ(Array::max_abs_diff(ref, vec), 0.0);
}

TEST(VectorEquivalenceTest, ThreadedVectorMatchesSerialVector) {
  const std::array<long long, 3> n{21, 8, 6};
  auto s = make_rich_kernel(3, false);
  Array src_a(s.src, {n[0], n[1], n[2]}, 1);
  fill_pattern(src_a);

  CEmitOptions eo;
  eo.vector_width = 8;
  JitLibrary lib = JitLibrary::compile(emit_c(s.kernel, eo));
  KernelFn fn = lib.get(entry_name(s.kernel));
  const auto bind = [&](Array& dst) {
    Binding b;
    b.arrays.resize(s.kernel.fields.size());
    for (std::size_t i = 0; i < s.kernel.fields.size(); ++i) {
      b.arrays[i] = s.kernel.fields[i]->id() == s.src->id() ? &src_a : &dst;
    }
    b.params.assign(s.kernel.scalar_params.size(), 0.25);
    return b;
  };
  Array serial(s.dst, {n[0], n[1], n[2]}, 1);
  Array par(s.dst, {n[0], n[1], n[2]}, 1);
  run_compiled(s.kernel, fn, bind(serial), n, 0, 0, nullptr, nullptr, 8);
  ThreadPool pool(4);
  run_compiled(s.kernel, fn, bind(par), n, 0, 0, &pool, nullptr, 8);
  EXPECT_EQ(Array::max_abs_diff(serial, par), 0.0);
}

/// Full pipeline: the split-staggered grandchem model, scalar vs. width 8,
/// through the Simulation driver (flux kernels, clamping, Heun staging).
TEST(VectorEquivalenceTest, SplitStaggeredModelMatches) {
  const auto run_sim = [](int width) {
    app::GrandChemParams params = app::make_p1(2);
    app::GrandChemModel model(params);
    app::SimulationOptions opts;
    opts.cells = {22, 9, 1};
    opts.compile.split_phi = true;
    opts.compile.split_mu = true;
    opts.compile.vector_width = width;
    opts.time_scheme = app::TimeScheme::Heun;
    app::Simulation sim(model, opts);
    sim.init_phi([](long long x, long long, long long, int c) {
      const double v = app::interface_profile(double(x) - 10.0, 6.0);
      return c == 0 ? v : (c == 1 ? 1.0 - v : 0.0);
    });
    sim.init_mu([](long long, long long, long long, int) { return -0.1; });
    sim.run(2);
    return std::pair<double, double>(sim.phi().interior_sum(0),
                                     sim.mu().interior_sum(0));
  };
  const auto [phi1, mu1] = run_sim(1);
  const auto [phi8, mu8] = run_sim(8);
  EXPECT_EQ(phi1, phi8);
  EXPECT_EQ(mu1, mu8);
}

}  // namespace
}  // namespace pfc::backend
