// Discretization tests: stencil shapes, staggered evaluation (Eq. 11),
// split-kernel generation, and 2nd-order consistency on polynomial fields.
#include <gtest/gtest.h>

#include <cmath>

#include "pfc/fd/discretize.hpp"
#include "pfc/sym/printer.hpp"
#include "pfc/sym/simplify.hpp"

namespace pfc::fd {
namespace {

using sym::Expr;
using sym::equals;
using sym::num;

DiscretizeOptions opts2d() {
  DiscretizeOptions o;
  o.dims = 2;
  o.dx = 1.0;
  return o;
}

/// Evaluates a stencil expression with field values provided by fn(x,y,z,c)
/// at offsets relative to the origin cell.
double eval_stencil(const Expr& e,
                    const std::function<double(int, int, int, int)>& fn,
                    double x0 = 0, double y0 = 0, double z0 = 0) {
  sym::EvalContext ctx;
  ctx.symbols = {{"x0", x0}, {"x1", y0}, {"x2", z0}, {"t", 0.0},
                 {"t_step", 0.0}};
  ctx.field_value = [&](const Expr& fr) {
    return fn(fr->offset()[0], fr->offset()[1], fr->offset()[2],
              fr->component());
  };
  return sym::evaluate(e, ctx);
}

TEST(DiscretizeTest, LaplacianStencil) {
  auto phi = Field::create("phi", 2, 1);
  // div(grad(phi)) discretizes to the classic 5-point stencil in 2D
  Expr lap = num(0);
  for (int d = 0; d < 2; ++d) {
    lap = lap + sym::diff_op(sym::diff_op(sym::at(phi), d), d);
  }
  Expr st = discretize_expression(lap, opts2d());
  const double v = eval_stencil(st, [](int dx, int dy, int, int) {
    // f = x^2 + 3y^2 -> lap = 8 exactly (2nd order exact on quadratics)
    return double(dx * dx + 3 * dy * dy);
  });
  EXPECT_NEAR(v, 8.0, 1e-12) << sym::to_string(st);
}

TEST(DiscretizeTest, CentralDifferenceForFirstDerivative) {
  auto phi = Field::create("phi", 2, 1);
  Expr st = discretize_expression(sym::diff_op(sym::at(phi), 0), opts2d());
  // f = 5x -> df/dx = 5
  EXPECT_NEAR(eval_stencil(st, [](int dx, int, int, int) {
                return 5.0 * dx;
              }),
              5.0, 1e-12);
  // stencil must be (f(+1) - f(-1)) / 2
  EXPECT_TRUE(equals(st, 0.5 * sym::shifted(sym::at(phi), 0, 1) -
                             0.5 * sym::shifted(sym::at(phi), 0, -1)))
      << sym::to_string(st);
}

TEST(DiscretizeTest, VariableCoefficientFluxMatchesEq11) {
  // d/dx( p(x) * d f/dx ): the example of the paper's Eq. 11
  auto f = Field::create("f", 2, 1);
  Expr p = sym::coord(0) * 2.0 + 1.0;  // analytic p(x) = 2x + 1
  Expr flux = p * sym::diff_op(sym::at(f), 0);
  Expr st = discretize_expression(sym::diff_op(flux, 0), opts2d());
  // With f = x^2: d/dx((2x+1) 2x) = 8x + 2 -> at x=1: 10
  const double v =
      eval_stencil(st, [](int dx, int, int, int) {
        const double x = 1.0 + dx;
        return x * x;
      }, /*x0=*/1.0);
  EXPECT_NEAR(v, 10.0, 1e-10) << sym::to_string(st);
}

TEST(DiscretizeTest, TransverseDerivativeAtStaggeredPosition) {
  // d/dx( d f/dy ) must use the Eq. 11 four-point average and be exact for
  // bilinear fields
  auto f = Field::create("f", 2, 1);
  Expr inner = sym::diff_op(sym::at(f), 1);
  Expr st = discretize_expression(sym::diff_op(inner, 0), opts2d());
  const double v = eval_stencil(st, [](int dx, int dy, int, int) {
    return 3.0 * dx * dy;  // d2f/dxdy = 3
  });
  EXPECT_NEAR(v, 3.0, 1e-12) << sym::to_string(st);
}

TEST(DiscretizeTest, DxScaling) {
  auto phi = Field::create("phi", 2, 1);
  DiscretizeOptions o = opts2d();
  o.dx = 0.5;
  Expr lap = sym::diff_op(sym::diff_op(sym::at(phi), 0), 0);
  Expr st = discretize_expression(lap, o);
  // f = x_cells^2 in cell units = (x/dx)^2 -> d2f/dx2 = 2/dx^2 = 8
  EXPECT_NEAR(eval_stencil(st, [](int dx, int, int, int) {
                return double(dx * dx);
              }),
              8.0, 1e-12);
}

TEST(DiscretizeTest, DtOnRhsThrows) {
  auto phi = Field::create("phi", 2, 1);
  EXPECT_THROW(
      discretize_expression(sym::dt_op(sym::at(phi)), opts2d()), Error);
}

TEST(DiscretizeTest, TooDeepNestingThrows) {
  auto phi = Field::create("phi", 2, 1);
  Expr third = sym::diff_op(
      sym::diff_op(sym::pow(sym::diff_op(sym::at(phi), 0), 2), 0), 0);
  EXPECT_THROW(discretize_expression(third, opts2d()), Error);
}

TEST(DiscretizeTest, RandomLoweredToPhilox) {
  auto phi = Field::create("phi", 2, 1);
  DiscretizeOptions o = opts2d();
  o.rng_seed = 7;
  Expr st = discretize_expression(sym::random_uniform(3) + sym::at(phi), o);
  bool found = false;
  sym::for_each(st, [&](const Expr& e) {
    if (e->kind() == sym::Kind::Call &&
        e->func() == sym::Func::PhiloxUniform) {
      found = true;
      EXPECT_TRUE(e->arg(4)->is_number(7.0));  // seed, low half
      EXPECT_TRUE(e->arg(5)->is_number(3.0));  // stream
      EXPECT_TRUE(e->arg(6)->is_number(0.0));  // seed, high half
    }
  });
  EXPECT_TRUE(found);
}

TEST(DiscretizeTest, ExplicitEulerUpdate) {
  auto src = Field::create("c_src", 2, 1);
  auto dst = Field::create("c_dst", 2, 1);
  PdeUpdate pde;
  pde.name = "c";
  pde.src = src;
  pde.dst = dst;
  Expr lap = num(0);
  for (int d = 0; d < 2; ++d) {
    lap = lap + sym::diff_op(sym::diff_op(sym::at(src), d), d);
  }
  pde.rhs = {0.25 * lap};
  DiscretizeOptions o = opts2d();
  o.dt = 0.1;
  auto r = discretize(pde, o);
  ASSERT_EQ(r.kernels.size(), 1u);
  const auto& k = r.kernels[0];
  EXPECT_EQ(k.name, "c-full");
  ASSERT_EQ(k.assignments.size(), 1u);
  EXPECT_EQ(k.assignments[0].lhs->field()->name(), "c_dst");
  // value check: uniform field stays unchanged
  const double v = eval_stencil(k.assignments[0].rhs,
                                [](int, int, int, int) { return 4.2; });
  EXPECT_NEAR(v, 4.2, 1e-12);
  auto radius = access_radius(k);
  EXPECT_EQ(radius[0], 1);
  EXPECT_EQ(radius[1], 1);
  EXPECT_EQ(radius[2], 0);
}

TEST(DiscretizeTest, SplitKernelsShareFluxField) {
  auto src = Field::create("u_src", 2, 1);
  auto dst = Field::create("u_dst", 2, 1);
  PdeUpdate pde;
  pde.name = "u";
  pde.src = src;
  pde.dst = dst;
  // nonlinear diffusion: div( u^2 grad u ) forces flux caching to be useful
  Expr flux_term = num(0);
  for (int d = 0; d < 2; ++d) {
    flux_term = flux_term +
                sym::diff_op(sym::pow(sym::at(src), 2) *
                                 sym::diff_op(sym::at(src), d),
                             d);
  }
  pde.rhs = {flux_term};
  DiscretizeOptions o = opts2d();
  o.split_staggered = true;
  auto r = discretize(pde, o);
  ASSERT_EQ(r.kernels.size(), 3u);  // one staggered sweep per axis + main
  ASSERT_TRUE(r.flux_field.has_value());
  EXPECT_EQ((*r.flux_field)->components(), 2);  // one flux per dim
  const auto& stag_x = r.kernels[0];
  const auto& stag_y = r.kernels[1];
  const auto& main = r.kernels[2];
  EXPECT_EQ(stag_x.name, "u-split-stag0");
  EXPECT_EQ(stag_x.extent_plus[0], 1);
  EXPECT_EQ(stag_x.extent_plus[1], 0);
  EXPECT_EQ(stag_y.extent_plus[0], 0);
  EXPECT_EQ(stag_y.extent_plus[1], 1);
  EXPECT_EQ(main.extent_plus[0], 0);
  // main kernel reads the flux field
  bool reads_flux = false;
  for (const auto& f : main.reads) {
    reads_flux = reads_flux || f->id() == (*r.flux_field)->id();
  }
  EXPECT_TRUE(reads_flux);
  // the split main kernel does far fewer loads of u than the full variant
  DiscretizeOptions fullo = opts2d();
  auto rf = discretize(pde, fullo);
  EXPECT_LT(count_accesses(main).loads + count_accesses(stag_x).loads +
                count_accesses(stag_y).loads,
            2 * count_accesses(rf.kernels[0]).loads);
}

TEST(DiscretizeTest, SplitAndFullAgreeNumerically) {
  auto src = Field::create("w_src", 2, 1);
  auto dst = Field::create("w_dst", 2, 1);
  PdeUpdate pde;
  pde.name = "w";
  pde.src = src;
  pde.dst = dst;
  Expr flux_term = num(0);
  for (int d = 0; d < 2; ++d) {
    flux_term = flux_term + sym::diff_op((sym::at(src) + 2.0) *
                                             sym::diff_op(sym::at(src), d),
                                         d);
  }
  pde.rhs = {flux_term};

  auto full = discretize(pde, opts2d());
  DiscretizeOptions so = opts2d();
  so.split_staggered = true;
  auto split = discretize(pde, so);

  // emulate the two-pass execution on a tiny synthetic field
  const auto fval = [](int dx, int dy) {
    return 0.3 * dx + 0.2 * dy + 0.05 * dx * dx - 0.07 * dy * dy +
           0.11 * dx * dy;
  };
  // full result at the origin
  const double vfull =
      eval_stencil(full.kernels[0].assignments[0].rhs,
                   [&](int dx, int dy, int, int) { return fval(dx, dy); });

  // split: flux values needed at origin (offset 0) and +e_d (offset 1);
  // locate each slot's defining assignment across the per-axis kernels
  const auto flux_at = [&](int slot, int ox, int oy) {
    for (std::size_t ki = 0; ki + 1 < split.kernels.size(); ++ki) {
      for (const auto& a : split.kernels[ki].assignments) {
        if (a.lhs->component() == slot) {
          return eval_stencil(a.rhs, [&](int dx, int dy, int, int) {
            return fval(dx + ox, dy + oy);
          });
        }
      }
    }
    ADD_FAILURE() << "slot " << slot << " not found";
    return 0.0;
  };
  sym::EvalContext ctx;
  ctx.symbols = {{"x0", 0}, {"x1", 0}, {"x2", 0}, {"t", 0}, {"t_step", 0}};
  ctx.field_value = [&](const Expr& fr) -> double {
    if (fr->field()->id() == (*split.flux_field)->id()) {
      return flux_at(fr->component(), fr->offset()[0], fr->offset()[1]);
    }
    return fval(fr->offset()[0], fr->offset()[1]);
  };
  const double vsplit =
      sym::evaluate(split.kernels.back().assignments[0].rhs, ctx);
  EXPECT_NEAR(vfull, vsplit, 1e-12);
}

TEST(DiscretizeTest, ClampOption) {
  auto src = Field::create("p_src", 2, 1);
  auto dst = Field::create("p_dst", 2, 1);
  PdeUpdate pde;
  pde.name = "p";
  pde.src = src;
  pde.dst = dst;
  pde.rhs = {num(100.0)};  // huge positive rhs
  DiscretizeOptions o = opts2d();
  o.clamp_unit_interval = true;
  auto r = discretize(pde, o);
  const double v = eval_stencil(r.kernels[0].assignments[0].rhs,
                                [](int, int, int, int) { return 0.5; });
  EXPECT_DOUBLE_EQ(v, 1.0);
}

// Property: discretized Laplacian converges at 2nd order on smooth fields.
class ConvergenceOrder : public ::testing::TestWithParam<int> {};

TEST_P(ConvergenceOrder, LaplacianSecondOrder) {
  auto phi = Field::create("phi", 2, 1);
  Expr lap = num(0);
  for (int d = 0; d < 2; ++d) {
    lap = lap + sym::diff_op(sym::diff_op(sym::at(phi), d), d);
  }
  const double kx = 0.7 + 0.13 * GetParam(), ky = 1.1 - 0.07 * GetParam();
  const auto f = [&](double x, double y) {
    return std::sin(kx * x) * std::cos(ky * y);
  };
  const double exact = -(kx * kx + ky * ky) * f(0.4, 0.3);
  double err_h = 0, err_h2 = 0;
  for (int lvl = 0; lvl < 2; ++lvl) {
    const double h = lvl == 0 ? 0.02 : 0.01;
    DiscretizeOptions o = opts2d();
    o.dx = h;
    Expr st = discretize_expression(lap, o);
    const double v = eval_stencil(st, [&](int dx, int dy, int, int) {
      return f(0.4 + dx * h, 0.3 + dy * h);
    });
    (lvl == 0 ? err_h : err_h2) = std::abs(v - exact);
  }
  // halving h should reduce the error by ~4
  EXPECT_GT(err_h / err_h2, 3.5);
  EXPECT_LT(err_h / err_h2, 4.5);
}

INSTANTIATE_TEST_SUITE_P(Waves, ConvergenceOrder, ::testing::Range(0, 6));

}  // namespace
}  // namespace pfc::fd
