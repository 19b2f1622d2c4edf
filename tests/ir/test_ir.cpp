// IR construction, hoisting, op counting, passes.
#include <gtest/gtest.h>

#include <cmath>

#include "pfc/app/compiler.hpp"
#include "pfc/app/grandchem.hpp"
#include "pfc/app/params.hpp"
#include "pfc/fd/discretize.hpp"
#include "pfc/ir/kernel.hpp"
#include "pfc/ir/opcount.hpp"
#include "pfc/ir/passes.hpp"
#include "pfc/sym/printer.hpp"
#include "pfc/sym/simplify.hpp"

namespace pfc::ir {
namespace {

using sym::Expr;
using sym::num;

fd::StencilKernel simple_stencil() {
  auto src = Field::create("a_src", 3, 1);
  auto dst = Field::create("a_dst", 3, 1);
  fd::PdeUpdate pde;
  pde.name = "a";
  pde.src = src;
  pde.dst = dst;
  Expr lap = num(0);
  for (int d = 0; d < 3; ++d) {
    lap = lap + sym::diff_op(sym::diff_op(sym::at(src), d), d);
  }
  pde.rhs = {lap};
  fd::DiscretizeOptions o;
  o.dims = 3;
  return fd::discretize(pde, o).kernels[0];
}

TEST(IrBuildTest, FieldsAndStores) {
  Kernel k = build_kernel(simple_stencil());
  EXPECT_EQ(k.fields.size(), 2u);
  EXPECT_EQ(k.writes.size(), 1u);
  EXPECT_EQ(k.reads.size(), 1u);
  EXPECT_FALSE(k.uses_time);
  const auto radius = k.access_radius();
  EXPECT_EQ(radius[0], 1);
}

TEST(IrBuildTest, TemperatureHoisting) {
  // a T(z, t)-dependent factor must be hoisted to the z level
  auto src = Field::create("b_src", 3, 1);
  auto dst = Field::create("b_dst", 3, 1);
  // T = 1 + 0.01 (z - 0.5 t); rhs = exp(T)*laplacian — exp(T) hoistable
  Expr T = 1.0 + 0.01 * (sym::coord(2) - 0.5 * sym::time());
  Expr lap = num(0);
  for (int d = 0; d < 3; ++d) {
    lap = lap + sym::diff_op(sym::diff_op(sym::at(src), d), d);
  }
  fd::PdeUpdate pde;
  pde.name = "b";
  pde.src = src;
  pde.dst = dst;
  // use exp(T) twice so CSE extracts it
  pde.rhs = {sym::exp_(T) * lap + sym::exp_(T)};
  fd::DiscretizeOptions o;
  o.dims = 3;
  Kernel k = build_kernel(fd::discretize(pde, o).kernels[0]);
  EXPECT_TRUE(k.uses_time);
  const auto hoisted = k.at_level(Level::PerZ);
  ASSERT_FALSE(hoisted.empty())
      << "temperature-dependent subexpression was not hoisted";
  // hoisted code must not be counted in per-cell FLOPs
  const OpCounts ops = count_ops(k);
  EXPECT_EQ(ops.transcendental, 0) << "exp(T) counted per cell";
}

TEST(IrBuildTest, HoistingCanBeDisabled) {
  auto src = Field::create("c_src", 3, 1);
  auto dst = Field::create("c_dst", 3, 1);
  Expr T = sym::coord(2) * 2.0;
  fd::PdeUpdate pde;
  pde.name = "c";
  pde.src = src;
  pde.dst = dst;
  pde.rhs = {sym::exp_(T) * sym::at(src) + sym::exp_(T)};
  fd::DiscretizeOptions o;
  o.dims = 3;
  BuildOptions bo;
  bo.hoist_invariants = false;
  Kernel k = build_kernel(fd::discretize(pde, o).kernels[0], bo);
  EXPECT_TRUE(k.at_level(Level::PerZ).empty());
  EXPECT_GT(count_ops(k).transcendental, 0);
}

TEST(IrBuildTest, ScalarParameterDiscovery) {
  auto src = Field::create("d_src", 3, 1);
  auto dst = Field::create("d_dst", 3, 1);
  Expr gamma = sym::symbol("gamma");
  fd::PdeUpdate pde;
  pde.name = "d";
  pde.src = src;
  pde.dst = dst;
  pde.rhs = {gamma * sym::at(src)};
  fd::DiscretizeOptions o;
  o.dims = 3;
  Kernel k = build_kernel(fd::discretize(pde, o).kernels[0]);
  ASSERT_EQ(k.scalar_params.size(), 1u);
  EXPECT_EQ(k.scalar_params[0]->name(), "gamma");
}

TEST(OpCountTest, BasicExpressions) {
  Expr x = sym::symbol("x"), y = sym::symbol("y");
  EXPECT_EQ(count_ops(x + y).adds, 1);
  EXPECT_EQ(count_ops(x * y).muls, 1);
  EXPECT_EQ(count_ops(x - y).adds, 1);
  EXPECT_EQ(count_ops(x - y).muls, 0);  // negation folds into subtract
  EXPECT_EQ(count_ops(x / y).divs, 1);
  EXPECT_EQ(count_ops(x / y).muls, 0);
  EXPECT_EQ(count_ops(sym::pow(x, 3)).muls, 2);
  EXPECT_EQ(count_ops(sym::sqrt_(x)).sqrts, 1);
  EXPECT_EQ(count_ops(sym::rsqrt(x)).rsqrts, 1);
  EXPECT_EQ(count_ops(sym::pow(x, num(-0.5))).rsqrts, 1);
  EXPECT_EQ(count_ops(sym::min_(x, y)).blends, 1);
}

TEST(OpCountTest, CombinedDenominator) {
  Expr x = sym::symbol("x"), y = sym::symbol("y"), z = sym::symbol("z");
  // x / (y z): one division, one mul for the denominator product
  OpCounts c = count_ops(x * sym::pow(y, -1) * sym::pow(z, -1));
  EXPECT_EQ(c.divs, 1);
  EXPECT_EQ(c.muls, 1);
}

TEST(OpCountTest, NormalizedWeights) {
  OpCounts c;
  c.adds = 2;
  c.muls = 3;
  c.divs = 1;
  c.sqrts = 1;
  c.rsqrts = 2;
  EXPECT_EQ(c.normalized_flops(), 2 + 3 + 16 + 10 + 4);
}

TEST(PassesTest, RematerializeCheapTemp) {
  auto src = Field::create("e_src", 3, 1);
  auto dst = Field::create("e_dst", 3, 1);
  fd::PdeUpdate pde;
  pde.name = "e";
  pde.src = src;
  pde.dst = dst;
  // (a+b) reused: CSE extracts it; remat with generous cost puts it back.
  // (multiply by a non-number so canonicalization does not distribute)
  Expr a = sym::at(src), b = sym::shifted(sym::at(src), 0, 1);
  pde.rhs = {(a + b) * a + sym::sqrt_(a + b)};
  fd::DiscretizeOptions o;
  o.dims = 3;
  Kernel k = build_kernel(fd::discretize(pde, o).kernels[0]);
  const std::size_t temps_before = k.num_temps();
  ASSERT_GE(temps_before, 1u);
  const std::size_t inlined = rematerialize(k, {.max_cost = 5, .max_uses = 8});
  EXPECT_GE(inlined, 1u);
  EXPECT_LT(k.num_temps(), temps_before);
}

TEST(PassesTest, DeadCodeElimination) {
  Kernel k = build_kernel(simple_stencil());
  // inject a dead temp
  k.body.insert(k.body.begin(),
                {{sym::symbol("dead"), num(1.0) + sym::symbol("alsodead")},
                 Level::Body});
  const std::size_t n = k.body.size();
  EXPECT_EQ(eliminate_dead_code(k), 1u);
  EXPECT_EQ(k.body.size(), n - 1);
}

TEST(PassesTest, FencesEveryStride) {
  Kernel k = build_kernel(simple_stencil());
  std::size_t body_stmts = 0;
  for (const auto& sa : k.body) {
    if (sa.level == Level::Body) ++body_stmts;
  }
  const std::size_t nf = insert_thread_fences(k, 2);
  EXPECT_EQ(nf, body_stmts / 2);
}

TEST(PassesTest, FoldParameters) {
  auto src = Field::create("g_src", 3, 1);
  auto dst = Field::create("g_dst", 3, 1);
  Expr gamma = sym::symbol("gamma");
  fd::PdeUpdate pde;
  pde.name = "g";
  pde.src = src;
  pde.dst = dst;
  pde.rhs = {gamma * sym::at(src) + gamma * gamma};
  fd::DiscretizeOptions o;
  o.dims = 3;
  Kernel k = build_kernel(fd::discretize(pde, o).kernels[0]);
  ASSERT_EQ(k.scalar_params.size(), 1u);
  const OpCounts before = count_ops(k);
  fold_parameters(k, {{"gamma", 2.0}});
  EXPECT_TRUE(k.scalar_params.empty());
  // gamma*gamma folded to 4: fewer multiplies per cell
  EXPECT_LT(count_ops(k).muls, before.muls);
}

// --- reciprocal folding and shared sums --------------------------------------

ScheduledAssignment stmt(const Expr& lhs, const Expr& rhs,
                         Level level = Level::Body) {
  return {{lhs, rhs}, level};
}

/// Evaluates every store of `k` in body order with the given symbol values
/// (temps are bound as they are defined).
std::vector<double> evaluate_stores(const Kernel& k,
                                    sym::EvalContext ctx) {
  std::vector<double> out;
  for (const auto& sa : k.body) {
    const double v = sym::evaluate(sa.assign.rhs, ctx);
    if (sa.assign.lhs->kind() == sym::Kind::Symbol) {
      ctx.symbols[sa.assign.lhs->name()] = v;
    } else {
      out.push_back(v);
    }
  }
  return out;
}

/// The temp defined as base^-1, or nullptr.
const ScheduledAssignment* reciprocal_of(const Kernel& k, const Expr& base) {
  for (const auto& sa : k.body) {
    if (sa.assign.lhs->kind() == sym::Kind::Symbol &&
        sym::equals(sa.assign.rhs, sym::pow(base, -1))) {
      return &sa;
    }
  }
  return nullptr;
}

TEST(ReciprocalFold, RepeatedDivisorDividesOnce) {
  auto src = Field::create("rf_src", 3, 3);
  auto dst = Field::create("rf_dst", 3, 3);
  const Expr t = sym::symbol("rf_t");
  Kernel k;
  k.name = "rf";
  k.body = {stmt(t, 1.0 + sym::pow(sym::at(src, 0), 2)),
            stmt(sym::at(dst, 0), sym::at(src, 0) / t),
            stmt(sym::at(dst, 1), sym::at(src, 1) / sym::pow(t, 2)),
            stmt(sym::at(dst, 2), sym::at(src, 2) / t)};
  ASSERT_EQ(count_ops(k).divs, 3);
  sym::EvalContext ctx;
  ctx.field_value = [](const Expr& fr) { return 0.3 + 0.2 * fr->component(); };
  const auto before = evaluate_stores(k, ctx);

  EXPECT_EQ(fold_reciprocals(k), 1u);
  EXPECT_EQ(count_ops(k).divs, 1);
  const ScheduledAssignment* r = reciprocal_of(k, t);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->level, Level::Body);
  const auto after = evaluate_stores(k, ctx);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(after[i], before[i], 1e-15 * std::abs(before[i]));
  }
}

TEST(ReciprocalFold, SingleUseDivisorKeepsItsDivision) {
  auto src = Field::create("rs_src", 3, 2);
  auto dst = Field::create("rs_dst", 3, 2);
  const Expr t = sym::symbol("rs_t");
  Kernel k;
  k.name = "rs";
  k.body = {stmt(t, 1.0 + sym::pow(sym::at(src, 0), 2)),
            stmt(sym::at(dst, 0), sym::at(src, 0) / t),
            stmt(sym::at(dst, 1), sym::at(src, 1) * t)};
  const std::size_t n = k.body.size();
  EXPECT_EQ(fold_reciprocals(k), 0u);
  EXPECT_EQ(k.body.size(), n);
  EXPECT_EQ(count_ops(k).divs, 1);
  EXPECT_EQ(reciprocal_of(k, t), nullptr);
}

TEST(ReciprocalFold, DivisorThatSharesEveryDenominatorStays) {
  // t divides twice, but each time together with a divisor used once: a
  // reciprocal of t would add a division and remove none.
  auto src = Field::create("rd_src", 3, 2);
  auto dst = Field::create("rd_dst", 3, 2);
  const Expr t = sym::symbol("rd_t"), c = sym::symbol("rd_c"),
             d = sym::symbol("rd_d");
  Kernel k;
  k.name = "rd";
  k.body = {stmt(sym::at(dst, 0), sym::at(src, 0) / (t * c)),
            stmt(sym::at(dst, 1), sym::at(src, 1) / (t * d))};
  ASSERT_EQ(count_ops(k).divs, 2);
  EXPECT_EQ(fold_reciprocals(k), 0u);
  EXPECT_EQ(count_ops(k).divs, 2);
}

TEST(ReciprocalFold, ZOnlyDivisorStaysHoisted) {
  auto src = Field::create("rz_src", 3, 2);
  auto dst = Field::create("rz_dst", 3, 2);
  const Expr t = sym::symbol("rz_t");
  Kernel k;
  k.name = "rz";
  k.body = {stmt(t, 1.0 + 0.01 * sym::coord(2), Level::PerZ),
            stmt(sym::at(dst, 0), sym::at(src, 0) / t),
            stmt(sym::at(dst, 1), sym::at(src, 1) / sym::pow(t, 3))};
  ASSERT_EQ(count_ops(k).divs, 2);
  EXPECT_EQ(fold_reciprocals(k), 1u);
  const ScheduledAssignment* r = reciprocal_of(k, t);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->level, Level::PerZ);
  EXPECT_EQ(count_ops(k).divs, 0) << "the hoisted reciprocal is per z";
}

struct DivisionRow {
  const char* label;
  bool p2, phi, split;
  int dims;
  long before, after;  // per-cell divisions summed over the kernels
  long lowered;        // after every lowering pass (ir::fold_radicals too)
};

/// Divisions per cell of every Table 1 kernel (3-D) and of the 2-D P2 φ
/// the dendrite runs, before and after the fold. The µ kernels' lowering
/// adds one division per merged radical group (ir::fold_radicals) and
/// drops their exact rsqrts, each a division of its own.
const DivisionRow kDivisionRows[] = {
    {"P1 mu full", false, false, false, 3, 4, 1, 19},
    {"P1 mu split", false, false, true, 3, 4, 1, 10},
    {"P1 phi full", false, true, false, 3, 9, 3, 3},
    {"P1 phi split", false, true, true, 3, 9, 3, 3},
    {"P2 mu full", true, false, false, 3, 1, 1, 13},
    {"P2 mu split", true, false, true, 3, 1, 1, 7},
    {"P2 phi full", true, true, false, 3, 119, 17, 17},
    {"P2 phi split", true, true, true, 3, 59, 11, 11},
    {"P2 phi full 2-D", true, true, false, 2, 87, 13, 13},
};

fd::PdeUpdate model_update(const DivisionRow& row,
                           fd::DiscretizeOptions* d) {
  const app::GrandChemParams params =
      row.p2 ? app::make_p2(row.dims) : app::make_p1(row.dims);
  const app::GrandChemModel model(params);
  d->dims = row.dims;
  d->dx = params.dx;
  d->dt = params.dt;
  d->split_staggered = row.split;
  d->clamp_unit_interval = row.phi;
  d->renormalize_simplex = row.phi;
  return row.phi ? model.phi_update() : model.mu_update();
}

TEST(ReciprocalFold, Table1DivisionCounts) {
  for (const auto& row : kDivisionRows) {
    fd::DiscretizeOptions d;
    const fd::PdeUpdate pde = model_update(row, &d);
    BuildOptions bo;
    bo.dims = row.dims;
    long before = 0, after = 0;
    for (const auto& sk : fd::discretize(pde, d).kernels) {
      Kernel k = build_kernel(sk, bo);
      const long divs = count_ops(k).divs;
      fold_reciprocals(k);
      EXPECT_LE(count_ops(k).divs, divs) << row.label << " " << k.name;
      before += divs;
      after += count_ops(k).divs;
    }
    EXPECT_EQ(before, row.before) << row.label;
    EXPECT_EQ(after, row.after) << row.label;
    // the compiler's lowering runs the fold
    std::optional<FieldPtr> flux;
    long lowered = 0;
    for (const auto& k :
         app::ModelCompiler::lower(pde, d, app::CompileOptions{}, &flux)) {
      lowered += count_ops(k).divs;
    }
    EXPECT_EQ(lowered, row.lowered) << row.label;
  }
}

TEST(ReciprocalFold, RematerializeLeavesAReciprocalAlone) {
  // P1 µ-full divides by one denominator in four places, and each of its 18
  // merged radical groups is one sqrt of a product with a reciprocal;
  // "dupl" inlines temps of cost <= 3 with <= 4 uses, which would put
  // divisions or square roots back.
  fd::DiscretizeOptions d;
  const fd::PdeUpdate pde = model_update(kDivisionRows[0], &d);
  std::optional<FieldPtr> flux;
  auto kernels = app::ModelCompiler::lower(pde, d, app::CompileOptions{}, &flux);
  ASSERT_EQ(kernels.size(), 1u);
  Kernel& k = kernels[0];
  const OpCounts before = count_ops(k);
  ASSERT_EQ(before.divs, 19);
  ASSERT_EQ(before.sqrts, 18);
  std::size_t reciprocals = 0;
  for (const auto& sa : k.body) {
    long n = 0;
    if (sa.assign.lhs->kind() == sym::Kind::Symbol &&
        sa.assign.rhs->kind() == sym::Kind::Pow &&
        sa.assign.rhs->arg(1)->integer_value(&n) && n == -1) {
      ++reciprocals;
    }
  }
  ASSERT_EQ(reciprocals, 19u);
  rematerialize(k);
  const OpCounts after = count_ops(k);
  EXPECT_EQ(after.divs, before.divs);
  EXPECT_EQ(after.sqrts, before.sqrts);
  EXPECT_EQ(after.rsqrts, 0);
}

/// Per-cell divider instructions as emitted: sqrt plus division, an exact
/// rsqrt being one of each.
long dividers(const OpCounts& c) { return c.sqrts + c.divs + 2 * c.rsqrts; }

/// Field values for evaluate_stores: component c of `src` reads 0.2 + 0.3c.
sym::EvalContext radical_context() {
  sym::EvalContext ctx;
  ctx.field_value = [](const Expr& fr) { return 0.2 + 0.3 * fr->component(); };
  return ctx;
}

void expect_close(const std::vector<double>& after,
                  const std::vector<double>& before) {
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(after[i], before[i], 1e-15 * std::abs(before[i]));
  }
}

TEST(RadicalFold, AntiTrappingProductIsOneSqrtAndOneDivision) {
  // sqrt(u)·rsqrt(v)·rsqrt(w)², as Eq. 10 writes each anti-trapping term,
  // read by two statements: one root R = sqrt(u·r) with r = (v·w²)^-1
  // replaces the three radical temps.
  auto src = Field::create("qa_src", 3, 3);
  auto dst = Field::create("qa_dst", 3, 2);
  const Expr a = sym::at(src, 0), b = sym::at(src, 1), c = sym::at(src, 2);
  const Expr s = sym::symbol("qa_s"), n_l = sym::symbol("qa_nl"),
             n_a = sym::symbol("qa_na");
  Kernel k;
  k.name = "qa";
  k.body = {stmt(s, sym::sqrt_(sym::max_(a * b, num(0.0)))),
            stmt(n_l, sym::rsqrt(sym::max_(b * b + c * c, num(1e-9)))),
            stmt(n_a, sym::rsqrt(sym::max_(a * a + c * c, num(1e-9)))),
            stmt(sym::at(dst, 0), c * s * n_l * sym::pow(n_a, 2)),
            stmt(sym::at(dst, 1), 2.0 * a * s * n_l * sym::pow(n_a, 2))};
  const OpCounts before = count_ops(k);
  ASSERT_EQ(dividers(before), 5);
  const auto values = evaluate_stores(k, radical_context());

  EXPECT_EQ(fold_radicals(k), 1u);
  const OpCounts after = count_ops(k);
  EXPECT_EQ(after.sqrts, 1);
  EXPECT_EQ(after.rsqrts, 0);
  EXPECT_EQ(after.divs, 1);
  ASSERT_EQ(k.num_temps(), 2u) << "R and its reciprocal";
  EXPECT_EQ(k.body[0].assign.rhs->kind(), sym::Kind::Pow);
  EXPECT_EQ(k.body[1].assign.rhs->func(), sym::Func::Sqrt);
  for (const auto& sa : k.body) EXPECT_EQ(sa.level, Level::Body);
  expect_close(evaluate_stores(k, radical_context()), values);
}

TEST(RadicalFold, RadicandTwoGroupsReadIsOneTemp) {
  // Two solid phases at one face: each product folds into its own R and r,
  // and both D multiply the liquid normal's guard max(b² + c², ε). That
  // radicand is one temp read by both reciprocals, not one copy in each.
  auto src = Field::create("qs_src", 3, 3);
  auto dst = Field::create("qs_dst", 3, 2);
  const Expr a = sym::at(src, 0), b = sym::at(src, 1), c = sym::at(src, 2);
  const Expr s0 = sym::symbol("qs_s0"), s1 = sym::symbol("qs_s1"),
             n_l = sym::symbol("qs_nl"), n0 = sym::symbol("qs_n0"),
             n1 = sym::symbol("qs_n1");
  const Expr liquid = sym::max_(b * b + c * c, num(1e-9));
  Kernel k;
  k.name = "qs";
  k.body = {stmt(s0, sym::sqrt_(sym::max_(a * b, num(0.0)))),
            stmt(s1, sym::sqrt_(sym::max_(a * c, num(0.0)))),
            stmt(n_l, sym::rsqrt(liquid)),
            stmt(n0, sym::rsqrt(sym::max_(a * a + c * c, num(1e-9)))),
            stmt(n1, sym::rsqrt(sym::max_(a * a + b * b, num(1e-9)))),
            stmt(sym::at(dst, 0), c * s0 * n_l * sym::pow(n0, 2)),
            stmt(sym::at(dst, 1), b * s1 * n_l * sym::pow(n1, 2))};
  const OpCounts before = count_ops(k);
  const auto values = evaluate_stores(k, radical_context());

  EXPECT_EQ(fold_radicals(k), 2u);
  const OpCounts after = count_ops(k);
  EXPECT_EQ(after.sqrts, 2);
  EXPECT_EQ(after.divs, 2);
  EXPECT_EQ(after.blends, before.blends) << "each guard evaluated once";
  EXPECT_EQ(after.adds, before.adds);
  std::size_t shared = 0;
  for (const auto& sa : k.body) {
    if (sa.assign.lhs->kind() != sym::Kind::Symbol ||
        !sym::equals(sa.assign.rhs, liquid)) {
      continue;
    }
    ++shared;
    std::size_t readers = 0;
    for (const auto& reader : k.body) {
      sym::for_each(reader.assign.rhs, [&](const Expr& x) {
        readers += sym::equals(x, sa.assign.lhs) ? 1 : 0;
      });
    }
    EXPECT_EQ(readers, 2u) << "read by both reciprocals";
  }
  EXPECT_EQ(shared, 1u);
  expect_close(evaluate_stores(k, radical_context()), values);
}

TEST(RadicalFold, LoweredMuKernelsKeepThePreFoldGuards) {
  // With the liquid normal's guard shared, the lowered µ-full kernels
  // evaluate each guard once, as before the fold.
  struct Row {
    const char* label;
    bool p2;
    int dims;
    long adds, blends;
  };
  for (const Row& row : {Row{"P2 mu full 2-D", true, 2, 168, 20},
                         Row{"P1 mu full 3-D", false, 3, 617, 42}}) {
    const DivisionRow spec{row.label, row.p2, false, false, row.dims,
                           0, 0, 0};
    fd::DiscretizeOptions d;
    const fd::PdeUpdate pde = model_update(spec, &d);
    std::optional<FieldPtr> flux;
    const auto ks =
        app::ModelCompiler::lower(pde, d, app::CompileOptions{}, &flux);
    ASSERT_EQ(ks.size(), 1u);
    const OpCounts c = count_ops(ks.front());
    EXPECT_EQ(c.adds, row.adds) << row.label;
    EXPECT_EQ(c.blends, row.blends) << row.label;
  }
}

TEST(RadicalFold, UnguardedRadicandStays) {
  // sqrt(a)·rsqrt(b) is not sqrt(a/b) when a < 0, and rsqrt(max(e, 0))
  // may divide by zero: only max(e, c) with c >= 0 (c > 0 under a
  // reciprocal root) merges.
  auto src = Field::create("qu_src", 3, 3);
  auto dst = Field::create("qu_dst", 3, 2);
  const Expr a = sym::at(src, 0), b = sym::at(src, 1), c = sym::at(src, 2);
  const Expr guarded = sym::rsqrt(sym::max_(b * b + c * c, num(1e-9)));
  Kernel k;
  k.name = "qu";
  k.body = {stmt(sym::at(dst, 0), c * sym::sqrt_(a - b) * guarded),
            stmt(sym::at(dst, 1), c * sym::sqrt_(sym::max_(a, num(0.0))) *
                                      sym::rsqrt(sym::max_(b, num(0.0))))};
  const std::vector<ScheduledAssignment> body = k.body;
  EXPECT_EQ(fold_radicals(k), 0u);
  ASSERT_EQ(k.body.size(), body.size());
  for (std::size_t i = 0; i < body.size(); ++i) {
    EXPECT_TRUE(sym::equals(k.body[i].assign.rhs, body[i].assign.rhs));
  }
}

TEST(RadicalFold, RadicalThatOtherStatementsReadStays) {
  // Both radicals are still read outside the product, so merging them
  // would add a sqrt and a division and remove neither.
  auto src = Field::create("ql_src", 3, 3);
  auto dst = Field::create("ql_dst", 3, 2);
  const Expr a = sym::at(src, 0), b = sym::at(src, 1), c = sym::at(src, 2);
  const Expr s = sym::symbol("ql_s"), n = sym::symbol("ql_n");
  Kernel k;
  k.name = "ql";
  k.body = {stmt(s, sym::sqrt_(sym::max_(a * b, num(0.0)))),
            stmt(n, sym::rsqrt(sym::max_(b * b + c * c, num(1e-9)))),
            stmt(sym::at(dst, 0), c * s * n),
            stmt(sym::at(dst, 1), a * s + b * n)};
  const long before = dividers(count_ops(k));
  const std::size_t size = k.body.size();
  EXPECT_EQ(fold_radicals(k), 0u);
  EXPECT_EQ(k.body.size(), size);
  EXPECT_EQ(dividers(count_ops(k)), before);
}

TEST(RadicalFold, HalfPowersFoldLikeTheCalls) {
  auto src = Field::create("qp_src", 3, 3);
  auto dst = Field::create("qp_dst", 3, 1);
  const Expr a = sym::at(src, 0), b = sym::at(src, 1), c = sym::at(src, 2);
  Kernel k;
  k.name = "qp";
  k.body = {stmt(sym::at(dst, 0),
                 c * sym::pow(sym::max_(a * b, num(0.0)), num(0.5)) *
                     sym::pow(sym::max_(b * b + c * c, num(1e-9)), num(-0.5)))};
  const OpCounts before = count_ops(k);
  ASSERT_EQ(before.sqrts, 1);
  ASSERT_EQ(before.rsqrts, 1);
  const auto values = evaluate_stores(k, radical_context());

  EXPECT_EQ(fold_radicals(k), 1u);
  const OpCounts after = count_ops(k);
  EXPECT_EQ(after.sqrts, 1);
  EXPECT_EQ(after.rsqrts, 0);
  EXPECT_EQ(after.divs, 1);
  expect_close(evaluate_stores(k, radical_context()), values);
}

TEST(RadicalFold, LoweredMuKernelsDivideOncePerRadicalGroup) {
  // Per kernel: sqrts, rsqrts and divisions before the fold (after
  // fold_reciprocals), then sqrts and divisions as lowered. The φ kernels
  // have no radicals.
  struct Row {
    const char* label;
    bool p2, split;
    int dims;
    const char* kernel;
    long sqrts, rsqrts, divs_before, divs_after;
  };
  const Row rows[] = {
      {"P1 mu full 3-D", false, false, 3, "mu-full", 18, 24, 1, 19},
      {"P2 mu full 2-D", true, false, 2, "mu-full", 8, 12, 1, 9},
      {"P1 mu split 3-D", false, true, 3, "mu-split-stag0", 3, 4, 0, 3},
      {"P1 mu split 3-D", false, true, 3, "mu-split-stag1", 3, 4, 0, 3},
      {"P1 mu split 3-D", false, true, 3, "mu-split-stag2", 3, 4, 0, 3},
      {"P1 mu split 3-D", false, true, 3, "mu-split-main", 0, 0, 1, 1},
  };
  for (const Row& row : rows) {
    const DivisionRow spec{row.label, row.p2, false, row.split, row.dims,
                           0, 0, 0};
    fd::DiscretizeOptions d;
    const fd::PdeUpdate pde = model_update(spec, &d);
    BuildOptions bo;
    bo.dims = row.dims;
    bool found = false;
    for (const auto& sk : fd::discretize(pde, d).kernels) {
      if (sk.name != row.kernel) continue;
      found = true;
      Kernel k = build_kernel(sk, bo);
      fold_reciprocals(k);
      const OpCounts c = count_ops(k);
      EXPECT_EQ(c.sqrts, row.sqrts) << row.kernel;
      EXPECT_EQ(c.rsqrts, row.rsqrts) << row.kernel;
      EXPECT_EQ(c.divs, row.divs_before) << row.kernel;
    }
    ASSERT_TRUE(found) << row.label << " " << row.kernel;
    std::optional<FieldPtr> flux;
    for (const auto& k :
         app::ModelCompiler::lower(pde, d, app::CompileOptions{}, &flux)) {
      if (k.name != row.kernel) continue;
      const OpCounts c = count_ops(k);
      EXPECT_EQ(c.sqrts, row.sqrts) << row.label << " " << k.name;
      EXPECT_EQ(c.rsqrts, 0) << row.label << " " << k.name;
      EXPECT_EQ(c.divs, row.divs_after) << row.label << " " << k.name;
      EXPECT_EQ(dividers(c), row.sqrts + row.divs_after);
      EXPECT_LE(dividers(c), row.sqrts + 2 * row.rsqrts + row.divs_before);
    }
  }
}

TEST(SharedSums, ProjectedUpdateSumsEachPhaseOnce) {
  // out_a = λ - v_a with λ = (v_0 + v_1 + v_2) / 3: canonicalization
  // merges λ into each store, so every store carries all six products.
  auto dst = Field::create("ss_dst", 3, 3);
  std::vector<Expr> v;
  sym::EvalContext ctx;
  for (int a = 0; a < 3; ++a) {
    std::vector<Expr> terms;
    for (int j = 0; j < 2; ++j) {
      const std::string id = std::to_string(2 * a + j);
      const Expr x = sym::symbol("ss_x" + id), y = sym::symbol("ss_y" + id);
      ctx.symbols[x->name()] = 0.7 + 0.1 * (2 * a + j);
      ctx.symbols[y->name()] = -1.3 + 0.2 * (2 * a + j);
      terms.push_back(double(a + j + 1) * x * y);
    }
    v.push_back(sym::add(std::move(terms)));
  }
  const Expr lambda = sym::add(v) / 3.0;
  Kernel k;
  k.name = "ss";
  for (int a = 0; a < 3; ++a) {
    k.body.push_back(stmt(sym::at(dst, a), lambda - v[std::size_t(a)]));
  }
  const long before_ops = count_ops(k).normalized_flops();
  const auto before = evaluate_stores(k, ctx);

  EXPECT_EQ(share_sums(k), 3u);
  EXPECT_EQ(k.num_temps(), 3u);
  EXPECT_LT(count_ops(k).normalized_flops(), before_ops);
  const auto after = evaluate_stores(k, ctx);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(after[i], before[i], 1e-14);
  }
}

TEST(SharedSums, UnrelatedSumsAreLeftAlone) {
  auto dst = Field::create("su_dst", 3, 2);
  const Expr x = sym::symbol("su_x"), y = sym::symbol("su_y"),
             z = sym::symbol("su_z");
  Kernel k;
  k.name = "su";
  k.body = {stmt(sym::at(dst, 0), 2.0 * x * y + 3.0 * x * z + y * z),
            stmt(sym::at(dst, 1), x * y - 5.0 * x * z + 7.0 * y * z)};
  const std::size_t n = k.body.size();
  EXPECT_EQ(share_sums(k), 0u);
  EXPECT_EQ(k.body.size(), n);
}

}  // namespace
}  // namespace pfc::ir
