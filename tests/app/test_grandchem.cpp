// Model-assembly tests: the symbolic grand-chemical model, its variational
// structure and the generated kernels' properties.
#include <gtest/gtest.h>

#include "pfc/app/grandchem.hpp"
#include "pfc/app/params.hpp"
#include "pfc/ir/opcount.hpp"
#include "pfc/app/compiler.hpp"
#include "pfc/sym/subs.hpp"
#include "pfc/sym/simplify.hpp"

namespace pfc::app {
namespace {

TEST(ParamsTest, AllValidate) {
  EXPECT_NO_THROW(make_p1().validate());
  EXPECT_NO_THROW(make_p2().validate());
  EXPECT_NO_THROW(make_two_phase().validate());
  EXPECT_NO_THROW(make_p1(2).validate());
  EXPECT_NO_THROW(make_p2(2).validate());
}

TEST(ParamsTest, ValidationCatchesErrors) {
  GrandChemParams p = make_p1();
  p.fits.pop_back();
  EXPECT_THROW(p.validate(), Error);
  p = make_p1();
  p.liquid_phase = 9;
  EXPECT_THROW(p.validate(), Error);
  p = make_p1();
  p.dt = 0.0;
  EXPECT_THROW(p.validate(), Error);
}

/// Evaluates an expression numerically, treating every distinct Diff node
/// and field access as an independent pseudo-random variable.
double eval_with_random_leaves(const sym::Expr& e, unsigned seed) {
  // map distinct Diff nodes to numbers (outermost matches shadow inner ones)
  sym::SubsMap map;
  unsigned state = seed * 2654435761u + 17;
  const auto rnd = [&]() {
    state = state * 1664525u + 1013904223u;
    return 0.1 + double(state >> 20) / double(1u << 12);  // (0.1, 4.1)
  };
  sym::for_each(e, [&](const sym::Expr& node) {
    if (node->kind() != sym::Kind::Diff) return;
    for (const auto& [pat, rep] : map) {
      (void)rep;
      if (sym::equals(pat, node)) return;
    }
    map.emplace_back(node, sym::num(rnd() - 2.0));
  });
  sym::Expr bound = sym::substitute(e, map);
  sym::EvalContext ctx;
  ctx.symbols = {{"t", rnd()}};
  ctx.field_value = [&](const sym::Expr& fr) {
    // deterministic pseudo-random value per (field, offset, comp), kept in
    // (0,1) so that sqrt/max guards stay smooth
    std::size_t h = fr->hash();
    return 0.05 + double(h % 9001) / 10000.0;
  };
  ctx.symbols["x0"] = rnd();
  ctx.symbols["x1"] = rnd();
  ctx.symbols["x2"] = rnd();
  return sym::evaluate(bound, ctx);
}

TEST(GrandChemTest, LagrangeMultiplierBalancesPhases) {
  // sum over alpha of the deterministic rhs must vanish identically; checked
  // numerically on random field states (the expression is a rational
  // function, so pointwise zero on random inputs means identical zero)
  for (auto* make : {&make_two_phase, &make_p1, &make_p2}) {
    GrandChemModel m(make(2));
    fd::PdeUpdate pde = m.phi_update();
    sym::Expr sum = sym::add(pde.rhs);
    for (unsigned seed = 0; seed < 5; ++seed) {
      EXPECT_NEAR(eval_with_random_leaves(sum, seed), 0.0, 1e-9);
    }
  }
}

TEST(GrandChemTest, TemperatureFormP1) {
  GrandChemModel m(make_p1(3));
  sym::Expr T = m.temperature();
  // depends on z and t, not on x or y
  EXPECT_TRUE(sym::contains(T, sym::coord(2)));
  EXPECT_TRUE(sym::contains(T, sym::time()));
  EXPECT_FALSE(sym::contains(T, sym::coord(0)));
  EXPECT_FALSE(sym::contains(T, sym::coord(1)));
}

TEST(GrandChemTest, MuUpdateReadsPhiDst) {
  // Algorithm 1: the mu kernel consumes both phi_src and phi_dst
  GrandChemModel m(make_p1(2));
  fd::PdeUpdate pde = m.mu_update();
  bool reads_src = false, reads_dst = false;
  for (const auto& r : pde.rhs) {
    for (const auto& fr : sym::field_refs(r)) {
      reads_src = reads_src || fr->field()->id() == m.phi_src()->id();
      reads_dst = reads_dst || fr->field()->id() == m.phi_dst()->id();
    }
  }
  EXPECT_TRUE(reads_src);
  EXPECT_TRUE(reads_dst);
}

TEST(GrandChemTest, AntiTrappingBringsSqrtAndRsqrt) {
  GrandChemModel m(make_p1(3));
  const fd::PdeUpdate pde = m.mu_update();
  long sqrts = 0, rsqrts = 0;
  for (const auto& r : pde.rhs) {
    sym::for_each(r, [&](const sym::Expr& e) {
      if (e->kind() != sym::Kind::Call) return;
      sqrts += e->func() == sym::Func::Sqrt ? 1 : 0;
      rsqrts += e->func() == sym::Func::RSqrt ? 1 : 0;
    });
  }
  EXPECT_GT(sqrts, 0) << "sqrt(phi_a phi_l) terms expected";
  EXPECT_GT(rsqrts, 0) << "gradient normals expected";

  // The lowering merges each face's sqrt(φ_α φ_l)·rsqrt(|∇φ_l|²)·
  // rsqrt(|∇φ_α|²)² into one sqrt and one division (ir::fold_radicals):
  // 3 solid phases on 6 faces, plus the one reciprocal of the χ
  // determinant.
  fd::DiscretizeOptions dopts;
  dopts.dims = 3;
  std::optional<FieldPtr> flux;
  auto kernels =
      ModelCompiler::lower(pde, dopts, CompileOptions{}, &flux);
  ASSERT_EQ(kernels.size(), 1u);
  const auto ops = ir::count_ops(kernels[0]);
  EXPECT_EQ(ops.sqrts, 18);
  EXPECT_EQ(ops.rsqrts, 0);
  EXPECT_EQ(ops.divs, 19);
}

TEST(GrandChemTest, P2PhiKernelIsMuchHeavierThanP1) {
  // the paper's headline observation: anisotropy explodes the phi kernel
  fd::DiscretizeOptions d2;
  d2.dims = 3;
  std::optional<FieldPtr> flux;
  GrandChemModel m1(make_p1(3));
  GrandChemModel m2(make_p2(3));
  auto k1 = ModelCompiler::lower(m1.phi_update(), d2, CompileOptions{}, &flux);
  auto k2 = ModelCompiler::lower(m2.phi_update(), d2, CompileOptions{}, &flux);
  const long f1 = ir::count_ops(k1[0]).normalized_flops();
  const long f2 = ir::count_ops(k2[0]).normalized_flops();
  EXPECT_GT(f2, 2 * f1) << "P2 phi " << f2 << " vs P1 phi " << f1;
}

TEST(GrandChemTest, NoiseAppearsOnlyWhenEnabled) {
  GrandChemParams p = make_two_phase(2);
  p.noise_amplitude = 0.0;
  GrandChemModel quiet(p);
  p.noise_amplitude = 0.05;
  GrandChemModel noisy(p);
  const auto has_random = [](const fd::PdeUpdate& u) {
    for (const auto& r : u.rhs) {
      bool found = false;
      sym::for_each(r, [&](const sym::Expr& e) {
        found = found || e->kind() == sym::Kind::Random;
      });
      if (found) return true;
    }
    return false;
  };
  EXPECT_FALSE(has_random(quiet.phi_update()));
  EXPECT_TRUE(has_random(noisy.phi_update()));
}

TEST(GrandChemTest, ConfigParameterCount) {
  // paper §5.1: the driving force needs 2(N^2+N+1)-ish parameters; with
  // mobilities > 50 material quantities for P1. Sanity-check our fits hold
  // that much information.
  const GrandChemParams p = make_p1();
  const int n_mu = p.num_mu();
  // per phase: A0,A1 (sym, n(n+1)/2 each), B0,B1 (n each), C0,C1
  const int per_phase = 2 * (n_mu * (n_mu + 1) / 2) + 2 * n_mu + 2;
  const int total = per_phase * p.phases + p.phases * (p.phases - 1) +
                    p.phases;  // + gammas/taus + diffusivities
  EXPECT_GT(total, 50);
}

TEST(CompilerTest, SplitProducesTwoKernelsPerPde) {
  GrandChemModel m(make_two_phase(2));
  CompileOptions co;
  co.backend = Backend::Interpreter;
  fd::DiscretizeOptions d = ModelCompiler::discretization(m.params(), 0, co);
  d.split_staggered = true;
  ModelCompiler mc(co);
  CompiledModel cm = mc.compile_updates({m.phi_update(), m.mu_update()}, d);
  // 2D: one staggered sweep per axis + the consumer kernel, which reads the
  // flux field the staggered sweeps write
  for (const auto* group : {&cm.phi_kernels, &cm.mu_kernels}) {
    ASSERT_EQ(group->size(), 3u);
    const FieldPtr flux = group->front().ir.writes.front();
    EXPECT_EQ((*group)[1].ir.writes.front()->id(), flux->id());
    EXPECT_TRUE(group->back().reads().count(flux->id()));
  }
  // compile() gives one kernel per PDE
  const CompiledModel full = mc.compile(m);
  EXPECT_EQ(full.phi_kernels.size(), 1u);
  EXPECT_EQ(full.mu_kernels.size(), 1u);
}

TEST(CompilerTest, JitSourceContainsBothKernels) {
  GrandChemModel m(make_two_phase(2));
  CompileOptions co;
  ModelCompiler mc(co);
  CompiledModel cm = mc.compile(m);
  EXPECT_NE(cm.generated_source().find("phi_full"), std::string::npos);
  EXPECT_NE(cm.generated_source().find("mu_full"), std::string::npos);
  const obs::CompileReport& cr = cm.compile_report();
  EXPECT_GT(cr.compile_seconds(), 0.0);
  EXPECT_GT(cr.generation_seconds(), 0.0);
  EXPECT_GT(cr.ops_per_cell_pre, 0);
  EXPECT_GE(cr.ops_per_cell_pre, cr.ops_per_cell_post)
      << "CSE + hoisting must not increase per-cell op counts";
  // kernel_names carry the IR names; the generated C entry points are the
  // sanitized ("phi_full") forms checked above
  ASSERT_EQ(cr.kernel_names.size(), 2u);
  EXPECT_EQ(cr.kernel_names[0], "phi-full");
  EXPECT_EQ(cr.kernel_names[1], "mu-full");
}

}  // namespace
}  // namespace pfc::app
