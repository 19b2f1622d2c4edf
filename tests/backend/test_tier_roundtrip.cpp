// Tier round-trip (DESIGN.md §13): each rung of ModelCompiler's
// degradation chain — JIT vector, JIT scalar, IR interpreter — compiles
// and runs the grandchem φ kernel bitwise-identically to direct
// construction of the same tier (JitLibrary::compile(emit_c(...)) for the
// JIT tiers, InterpreterKernel for the interpreter).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "pfc/app/compiler.hpp"
#include "pfc/app/params.hpp"
#include "pfc/backend/c_emitter.hpp"
#include "pfc/backend/interp.hpp"
#include "pfc/backend/jit.hpp"
#include "pfc/backend/kernel_runner.hpp"
#include "pfc/fd/discretize.hpp"
#include "pfc/field/array.hpp"
#include "pfc/ir/kernel.hpp"
#include "pfc/ir/vectorize.hpp"

namespace pfc::backend {
namespace {

/// Per-field arrays with a deterministic in-range fill (φ-like values well
/// inside [0,1] so clamping/renormalization stay smooth), plus the binding
/// over them. Both paths get an identically-initialized private set.
Binding make_binding(const ir::Kernel& k,
                     std::vector<std::unique_ptr<Array>>& store,
                     const std::array<long long, 3>& n) {
  const std::array<int, 3> r = k.access_radius();
  const int g = std::max({r[0], r[1], r[2], 1});
  Binding b;
  for (const FieldPtr& f : k.fields) {
    auto a = std::make_unique<Array>(
        f, std::array<std::int64_t, 3>{n[0], n[1], n[2]}, g);
    for (int c = 0; c < a->components(); ++c) {
      for (long long y = -g; y < n[1] + g; ++y) {
        for (long long x = -g; x < n[0] + g; ++x) {
          a->at(x, y, 0, c) =
              0.15 + 0.05 * double(c) +
              0.01 * double(((x + 3) * 7 + (y + 3) * 3) % 13);
        }
      }
    }
    b.arrays.push_back(a.get());
    store.push_back(std::move(a));
  }
  b.params.assign(k.scalar_params.size(), 0.3);
  return b;
}

TEST(TierRoundTrip, EveryTierMatchesDirectConstructionBitwise) {
  const app::GrandChemParams params = app::make_p1(2);
  const app::GrandChemModel model(params);
  fd::DiscretizeOptions d;
  d.dims = 2;
  d.dx = params.dx;
  d.dt = params.dt;
  const std::array<long long, 3> n{18, 11, 1};

  app::CompileOptions vector, scalar, interp;
  vector.vector_width = 4;
  scalar.vector_width = 1;
  interp.backend = app::Backend::Interpreter;
  const struct {
    obs::BackendTier tier;
    app::CompileOptions opts;
  } cases[] = {{obs::BackendTier::Vector, vector},
               {obs::BackendTier::Scalar, scalar},
               {obs::BackendTier::Interpreter, interp}};

  for (const auto& c : cases) {
    const std::string tier = support::enum_name(c.tier);
    SCOPED_TRACE("tier " + tier);

    // Through the compiler: the φ update alone lowers to one full kernel.
    const app::CompiledModel cm =
        app::ModelCompiler(c.opts).compile_updates({model.phi_update()}, d);
    ASSERT_EQ(cm.compile_report().backend_tier, tier);
    EXPECT_EQ(cm.compile_report().fallback_attempts, 0);
    ASSERT_EQ(cm.phi_kernels.size(), 1u);
    const app::CompiledKernel& ck = cm.phi_kernels[0];
    const ir::Kernel& k = ck.ir;
    std::vector<std::unique_ptr<Array>> got_store;
    const Binding got_bind = make_binding(k, got_store, n);
    ck.run(got_bind, n, 0.0, 0);

    // Direct construction of the same tier from the same IR.
    std::vector<std::unique_ptr<Array>> ref_store;
    const Binding ref_bind = make_binding(k, ref_store, n);
    if (c.tier == obs::BackendTier::Interpreter) {
      InterpreterKernel(k).run(ref_bind, n, 0.0, 0);
    } else {
      const int width = c.opts.vector_width;
      CEmitOptions eo;
      eo.vector_width = width;
      const ir::VectorPlan plan = ir::plan_vectorize(k, {width, false});
      const int run_w = plan.enabled() ? plan.width : 1;
      EXPECT_EQ(ck.vector_width(), run_w);
      JitLibrary lib = JitLibrary::compile(emit_c(k, eo));
      run_compiled(k, lib.get(entry_name(k)), ref_bind, n, 0.0, 0, nullptr,
                   nullptr, run_w);
    }

    ASSERT_EQ(ref_store.size(), got_store.size());
    for (std::size_t i = 0; i < ref_store.size(); ++i) {
      EXPECT_EQ(Array::max_abs_diff(*ref_store[i], *got_store[i]), 0.0)
          << "field " << k.fields[i]->name();
    }
  }
}

}  // namespace
}  // namespace pfc::backend
