// Inspect the code-generation pipeline: dump the continuum PDEs, the
// generated C and CUDA sources, per-kernel operation counts and the ECM
// performance prediction for the P1 model — everything the paper's
// abstraction-layer diagram (Fig. 1) produces.
//
//   ./codegen_inspect [p1|p2] [--split] [--cuda] [--full-source]
//                     [--width=N] [--stream]
//
// --width=N (N in {1,2,4,8}) runs the vectorization pass and emits the
// explicit-SIMD C loop at that width; --stream adds non-temporal stores.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "pfc/app/compiler.hpp"
#include "pfc/app/params.hpp"
#include "pfc/backend/c_emitter.hpp"
#include "pfc/backend/cuda_emitter.hpp"
#include "pfc/ir/opcount.hpp"
#include "pfc/ir/vectorize.hpp"
#include "pfc/perf/ecm.hpp"
#include "pfc/sym/printer.hpp"

int main(int argc, char** argv) {
  using namespace pfc;
  bool split = false, cuda = false, full_source = false, stream = false;
  int width = 1;
  std::string which = "p1";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--split")) split = true;
    else if (!std::strcmp(argv[i], "--cuda")) cuda = true;
    else if (!std::strcmp(argv[i], "--full-source")) full_source = true;
    else if (!std::strncmp(argv[i], "--width=", 8)) width = std::atoi(argv[i] + 8);
    else if (!std::strcmp(argv[i], "--stream")) stream = true;
    else which = argv[i];
  }
  if (!ir::vector_width_supported(width)) {
    std::fprintf(stderr, "--width must be 1, 2, 4 or 8\n");
    return 2;
  }

  app::GrandChemParams params =
      which == "p2" ? app::make_p2(3) : app::make_p1(3);
  app::GrandChemModel model(params);

  std::printf("=== model %s: %d phases, %d components, %dD ===\n\n",
              which.c_str(), params.phases, params.components, params.dims);
  std::printf("temperature: T = %s\n\n",
              sym::to_string(model.temperature()).c_str());

  // continuum layer: one variational derivative, abbreviated
  const std::string vd = sym::to_string(model.variational_derivative_phi(0));
  std::printf("deltaPsi/deltaPhi_0 (continuum, %zu chars):\n  %.300s...\n\n",
              vd.size(), vd.c_str());

  const app::CompileOptions co;
  const perf::MachineModel machine = perf::default_machine();
  const fd::PdeUpdate pdes[] = {model.phi_update(), model.mu_update()};
  for (std::size_t i = 0; i < 2; ++i) {
    fd::DiscretizeOptions d =
        app::ModelCompiler::discretization(params, i, co);
    d.split_staggered = split;
    std::optional<FieldPtr> flux;
    for (const auto& k : app::ModelCompiler::lower(pdes[i], d, co, &flux)) {
      const auto ops = ir::count_ops(k);
      std::printf("--- kernel %s ---\n", k.name.c_str());
      std::printf("  %s\n", ops.to_string().c_str());
      std::printf("  body statements: %zu (hoisted per-z: %zu)\n",
                  k.body.size(), k.at_level(ir::Level::PerZ).size());
      const auto ecm = perf::ecm_predict(
          k, {60, 60, 60}, machine, perf::TrafficSource::LayerCondition,
          width);
      std::printf(
          "  ECM: Tcomp %.0f cy/CL, Tmem %.1f cy/CL, saturation at %d "
          "cores, %.1f MLUP/s single core\n",
          ecm.t_comp, ecm.t_mem, ecm.saturation_cores(machine),
          ecm.mlups(machine, 1));
      if (width > 1) {
        const auto plan = ir::plan_vectorize(k, {width, stream});
        std::printf("  vector plan: width %d, %zu broadcasts, %zu streamed "
                    "fields, %lld lane-serial calls, %lld -> %.1f "
                    "flops/cell\n",
                    plan.width, plan.broadcasts.size(),
                    plan.streamed_fields.size(), plan.lane_serial_calls,
                    plan.flops_per_cell_scalar, plan.flops_per_cell_vector);
      }
      backend::CEmitOptions eo;
      eo.vector_width = width;
      eo.streaming_stores = stream;
      const std::string c_src = backend::emit_c(k, eo);
      std::printf("  generated C: %zu bytes\n", c_src.size());
      if (full_source) std::printf("%s\n", c_src.c_str());
      if (cuda) {
        const std::string cu = backend::emit_cuda(k);
        std::printf("  generated CUDA: %zu bytes\n", cu.size());
        if (full_source) std::printf("%s\n", cu.c_str());
      }
      std::printf("\n");
    }
  }
  return 0;
}
