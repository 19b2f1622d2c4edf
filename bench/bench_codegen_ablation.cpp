// Ablation study of the code-generation optimizations (paper §3.3–3.5,
// §5.1), measured on the real JIT-compiled kernels with google-benchmark:
//
//   * global CSE on/off
//   * loop-invariant hoisting of T(z,t)-dependent subexpressions on/off
//   * approximate (fast) division/sqrt vs exact
//   * compile-time-folded vs runtime-symbolic model parameters
//   * explicit SIMD: scalar vs width 4 vs width 8 (+ streaming stores)
//
// Also reports the generation + external-compilation time (the paper quotes
// 30-60 s for a full recompilation; our models are smaller).
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_common.hpp"
#include "pfc/app/params.hpp"
#include "pfc/app/simulation.hpp"
#include "pfc/app/tuning.hpp"

using namespace pfc;

namespace {

struct Variant {
  const char* name;
  app::CompileOptions compile;
};

app::Simulation* make_sim_opts(app::SimulationOptions o) {
  static app::GrandChemParams params = app::make_p1(2);
  static app::GrandChemModel model(params);
  o.cells = {96, 96, 1};
  auto* sim = new app::Simulation(model, o);
  sim->init_phi([&](long long x, long long, long long, int c) {
    const double s = app::interface_profile(double(x % 24) - 12.0, 10.0);
    if (c == 0) return 1.0 - s;
    return c == 1 + int(x / 24) % 3 ? s : 0.0;
  });
  sim->init_mu([](long long, long long, long long, int) { return 0.0; });
  return sim;
}

app::Simulation* make_sim(const app::CompileOptions& co) {
  app::SimulationOptions o;
  o.compile = co;
  return make_sim_opts(o);
}

void run_variant(benchmark::State& state, const app::CompileOptions& co) {
  std::unique_ptr<app::Simulation> sim(make_sim(co));
  for (auto _ : state) {
    sim->run(1);
  }
  state.counters["MLUP/s"] =
      benchmark::Counter(96.0 * 96.0 * double(state.iterations()) / 1e6,
                         benchmark::Counter::kIsRate);
}

app::CompileOptions base() { return {}; }
app::CompileOptions no_cse() {
  app::CompileOptions o;
  o.cse = false;
  return o;
}
app::CompileOptions no_hoist() {
  app::CompileOptions o;
  o.hoist_invariants = false;
  return o;
}
app::CompileOptions fast() {
  app::CompileOptions o;
  o.fast_math = true;
  return o;
}
app::CompileOptions scheduled() {
  app::CompileOptions o;
  o.schedule = true;
  return o;
}
app::CompileOptions simd(int width, bool stream = false) {
  app::CompileOptions o;
  o.vector_width = width;
  o.streaming_stores = stream;
  return o;
}

void BM_P1_baseline(benchmark::State& s) { run_variant(s, base()); }
void BM_P1_no_cse(benchmark::State& s) { run_variant(s, no_cse()); }
void BM_P1_no_hoisting(benchmark::State& s) { run_variant(s, no_hoist()); }
void BM_P1_fast_math(benchmark::State& s) { run_variant(s, fast()); }
void BM_P1_scheduled(benchmark::State& s) { run_variant(s, scheduled()); }
// SIMD ablation axis: the baseline auto-probes the native width; these pin
// it so the axis is comparable across hosts.
void BM_P1_simd_scalar(benchmark::State& s) { run_variant(s, simd(1)); }
void BM_P1_simd_w4(benchmark::State& s) { run_variant(s, simd(4)); }
void BM_P1_simd_w8(benchmark::State& s) { run_variant(s, simd(8)); }
void BM_P1_simd_w8_stream(benchmark::State& s) {
  run_variant(s, simd(8, true));
}

BENCHMARK(BM_P1_baseline)->Unit(benchmark::kMillisecond)->MinTime(0.5);
BENCHMARK(BM_P1_no_cse)->Unit(benchmark::kMillisecond)->MinTime(0.5);
BENCHMARK(BM_P1_no_hoisting)->Unit(benchmark::kMillisecond)->MinTime(0.5);
BENCHMARK(BM_P1_fast_math)->Unit(benchmark::kMillisecond)->MinTime(0.5);
BENCHMARK(BM_P1_scheduled)->Unit(benchmark::kMillisecond)->MinTime(0.5);
BENCHMARK(BM_P1_simd_scalar)->Unit(benchmark::kMillisecond)->MinTime(0.5);
BENCHMARK(BM_P1_simd_w4)->Unit(benchmark::kMillisecond)->MinTime(0.5);
BENCHMARK(BM_P1_simd_w8)->Unit(benchmark::kMillisecond)->MinTime(0.5);
BENCHMARK(BM_P1_simd_w8_stream)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.5);

/// Interpreter backend as reference for the "generic application without
/// code generation" comparison of §5.1 (expressions evaluated generically
/// instead of specialized compiled code).
void BM_P1_interpreter_backend(benchmark::State& s) {
  app::CompileOptions o;
  o.backend = app::Backend::Interpreter;
  run_variant(s, o);
}
BENCHMARK(BM_P1_interpreter_backend)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.5);

/// Autotune axis: main() runs the measured search before the benchmarks
/// execute and stores the winning configuration here, so the tuned variant
/// lines up against the hand-picked ablation points above.
app::SimulationOptions g_tuned_opts;

void BM_P1_autotuned(benchmark::State& s) {
  app::SimulationOptions o = g_tuned_opts;
  o.compile.tune = app::TuneMode::Off;  // winner already applied
  std::unique_ptr<app::Simulation> sim(make_sim_opts(o));
  for (auto _ : s) {
    sim->run(1);
  }
  s.counters["MLUP/s"] =
      benchmark::Counter(96.0 * 96.0 * double(s.iterations()) / 1e6,
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_P1_autotuned)->Unit(benchmark::kMillisecond)->MinTime(0.5);

/// Runs the measured autotune search on the P1 model and emits
/// BENCH_autotune.json: best-found vs. default-config MLUPS for the phi/mu
/// kernel chain plus the search cost (candidates enumerated, measured runs,
/// seconds spent). The tuner measures the baseline first and only replaces
/// it on a strictly better measurement, so tuned >= default by construction.
void run_autotune_axis() {
  app::GrandChemParams params = app::make_p1(2);
  app::GrandChemModel model(params);
  app::SimulationOptions o;
  o.cells = {96, 96, 1};
  o.compile.tune = app::TuneMode::Full;
  const obs::TuningStats stats = app::autotune_apply(model, o);
  g_tuned_opts = o;  // autotune_apply applied the winner in place

  std::printf("=== autotune (P1 phi/mu chain) ===\n");
  std::printf("default %.2f MLUP/s -> tuned %.2f MLUP/s [%s]\n",
              stats.baseline_mlups, stats.best_mlups,
              stats.best_config.c_str());
  std::printf("search: %d candidates, %d measured runs, %.2f s\n\n",
              stats.candidates, stats.measured_runs, stats.search_seconds);

  std::map<std::string, double> derived;
  derived["phi_default_mlups"] = stats.baseline_mlups;
  derived["phi_tuned_mlups"] = stats.best_mlups;
  derived["search_candidates"] = double(stats.candidates);
  derived["search_measured_runs"] = double(stats.measured_runs);
  derived["search_seconds"] = stats.search_seconds;
  bench::write_bench_report("autotune",
                            bench::bench_report_json("autotune", derived));
}

}  // namespace

int main(int argc, char** argv) {
  // recompilation-cost report (paper §5.1: "30 to 60 seconds")
  {
    app::GrandChemParams params = app::make_p1(2);
    app::GrandChemModel model(params);
    app::ModelCompiler mc;
    const auto compiled = mc.compile(model);
    const obs::CompileReport& cr = compiled.compile_report();
    std::printf("=== codegen cost (paper §5.1) ===\n");
    std::printf("symbolic pipeline: %.2f s, external compiler: %.2f s, "
                "generated source: %zu bytes\n",
                cr.generation_seconds(), cr.compile_seconds(),
                compiled.generated_source().size());
    std::printf("per-stage:");
    for (const auto& [stage, t] : cr.stage_timers) {
      std::printf(" %s %.3f s (x%llu)", stage.c_str(), t.seconds,
                  (unsigned long long)t.count);
    }
    std::printf("; ops/cell %lld -> %lld after CSE+hoisting, %.1f widened "
                "(vector width %d)\n\n",
                cr.ops_per_cell_pre, cr.ops_per_cell_post,
                cr.ops_per_cell_widened, cr.vector_width);
  }
  run_autotune_axis();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
