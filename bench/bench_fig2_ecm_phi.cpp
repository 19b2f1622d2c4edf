// Regenerates paper Fig. 2 (middle): ECM model vs measurement for the
// φ-split and φ-full kernels under P1 and P2. The paper's result under
// test: the faster variant flips between configurations — P1 favours
// φ-full, P2 (anisotropic, much heavier compute) favours φ-split — and the
// model predicts the right choice in both cases. The measured φ-split
// columns time the explicit pair (split_pair_mlups); the φ-full columns
// time the kernel a Simulation runs, which for P2 is face-once
// (DESIGN.md §5d).
#include "bench_common.hpp"

#include "pfc/app/simulation.hpp"
#include "pfc/backend/jit.hpp"
#include "pfc/perf/ecm.hpp"
#include "pfc/support/thread_pool.hpp"

using namespace pfc;
using namespace pfc::bench;

namespace {

double model_mlups(Which w, bool split, int cores,
                   const perf::MachineModel& m,
                   const std::array<long long, 3>& block, int vector_width) {
  const auto kernels = lower_kernels(w, split);
  double inv = 0;
  for (const auto& k : kernels) {
    inv += 1.0 / perf::ecm_predict(k, block, m,
                                   perf::TrafficSource::LayerCondition,
                                   vector_width)
                     .mlups(m, cores);
  }
  return 1.0 / inv;
}

obs::RunReport run_sim(Which w, int steps,
                       const std::array<long long, 3>& cells,
                       const app::SimulationOptions& base) {
  app::GrandChemParams params =
      w == Which::PhiP1 ? app::make_p1(3) : app::make_p2(3);
  app::GrandChemModel model(params);
  app::SimulationOptions o = base;
  o.cells = cells;
  app::Simulation sim(model, o);
  sim.init_phi([](long long x, long long, long long, int c) {
    const double s = app::interface_profile(double(x % 16) - 8.0, 10.0);
    if (c == 0) return 1.0 - s;
    return c == 1 ? s : 0.0;
  });
  sim.init_mu([](long long, long long, long long, int) { return 0.0; });
  return sim.run(steps);
}

/// MLUP/s of the φ kernels alone over a run of `steps` on `cells`: the µ
/// kernels' time is left out, as it is from the φ-only ECM curves.
double phi_mlups(const obs::RunReport& rep,
                 const std::array<long long, 3>& cells, int steps) {
  double phi_seconds = 0;
  for (const auto& [name, t] : rep.kernel_timers) {
    if (name.rfind("phi", 0) == 0) phi_seconds += t.seconds;
  }
  return obs::safe_rate(
             double(cells[0]) * double(cells[1]) * double(cells[2]) * steps,
             phi_seconds) /
         1e6;
}

double measure_phi(Which w, bool split, int threads, int steps,
                   const std::array<long long, 3>& cells,
                   int vector_width = 0) {
  if (split) return split_pair_mlups(w, threads, steps, cells, vector_width);
  app::SimulationOptions o;
  o.threads = threads;
  o.compile.vector_width = vector_width;
  return phi_mlups(run_sim(w, steps, cells, o), cells, steps);
}

}  // namespace

int main() {
  const perf::MachineModel machine = perf::default_machine();
  const std::array<long long, 3> block{60, 60, 60};
  // ECM curves model the width the JIT actually compiles at on this host
  const int vw = backend::probe_native_vector_width();

  std::printf("=== Fig 2 (middle): ECM model vs measurement, phi kernels, "
              "P1 and P2 ===\n");
  std::printf("    machine %s, vector width %d\n\n", machine.name.c_str(),
              vw);
  std::printf("%6s %16s %16s %16s %16s   [ECM, MLUP/s per core]\n", "cores",
              "P1 phi-split", "P1 phi-full", "P2 phi-split", "P2 phi-full");
  for (int c : {1, 4, 8, 12, 16, 20, 24}) {
    std::printf("%6d %16.2f %16.2f %16.2f %16.2f\n", c,
                model_mlups(Which::PhiP1, true, c, machine, block, vw) / c,
                model_mlups(Which::PhiP1, false, c, machine, block, vw) / c,
                model_mlups(Which::PhiP2, true, c, machine, block, vw) / c,
                model_mlups(Which::PhiP2, false, c, machine, block, vw) / c);
  }
  const int socket = machine.cores;
  const double m_p1_split =
      model_mlups(Which::PhiP1, true, socket, machine, block, vw);
  const double m_p1_full =
      model_mlups(Which::PhiP1, false, socket, machine, block, vw);
  const double m_p2_split =
      model_mlups(Which::PhiP2, true, socket, machine, block, vw);
  const double m_p2_full =
      model_mlups(Which::PhiP2, false, socket, machine, block, vw);
  const bool p1_full_wins = m_p1_full > m_p1_split;
  const bool p2_split_wins = m_p2_split > m_p2_full;
  std::printf("\nfull-socket model choice: P1 -> %s (paper: full), "
              "P2 -> %s (paper: split)\n",
              p1_full_wins ? "phi-full" : "phi-split",
              p2_split_wins ? "phi-split" : "phi-full");

  const int max_threads = ThreadPool::hardware_threads();
  const std::array<long long, 3> meas{40, 40, 40};
  double b_p1_split = 0, b_p1_full = 0, b_p2_split = 0, b_p2_full = 0;
  std::printf("\n%6s %16s %16s %16s %16s   [measured]\n", "cores",
              "P1 phi-split", "P1 phi-full", "P2 phi-split", "P2 phi-full");
  for (int t = 1; t <= max_threads; ++t) {
    b_p1_split = measure_phi(Which::PhiP1, true, t, 3, meas);
    b_p1_full = measure_phi(Which::PhiP1, false, t, 3, meas);
    b_p2_split = measure_phi(Which::PhiP2, true, t, 2, meas);
    b_p2_full = measure_phi(Which::PhiP2, false, t, 2, meas);
    std::printf("%6d %16.2f %16.2f %16.2f %16.2f\n", t, b_p1_split / t,
                b_p1_full / t, b_p2_split / t, b_p2_full / t);
  }

  // --- SIMD ablation: same kernel, scalar emission vs native width ---
  const double b_p1_full_scalar =
      measure_phi(Which::PhiP1, false, max_threads, 3, meas, 1);
  const double vector_speedup = obs::safe_rate(b_p1_full, b_p1_full_scalar);
  std::printf("\nP1 phi-full at width %d: %.2f MLUP/s vs scalar %.2f "
              "MLUP/s -> %.2fx\n",
              vw, b_p1_full, b_p1_full_scalar, vector_speedup);

  std::map<std::string, double> derived{
      {"model_socket_p1_phi_split_mlups", m_p1_split},
      {"model_socket_p1_phi_full_mlups", m_p1_full},
      {"model_socket_p2_phi_split_mlups", m_p2_split},
      {"model_socket_p2_phi_full_mlups", m_p2_full},
      {"model_p1_chooses_full", p1_full_wins ? 1.0 : 0.0},
      {"model_p2_chooses_split", p2_split_wins ? 1.0 : 0.0},
      {"measured_p1_phi_split_mlups", b_p1_split},
      {"measured_p1_phi_full_mlups", b_p1_full},
      {"measured_p1_phi_full_scalar_mlups", b_p1_full_scalar},
      {"measured_vector_speedup", vector_speedup},
      {"measured_p2_phi_split_mlups", b_p2_split},
      {"measured_p2_phi_full_mlups", b_p2_full},
      {"measured_threads", double(max_threads)}};

  // --- thread-scaling axis: pinned workers, static slabs, first-touch ---
  // Explicit counts keep the axis deterministic on any container; counts
  // beyond the visible cores oversubscribe but still exercise the
  // machinery. The model curve gives the full-socket expectation next to
  // each measured point.
  std::printf("\n%8s %18s %18s   [threads axis: compact pin, static "
              "slabs, first-touch]\n",
              "threads", "measured MLUP/s", "model MLUP/s");
  for (int t : {1, 2, 4}) {
    app::SimulationOptions o;
    o.threads = t;
    o.pin = support::PinPolicy::Compact;
    o.dispatch = app::Dispatch::Static;
    o.first_touch = true;
    const double measured =
        phi_mlups(run_sim(Which::PhiP1, 3, meas, o), meas, 3);
    const double modeled =
        model_mlups(Which::PhiP1, false, t, machine, block, vw);
    std::printf("%8d %18.2f %18.2f\n", t, measured, modeled);
    derived["measured_phi_full_t" + std::to_string(t) + "_mlups"] = measured;
    derived["model_phi_full_t" + std::to_string(t) + "_mlups"] = modeled;
  }

  // --- temporal-blocking axis: fused wavefront vs reference order ---
  // 3-D (the models here are dims=3) with enough outer-axis rows that both
  // workers' slabs clear the wavefront prologue; the tile height is forced
  // so the axis also runs on cache-less containers.
  {
    const std::array<long long, 3> c3d{40, 40, 24};
    app::SimulationOptions unfused;
    unfused.threads = 2;
    unfused.dispatch = app::Dispatch::Static;
    app::SimulationOptions fused = unfused;
    fused.blocking = app::BlockingMode::Fixed;
    fused.blocking_tile_rows = 4;
    const obs::RunReport r_ref = run_sim(Which::PhiP1, 4, c3d, unfused);
    const obs::RunReport r_wf = run_sim(Which::PhiP1, 4, c3d, fused);
    const double speedup = obs::safe_rate(r_wf.mlups(), r_ref.mlups());
    std::printf("\nblocking axis (3-D, tile 4): unfused %.2f MLUP/s, "
                "wavefront %.2f MLUP/s (%.2fx), fused substeps %lld\n",
                r_ref.mlups(), r_wf.mlups(), speedup,
                r_wf.threading.fused_substeps);
    derived["measured_blocking_unfused_mlups"] = r_ref.mlups();
    derived["measured_blocking_wavefront_mlups"] = r_wf.mlups();
    derived["measured_blocking_speedup"] = speedup;
    derived["blocking_fused_substeps"] = double(r_wf.threading.fused_substeps);
    derived["blocking_bytes_per_update_unfused"] =
        r_wf.threading.bytes_per_update_unfused;
    derived["blocking_bytes_per_update_fused"] =
        r_wf.threading.bytes_per_update_fused;
  }

  write_bench_report(
      "fig2_ecm_phi",
      bench_report_json("fig2_ecm_phi", derived,
                        /*timers=*/{},
                        /*counters=*/{{"vector_width", std::uint64_t(vw)}}));
  return 0;
}
