// Regenerates paper Fig. 2 (left): ECM model prediction vs benchmark for
// the P1 µ-split and µ-full kernels, MLUP/s per core over the cores of one
// socket.
//
// The ECM curves cover the full modelled Skylake socket (24 cores); the
// measured curves run the JIT-compiled kernels on this host's cores (the
// environment substitutes for SuperMUC-NG — see DESIGN.md §2): µ-split is
// the explicit pair with its whole-block flux array (split_pair_mlups),
// µ-full the kernel a Simulation runs, face-once (DESIGN.md §5d). The paper's
// qualitative result under test: µ-full scales flat (compute bound,
// saturation ~83 cores), µ-split decays per core (data bound, saturation
// ~32 cores). The paper's crossover, which makes µ-split the right choice
// for full-socket runs, is not reproduced: priced as its whole chain
// (every staggered pass and the consumer), µ-split never beats µ-full per
// core in the model.
#include "bench_common.hpp"

#include <limits>

#include "pfc/app/simulation.hpp"
#include "pfc/backend/jit.hpp"
#include "pfc/perf/drift.hpp"
#include "pfc/perf/ecm.hpp"
#include "pfc/support/thread_pool.hpp"

using namespace pfc;
using namespace pfc::bench;

namespace {

/// Measured MLUP/s of the µ kernel of a P1 simulation on `threads`.
double measure_mu_full(int threads, int steps,
                       const std::array<long long, 3>& cells,
                       int vector_width = 0) {
  app::GrandChemParams params = app::make_p1(3);
  app::GrandChemModel model(params);
  app::SimulationOptions o;
  o.cells = cells;
  o.threads = threads;
  o.compile.vector_width = vector_width;
  app::Simulation sim(model, o);
  sim.init_phi([](long long x, long long, long long, int c) {
    const double s = app::interface_profile(double(x % 16) - 8.0, 10.0);
    if (c == 0) return 1.0 - s;
    return c == 1 ? s : 0.0;
  });
  sim.init_mu([](long long, long long, long long, int) { return 0.0; });
  const obs::RunReport rep = sim.run(steps);
  double mu_seconds = 0;
  for (const auto& [name, t] : rep.kernel_timers) {
    if (name.rfind("mu", 0) == 0) mu_seconds += t.seconds;
  }
  const double cellcount =
      double(cells[0]) * double(cells[1]) * double(cells[2]);
  return obs::safe_rate(cellcount * steps, mu_seconds) / 1e6;
}

}  // namespace

int main() {
  const perf::MachineModel machine = perf::default_machine();
  const std::array<long long, 3> block{60, 60, 60};
  // ECM curves model the width the JIT actually compiles at on this host
  const int vw = backend::probe_native_vector_width();

  std::printf("=== Fig 2 (left): ECM model vs measurement, P1 mu kernels, "
              "60^3 blocks ===\n");
  std::printf("    machine %s, vector width %d\n\n", machine.name.c_str(),
              vw);

  // --- model curves over the full modelled socket ---
  auto full_kernels = lower_kernels(Which::MuP1, false);
  auto split_kernels = lower_kernels(Which::MuP1, true);
  const auto lc = perf::TrafficSource::LayerCondition;
  const auto full_ecm =
      perf::ecm_predict(full_kernels[0], block, machine, lc, vw);
  // split = every staggered pass (one per axis) and the consumer, priced as
  // a chain like Simulation prices a face-once kernel; the chain saturates
  // at the fewest cores any of its kernels saturates at
  std::vector<const ir::Kernel*> split_chain;
  int split_saturation = std::numeric_limits<int>::max();
  for (const ir::Kernel& k : split_kernels) {
    split_chain.push_back(&k);
    split_saturation =
        std::min(split_saturation, perf::ecm_predict(k, block, machine, lc, vw)
                                       .saturation_cores(machine));
  }
  const auto split_mlups = [&](int c) {
    return perf::predicted_chain_mlups(split_chain, block, machine, c, vw);
  };

  std::printf("%6s %22s %22s\n", "cores", "ECM mu-split [MLUP/s/core]",
              "ECM mu-full [MLUP/s/core]");
  for (int c : {1, 4, 8, 12, 16, 20, 24}) {
    std::printf("%6d %22.2f %22.2f\n", c, split_mlups(c) / c,
                full_ecm.mlups(machine, c) / c);
  }
  std::printf("\nECM saturation points: mu-split %d cores, mu-full %d cores "
              "(paper: 32 and 83)\n",
              split_saturation, full_ecm.saturation_cores(machine));

  // --- measured curves on this host ---
  const int max_threads = ThreadPool::hardware_threads();
  const std::array<long long, 3> meas{48, 48, 48};
  std::printf("\n%6s %22s %22s   (measured, %lldx%lldx%lld block)\n",
              "cores", "Bench mu-split", "Bench mu-full", meas[0], meas[1],
              meas[2]);
  double meas_split = 0, meas_full = 0;
  for (int t = 1; t <= max_threads; ++t) {
    meas_split = split_pair_mlups(Which::MuP1, t, 3, meas);
    meas_full = measure_mu_full(t, 3, meas);
    std::printf("%6d %22.2f %22.2f\n", t, meas_split / t, meas_full / t);
  }
  std::printf("\n[absolute numbers are host-dependent; the paper's shapes "
              "under test: decaying split vs flat full per-core rates]\n");

  // --- SIMD ablation: same kernel, scalar emission vs native width ---
  const double meas_full_scalar = measure_mu_full(max_threads, 3, meas, 1);
  const double vector_speedup = obs::safe_rate(meas_full, meas_full_scalar);
  std::printf("\nmu-full at width %d: %.2f MLUP/s vs scalar %.2f MLUP/s -> "
              "%.2fx\n",
              vw, meas_full, meas_full_scalar, vector_speedup);

  const int socket = machine.cores;
  write_bench_report(
      "fig2_ecm_mu",
      bench_report_json(
          "fig2_ecm_mu",
          {{"model_socket_mu_split_mlups", split_mlups(socket)},
           {"model_socket_mu_full_mlups", full_ecm.mlups(machine, socket)},
           {"model_saturation_cores_mu_split", double(split_saturation)},
           {"model_saturation_cores_mu_full",
            double(full_ecm.saturation_cores(machine))},
           {"measured_mu_split_mlups", meas_split},
           {"measured_mu_full_mlups", meas_full},
           {"measured_mu_full_scalar_mlups", meas_full_scalar},
           {"measured_vector_speedup", vector_speedup},
           {"measured_threads", double(max_threads)}},
          /*timers=*/{},
          /*counters=*/{{"vector_width", std::uint64_t(vw)}}));
  return 0;
}
