// Distributed run: four in-process ranks share a 2x2 block decomposition of
// a two-phase curvature-flow problem and exchange ghost layers every step
// (the waLBerla-style runtime of paper §4).
//
//   ./distributed_demo [--health=ignore|warn|throw|recover] [--overlap]
//                      [--threads=N] [--report=report.json]
//                      [--jobspec=FILE] [ranks] [steps]
//
// --health enables per-step in-situ physics checks on every rank.
// --health=throw turns any NaN/phase-sum/conservation violation into a
// failing exit code, which is how ctest guards against silent physics
// regressions; --health=recover rolls back to the last good snapshot
// instead (all ranks agree on the decision via an allreduce).
// --overlap switches the step to interior/frontier communication hiding
// (DESIGN.md §8): bitwise-identical results, exchange hidden behind the
// interior sweep. --threads slab-splits every kernel sweep per rank.
// --report writes rank 0's run report JSON (validated by the
// report_overlap_valid ctest). --jobspec runs a pfc-jobspec-v1 file
// (forced to distributed mode) through app::run_job instead.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "pfc/app/jobspec.hpp"
#include "pfc/app/params.hpp"
#include "pfc/app/simulation.hpp"
#include "pfc/support/argparse.hpp"
#include "pfc/support/assert.hpp"

namespace {

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw pfc::Error("cannot open " + path);
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pfc;
  obs::HealthOptions health;
  app::OverlapMode overlap = app::OverlapMode::Off;
  int threads = 1;
  std::string report_path;
  std::string jobspec_path;

  support::ArgParser args(
      "distributed_demo",
      "distributed_demo [--health=ignore|warn|throw|recover] [--overlap]\n"
      "                 [--threads=N] [--report=report.json] "
      "[--jobspec=FILE] [ranks] [steps]");
  args.on_value("health", [&](const std::string& v) {
    health.enable().with_policy(obs::parse_health_policy(v));
  });
  args.on_flag("overlap",
               [&] { overlap = app::OverlapMode::InteriorFrontier; });
  args.positive("threads", &threads);
  args.on_value("report", [&](const std::string& v) {
    if (v.empty()) throw Error("--report needs a file path");
    report_path = v;
  });
  args.value("jobspec", &jobspec_path);
  const std::vector<const char*> pos = args.parse(argc, argv);

  // --jobspec: run the spec through the serve engine, forced distributed
  // (serial multi-block), and print its result summary.
  if (!jobspec_path.empty()) {
    try {
      app::JobSpec spec = app::JobSpec::parse(read_file(jobspec_path));
      spec.mode = "distributed";
      const app::JobResult result = app::run_job(spec);
      if (!report_path.empty()) {
        obs::write_json(report_path, result.to_json());
      }
      std::printf("job \"%s\": %lld steps, %.2f MLUP/s, phi fnv1a64 "
                  "%016llx\n",
                  result.name.c_str(), result.steps, result.run.mlups(),
                  (unsigned long long)result.phi_checksum);
      return 0;
    } catch (const Error& e) {
      args.fail(e.what());
    }
  }

  const int ranks =
      pos.size() > 0 ? int(support::parse_count(pos[0], "ranks")) : 4;
  const int steps =
      pos.size() > 1 ? int(support::parse_count(pos[1], "steps")) : 200;

  app::GrandChemParams params = app::make_two_phase(2);
  app::GrandChemModel model(params);

  mpi::run(ranks, [&](mpi::Comm& comm) {
    const auto opts = app::SimulationOptions{}
                          .with_cells(96, 96)
                          .with_blocks(2, 2)
                          .with_health(health)
                          .with_overlap(overlap)
                          .with_threads(threads);
    app::Simulation sim(model, opts, &comm);

    sim.init(
        [&](long long x, long long y, long long, int c) {
          const double d = std::sqrt(double((x - 48) * (x - 48) +
                                            (y - 48) * (y - 48))) -
                           28.0;
          const double s = app::interface_profile(d, 2.5 * params.epsilon);
          return c == 1 ? s : 1.0 - s;
        },
        [](long long, long long, long long, int) { return 0.0; });

    for (int b = 0; b <= 4; ++b) {
      const double solid = comm.allreduce_sum(sim.local_phi_sum(1));
      const obs::RunReport rep = sim.report();
      if (comm.rank() == 0) {
        std::printf("rank 0 | step %4lld | global solid area %9.1f | "
                    "%d local blocks | %.2f MLUP/s | imbalance %.2f | "
                    "%llu B exchanged total\n",
                    sim.step_count(), solid, sim.num_local_blocks(),
                    rep.mlups(), rep.block_imbalance,
                    (unsigned long long)rep.exchange_bytes);
      }
      if (b < 4) sim.run(steps / 4);
    }
    const obs::RunReport rep = sim.report();
    if (comm.rank() == 0 && overlap == app::OverlapMode::InteriorFrontier) {
      std::printf("rank 0 | overlap: interior %.3fs frontier %.3fs | "
                  "pack %.3fs wait %.3fs | hidden %.0f%% of exchange\n",
                  rep.overlap.interior_seconds, rep.overlap.frontier_seconds,
                  rep.overlap.pack_seconds, rep.overlap.wait_seconds,
                  100.0 * rep.overlap.hidden_fraction);
    }
    if (comm.rank() == 0 && health.enabled) {
      const obs::HealthStats& hs = sim.health().stats();
      std::printf("rank 0 | health: %lld scans, %llu violations "
                  "(policy %s)\n",
                  hs.checks, (unsigned long long)hs.total_violations(),
                  obs::health_policy_name(health.policy));
    }
    if (comm.rank() == 0 && !report_path.empty()) {
      obs::write_json(report_path, rep.to_json());
      std::printf("rank 0 | wrote %s\n", report_path.c_str());
    }
  });
  std::printf("done.\n");
  return 0;
}
