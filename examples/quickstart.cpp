// Quickstart: define a minimal two-phase model, let the pipeline generate
// and JIT-compile its kernels, run mean-curvature flow of a shrinking disk,
// write VTK output and a machine-readable observability report.
//
//   ./quickstart [--trace[=trace.json]] [--health=<policy>] [--overlap]
//                [--checkpoint-every=N] [--checkpoint-dir=DIR]
//                [--restart[=DIR]] [--jobspec=FILE]
//                [--threads=N] [--pin=none|compact|scatter]
//                [--blocking=off|auto|N]
//                [output.vtk] [report.json] [bursts]
//
// --trace records a chrome://tracing span timeline (per-kernel, per-slab
// and boundary-fill spans) — open the file in chrome://tracing or Perfetto.
// --health picks the in-situ check policy (ignore|warn|throw|recover).
// --checkpoint-every writes an on-disk checkpoint every N steps;
// --restart resumes bitwise-identically from the last one.
// --overlap runs the same problem on a 2x2 block forest with
// interior/frontier communication hiding (DESIGN.md §8) — bitwise-identical
// physics, and the report gains an "overlap" section.
// --jobspec runs a pfc-jobspec-v2 file through the same engine the serve
// daemon uses (app::run_job) and writes its result JSON instead.
// --threads sets the worker-pool width (default 4); --pin binds workers to
// CPUs (compact fills a package first, scatter round-robins NUMA nodes);
// --blocking fuses the φ/µ sweeps over wavefront tiles — "auto" sizes the
// tile from the layer-condition model, a number forces that tile height.
// See "Running on a full socket" in the README.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "pfc/app/analysis.hpp"
#include "pfc/app/jobspec.hpp"
#include "pfc/app/params.hpp"
#include "pfc/app/simulation.hpp"
#include "pfc/grid/vtk.hpp"
#include "pfc/support/argparse.hpp"
#include "pfc/support/assert.hpp"
#include "pfc/support/topology.hpp"

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
  bool trace = false;
  bool overlap = false;
  std::string trace_path = "trace.json";
  auto health = obs::HealthOptions{}.enable().every(100);
  std::string ckpt_dir = "quickstart_ckpt";
  long long ckpt_every = 0;
  bool restart = false;
  std::string restart_dir;
  std::string jobspec_path;
  long long threads = 4;
  support::PinPolicy pin = support::PinPolicy::None;
  app::BlockingMode blocking = app::BlockingMode::Off;
  long long blocking_tile = 0;

  support::ArgParser args(
      "quickstart",
      "quickstart [--trace[=trace.json]] [--health=" +
          support::enum_spellings<obs::HealthPolicy>("|") +
          "] [--overlap]\n"
          "           [--checkpoint-every=N] [--checkpoint-dir=DIR] "
          "[--restart[=DIR]]\n"
          "           [--jobspec=FILE] [--threads=N] [--pin=" +
          support::enum_spellings<support::PinPolicy>("|") +
          "]\n"
          "           [--blocking=" +
          support::enum_name(app::BlockingMode::Off) + "|" +
          support::enum_name(app::BlockingMode::Auto) +
          "|N] [output.vtk] [report.json] [bursts]");
  args.on_optional_value("trace", [&](const std::string* v) {
    trace = true;
    if (v != nullptr) trace_path = *v;
  });
  args.on_value("health", [&](const std::string& v) {
    health.with_policy(support::parse_enum<obs::HealthPolicy>(v));
  });
  args.count("checkpoint-every", &ckpt_every);
  args.value("checkpoint-dir", &ckpt_dir);
  args.flag("overlap", &overlap);
  args.on_optional_value("restart", [&](const std::string* v) {
    restart = true;
    if (v != nullptr) restart_dir = *v;
  });
  args.value("jobspec", &jobspec_path);
  args.count("threads", &threads);
  args.on_value("pin", [&](const std::string& v) {
    pin = support::parse_enum<support::PinPolicy>(v);
  });
  // a number is a fixed tile height; "fixed" alone names no height
  args.on_value("blocking", [&](const std::string& v) {
    const auto mode = support::find_enum<app::BlockingMode>(v);
    if (mode && *mode != app::BlockingMode::Fixed) {
      blocking = *mode;
    } else {
      blocking = app::BlockingMode::Fixed;
      blocking_tile = support::parse_count(v.c_str(), "blocking");
    }
  });
  const std::vector<const char*> pos = args.parse(argc, argv);
  if (threads < 1) args.fail("--threads must be >= 1");

  const char* vtk_path = pos.size() > 0 ? pos[0] : "quickstart.vtk";
  const char* report_path = pos.size() > 1 ? pos[1]
                                           : "quickstart_report.json";
  const int bursts =
      pos.size() > 2
          ? int(support::parse_count(pos[2], "bursts"))
          : 10;

  // --jobspec: bypass the built-in scenario and run the spec through the
  // same engine the serve daemon uses; the report path gets the JobResult.
  if (!jobspec_path.empty()) {
    try {
      const app::JobSpec spec = app::JobSpec::parse(read_file(jobspec_path));
      const app::JobResult result = app::run_job(spec);
      const char* out = pos.size() > 1 ? pos[1] : "quickstart_job.json";
      obs::write_json(out, result.to_json());
      std::printf("job \"%s\": %lld steps, %.2f MLUP/s, phi fnv1a64 %016llx"
                  " — wrote %s\n",
                  result.name.c_str(), result.steps, result.run.mlups(),
                  (unsigned long long)result.phi_checksum, out);
      return 0;
    } catch (const Error& e) {
      args.fail(e.what());
    }
  }

  // 1. model: two phases, curvature-driven (no chemical driving force)
  app::GrandChemParams params = app::make_two_phase(/*dims=*/2);
  app::GrandChemModel model(params);

  // 2. compile: energy functional -> PDEs -> stencils -> optimized C -> JIT
  auto opts = app::SimulationOptions{}.with_cells(128, 128)
                  .with_threads(int(threads))
                  .with_pin(pin)
                  .with_blocking(blocking, blocking_tile)
                  .with_health(health);
  if (overlap) {
    // the same disk on a 2x2 block forest with interior/frontier
    // communication hiding
    opts.with_blocks(2, 2).with_overlap(app::OverlapMode::InteriorFrontier);
  }
  if (trace) {
    opts.with_trace(obs::TraceOptions{}.enable().with_path(trace_path));
  }
  if (ckpt_every > 0 || restart) {
    auto res = resilience::ResilienceOptions{}
                   .every(int(ckpt_every))
                   .with_directory(ckpt_dir);
    if (restart) {
      res.with_restart(restart_dir.empty() ? ckpt_dir : restart_dir);
    }
    opts.with_resilience(res);
  }
  app::Simulation sim(model, opts);
  const obs::CompileReport& cr = sim.compiled().compile_report();
  std::printf("generated %zu bytes of C in %.3f s (%lld -> %lld ops/cell), "
              "external compiler %.2f s\n",
              sim.compiled().generated_source().size(),
              cr.generation_seconds(), cr.ops_per_cell_pre,
              cr.ops_per_cell_post, cr.compile_seconds());

  // 3. initial condition: a solid disk in melt (a restart restores the
  // saved state instead, so re-seeding would throw the run away)
  if (restart) {
    std::printf("restarted from %s at step %lld\n",
                (restart_dir.empty() ? ckpt_dir : restart_dir).c_str(),
                sim.step_count());
  } else {
    sim.init_phi([&](long long x, long long y, long long, int c) {
      const double d = std::sqrt(double((x - 64) * (x - 64) +
                                        (y - 64) * (y - 64))) -
                       40.0;
      const double solid = app::interface_profile(d, 2.5 * params.epsilon);
      return c == 1 ? solid : 1.0 - solid;
    });
    sim.init_mu([](long long, long long, long long, int) { return 0.0; });
  }

  // 4. time loop: the disk shrinks at a rate independent of its radius;
  // statistics and VTK read φ gathered from every block
  Array phi(model.phi_src(), {128, 128, 1}, 0);
  const auto gather = [&] { phi.copy_interior_in(sim.gather_phi().data()); };
  std::printf("%8s %12s %12s\n", "step", "solid area", "interface");
  obs::RunReport report;
  for (int burst = 0; burst < bursts; ++burst) {
    gather();
    const auto st = app::phase_statistics(phi);
    std::printf("%8lld %12.1f %12.4f\n", sim.step_count(),
                st.fractions[1] * 128 * 128, st.interface_fraction);
    report = sim.run(100);
  }
  std::printf("kernel throughput: %.2f MLUP/s over %lld steps\n",
              report.mlups(), report.steps);
  if (overlap) {
    std::printf("overlap hid %.0f%% of exchange\n",
                100.0 * report.overlap.hidden_fraction);
  }
  std::printf("threads: %lld (pin %s) | blocking: %s — %s\n", threads,
              support::enum_name(pin),
              sim.blocking_active()
                  ? "wavefront"
                  : support::enum_name(app::BlockingMode::Off),
              sim.blocking_plan().reason.c_str());

  gather();
  grid::write_vtk(vtk_path, {&phi});

  // 5. one JSON schema for examples and benches (validated by ctest)
  report.compile = cr;
  obs::write_json(report_path, report.to_json());
  std::printf("wrote %s and %s\n", vtk_path, report_path);
  if (ckpt_every > 0) {
    std::printf("checkpoints: %llu written to %s (last at step %lld)\n",
                (unsigned long long)sim.resilience_stats().checkpoint_files,
                ckpt_dir.c_str(),
                sim.resilience_stats().last_checkpoint_step);
  }
  if (trace) {
    std::printf("wrote %s (%llu spans) - open in chrome://tracing\n",
                trace_path.c_str(),
                (unsigned long long)sim.tracer().events_recorded());
  }
  return 0;
}
