#include "pfc/app/jobspec.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "pfc/app/options_json.hpp"
#include "pfc/app/params.hpp"
#include "pfc/app/simulation.hpp"
#include "pfc/app/tuning.hpp"
#include "pfc/obs/json_fields.hpp"
#include "pfc/resilience/checkpoint.hpp"

namespace pfc::app {

using obs::Json;

// --- spec codec --------------------------------------------------------------

Json JobSpec::to_json() const { return options_to_json(*this); }

JobSpec JobSpec::from_json(const Json& j, const std::string& where) {
  return options_from_json<JobSpec>(j, where);
}

JobSpec JobSpec::parse(const std::string& text) {
  std::string err;
  const Json j = Json::parse(text, &err);
  if (!err.empty()) throw Error("jobspec: JSON parse error: " + err);
  JobSpec s = from_json(j);
  s.validate();
  return s;
}

void JobSpec::validate() const {
  check_options(*this, "");
  const std::array<int, 3>& b = simulation.blocks_per_dim;
  if (simulation.compile.tune != TuneMode::Off && b != std::array{1, 1, 1}) {
    option_error("simulation.compile.tune",
                 "the tuner measures one block, but blocks_per_dim is [" +
                     std::to_string(b[0]) + ", " + std::to_string(b[1]) +
                     ", " + std::to_string(b[2]) + "]");
  }
}

GrandChemParams JobSpec::make_params() const {
  GrandChemParams p;
  if (model.preset == "p1") {
    p = make_p1(model.dims);
  } else if (model.preset == "p2") {
    p = make_p2(model.dims);
  } else {
    p = make_two_phase(model.dims);
  }
  if (model.dt) p.dt = *model.dt;
  if (model.epsilon) p.epsilon = *model.epsilon;
  if (model.noise_amplitude) p.noise_amplitude = *model.noise_amplitude;
  if (model.rng_seed) p.rng_seed = *model.rng_seed;
  if (initial.solid_phase >= p.phases) {
    option_error("initial.solid_phase",
                 "preset \"" + model.preset + "\" has only " +
                     std::to_string(p.phases) + " phases");
  }
  return p;
}

// --- execution ---------------------------------------------------------------

std::uint64_t interior_checksum(const Array& a) {
  const auto& n = a.size();
  const std::size_t row_bytes = std::size_t(n[0]) * sizeof(double);
  std::uint64_t h = resilience::kFnvOffsetBasis;
  for (int c = 0; c < a.components(); ++c) {
    for (long long z = 0; z < n[2]; ++z) {
      for (long long y = 0; y < n[1]; ++y) {
        h = resilience::fnv1a64(a.origin(c) + y * a.stride(1) + z * a.stride(2),
                                row_bytes, h);
      }
    }
  }
  return h;
}

const obs::FieldList<JobResult>& json_fields(obs::JsonTag<JobResult>) {
  using S = JobResult;
  static const obs::FieldList<S> f = {
      obs::field("name", &S::name),
      obs::field("steps", &S::steps),
      obs::hex64("phi_fnv1a64", &S::phi_checksum),
      obs::hex64("mu_fnv1a64", &S::mu_checksum),
      obs::field("run", &S::run),
      obs::field("compile", &S::compile)};
  return f;
}

Json JobResult::to_json() const { return obs::to_json(*this); }

namespace {

/// The initial-condition callbacks; coordinates are global interior
/// cells.
struct InitialCondition {
  const JobSpec& spec;
  const GrandChemParams& params;
  std::array<long long, 3> cells;

  double phi(long long x, long long y, long long z, int c) const {
    if (spec.initial.kind == "uniform") {
      return c == spec.initial.solid_phase ? 1.0 : 0.0;
    }
    // disk: distance over the model's spatial dims only
    const std::array<long long, 3> pos{x, y, z};
    double d2 = 0.0;
    long long min_extent = cells[0];
    for (int dim = 0; dim < params.dims; ++dim) {
      const double delta = double(pos[std::size_t(dim)]) -
                           0.5 * double(cells[std::size_t(dim)]);
      d2 += delta * delta;
      min_extent = std::min(min_extent, cells[std::size_t(dim)]);
    }
    const double radius = spec.initial.radius_fraction * double(min_extent);
    const double d = std::sqrt(d2) - radius;
    const double solid = interface_profile(
        d, spec.initial.interface_width_eps * params.epsilon);
    if (c == spec.initial.solid_phase) return solid;
    if (c == params.liquid_phase) return 1.0 - solid;
    return 0.0;
  }
};

}  // namespace

JobResult run_job(const JobSpec& spec, const ProgressSink& progress,
                  const CancelToken* cancel) {
  spec.validate();
  // A token that fired while the job sat in a queue stops it before any
  // compile work; the run loops re-check once per step after that.
  if (cancel != nullptr && cancel->requested()) {
    throw JobCancelled(cancel->kind(), cancel->reason());
  }
  const GrandChemParams params = spec.make_params();
  GrandChemModel model(params);

  // ~8 samples per job unless the spec pins a cadence explicitly.
  const long long every =
      spec.progress_every > 0 ? spec.progress_every
                              : std::max<long long>(1, spec.steps / 8);

  JobResult result;
  result.name = spec.name;
  result.steps = spec.steps;

  // Measured autotuning (tune != "off") resolves the winning knob
  // configuration — from the per-machine tuning cache when warm, via a
  // budgeted measured search otherwise — before the real Simulation is
  // built, so the job itself compiles the winner directly. validate()
  // keeps it to one-block jobs (DESIGN.md §13).
  SimulationOptions opts = spec.simulation;
  const obs::TuningStats tuning = autotune_apply(model, opts);

  Simulation sim(model, opts);
  if ((progress && spec.steps > 0) || cancel != nullptr) {
    sim.set_progress({progress, every, spec.steps, cancel});
  }
  const InitialCondition ic{spec, params, opts.cells};
  sim.init(
      [&](long long x, long long y, long long z, int c) {
        return ic.phi(x, y, z, c);
      },
      [](long long, long long, long long, int) { return 0.0; });
  result.run = sim.run(int(spec.steps));
  if (tuning.enabled) result.run.tuning = tuning;
  result.compile = sim.compiled().compile_report();
  const auto checksum = [](const std::vector<double>& v) {
    return resilience::fnv1a64(v.data(), v.size() * sizeof(double));
  };
  result.phi_checksum = checksum(sim.gather_phi());
  result.mu_checksum = checksum(sim.gather_mu());
  return result;
}

}  // namespace pfc::app
