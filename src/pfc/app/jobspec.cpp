#include "pfc/app/jobspec.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "pfc/app/options_json.hpp"
#include "pfc/app/params.hpp"
#include "pfc/app/simulation.hpp"
#include "pfc/app/tuning.hpp"
#include "pfc/resilience/checkpoint.hpp"

namespace pfc::app {

using obs::Json;
using namespace json_field;

namespace {

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[std::size_t(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

// Each section keeps the keys of its mode. "simulation" is one block, so the
// block layout and overlap belong to "distributed"; "distributed" takes no
// time scheme, pinning, first-touch, dispatch or blocking knobs.
constexpr KeyList kSingleExcluded = {"blocks_per_dim", "overlap"};
constexpr KeyList kDistributedExcluded = {
    "time_scheme", "pin",      "first_touch",
    "dispatch",    "blocking", "blocking_tile_rows"};

/// A field outside its section's keys must keep its default: to_json would
/// drop it, and a forest in "simulation" would be tuned as one block.
void check_section(const SimulationOptions& o, KeyList excluded,
                   const std::string& where) {
  const Json got = simulation_options_to_json(o);
  const Json def = simulation_options_to_json(SimulationOptions{});
  for (const char* key : excluded) {
    if (!(*got.find(key) == *def.find(key))) {
      bad(where + "." + key, "not a key of this section");
    }
  }
}

}  // namespace

// --- spec codec --------------------------------------------------------------

Json JobSpec::to_json() const {
  Json overrides = Json::object();
  if (model.dt) overrides.set("dt", Json(*model.dt));
  if (model.epsilon) overrides.set("epsilon", Json(*model.epsilon));
  if (model.noise_amplitude) {
    overrides.set("noise_amplitude", Json(*model.noise_amplitude));
  }
  if (model.rng_seed) overrides.set("rng_seed", Json(*model.rng_seed));

  return Json::object()
      .set("schema", Json(kJobSpecSchema))
      .set("name", Json(name))
      .set("model", Json::object()
                        .set("preset", Json(model.preset))
                        .set("dims", Json(model.dims))
                        .set("overrides", std::move(overrides)))
      .set("initial",
           Json::object()
               .set("kind", Json(initial.kind))
               .set("radius_fraction", Json(initial.radius_fraction))
               .set("interface_width_eps", Json(initial.interface_width_eps))
               .set("solid_phase", Json(initial.solid_phase)))
      .set("steps", Json(steps))
      .set("mode", Json(mode))
      .set("progress_every", Json(progress_every))
      .set("tenant", Json(tenant))
      .set("deadline_seconds", Json(deadline_seconds))
      .set("simulation",
           simulation_options_to_json(simulation, kSingleExcluded))
      .set("distributed",
           simulation_options_to_json(distributed, kDistributedExcluded));
}

JobSpec JobSpec::from_json(const Json& j, const std::string& where) {
  require_object(j, where);
  check_keys(j,
             {"schema", "name", "model", "initial", "steps", "mode",
              "progress_every", "tenant", "deadline_seconds", "simulation",
              "distributed"},
             where);
  const std::string schema = read_str(j, "schema", "", where);
  if (schema != kJobSpecSchema) {
    bad(where + ".schema", schema.empty()
                               ? std::string("missing (expected \"") +
                                     kJobSpecSchema + "\")"
                               : "\"" + schema + "\" is not \"" +
                                     kJobSpecSchema + "\"");
  }

  JobSpec s;
  s.name = read_str(j, "name", s.name, where);

  if (const Json* m = j.find("model")) {
    const std::string mw = where + ".model";
    require_object(*m, mw);
    check_keys(*m, {"preset", "dims", "overrides"}, mw);
    s.model.preset = read_str(*m, "preset", s.model.preset, mw);
    s.model.dims = int(read_int(*m, "dims", s.model.dims, mw));
    if (const Json* o = m->find("overrides")) {
      const std::string ow = mw + ".overrides";
      require_object(*o, ow);
      check_keys(*o, {"dt", "epsilon", "noise_amplitude", "rng_seed"}, ow);
      if (o->find("dt")) s.model.dt = read_num(*o, "dt", 0, ow);
      if (o->find("epsilon")) s.model.epsilon = read_num(*o, "epsilon", 0, ow);
      if (o->find("noise_amplitude")) {
        s.model.noise_amplitude = read_num(*o, "noise_amplitude", 0, ow);
      }
      if (o->find("rng_seed")) {
        s.model.rng_seed = std::uint64_t(read_int(*o, "rng_seed", 0, ow));
      }
    }
  }

  if (const Json* i = j.find("initial")) {
    const std::string iw = where + ".initial";
    require_object(*i, iw);
    check_keys(*i,
               {"kind", "radius_fraction", "interface_width_eps",
                "solid_phase"},
               iw);
    s.initial.kind = read_str(*i, "kind", s.initial.kind, iw);
    s.initial.radius_fraction =
        read_num(*i, "radius_fraction", s.initial.radius_fraction, iw);
    s.initial.interface_width_eps = read_num(
        *i, "interface_width_eps", s.initial.interface_width_eps, iw);
    s.initial.solid_phase =
        int(read_int(*i, "solid_phase", s.initial.solid_phase, iw));
  }

  s.steps = read_int(j, "steps", s.steps, where);
  s.mode = read_str(j, "mode", s.mode, where);
  s.progress_every = read_int(j, "progress_every", s.progress_every, where);
  s.tenant = read_str(j, "tenant", s.tenant, where);
  s.deadline_seconds =
      read_num(j, "deadline_seconds", s.deadline_seconds, where);
  if (const Json* v = j.find("simulation")) {
    s.simulation = simulation_options_from_json(*v, where + ".simulation",
                                                s.simulation, kSingleExcluded);
  }
  if (const Json* v = j.find("distributed")) {
    s.distributed = simulation_options_from_json(
        *v, where + ".distributed", s.distributed, kDistributedExcluded);
  }
  return s;
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
  if (model.preset != "two_phase" && model.preset != "p1" &&
      model.preset != "p2") {
    bad("model.preset", "unknown preset \"" + model.preset +
                            "\" (valid: two_phase, p1, p2)");
  }
  if (model.dims < 1 || model.dims > 3) bad("model.dims", "must be 1..3");
  if (model.dt && *model.dt <= 0.0) bad("model.overrides.dt", "must be > 0");
  if (model.epsilon && *model.epsilon <= 0.0) {
    bad("model.overrides.epsilon", "must be > 0");
  }
  if (model.noise_amplitude && *model.noise_amplitude < 0.0) {
    bad("model.overrides.noise_amplitude", "must be >= 0");
  }
  if (initial.kind != "disk" && initial.kind != "uniform") {
    bad("initial.kind", "unknown kind \"" + initial.kind +
                            "\" (valid: disk, uniform)");
  }
  if (initial.radius_fraction <= 0.0 || initial.radius_fraction > 0.5) {
    bad("initial.radius_fraction", "must be in (0, 0.5]");
  }
  if (initial.interface_width_eps <= 0.0) {
    bad("initial.interface_width_eps", "must be > 0");
  }
  if (initial.solid_phase < 0) bad("initial.solid_phase", "must be >= 0");
  if (steps < 0) bad("steps", "must be >= 0");
  if (progress_every < 0) bad("progress_every", "must be >= 0");
  if (tenant.empty()) bad("tenant", "must not be empty");
  if (tenant.size() > 64) bad("tenant", "must be <= 64 characters");
  if (deadline_seconds < 0.0) bad("deadline_seconds", "must be >= 0");
  if (mode != "single" && mode != "distributed") {
    bad("mode", "unknown mode \"" + mode +
                    "\" (valid: single, distributed)");
  }
  check_section(simulation, kSingleExcluded, "simulation");
  check_section(distributed, kDistributedExcluded, "distributed");
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
    bad("initial.solid_phase",
        "preset \"" + model.preset + "\" has only " +
            std::to_string(p.phases) + " phases");
  }
  return p;
}

// --- execution ---------------------------------------------------------------

std::uint64_t interior_checksum(const Array& a) {
  std::vector<double> buf(std::size_t(a.interior_count()));
  a.copy_interior_out(buf.data());
  return resilience::fnv1a64(buf.data(), buf.size() * sizeof(double));
}

Json JobResult::to_json() const {
  return Json::object()
      .set("name", Json(name))
      .set("steps", Json(steps))
      .set("phi_fnv1a64", Json(hex64(phi_checksum)))
      .set("mu_fnv1a64", Json(hex64(mu_checksum)))
      .set("run", run.to_json())
      .set("compile", compile.to_json());
}

namespace {

/// The initial-condition callbacks shared by both execution modes;
/// coordinates are global interior cells.
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

  // `mode` only picks the options section and whether to tune. Measured
  // autotuning (tune != "off") resolves the winning knob configuration —
  // from the per-machine tuning cache when warm, via a budgeted measured
  // search otherwise — before the real Simulation is built, so the job
  // itself compiles the winner directly. Distributed jobs skip tuning (the
  // knob space is per-block; see DESIGN.md §13).
  const bool distributed = spec.mode == "distributed";
  SimulationOptions opts = distributed ? spec.distributed : spec.simulation;
  const obs::TuningStats tuning =
      distributed ? obs::TuningStats{} : autotune_apply(model, opts);

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
