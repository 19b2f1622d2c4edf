#include "pfc/app/options_json.hpp"

#include <limits>

#include "pfc/app/jobspec.hpp"
#include "pfc/obs/json_fields.hpp"

namespace pfc {

using obs::at_least;
using obs::between;
using obs::field;
using obs::FieldList;
using obs::Json;
using obs::JsonTag;
using obs::one_of;
using obs::positive;

namespace {

/// A job spec is written by hand: a missing key keeps its default.
const obs::JsonFormat kJobSpecFormat{"jobspec"};

}  // namespace

// The lists live in the namespace of their struct, where fields_of() finds
// them; leaves come first.

namespace obs {

const FieldList<TraceOptions>& json_fields(JsonTag<TraceOptions>) {
  using S = TraceOptions;
  static const FieldList<S> f = {
      field("enabled", &S::enabled),
      field("sample_every", &S::sample_every, at_least(1)),
      field("max_events", &S::max_events, at_least(1)),
      field("path", &S::path)};
  return f;
}

const FieldList<HealthOptions>& json_fields(JsonTag<HealthOptions>) {
  using S = HealthOptions;
  static const FieldList<S> f = {
      field("enabled", &S::enabled),
      field("every_n_steps", &S::every_n_steps, at_least(1)),
      field("policy", &S::policy),
      field("phase_sum_tol", &S::phase_sum_tol),
      field("simplex_tol", &S::simplex_tol),
      field("mu_limit", &S::mu_limit)};
  return f;
}

}  // namespace obs

namespace resilience {

const FieldList<FaultPlan>& json_fields(JsonTag<FaultPlan>) {
  using S = FaultPlan;
  static const FieldList<S> f = {
      field("nan_step", &S::nan_step),
      field("nan_cell", &S::nan_cell),
      field("fail_jit_attempts", &S::fail_jit_attempts),
      field("truncate_checkpoint", &S::truncate_checkpoint)};
  return f;
}

const FieldList<ResilienceOptions>& json_fields(JsonTag<ResilienceOptions>) {
  using S = ResilienceOptions;
  static const FieldList<S> f = {
      field("checkpoint_every", &S::checkpoint_every),
      field("directory", &S::directory),
      field("restart_from", &S::restart_from),
      field("max_retries", &S::max_retries),
      field("dt_shrink", &S::dt_shrink),
      field("faults", &S::faults)};
  return f;
}

}  // namespace resilience

namespace perf {

const FieldList<CacheLevel>& json_fields(JsonTag<CacheLevel>) {
  using S = CacheLevel;
  static const FieldList<S> f = {
      field("name", &S::name),
      field("size_bytes", &S::size_bytes, at_least(0)),
      field("cycles_per_line", &S::cycles_per_line)};
  return f;
}

const FieldList<MachineModel>& json_fields(JsonTag<MachineModel>) {
  using S = MachineModel;
  static const FieldList<S> f = {
      field("name", &S::name),
      field("freq_ghz", &S::freq_ghz),
      field("cores", &S::cores, at_least(1)),
      field("simd_doubles", &S::simd_doubles, at_least(1)),
      field("line_bytes", &S::line_bytes, at_least(1)),
      field("add_rtp", &S::add_rtp),
      field("mul_rtp", &S::mul_rtp),
      field("div_rtp", &S::div_rtp),
      field("sqrt_rtp", &S::sqrt_rtp),
      field("rsqrt_rtp", &S::rsqrt_rtp),
      field("blend_rtp", &S::blend_rtp),
      field("load_rtp", &S::load_rtp),
      field("store_rtp", &S::store_rtp),
      field("caches", &S::caches),
      field("mem_bw_gbytes", &S::mem_bw_gbytes)};
  return f;
}

}  // namespace perf

namespace app {

void option_error(const std::string& path, const std::string& msg) {
  obs::JsonPath(kJobSpecFormat, path).fail(msg);
}

const FieldList<CompileOptions>& json_fields(JsonTag<CompileOptions>) {
  using S = CompileOptions;
  static const FieldList<S> f = {
      field("backend", &S::backend),
      // Older builds wrote both keys (whole-block split kernels) into
      // every spec: read and ignored, never written.
      obs::retired<S>("split_phi"),
      obs::retired<S>("split_mu"),
      field("fast_math", &S::fast_math),
      field("cse", &S::cse),
      field("hoist_invariants", &S::hoist_invariants),
      field("clamp_phi", &S::clamp_phi),
      field("schedule", &S::schedule),
      field("schedule_beam_width", &S::schedule_beam_width),
      field("vector_width", &S::vector_width, one_of({0, 1, 2, 4, 8})),
      field("streaming_stores", &S::streaming_stores),
      field("jit_extra_flags", &S::jit_extra_flags),
      field("cache_dir", &S::cache_dir),
      field("cache_max_bytes", &S::cache_max_bytes),
      field("tune", &S::tune)};
  return f;
}

namespace {

/// The machine: a preset key ("zen2") or the full field set.
obs::JsonField<SimulationOptions> machine_field() {
  using S = SimulationOptions;
  obs::JsonField<S> f = field("machine", &S::machine);
  f.read = [read = f.read](const Json& j, S& s, const obs::JsonPath& path) {
    if (!j.is_string()) return read(j, s, path);
    try {
      s.machine = perf::MachineModel::by_name(j.str());
    } catch (const Error& e) {
      path.fail(e.what());
    }
  };
  return f;
}

}  // namespace

const FieldList<SimulationOptions>& json_fields(JsonTag<SimulationOptions>) {
  using S = SimulationOptions;
  static const FieldList<S> f = {
      field("cells", &S::cells, at_least(1)),
      field("boundary", &S::boundary),
      field("compile", &S::compile),
      field("trace", &S::trace),
      field("health", &S::health),
      machine_field(),
      field("resilience", &S::resilience),
      field("threads", &S::threads, at_least(1)),
      field("time_scheme", &S::time_scheme),
      field("blocks_per_dim", &S::blocks_per_dim, at_least(1)),
      field("overlap", &S::overlap),
      field("pin", &S::pin),
      field("first_touch", &S::first_touch),
      field("dispatch", &S::dispatch),
      field("blocking", &S::blocking),
      field("blocking_tile_rows", &S::blocking_tile_rows, at_least(0))};
  return f;
}

const FieldList<JobModelSpec>& json_fields(JsonTag<JobModelSpec>) {
  using S = JobModelSpec;
  static const FieldList<S> f = {
      field("preset", &S::preset, one_of({"two_phase", "p1", "p2"})),
      field("dims", &S::dims, between(1, 3)),
      obs::group<S>("overrides",
                    {field("dt", &S::dt, positive()),
                     field("epsilon", &S::epsilon, positive()),
                     field("noise_amplitude", &S::noise_amplitude,
                           at_least(0)),
                     field("rng_seed", &S::rng_seed)})};
  return f;
}

const FieldList<JobInitialSpec>& json_fields(JsonTag<JobInitialSpec>) {
  using S = JobInitialSpec;
  static const FieldList<S> f = {
      field("kind", &S::kind, one_of({"disk", "uniform"})),
      field("radius_fraction", &S::radius_fraction,
            [](const Json& v) {
              return v.number() > 0.0 && v.number() <= 0.5
                         ? std::string()
                         : std::string("must be in (0, 0.5]");
            }),
      field("interface_width_eps", &S::interface_width_eps, positive()),
      field("solid_phase", &S::solid_phase, at_least(0))};
  return f;
}

const FieldList<JobSpec>& json_fields(JsonTag<JobSpec>) {
  using S = JobSpec;
  static const FieldList<S> f = {
      obs::constant<S>("schema", kJobSpecSchema),
      field("name", &S::name),
      field("model", &S::model),
      field("initial", &S::initial),
      // run_job steps an int count
      field("steps", &S::steps, between(0, std::numeric_limits<int>::max())),
      field("progress_every", &S::progress_every, at_least(0)),
      field("tenant", &S::tenant,
            [](const Json& v) {
              if (v.str().empty()) return std::string("must not be empty");
              return v.str().size() <= 64
                         ? std::string()
                         : std::string("must be <= 64 characters");
            }),
      field("deadline_seconds", &S::deadline_seconds, at_least(0)),
      field("simulation", &S::simulation)};
  return f;
}

template <typename S>
Json options_to_json(const S& o) {
  return obs::to_json(o);
}

template <typename S>
S options_from_json(const Json& j, const std::string& where) {
  return obs::from_json<S>(j, kJobSpecFormat, where);
}

template <typename S>
void check_options(const S& o, const std::string& where) {
  obs::check_fields(o, kJobSpecFormat, where);
}

template Json options_to_json(const SimulationOptions&);
template SimulationOptions options_from_json(const Json&, const std::string&);
template Json options_to_json(const JobSpec&);
template JobSpec options_from_json(const Json&, const std::string&);
template void check_options(const JobSpec&, const std::string&);

}  // namespace app
}  // namespace pfc
