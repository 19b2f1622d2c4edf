#include "pfc/app/options_json.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <optional>
#include <type_traits>
#include <vector>

#include "pfc/app/jobspec.hpp"
#include "pfc/support/assert.hpp"

namespace pfc::app {

using obs::Json;

void option_error(const std::string& path, const std::string& msg) {
  throw Error("jobspec: " + path + ": " + msg);
}

namespace {

std::string join(const std::string& where, const std::string& key) {
  return where.empty() ? key : where + "." + key;
}

std::string at_index(const std::string& path, std::size_t i) {
  return path + "[" + std::to_string(i) + "]";
}

// --- range checks ------------------------------------------------------------
// A check sees the JSON form of one value (of each element of an array) and
// returns what is wrong with it, or "" when it is in range.

using Check = std::function<std::string(const Json&)>;

Check at_least(double lo) {
  return [lo](const Json& v) {
    return v.number() >= lo ? std::string() : "must be >= " + Json(lo).dump();
  };
}

Check between(double lo, double hi) {
  return [lo, hi](const Json& v) {
    return v.number() >= lo && v.number() <= hi
               ? std::string()
               : "must be in [" + Json(lo).dump() + ", " + Json(hi).dump() +
                     "]";
  };
}

Check positive() {
  return [](const Json& v) {
    return v.number() > 0.0 ? std::string() : std::string("must be > 0");
  };
}

Check one_of(std::vector<Json> valid) {
  return [valid](const Json& v) {
    if (std::find(valid.begin(), valid.end(), v) != valid.end()) {
      return std::string();
    }
    std::string list;
    for (const Json& ok : valid) {
      list += (list.empty() ? "" : ", ") +
              (ok.is_string() ? ok.str() : ok.dump());
    }
    return "must be one of " + list;
  };
}

// --- field lists -------------------------------------------------------------

template <typename S>
struct Field {
  const char* key;
  /// The member's JSON form; nullopt leaves the key out (an unset override).
  std::function<std::optional<Json>(const S&)> write;
  /// Strict decode of `j` into the member, then its range check.
  std::function<void(const Json& j, S& s, const std::string& path)> read;
  /// The range check of the member's current value.
  std::function<void(const S& s, const std::string& path)> check;
  bool required = false;
};

template <typename S>
using FieldList = std::vector<Field<S>>;

/// Specialized below, once per struct, leaves first.
template <typename S>
const FieldList<S>& fields_of();

template <typename S>
Json write_list(const FieldList<S>& fields, const S& s) {
  Json out = Json::object();
  for (const Field<S>& f : fields) {
    if (std::optional<Json> v = f.write(s)) out.set(f.key, std::move(*v));
  }
  return out;
}

template <typename S>
void read_list(const FieldList<S>& fields, const Json& j, S& s,
               const std::string& where) {
  if (!j.is_object()) option_error(where, "expected an object");
  for (const auto& [key, v] : j.items()) {
    const auto f =
        std::find_if(fields.begin(), fields.end(),
                     [&](const Field<S>& x) { return key == x.key; });
    if (f == fields.end()) option_error(join(where, key), "unknown key");
    f->read(v, s, join(where, key));
  }
  for (const Field<S>& f : fields) {
    if (f.required && j.find(f.key) == nullptr) {
      option_error(join(where, f.key), "missing");
    }
  }
}

template <typename S>
void check_list(const FieldList<S>& fields, const S& s,
                const std::string& where) {
  for (const Field<S>& f : fields) f.check(s, join(where, f.key));
}

// --- value codecs ------------------------------------------------------------

template <typename T>
struct is_optional : std::false_type {};
template <typename T>
struct is_optional<std::optional<T>> : std::true_type {};

template <typename T>
struct is_sequence : std::false_type {};
template <typename T, std::size_t N>
struct is_sequence<std::array<T, N>> : std::true_type {};
template <typename T>
struct is_sequence<std::vector<T>> : std::true_type {};

template <typename T>
Json encode(const T& v) {
  if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, double> ||
                std::is_same_v<T, std::string>) {
    return Json(v);
  } else if constexpr (std::is_integral_v<T>) {
    return Json(double(v));
  } else if constexpr (std::is_enum_v<T>) {
    return Json(support::enum_name(v));
  } else if constexpr (is_sequence<T>::value) {
    Json out = Json::array();
    for (const auto& e : v) out.push(encode(e));
    return out;
  } else {
    return write_list(fields_of<T>(), v);
  }
}

template <typename T>
void decode(const Json& j, T& out, const std::string& path) {
  if constexpr (std::is_same_v<T, bool>) {
    if (j.kind() != Json::Kind::Bool) option_error(path, "expected a bool");
    out = j.boolean();
  } else if constexpr (std::is_integral_v<T>) {
    out = obs::json_integer<T>(j, "jobspec: " + path);
  } else if constexpr (std::is_same_v<T, double>) {
    if (!j.is_number()) option_error(path, "expected a number");
    out = j.number();
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!j.is_string()) option_error(path, "expected a string");
    out = j.str();
  } else if constexpr (std::is_enum_v<T>) {
    if (!j.is_string()) option_error(path, "expected a string");
    const std::optional<T> v = support::find_enum<T>(j.str());
    if (!v) option_error(path, support::unknown_enum_message<T>(j.str()));
    out = *v;
  } else if constexpr (is_sequence<T>::value) {
    if (!j.is_array()) option_error(path, "expected an array");
    if constexpr (std::is_same_v<T, std::vector<typename T::value_type>>) {
      out.assign(j.elements().size(), {});
    } else if (j.elements().size() != out.size()) {
      option_error(path, "expected an array of " +
                             std::to_string(out.size()) + " numbers");
    }
    for (std::size_t i = 0; i < out.size(); ++i) {
      decode(j.elements()[i], out[i], at_index(path, i));
    }
  } else if constexpr (std::is_same_v<T, perf::MachineModel>) {
    // A preset key ("zen2") or the full field set.
    if (!j.is_string()) return read_list(fields_of<T>(), j, out, path);
    try {
      out = perf::MachineModel::by_name(j.str());
    } catch (const Error& e) {
      option_error(path, e.what());
    }
  } else {
    read_list(fields_of<T>(), j, out, path);
  }
}

template <typename T>
void check_value(const T& v, const Check& check, const std::string& path) {
  if constexpr (is_optional<T>::value) {
    if (v) check_value(*v, check, path);
  } else if constexpr (is_sequence<T>::value) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      check_value(v[i], check, at_index(path, i));
    }
  } else if constexpr (std::is_class_v<T> && !std::is_same_v<T, std::string>) {
    check_list(fields_of<T>(), v, path);
  } else if (check) {
    const std::string msg = check(encode(v));
    if (!msg.empty()) option_error(path, msg);
  }
}

/// The field `key` of member `m`; an optional member is written only when
/// set.
template <typename S, typename T>
Field<S> field(const char* key, T S::*m, Check check = {}) {
  return {key,
          [m](const S& s) -> std::optional<Json> {
            if constexpr (is_optional<T>::value) {
              if (!(s.*m)) return std::nullopt;
              return encode(*(s.*m));
            } else {
              return encode(s.*m);
            }
          },
          [m, check](const Json& j, S& s, const std::string& path) {
            if constexpr (is_optional<T>::value) {
              typename T::value_type v{};
              decode(j, v, path);
              s.*m = v;
            } else {
              decode(j, s.*m, path);
            }
            check_value(s.*m, check, path);
          },
          [m, check](const S& s, const std::string& path) {
            check_value(s.*m, check, path);
          }};
}

/// A JSON object `key` whose fields are members of S itself.
template <typename S>
Field<S> group(const char* key, const FieldList<S>& fields) {
  return {key,
          [&fields](const S& s) -> std::optional<Json> {
            return write_list(fields, s);
          },
          [&fields](const Json& j, S& s, const std::string& path) {
            read_list(fields, j, s, path);
          },
          [&fields](const S& s, const std::string& path) {
            check_list(fields, s, path);
          }};
}

template <>
const FieldList<CompileOptions>& fields_of<CompileOptions>() {
  using S = CompileOptions;
  static const FieldList<S> f = {
      field("backend", &S::backend),
      field("split_phi", &S::split_phi),
      field("split_mu", &S::split_mu),
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

template <>
const FieldList<obs::TraceOptions>& fields_of<obs::TraceOptions>() {
  using S = obs::TraceOptions;
  static const FieldList<S> f = {
      field("enabled", &S::enabled),
      field("sample_every", &S::sample_every, at_least(1)),
      field("max_events", &S::max_events, at_least(1)),
      field("path", &S::path)};
  return f;
}

template <>
const FieldList<obs::HealthOptions>& fields_of<obs::HealthOptions>() {
  using S = obs::HealthOptions;
  static const FieldList<S> f = {
      field("enabled", &S::enabled),
      field("every_n_steps", &S::every_n_steps, at_least(1)),
      field("policy", &S::policy),
      field("phase_sum_tol", &S::phase_sum_tol),
      field("simplex_tol", &S::simplex_tol),
      field("mu_limit", &S::mu_limit)};
  return f;
}

template <>
const FieldList<resilience::FaultPlan>& fields_of<resilience::FaultPlan>() {
  using S = resilience::FaultPlan;
  static const FieldList<S> f = {
      field("nan_step", &S::nan_step),
      field("nan_cell", &S::nan_cell),
      field("fail_jit_attempts", &S::fail_jit_attempts),
      field("truncate_checkpoint", &S::truncate_checkpoint)};
  return f;
}

template <>
const FieldList<resilience::ResilienceOptions>&
fields_of<resilience::ResilienceOptions>() {
  using S = resilience::ResilienceOptions;
  static const FieldList<S> f = {
      field("checkpoint_every", &S::checkpoint_every),
      field("directory", &S::directory),
      field("restart_from", &S::restart_from),
      field("max_retries", &S::max_retries),
      field("dt_shrink", &S::dt_shrink),
      field("faults", &S::faults)};
  return f;
}

template <>
const FieldList<perf::CacheLevel>& fields_of<perf::CacheLevel>() {
  using S = perf::CacheLevel;
  static const FieldList<S> f = {
      field("name", &S::name),
      field("size_bytes", &S::size_bytes, at_least(0)),
      field("cycles_per_line", &S::cycles_per_line)};
  return f;
}

template <>
const FieldList<perf::MachineModel>& fields_of<perf::MachineModel>() {
  using S = perf::MachineModel;
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

template <>
const FieldList<SimulationOptions>& fields_of<SimulationOptions>() {
  using S = SimulationOptions;
  static const FieldList<S> f = {
      field("cells", &S::cells, at_least(1)),
      field("boundary", &S::boundary),
      field("compile", &S::compile),
      field("trace", &S::trace),
      field("health", &S::health),
      field("machine", &S::machine),
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

template <>
const FieldList<JobModelSpec>& fields_of<JobModelSpec>() {
  using S = JobModelSpec;
  static const FieldList<S> overrides = {
      field("dt", &S::dt, positive()),
      field("epsilon", &S::epsilon, positive()),
      field("noise_amplitude", &S::noise_amplitude, at_least(0)),
      field("rng_seed", &S::rng_seed)};
  static const FieldList<S> f = {
      field("preset", &S::preset, one_of({"two_phase", "p1", "p2"})),
      field("dims", &S::dims, between(1, 3)),
      group("overrides", overrides)};
  return f;
}

template <>
const FieldList<JobInitialSpec>& fields_of<JobInitialSpec>() {
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

template <>
const FieldList<JobSpec>& fields_of<JobSpec>() {
  using S = JobSpec;
  const Field<S> schema = {
      "schema",
      [](const S&) -> std::optional<Json> { return Json(kJobSpecSchema); },
      [](const Json& j, S&, const std::string& path) {
        if (!j.is_string()) option_error(path, "expected a string");
        if (j.str() != kJobSpecSchema) {
          option_error(path, "\"" + j.str() + "\" is not \"" +
                                 kJobSpecSchema + "\"");
        }
      },
      [](const S&, const std::string&) {},
      /*required=*/true};
  static const FieldList<S> f = {
      schema,
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

}  // namespace

template <typename S>
Json options_to_json(const S& o) {
  return encode(o);
}

template <typename S>
S options_from_json(const Json& j, const std::string& where) {
  S o;
  decode(j, o, where);
  return o;
}

template <typename S>
void check_options(const S& o, const std::string& where) {
  check_value(o, Check{}, where);
}

template Json options_to_json(const SimulationOptions&);
template SimulationOptions options_from_json(const Json&, const std::string&);
template Json options_to_json(const JobSpec&);
template JobSpec options_from_json(const Json&, const std::string&);
template void check_options(const JobSpec&, const std::string&);

}  // namespace pfc::app
