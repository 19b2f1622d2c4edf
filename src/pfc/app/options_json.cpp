#include "pfc/app/options_json.hpp"

#include <algorithm>
#include <cmath>

#include "pfc/support/assert.hpp"

namespace pfc::app {

using obs::Json;

// --- strict readers ----------------------------------------------------------
// from_json tolerates absent keys (they keep the default) but rejects
// unknown keys and type mismatches, naming the full path in the error.

namespace json_field {

[[noreturn]] void bad(const std::string& where, const std::string& msg) {
  throw Error("jobspec: " + where + ": " + msg);
}

void require_object(const Json& j, const std::string& where) {
  if (!j.is_object()) bad(where, "expected an object");
}

void check_keys(const Json& j, std::initializer_list<const char*> allowed,
                const std::string& where) {
  for (const auto& [key, v] : j.items()) {
    (void)v;
    bool ok = false;
    for (const char* a : allowed) {
      if (key == a) {
        ok = true;
        break;
      }
    }
    if (!ok) bad(where + "." + key, "unknown key");
  }
}

double read_num(const Json& j, const char* key, double def,
                const std::string& where) {
  const Json* v = j.find(key);
  if (v == nullptr) return def;
  if (!v->is_number()) bad(where + "." + key, "expected a number");
  return v->number();
}

long long read_int(const Json& j, const char* key, long long def,
                   const std::string& where) {
  const Json* v = j.find(key);
  if (v == nullptr) return def;
  if (!v->is_number()) bad(where + "." + key, "expected a number");
  const double x = v->number();
  if (x != std::floor(x)) bad(where + "." + key, "expected an integer");
  // A double holds every integer below 2^53 exactly; a larger one may
  // already have been rounded by the parser, or overflow long long.
  if (std::abs(x) >= 9007199254740992.0) {
    bad(where + "." + key, "integer magnitude must be below 2^53");
  }
  return (long long)(x);
}

std::string read_str(const Json& j, const char* key, const std::string& def,
                     const std::string& where) {
  const Json* v = j.find(key);
  if (v == nullptr) return def;
  if (!v->is_string()) bad(where + "." + key, "expected a string");
  return v->str();
}

}  // namespace json_field

using namespace json_field;

namespace {

bool read_bool(const Json& j, const char* key, bool def,
               const std::string& where) {
  const Json* v = j.find(key);
  if (v == nullptr) return def;
  if (v->kind() != Json::Kind::Bool) bad(where + "." + key, "expected a bool");
  return v->boolean();
}

template <typename T, std::size_t N>
std::array<T, N> read_array(const Json& j, const char* key,
                            const std::array<T, N>& def,
                            const std::string& where) {
  const Json* v = j.find(key);
  if (v == nullptr) return def;
  if (!v->is_array() || v->elements().size() != N) {
    bad(where + "." + key,
        "expected an array of " + std::to_string(N) + " numbers");
  }
  std::array<T, N> out{};
  for (std::size_t i = 0; i < N; ++i) {
    const Json& e = v->elements()[i];
    if (!e.is_number()) {
      bad(where + "." + key + "[" + std::to_string(i) + "]",
          "expected a number");
    }
    out[i] = T(e.number());
  }
  return out;
}

template <typename T, std::size_t N>
Json array_json(const std::array<T, N>& a) {
  Json out = Json::array();
  for (const T& v : a) out.push(Json(double(v)));
  return out;
}

}  // namespace

// --- enum spellings ----------------------------------------------------------

const char* backend_name(Backend b) {
  return b == Backend::Jit ? "jit" : "interpreter";
}
Backend parse_backend(const std::string& name) {
  if (name == "jit") return Backend::Jit;
  if (name == "interpreter") return Backend::Interpreter;
  throw Error("unknown backend \"" + name + "\" (valid: jit, interpreter)");
}

const char* boundary_name(grid::BoundaryKind b) {
  return b == grid::BoundaryKind::Periodic ? "periodic" : "zero_gradient";
}
grid::BoundaryKind parse_boundary(const std::string& name) {
  if (name == "periodic") return grid::BoundaryKind::Periodic;
  if (name == "zero_gradient") return grid::BoundaryKind::ZeroGradient;
  throw Error("unknown boundary \"" + name +
              "\" (valid: periodic, zero_gradient)");
}

const char* time_scheme_name(TimeScheme s) {
  return s == TimeScheme::Euler ? "euler" : "heun";
}
TimeScheme parse_time_scheme(const std::string& name) {
  if (name == "euler") return TimeScheme::Euler;
  if (name == "heun") return TimeScheme::Heun;
  throw Error("unknown time_scheme \"" + name + "\" (valid: euler, heun)");
}

const char* overlap_mode_name(OverlapMode m) {
  return m == OverlapMode::Off ? "off" : "interior_frontier";
}
OverlapMode parse_overlap_mode(const std::string& name) {
  if (name == "off") return OverlapMode::Off;
  if (name == "interior_frontier") return OverlapMode::InteriorFrontier;
  throw Error("unknown overlap mode \"" + name +
              "\" (valid: off, interior_frontier)");
}

const char* dispatch_name(Dispatch d) {
  return d == Dispatch::Static ? "static" : "dynamic";
}
Dispatch parse_dispatch(const std::string& name) {
  if (name == "static") return Dispatch::Static;
  if (name == "dynamic") return Dispatch::Dynamic;
  throw Error("unknown dispatch \"" + name + "\" (valid: dynamic, static)");
}

const char* tune_mode_name(TuneMode m) {
  switch (m) {
    case TuneMode::Cached: return "cached";
    case TuneMode::Full: return "full";
    default: return "off";
  }
}
TuneMode parse_tune_mode(const std::string& name) {
  if (name == "off") return TuneMode::Off;
  if (name == "cached") return TuneMode::Cached;
  if (name == "full") return TuneMode::Full;
  throw Error("unknown tune mode \"" + name + "\" (valid: off, cached, full)");
}

const char* blocking_mode_name(BlockingMode m) {
  switch (m) {
    case BlockingMode::Auto: return "auto";
    case BlockingMode::Fixed: return "fixed";
    default: return "off";
  }
}
BlockingMode parse_blocking_mode(const std::string& name) {
  if (name == "off") return BlockingMode::Off;
  if (name == "auto") return BlockingMode::Auto;
  if (name == "fixed") return BlockingMode::Fixed;
  throw Error("unknown blocking mode \"" + name +
              "\" (valid: off, auto, fixed)");
}

// --- compile -----------------------------------------------------------------

Json compile_options_to_json(const CompileOptions& o) {
  return Json::object()
      .set("backend", Json(backend_name(o.backend)))
      .set("split_phi", Json(o.split_phi))
      .set("split_mu", Json(o.split_mu))
      .set("fast_math", Json(o.fast_math))
      .set("cse", Json(o.cse))
      .set("hoist_invariants", Json(o.hoist_invariants))
      .set("clamp_phi", Json(o.clamp_phi))
      .set("schedule", Json(o.schedule))
      .set("schedule_beam_width", Json(std::uint64_t(o.schedule_beam_width)))
      .set("vector_width", Json(o.vector_width))
      .set("streaming_stores", Json(o.streaming_stores))
      .set("jit_extra_flags", Json(o.jit_extra_flags))
      .set("fail_jit_attempts", Json(o.fail_jit_attempts))
      .set("cache_dir", Json(o.cache_dir))
      .set("cache_max_bytes", Json(o.cache_max_bytes))
      .set("tune", Json(tune_mode_name(o.tune)));
}

CompileOptions compile_options_from_json(const Json& j,
                                         const std::string& where) {
  require_object(j, where);
  check_keys(j,
             {"backend", "split_phi", "split_mu", "fast_math", "cse",
              "hoist_invariants", "clamp_phi", "schedule",
              "schedule_beam_width", "vector_width", "streaming_stores",
              "jit_extra_flags", "fail_jit_attempts", "cache_dir",
              "cache_max_bytes", "tune"},
             where);
  CompileOptions o;
  o.backend = parse_backend(read_str(j, "backend", backend_name(o.backend), where));
  o.split_phi = read_bool(j, "split_phi", o.split_phi, where);
  o.split_mu = read_bool(j, "split_mu", o.split_mu, where);
  o.fast_math = read_bool(j, "fast_math", o.fast_math, where);
  o.cse = read_bool(j, "cse", o.cse, where);
  o.hoist_invariants = read_bool(j, "hoist_invariants", o.hoist_invariants, where);
  o.clamp_phi = read_bool(j, "clamp_phi", o.clamp_phi, where);
  o.schedule = read_bool(j, "schedule", o.schedule, where);
  o.schedule_beam_width = std::size_t(
      read_int(j, "schedule_beam_width", (long long)(o.schedule_beam_width), where));
  o.vector_width = int(read_int(j, "vector_width", o.vector_width, where));
  if (o.vector_width != 0 && o.vector_width != 1 && o.vector_width != 2 &&
      o.vector_width != 4 && o.vector_width != 8) {
    bad(where + ".vector_width", "must be 0 (auto), 1, 2, 4 or 8");
  }
  o.streaming_stores = read_bool(j, "streaming_stores", o.streaming_stores, where);
  o.jit_extra_flags = read_str(j, "jit_extra_flags", o.jit_extra_flags, where);
  o.fail_jit_attempts =
      int(read_int(j, "fail_jit_attempts", o.fail_jit_attempts, where));
  o.cache_dir = read_str(j, "cache_dir", o.cache_dir, where);
  o.cache_max_bytes = std::uint64_t(
      read_int(j, "cache_max_bytes", (long long)(o.cache_max_bytes), where));
  o.tune = parse_tune_mode(read_str(j, "tune", tune_mode_name(o.tune), where));
  return o;
}

// --- trace -------------------------------------------------------------------

Json trace_options_to_json(const obs::TraceOptions& o) {
  return Json::object()
      .set("enabled", Json(o.enabled))
      .set("sample_every", Json(o.sample_every))
      .set("max_events", Json(std::uint64_t(o.max_events)))
      .set("path", Json(o.path));
}

obs::TraceOptions trace_options_from_json(const Json& j,
                                          const std::string& where) {
  require_object(j, where);
  check_keys(j, {"enabled", "sample_every", "max_events", "path"}, where);
  obs::TraceOptions o;
  o.enabled = read_bool(j, "enabled", o.enabled, where);
  o.sample_every = int(read_int(j, "sample_every", o.sample_every, where));
  o.max_events =
      std::size_t(read_int(j, "max_events", (long long)(o.max_events), where));
  o.path = read_str(j, "path", o.path, where);
  return o;
}

// --- health ------------------------------------------------------------------

Json health_options_to_json(const obs::HealthOptions& o) {
  return Json::object()
      .set("enabled", Json(o.enabled))
      .set("every_n_steps", Json(o.every_n_steps))
      .set("policy", Json(obs::health_policy_name(o.policy)))
      .set("phase_sum_tol", Json(o.phase_sum_tol))
      .set("simplex_tol", Json(o.simplex_tol))
      .set("mu_limit", Json(o.mu_limit));
}

obs::HealthOptions health_options_from_json(const Json& j,
                                            const std::string& where) {
  require_object(j, where);
  check_keys(j,
             {"enabled", "every_n_steps", "policy", "phase_sum_tol",
              "simplex_tol", "mu_limit"},
             where);
  obs::HealthOptions o;
  o.enabled = read_bool(j, "enabled", o.enabled, where);
  o.every_n_steps = int(read_int(j, "every_n_steps", o.every_n_steps, where));
  o.policy = obs::parse_health_policy(
      read_str(j, "policy", obs::health_policy_name(o.policy), where));
  o.phase_sum_tol = read_num(j, "phase_sum_tol", o.phase_sum_tol, where);
  o.simplex_tol = read_num(j, "simplex_tol", o.simplex_tol, where);
  o.mu_limit = read_num(j, "mu_limit", o.mu_limit, where);
  return o;
}

// --- resilience --------------------------------------------------------------

Json resilience_options_to_json(const resilience::ResilienceOptions& o) {
  const Json faults =
      Json::object()
          .set("nan_step", Json(double(o.faults.nan_step)))
          .set("nan_cell", array_json(o.faults.nan_cell))
          .set("fail_jit_attempts", Json(o.faults.fail_jit_attempts))
          .set("truncate_checkpoint", Json(o.faults.truncate_checkpoint));
  return Json::object()
      .set("checkpoint_every", Json(o.checkpoint_every))
      .set("directory", Json(o.directory))
      .set("restart_from", Json(o.restart_from))
      .set("max_retries", Json(o.max_retries))
      .set("dt_shrink", Json(o.dt_shrink))
      .set("faults", faults);
}

resilience::ResilienceOptions resilience_options_from_json(
    const Json& j, const std::string& where) {
  require_object(j, where);
  check_keys(j,
             {"checkpoint_every", "directory", "restart_from", "max_retries",
              "dt_shrink", "faults"},
             where);
  resilience::ResilienceOptions o;
  o.checkpoint_every =
      int(read_int(j, "checkpoint_every", o.checkpoint_every, where));
  o.directory = read_str(j, "directory", o.directory, where);
  o.restart_from = read_str(j, "restart_from", o.restart_from, where);
  o.max_retries = int(read_int(j, "max_retries", o.max_retries, where));
  o.dt_shrink = read_num(j, "dt_shrink", o.dt_shrink, where);
  if (const Json* f = j.find("faults")) {
    const std::string fw = where + ".faults";
    require_object(*f, fw);
    check_keys(*f,
               {"nan_step", "nan_cell", "fail_jit_attempts",
                "truncate_checkpoint"},
               fw);
    o.faults.nan_step = read_int(*f, "nan_step", o.faults.nan_step, fw);
    o.faults.nan_cell = read_array(*f, "nan_cell", o.faults.nan_cell, fw);
    o.faults.fail_jit_attempts =
        int(read_int(*f, "fail_jit_attempts", o.faults.fail_jit_attempts, fw));
    o.faults.truncate_checkpoint = read_bool(
        *f, "truncate_checkpoint", o.faults.truncate_checkpoint, fw);
  }
  return o;
}

// --- machine -----------------------------------------------------------------

Json machine_model_to_json(const perf::MachineModel& m) {
  Json caches = Json::array();
  for (const perf::CacheLevel& c : m.caches) {
    caches.push(Json::object()
                    .set("name", Json(c.name))
                    .set("size_bytes", Json(double(c.size_bytes)))
                    .set("cycles_per_line", Json(c.cycles_per_line)));
  }
  return Json::object()
      .set("name", Json(m.name))
      .set("freq_ghz", Json(m.freq_ghz))
      .set("cores", Json(m.cores))
      .set("simd_doubles", Json(m.simd_doubles))
      .set("line_bytes", Json(double(m.line_bytes)))
      .set("add_rtp", Json(m.add_rtp))
      .set("mul_rtp", Json(m.mul_rtp))
      .set("div_rtp", Json(m.div_rtp))
      .set("sqrt_rtp", Json(m.sqrt_rtp))
      .set("rsqrt_rtp", Json(m.rsqrt_rtp))
      .set("blend_rtp", Json(m.blend_rtp))
      .set("load_rtp", Json(m.load_rtp))
      .set("store_rtp", Json(m.store_rtp))
      .set("caches", caches)
      .set("mem_bw_gbytes", Json(m.mem_bw_gbytes));
}

perf::MachineModel machine_model_from_json(const Json& j,
                                           const std::string& where) {
  // Two accepted shapes: a preset string ("skylake_sp", "zen2", ...) or the
  // full field set (the lossless round-trip of a customized model).
  if (j.is_string()) return perf::MachineModel::by_name(j.str());
  require_object(j, where);
  check_keys(j,
             {"name", "freq_ghz", "cores", "simd_doubles", "line_bytes",
              "add_rtp", "mul_rtp", "div_rtp", "sqrt_rtp", "rsqrt_rtp",
              "blend_rtp", "load_rtp", "store_rtp", "caches",
              "mem_bw_gbytes"},
             where);
  perf::MachineModel m;
  m.name = read_str(j, "name", m.name, where);
  m.freq_ghz = read_num(j, "freq_ghz", m.freq_ghz, where);
  m.cores = int(read_int(j, "cores", m.cores, where));
  m.simd_doubles = int(read_int(j, "simd_doubles", m.simd_doubles, where));
  m.line_bytes = long(read_int(j, "line_bytes", m.line_bytes, where));
  m.add_rtp = read_num(j, "add_rtp", m.add_rtp, where);
  m.mul_rtp = read_num(j, "mul_rtp", m.mul_rtp, where);
  m.div_rtp = read_num(j, "div_rtp", m.div_rtp, where);
  m.sqrt_rtp = read_num(j, "sqrt_rtp", m.sqrt_rtp, where);
  m.rsqrt_rtp = read_num(j, "rsqrt_rtp", m.rsqrt_rtp, where);
  m.blend_rtp = read_num(j, "blend_rtp", m.blend_rtp, where);
  m.load_rtp = read_num(j, "load_rtp", m.load_rtp, where);
  m.store_rtp = read_num(j, "store_rtp", m.store_rtp, where);
  m.mem_bw_gbytes = read_num(j, "mem_bw_gbytes", m.mem_bw_gbytes, where);
  if (const Json* caches = j.find("caches")) {
    const std::string cw = where + ".caches";
    if (!caches->is_array()) bad(cw, "expected an array");
    m.caches.clear();
    for (std::size_t i = 0; i < caches->elements().size(); ++i) {
      const Json& e = caches->elements()[i];
      const std::string ew = cw + "[" + std::to_string(i) + "]";
      require_object(e, ew);
      check_keys(e, {"name", "size_bytes", "cycles_per_line"}, ew);
      perf::CacheLevel c;
      c.name = read_str(e, "name", c.name, ew);
      c.size_bytes = long(read_int(e, "size_bytes", c.size_bytes, ew));
      c.cycles_per_line =
          read_num(e, "cycles_per_line", c.cycles_per_line, ew);
      m.caches.push_back(std::move(c));
    }
  }
  return m;
}

// --- driver options -----------------------------------------------------------

Json simulation_options_to_json(const SimulationOptions& o,
                                KeyList excluded) {
  const Json all = Json::object()
      .set("cells", array_json(o.cells))
      .set("boundary", Json(boundary_name(o.boundary)))
      .set("compile", compile_options_to_json(o.compile))
      .set("trace", trace_options_to_json(o.trace))
      .set("health", health_options_to_json(o.health))
      .set("machine", machine_model_to_json(o.machine))
      .set("resilience", resilience_options_to_json(o.resilience))
      .set("threads", Json(o.threads))
      .set("time_scheme", Json(time_scheme_name(o.time_scheme)))
      .set("blocks_per_dim", array_json(o.blocks_per_dim))
      .set("overlap", Json(overlap_mode_name(o.overlap)))
      .set("pin", Json(support::pin_policy_name(o.pin)))
      .set("first_touch", Json(o.first_touch))
      .set("dispatch", Json(dispatch_name(o.dispatch)))
      .set("blocking", Json(blocking_mode_name(o.blocking)))
      .set("blocking_tile_rows", Json(double(o.blocking_tile_rows)));
  Json out = Json::object();
  for (const auto& [key, v] : all.items()) {
    if (std::find(excluded.begin(), excluded.end(), key) == excluded.end()) {
      out.set(key, v);
    }
  }
  return out;
}

SimulationOptions simulation_options_from_json(
    const Json& j, const std::string& where,
    const SimulationOptions& defaults, KeyList excluded) {
  require_object(j, where);
  check_keys(j,
             {"cells", "boundary", "compile", "trace", "health", "machine",
              "resilience", "threads", "time_scheme", "blocks_per_dim",
              "overlap", "pin", "first_touch", "dispatch", "blocking",
              "blocking_tile_rows"},
             where);
  for (const char* key : excluded) {
    if (j.find(key)) bad(where + "." + key, "unknown key");
  }
  SimulationOptions o = defaults;
  o.cells = read_array(j, "cells", o.cells, where);
  if (o.cells[0] < 1 || o.cells[1] < 1 || o.cells[2] < 1) {
    bad(where + ".cells", "extents must be >= 1");
  }
  o.boundary =
      parse_boundary(read_str(j, "boundary", boundary_name(o.boundary), where));
  if (const Json* v = j.find("compile")) {
    o.compile = compile_options_from_json(*v, where + ".compile");
  }
  if (const Json* v = j.find("trace")) {
    o.trace = trace_options_from_json(*v, where + ".trace");
  }
  if (const Json* v = j.find("health")) {
    o.health = health_options_from_json(*v, where + ".health");
  }
  if (const Json* v = j.find("machine")) {
    o.machine = machine_model_from_json(*v, where + ".machine");
  }
  if (const Json* v = j.find("resilience")) {
    o.resilience = resilience_options_from_json(*v, where + ".resilience");
  }
  o.threads = int(read_int(j, "threads", o.threads, where));
  if (o.threads < 1) bad(where + ".threads", "must be >= 1");
  o.time_scheme = parse_time_scheme(
      read_str(j, "time_scheme", time_scheme_name(o.time_scheme), where));
  o.blocks_per_dim = read_array(j, "blocks_per_dim", o.blocks_per_dim, where);
  if (o.blocks_per_dim[0] < 1 || o.blocks_per_dim[1] < 1 ||
      o.blocks_per_dim[2] < 1) {
    bad(where + ".blocks_per_dim", "block counts must be >= 1");
  }
  o.overlap = parse_overlap_mode(
      read_str(j, "overlap", overlap_mode_name(o.overlap), where));
  o.pin = support::parse_pin_policy(
      read_str(j, "pin", support::pin_policy_name(o.pin), where));
  o.first_touch = read_bool(j, "first_touch", o.first_touch, where);
  o.dispatch = parse_dispatch(
      read_str(j, "dispatch", dispatch_name(o.dispatch), where));
  o.blocking = parse_blocking_mode(
      read_str(j, "blocking", blocking_mode_name(o.blocking), where));
  o.blocking_tile_rows = read_int(j, "blocking_tile_rows",
                                  o.blocking_tile_rows, where);
  if (o.blocking_tile_rows < 0) {
    bad(where + ".blocking_tile_rows", "must be >= 0");
  }
  return o;
}

}  // namespace pfc::app
