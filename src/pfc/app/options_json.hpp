// Lossless JSON round-trips for every driver-facing options aggregate —
// the canonical representation the pfc-jobspec-v1 schema (app/jobspec.hpp),
// the examples' --jobspec flags, the serve daemon and the tests all
// consume. One rule everywhere:
//
//   * to_json writes every field, so two specs are comparable as plain
//     JSON and the serialization doubles as documentation of the knob set;
//   * from_json fills missing keys with the field's default but rejects
//     unknown keys and type mismatches with a pfc::Error naming the path
//     ("compile.vector_width: expected a number") — a typo in a job spec
//     fails fast at submit time instead of silently running the default.
//
// The invariant the options_roundtrip ctest pins:
//   from_json(to_json(opts)) == opts, field for field.
#pragma once

#include <initializer_list>
#include <string>

#include "pfc/app/simulation.hpp"
#include "pfc/obs/json.hpp"

namespace pfc::app {

// --- strict field readers (also the jobspec decoder's) -----------------------
// An absent key keeps `def`. A present key of the wrong type, an unknown key
// or an integer a double cannot hold exactly (|v| >= 2^53) throws a
// pfc::Error "jobspec: <where>.<key>: <what>".
namespace json_field {
[[noreturn]] void bad(const std::string& where, const std::string& msg);
void require_object(const obs::Json& j, const std::string& where);
void check_keys(const obs::Json& j, std::initializer_list<const char*> allowed,
                const std::string& where);
double read_num(const obs::Json& j, const char* key, double def,
                const std::string& where);
long long read_int(const obs::Json& j, const char* key, long long def,
                   const std::string& where);
std::string read_str(const obs::Json& j, const char* key,
                     const std::string& def, const std::string& where);
}  // namespace json_field

// --- leaf option blocks ------------------------------------------------------
obs::Json compile_options_to_json(const CompileOptions& o);
CompileOptions compile_options_from_json(const obs::Json& j,
                                         const std::string& where = "compile");

obs::Json trace_options_to_json(const obs::TraceOptions& o);
obs::TraceOptions trace_options_from_json(const obs::Json& j,
                                          const std::string& where = "trace");

obs::Json health_options_to_json(const obs::HealthOptions& o);
obs::HealthOptions health_options_from_json(
    const obs::Json& j, const std::string& where = "health");

obs::Json resilience_options_to_json(const resilience::ResilienceOptions& o);
resilience::ResilienceOptions resilience_options_from_json(
    const obs::Json& j, const std::string& where = "resilience");

obs::Json machine_model_to_json(const perf::MachineModel& m);
perf::MachineModel machine_model_from_json(
    const obs::Json& j, const std::string& where = "machine");

// --- driver options ----------------------------------------------------------
// Keys named in `excluded` are neither written nor accepted, so each jobspec
// section keeps its own key set. Absent keys keep the value in `defaults`
// (the jobspec's "distributed" section defaults to 2x2x1 blocks).
using KeyList = std::initializer_list<const char*>;
obs::Json simulation_options_to_json(const SimulationOptions& o,
                                     KeyList excluded = {});
SimulationOptions simulation_options_from_json(
    const obs::Json& j, const std::string& where = "simulation",
    const SimulationOptions& defaults = {}, KeyList excluded = {});

// --- enum spellings (shared with the jobspec and the CLI flags) --------------
const char* backend_name(Backend b);
Backend parse_backend(const std::string& name);
const char* boundary_name(grid::BoundaryKind b);
grid::BoundaryKind parse_boundary(const std::string& name);
const char* time_scheme_name(TimeScheme s);
TimeScheme parse_time_scheme(const std::string& name);
const char* overlap_mode_name(OverlapMode m);
OverlapMode parse_overlap_mode(const std::string& name);
const char* dispatch_name(Dispatch d);
Dispatch parse_dispatch(const std::string& name);
const char* tune_mode_name(TuneMode m);
TuneMode parse_tune_mode(const std::string& name);
const char* blocking_mode_name(BlockingMode m);
BlockingMode parse_blocking_mode(const std::string& name);

}  // namespace pfc::app
