// The JSON codec of the driver options and of the jobspec (pfc-jobspec-v2,
// app/jobspec.hpp). options_json.cpp gives each options struct one field
// list (JSON key, member, range check), and one generic writer, one strict
// reader and one checker walk those lists, so they agree at every depth:
//
//   * options_to_json writes every field, so two specs are comparable as
//     plain JSON and the serialization doubles as documentation of the
//     knob set;
//   * options_from_json starts from the struct's defaults and throws a
//     pfc::Error naming the path on an unknown key, a type mismatch, an
//     integer its member cannot hold or a value outside the field's range
//     ("jobspec: simulation.cells[0]: must be >= 1") — a typo in a job
//     spec fails fast at submit time instead of silently running the
//     default;
//   * check_options runs the same range checks on a struct built in code.
//
// Enum values are written with their module's spelling table
// (support/enum_names.hpp). The invariant the options_roundtrip ctest pins:
//   options_from_json(options_to_json(opts)) == opts, field for field.
#pragma once

#include <string>

#include "pfc/app/simulation.hpp"
#include "pfc/obs/json.hpp"

namespace pfc::app {

struct JobSpec;

/// Throws pfc::Error "jobspec: <path>: <msg>".
[[noreturn]] void option_error(const std::string& path,
                               const std::string& msg);

// The codec is defined for SimulationOptions and JobSpec, check_options
// for JobSpec. `where` prefixes every path an error names ("" names paths
// from the struct's own keys).
template <typename S>
obs::Json options_to_json(const S& o);
template <typename S>
S options_from_json(const obs::Json& j, const std::string& where);
template <typename S>
void check_options(const S& o, const std::string& where);

}  // namespace pfc::app
