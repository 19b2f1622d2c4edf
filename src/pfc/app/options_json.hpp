// The JSON form of the driver options and of the jobspec (pfc-jobspec-v2,
// app/jobspec.hpp): options_json.cpp gives each options struct one field
// list of the codec in obs/json_fields.hpp. A decode error names the path
// ("jobspec: simulation.cells[0]: must be >= 1"), so a typo in a job spec
// fails at submit time instead of silently running the default. The
// options_roundtrip ctest pins
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
