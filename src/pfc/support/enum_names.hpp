// One spelling table per enum. The module that declares an enum E also
// declares, next to it,
//
//   constexpr support::EnumNames<E, N> enum_names(E) { return {...}; }
//
// and every reader of a spelling (the jobspec codec, the CLI flags, the
// run report's echo, the tuner's candidates, report_check) goes through
// enum_name / find_enum / parse_enum, which find the table by
// argument-dependent lookup. An enum value is spelled exactly once.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "pfc/support/assert.hpp"

namespace pfc::support {

template <typename E, std::size_t N>
struct EnumNames {
  const char* what;  ///< the enum's noun in errors ("dispatch")
  struct Entry {
    E value;
    const char* name;
  } entries[N];
};

/// The spelling of `v` ("?" for a value outside the table).
template <typename E>
const char* enum_name(E v) {
  for (const auto& e : enum_names(E{}).entries) {
    if (e.value == v) return e.name;
  }
  return "?";
}

/// The value spelled `name`, if any.
template <typename E>
std::optional<E> find_enum(std::string_view name) {
  for (const auto& e : enum_names(E{}).entries) {
    if (name == e.name) return e.value;
  }
  return std::nullopt;
}

/// Every spelling, in table order, joined by `sep` ("off|auto|fixed").
template <typename E>
std::string enum_spellings(const char* sep = ", ") {
  std::string out;
  for (const auto& e : enum_names(E{}).entries) {
    if (!out.empty()) out += sep;
    out += e.name;
  }
  return out;
}

/// "unknown <what> "<name>" (valid: a, b, c)".
template <typename E>
std::string unknown_enum_message(std::string_view name) {
  return "unknown " + std::string(enum_names(E{}).what) + " \"" +
         std::string(name) + "\" (valid: " + enum_spellings<E>() + ")";
}

/// The value spelled `name`; throws pfc::Error listing the valid ones.
template <typename E>
E parse_enum(std::string_view name) {
  if (const auto v = find_enum<E>(name)) return *v;
  throw Error(unknown_enum_message<E>(name));
}

}  // namespace pfc::support
