// Minimal JSON value: enough for the observability exporters, the schema
// checker and report round-trips. Objects preserve insertion order so the
// emitted reports are deterministic and diffable.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "pfc/support/assert.hpp"

namespace pfc::obs {

class Json {
 public:
  enum class Kind { Null, Bool, Number, String, Object, Array };

  Json() = default;
  Json(bool b) : kind_(Kind::Bool), bool_(b) {}
  Json(double v) : kind_(Kind::Number), num_(v) {}
  Json(int v) : kind_(Kind::Number), num_(double(v)) {}
  Json(long long v) : kind_(Kind::Number), num_(double(v)) {}
  Json(std::uint64_t v) : kind_(Kind::Number), num_(double(v)) {}
  Json(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
  Json(const char* s) : kind_(Kind::String), str_(s) {}

  static Json object() { Json j; j.kind_ = Kind::Object; return j; }
  static Json array() { Json j; j.kind_ = Kind::Array; return j; }

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::Object; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }

  double number() const { return num_; }
  bool boolean() const { return bool_; }
  const std::string& str() const { return str_; }

  /// Object: sets (or replaces) a key. Returns *this for chaining.
  Json& set(const std::string& key, Json v);
  /// Object: member lookup, nullptr if absent (or not an object).
  const Json* find(const std::string& key) const;
  const std::vector<std::pair<std::string, Json>>& items() const {
    return members_;
  }

  /// Array: appends an element. Returns *this for chaining.
  Json& push(Json v);
  const std::vector<Json>& elements() const { return elems_; }

  bool operator==(const Json& o) const;

  /// Serializes with 2-space indentation (indent < 0: compact one-liner).
  std::string dump(int indent = 2) const;

  /// Recursive-descent parse; returns Null and sets *error on failure.
  static Json parse(const std::string& text, std::string* error = nullptr);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<std::pair<std::string, Json>> members_;  // Object
  std::vector<Json> elems_;                            // Array
};

// A struct S with a JSON form declares its field list (json_fields.hpp)
// next to itself: const FieldList<S>& json_fields(JsonTag<S>);
template <typename S> struct JsonField;
template <typename S> using FieldList = std::vector<JsonField<S>>;
template <typename S> struct JsonTag {};

/// The integer rule of every decoder that reads JSON from outside the
/// program (the jobspec, tuning-cache entries, checkpoint manifests): `j`
/// is a number, integral, below 2^53 in magnitude (a double holds every
/// such integer exactly; a larger one may already have been rounded by the
/// parser) and inside T. Returns the value; otherwise throws pfc::Error
/// "<what>: <reason>".
template <typename T>
T json_integer(const Json& j, const std::string& what) {
  static_assert(std::is_integral_v<T>);
  if (!j.is_number()) throw Error(what + ": expected a number");
  const double x = j.number();
  if (x != std::floor(x)) throw Error(what + ": expected an integer");
  if (std::abs(x) >= 9007199254740992.0) {
    throw Error(what + ": integer magnitude must be below 2^53");
  }
  using L = std::numeric_limits<T>;
  if (x < double(L::min()) || x > double(L::max())) {
    throw Error(what + ": " + Json(x).dump() + " is outside [" +
                std::to_string(L::min()) + ", " + std::to_string(L::max()) +
                "]");
  }
  return T(x);
}

}  // namespace pfc::obs
