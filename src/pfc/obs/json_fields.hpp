// The field-list JSON codec every format of the program is declared with
// (the job spec and its options, the job result, the reports, HealthStats,
// the checkpoint manifest, the pfc-tune-v2 entry). The module that
// declares a struct S declares its list next to it,
//   const FieldList<S>& json_fields(JsonTag<S>);
// one entry per JSON key (key, member, range check) plus S's cross-field
// rules. to_json writes the fields in list order; from_json starts from
// S's defaults and throws a pfc::Error "<format>: <path>: <msg>"
// ("jobspec: simulation.cells[0]: must be >= 1") on an unknown key, a type
// mismatch, an integer its member cannot hold, a value out of range, a
// broken rule and, in a complete format, a missing key. Enum members are
// spelled by their table (enum_names.hpp). For every document the writer
// produced, to_json(from_json<S>(j)) == j.
#pragma once

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "pfc/obs/json.hpp"
#include "pfc/support/enum_names.hpp"

namespace pfc::obs {

/// How a document is read: `name` heads every error; a complete format
/// requires every key its writer always writes (a lenient one keeps the
/// default of a missing key); a nonnegative one refuses numbers below 0.
struct JsonFormat {
  std::string name;
  bool complete = false;
  bool nonnegative = false;
};

/// A position in a document: its format and the path of keys and indices
/// that leads there ("simulation.cells[0]").
class JsonPath {
 public:
  JsonPath(const JsonFormat& format, std::string at = "")
      : format_(&format), at_(std::move(at)) {}
  const JsonFormat& format() const { return *format_; }
  JsonPath key(const std::string& k) const {
    return {*format_, at_.empty() ? k : at_ + "." + k};
  }
  JsonPath index(std::size_t i) const {
    return {*format_, at_ + "[" + std::to_string(i) + "]"};
  }
  /// "<format>: <path>" ("<format>" at the document itself).
  std::string where() const {
    return at_.empty() ? format_->name : format_->name + ": " + at_;
  }
  [[noreturn]] void fail(const std::string& msg) const {
    throw Error(where() + ": " + msg);
  }

 private:
  const JsonFormat* format_;
  std::string at_;
};

// --- range checks ------------------------------------------------------------
// A check sees one value (each element of an array) as JSON and returns
// what is wrong with it, or "" when it is in range.

using Check = std::function<std::string(const Json&)>;

inline Check at_least(double lo) {
  return [lo](const Json& v) {
    return v.number() >= lo ? "" : "must be >= " + Json(lo).dump();
  };
}
inline Check between(double lo, double hi) {
  return [lo, hi](const Json& v) {
    return v.number() >= lo && v.number() <= hi
               ? ""
               : "must be in [" + Json(lo).dump() + ", " + Json(hi).dump() +
                     "]";
  };
}
inline Check positive() {
  return [](const Json& v) {
    return std::string(v.number() > 0.0 ? "" : "must be > 0");
  };
}

inline Check one_of(std::vector<Json> valid) {
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
inline Check non_empty() {
  return [](const Json& v) {
    return std::string(v.str().empty() ? "must not be empty" : "");
  };
}
/// A content hash: `n` lowercase hex digits.
inline Check hex_digits(std::size_t n) {
  return [n](const Json& v) {
    return v.str().size() == n &&
                   v.str().find_first_not_of("0123456789abcdef") ==
                       std::string::npos
               ? ""
               : "must be " + std::to_string(n) + " lowercase hex digits";
  };
}
/// A string member holding a spelling of enum E.
template <typename E>
Check spelled() {
  return [](const Json& v) {
    return support::find_enum<E>(v.str())
               ? ""
               : support::unknown_enum_message<E>(v.str());
  };
}

// --- fields --------------------------------------------------------------------

/// Whether a key may be missing on read.
enum class Presence { ByFormat, Required, Optional };

template <typename S>
struct JsonField {
  /// The JSON key; nullptr marks a rule of S, which has none.
  const char* key = nullptr;
  /// The member's JSON form; nullopt leaves the key out.
  std::function<std::optional<Json>(const S&)> write;
  /// Strict decode of `j` into the member, range check included (a rule:
  /// the rule; a group: what reading its key implies).
  std::function<void(const Json& j, S& s, const JsonPath& path)> read;
  Presence presence = Presence::ByFormat;
  /// Read after every other key of S (a computed value, a rule).
  bool deferred = false;
  /// A JSON object whose keys are more fields of S itself.
  std::shared_ptr<const FieldList<S>> group;
};

/// The list of S, found by argument-dependent lookup.
template <typename S>
const FieldList<S>& fields_of() {
  return json_fields(JsonTag<S>{});
}

namespace detail {

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
struct is_map : std::false_type {};
template <typename V>
struct is_map<std::map<std::string, V>> : std::true_type {};

template <typename S>
Json write_list(const FieldList<S>& fields, const S& s) {
  Json out = Json::object();
  for (const JsonField<S>& f : fields) {
    if (f.key == nullptr) continue;
    if (std::optional<Json> v = f.write(s)) out.set(f.key, std::move(*v));
  }
  return out;
}

/// Reads the keys of `j`. Deferred fields and rules land in `later`, so
/// they see every other member of S, whichever group holds it.
template <typename S>
void read_fields(const FieldList<S>& fields, const Json& j, S& s,
                 const JsonPath& where,
                 std::vector<std::function<void()>>& later) {
  if (!j.is_object()) where.fail("expected an object");
  for (const auto& [key, v] : j.items()) {
    const auto f = std::find_if(
        fields.begin(), fields.end(), [&key = key](const JsonField<S>& x) {
          return x.key != nullptr && key == x.key;
        });
    const JsonPath path = where.key(key);
    if (f == fields.end()) path.fail("unknown key");
    if (f->deferred) {
      later.push_back([f, &v, &s, path] { f->read(v, s, path); });
      continue;
    }
    if (f->read) f->read(v, s, path);
    if (f->group) read_fields(*f->group, v, s, path, later);
  }
  for (const JsonField<S>& f : fields) {
    if (f.key == nullptr) {
      later.push_back([&f, &s, where] { f.read(Json(), s, where); });
    } else if (j.find(f.key) == nullptr &&
               (f.presence == Presence::Required ||
                (f.presence == Presence::ByFormat &&
                 where.format().complete))) {
      where.key(f.key).fail("missing");
    }
  }
}

/// Runs `check` on `j`, or on each element of an array.
inline void apply_check(const Json& j, const Check& check,
                        const JsonPath& path) {
  if (!check) return;
  if (j.is_array()) {
    for (std::size_t i = 0; i < j.elements().size(); ++i) {
      apply_check(j.elements()[i], check, path.index(i));
    }
  } else if (const std::string msg = check(j); !msg.empty()) {
    path.fail(msg);
  }
}

}  // namespace detail

// --- value codecs ----------------------------------------------------------------

template <typename T>
Json encode(const T& v) {
  if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, double> ||
                std::is_same_v<T, std::string>) {
    return Json(v);
  } else if constexpr (std::is_integral_v<T>) {
    return Json(double(v));
  } else if constexpr (std::is_enum_v<T>) {
    return Json(support::enum_name(v));
  } else if constexpr (detail::is_sequence<T>::value) {
    Json out = Json::array();
    for (const auto& e : v) out.push(encode(e));
    return out;
  } else if constexpr (detail::is_map<T>::value) {
    Json out = Json::object();
    for (const auto& [k, e] : v) out.set(k, encode(e));
    return out;
  } else {
    return detail::write_list(fields_of<T>(), v);
  }
}

template <typename T>
void decode(const Json& j, T& out, const JsonPath& path) {
  const bool nonnegative = path.format().nonnegative;
  if constexpr (std::is_same_v<T, bool>) {
    if (j.kind() != Json::Kind::Bool) path.fail("expected a bool");
    out = j.boolean();
  } else if constexpr (std::is_integral_v<T>) {
    out = json_integer<T>(j, path.where());
    if (nonnegative && j.number() < 0) path.fail("must be >= 0");
  } else if constexpr (std::is_same_v<T, double>) {
    if (!j.is_number()) path.fail("expected a number");
    if (!std::isfinite(j.number())) path.fail("expected a finite number");
    if (nonnegative && j.number() < 0) path.fail("must be >= 0");
    out = j.number();
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!j.is_string()) path.fail("expected a string");
    out = j.str();
  } else if constexpr (std::is_enum_v<T>) {
    if (!j.is_string()) path.fail("expected a string");
    const std::optional<T> v = support::find_enum<T>(j.str());
    if (!v) path.fail(support::unknown_enum_message<T>(j.str()));
    out = *v;
  } else if constexpr (detail::is_optional<T>::value) {
    decode(j, out.emplace(), path);
  } else if constexpr (detail::is_sequence<T>::value) {
    if (!j.is_array()) path.fail("expected an array");
    if constexpr (std::is_same_v<T, std::vector<typename T::value_type>>) {
      out.assign(j.elements().size(), {});
    } else if (j.elements().size() != out.size()) {
      path.fail("expected an array of " + std::to_string(out.size()) +
                " numbers");
    }
    for (std::size_t i = 0; i < out.size(); ++i) {
      decode(j.elements()[i], out[i], path.index(i));
    }
  } else if constexpr (detail::is_map<T>::value) {
    if (!j.is_object()) path.fail("expected an object");
    out.clear();
    for (const auto& [k, e] : j.items()) decode(e, out[k], path.key(k));
  } else {
    std::vector<std::function<void()>> later;
    detail::read_fields(fields_of<T>(), j, out, path, later);
    for (const auto& step : later) step();
  }
}

// --- field constructors ----------------------------------------------------------

/// The field `key` of member `m`; an optional member is written only when
/// set and may be missing.
template <typename S, typename T>
JsonField<S> field(const char* key, T S::*m, Check check = {}) {
  JsonField<S> f;
  f.key = key;
  f.write = [m](const S& s) -> std::optional<Json> {
    if constexpr (detail::is_optional<T>::value) {
      if (!(s.*m)) return std::nullopt;
      return encode(*(s.*m));
    } else {
      return encode(s.*m);
    }
  };
  f.read = [m, check](const Json& j, S& s, const JsonPath& path) {
    decode(j, s.*m, path);
    detail::apply_check(j, check, path);
  };
  if (detail::is_optional<T>::value) f.presence = Presence::Optional;
  return f;
}

/// field() of a member written only when `written(s)`; reading one for
/// which it does not hold is an error ("is written only when <when>").
template <typename S, typename T>
JsonField<S> field_if(const char* key, T S::*m, bool (*written)(const S&),
                      const char* when, Check check = {}) {
  JsonField<S> f = field(key, m, std::move(check));
  f.write = [m, written](const S& s) -> std::optional<Json> {
    if (!written(s)) return std::nullopt;
    return encode(s.*m);
  };
  f.read = [read = f.read, written, when](const Json& j, S& s,
                                          const JsonPath& path) {
    read(j, s, path);
    if (!written(s)) path.fail(std::string("is written only when ") + when);
  };
  f.presence = Presence::Optional;
  return f;
}

/// A JSON object `key` whose fields are members of S itself. With
/// `present`, it is written only when that member is true, and reading it
/// sets the member.
template <typename S>
JsonField<S> group(const char* key, FieldList<S> fields,
                   bool S::*present = nullptr) {
  JsonField<S> f;
  f.key = key;
  f.group = std::make_shared<const FieldList<S>>(std::move(fields));
  f.write = [list = f.group, present](const S& s) -> std::optional<Json> {
    if (present != nullptr && !(s.*present)) return std::nullopt;
    return detail::write_list(*list, s);
  };
  if (present != nullptr) {
    f.read = [present](const Json&, S& s, const JsonPath&) {
      s.*present = true;
    };
    f.presence = Presence::Optional;
  }
  return f;
}

/// A string the writer always writes as `value` (a schema tag, a kind).
template <typename S>
JsonField<S> constant(const char* key, const char* value) {
  JsonField<S> f;
  f.key = key;
  f.write = [value](const S&) -> std::optional<Json> { return Json(value); };
  f.read = [value](const Json& j, S&, const JsonPath& path) {
    if (!j.is_string()) path.fail("expected a string");
    if (j.str() != value) {
      path.fail(j.dump(-1) + " is not " + Json(value).dump(-1));
    }
  };
  f.presence = Presence::Required;
  return f;
}

/// A value the writer computes from other members; reading checks it
/// against them.
template <typename S, typename T>
JsonField<S> computed(const char* key, T (*value)(const S&)) {
  JsonField<S> f;
  f.key = key;
  f.write = [value](const S& s) -> std::optional<Json> {
    return encode(value(s));
  };
  f.read = [value](const Json& j, S& s, const JsonPath& path) {
    T v{};
    decode(j, v, path);
    if (const Json want = encode(value(s)); !(encode(v) == want)) {
      path.fail(j.dump(-1) + " disagrees with the other fields, which give " +
                want.dump(-1));
    }
  };
  f.deferred = true;
  return f;
}

/// A key older writers wrote: read and ignored, never written.
template <typename S>
JsonField<S> retired(const char* key) {
  JsonField<S> f;
  f.key = key;
  f.write = [](const S&) -> std::optional<Json> { return std::nullopt; };
  f.read = [](const Json&, S&, const JsonPath&) {};
  f.presence = Presence::Optional;
  return f;
}

/// A cross-field rule of S: `broken` says what is wrong, or "".
template <typename S>
JsonField<S> rule(std::string (*broken)(const S&)) {
  JsonField<S> f;
  f.write = [](const S&) -> std::optional<Json> { return std::nullopt; };
  f.read = [broken](const Json&, S& s, const JsonPath& path) {
    if (const std::string msg = broken(s); !msg.empty()) path.fail(msg);
  };
  return f;
}

/// A 64-bit member written as `prefix` + 16 hex digits: a JSON number is a
/// double and rounds above 2^53. With `number_too`, a number under
/// json_integer's rule still reads (older documents wrote one).
template <typename S>
JsonField<S> hex64(const char* key, std::uint64_t S::*m,
                   const char* prefix = "", bool number_too = false) {
  JsonField<S> f;
  f.key = key;
  f.write = [m, prefix](const S& s) -> std::optional<Json> {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%016" PRIx64, prefix, s.*m);
    return Json(buf);
  };
  f.read = [m, prefix, number_too](const Json& j, S& s,
                                   const JsonPath& path) {
    if (number_too && j.is_number()) {
      s.*m = json_integer<std::uint64_t>(j, path.where());
      return;
    }
    const std::string p = prefix;
    if (!j.is_string() || j.str().size() != p.size() + 16 ||
        j.str().compare(0, p.size(), p) != 0 ||
        j.str().find_first_not_of("0123456789abcdefABCDEF", p.size()) !=
            std::string::npos) {
      path.fail("expected a \"" + p + "\" + 16-hex-digit string");
    }
    s.*m = std::stoull(j.str().substr(p.size()), nullptr, 16);
  };
  return f;
}

/// Field `f` of the struct member `m` of S (not a group).
template <typename S, typename T>
JsonField<S> lift(T S::*m, const JsonField<T>& f) {
  JsonField<S> g;
  g.key = f.key;
  g.write = [m, w = f.write](const S& s) { return w(s.*m); };
  g.read = [m, r = f.read](const Json& j, S& s, const JsonPath& path) {
    r(j, s.*m, path);
  };
  g.presence = f.presence;
  g.deferred = f.deferred;
  return g;
}

/// Every field of the struct member `m`, as fields of S.
template <typename S, typename T>
FieldList<S> lift(T S::*m, const FieldList<T>& fields) {
  FieldList<S> out;
  for (const JsonField<T>& f : fields) out.push_back(lift(m, f));
  return out;
}

// --- entry points ------------------------------------------------------------------

template <typename S>
Json to_json(const S& s) {
  return encode(s);
}

/// Strict decode of `j` in `format`; `where` heads every path.
template <typename S>
S from_json(const Json& j, const JsonFormat& format,
            const std::string& where = "") {
  S s;
  decode(j, s, JsonPath(format, where));
  return s;
}

/// The range checks and rules of a struct built in code.
template <typename S>
void check_fields(const S& s, const JsonFormat& format,
                  const std::string& where = "") {
  (void)from_json<S>(to_json(s), format, where);
}

}  // namespace pfc::obs
