#include "pfc/obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>

namespace pfc::obs {

Json& Json::set(const std::string& key, Json v) {
  kind_ = Kind::Object;
  for (auto& [k, val] : members_) {
    if (k == key) {
      val = std::move(v);
      return *this;
    }
  }
  members_.emplace_back(key, std::move(v));
  return *this;
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json& Json::push(Json v) {
  kind_ = Kind::Array;
  elems_.push_back(std::move(v));
  return *this;
}

bool Json::operator==(const Json& o) const {
  if (kind_ != o.kind_) return false;
  switch (kind_) {
    case Kind::Null: return true;
    case Kind::Bool: return bool_ == o.bool_;
    case Kind::Number: return num_ == o.num_;
    case Kind::String: return str_ == o.str_;
    case Kind::Object: return members_ == o.members_;
    case Kind::Array: return elems_ == o.elems_;
  }
  return false;
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {  // JSON has no inf/nan; emit null
    out += "null";
    return;
  }
  const double r = std::nearbyint(v);
  if (r == v && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(r));
    out += buf;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent < 0) return;
    out += '\n';
    out.append(std::size_t(indent) * std::size_t(d), ' ');
  };
  switch (kind_) {
    case Kind::Null: out += "null"; break;
    case Kind::Bool: out += bool_ ? "true" : "false"; break;
    case Kind::Number: append_number(out, num_); break;
    case Kind::String: append_escaped(out, str_); break;
    case Kind::Object: {
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [k, v] : members_) {
        if (!first) out += ',';
        first = false;
        newline(depth + 1);
        append_escaped(out, k);
        out += indent < 0 ? ":" : ": ";
        v.dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      break;
    }
    case Kind::Array: {
      if (elems_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      bool first = true;
      for (const auto& v : elems_) {
        if (!first) out += ',';
        first = false;
        newline(depth + 1);
        v.dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out += ']';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

/// Objects and arrays nest at most this deep. The parser recurses once per
/// level, so an unbounded depth lets one line of '[' overflow the stack.
constexpr int kMaxDepth = 256;

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  std::string error;
  int depth = 0;

  bool fail(const std::string& msg) {
    if (error.empty()) {
      error = msg + " at offset " + std::to_string(pos);
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(
                                    text[pos]))) {
      ++pos;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }

  bool parse_value(Json& out) {
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{' || c == '[') {
      if (depth == kMaxDepth) {
        return fail("nesting deeper than " + std::to_string(kMaxDepth));
      }
      ++depth;
      const bool ok = c == '{' ? parse_object(out) : parse_array(out);
      --depth;
      return ok;
    }
    if (c == '"') {
      std::string s;
      if (!parse_string(s)) return false;
      out = Json(std::move(s));
      return true;
    }
    if (text.compare(pos, 4, "true") == 0) {
      pos += 4;
      out = Json(true);
      return true;
    }
    if (text.compare(pos, 5, "false") == 0) {
      pos += 5;
      out = Json(false);
      return true;
    }
    if (text.compare(pos, 4, "null") == 0) {
      pos += 4;
      out = Json();
      return true;
    }
    return parse_number(out);
  }

  bool parse_hex4(unsigned& v) {
    if (pos + 4 > text.size()) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text[pos++];
      v <<= 4;
      if (h >= '0' && h <= '9') v |= unsigned(h - '0');
      else if (h >= 'a' && h <= 'f') v |= unsigned(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') v |= unsigned(h - 'A' + 10);
      else return false;
    }
    return true;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += char(cp);
    } else if (cp < 0x800) {
      out += char(0xC0 | (cp >> 6));
      out += char(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += char(0xE0 | (cp >> 12));
      out += char(0x80 | ((cp >> 6) & 0x3F));
      out += char(0x80 | (cp & 0x3F));
    } else {
      out += char(0xF0 | (cp >> 18));
      out += char(0x80 | ((cp >> 12) & 0x3F));
      out += char(0x80 | ((cp >> 6) & 0x3F));
      out += char(0x80 | (cp & 0x3F));
    }
  }

  bool parse_string(std::string& out) {
    skip_ws();
    if (pos >= text.size() || text[pos] != '"') return fail("expected string");
    ++pos;
    while (pos < text.size() && text[pos] != '"') {
      char c = text[pos++];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) return fail("bad escape");
      const char e = text[pos++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          // UTF-16 escapes decode to UTF-8, the encoding the writer passes
          // through raw, so both spellings of a name are one string. A
          // surrogate pair is one code point; a lone surrogate is refused.
          unsigned cp = 0;
          if (!parse_hex4(cp)) return fail("bad \\u escape");
          if (cp >= 0xDC00 && cp <= 0xDFFF) return fail("bad \\u escape");
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            unsigned lo = 0;
            if (text.compare(pos, 2, "\\u") != 0) {
              return fail("bad \\u escape");
            }
            pos += 2;
            if (!parse_hex4(lo) || lo < 0xDC00 || lo > 0xDFFF) {
              return fail("bad \\u escape");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          }
          append_utf8(out, cp);
          break;
        }
        default: return fail("bad escape");
      }
    }
    if (pos >= text.size()) return fail("unterminated string");
    ++pos;
    return true;
  }

  bool parse_number(Json& out) {
    const std::size_t start = pos;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '-' || text[pos] == '+')) {
      ++pos;
    }
    if (pos == start) return fail("expected value");
    try {
      out = Json(std::stod(text.substr(start, pos - start)));
    } catch (...) {
      return fail("bad number");
    }
    return true;
  }

  bool parse_object(Json& out) {
    if (!consume('{')) return false;
    out = Json::object();
    skip_ws();
    if (pos < text.size() && text[pos] == '}') {
      ++pos;
      return true;
    }
    while (true) {
      std::string key;
      if (!parse_string(key)) return false;
      if (!consume(':')) return false;
      Json v;
      if (!parse_value(v)) return false;
      out.set(key, std::move(v));
      skip_ws();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      return consume('}');
    }
  }

  bool parse_array(Json& out) {
    if (!consume('[')) return false;
    out = Json::array();
    skip_ws();
    if (pos < text.size() && text[pos] == ']') {
      ++pos;
      return true;
    }
    while (true) {
      Json v;
      if (!parse_value(v)) return false;
      out.push(std::move(v));
      skip_ws();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      return consume(']');
    }
  }
};

}  // namespace

Json Json::parse(const std::string& text, std::string* error) {
  Parser p{text, 0, {}, 0};
  Json out;
  if (!p.parse_value(out)) {
    if (error != nullptr) *error = p.error;
    return Json();
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    if (error != nullptr) *error = "trailing characters";
    return Json();
  }
  if (error != nullptr) error->clear();
  return out;
}

}  // namespace pfc::obs
