#include "pfc/sym/expr.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <unordered_map>

#include "pfc/support/assert.hpp"

namespace pfc::sym {

namespace {

std::size_t hash_combine(std::size_t seed, std::size_t v) {
  // boost::hash_combine-style mixing
  return seed ^ (v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

int kind_rank(Kind k) {
  switch (k) {
    case Kind::Number: return 0;
    case Kind::Symbol: return 1;
    case Kind::FieldRef: return 2;
    case Kind::Random: return 3;
    case Kind::Diff: return 4;
    case Kind::Dt: return 5;
    case Kind::Call: return 6;
    case Kind::Pow: return 7;
    case Kind::Mul: return 8;
    case Kind::Add: return 9;
  }
  return 10;
}

std::uint64_t next_symbol_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

const char* func_name(Func f) {
  switch (f) {
    case Func::Sqrt: return "sqrt";
    case Func::RSqrt: return "rsqrt";
    case Func::Exp: return "exp";
    case Func::Log: return "log";
    case Func::Sin: return "sin";
    case Func::Cos: return "cos";
    case Func::Tanh: return "tanh";
    case Func::Abs: return "fabs";
    case Func::Min: return "fmin";
    case Func::Max: return "fmax";
    case Func::Select: return "select";
    case Func::Less: return "less";
    case Func::Greater: return "greater";
    case Func::LessEq: return "less_eq";
    case Func::GreaterEq: return "greater_eq";
    case Func::PhiloxUniform: return "philox_uniform";
  }
  return "?";
}

int func_arity(Func f) {
  switch (f) {
    case Func::Sqrt:
    case Func::RSqrt:
    case Func::Exp:
    case Func::Log:
    case Func::Sin:
    case Func::Cos:
    case Func::Tanh:
    case Func::Abs: return 1;
    case Func::Min:
    case Func::Max:
    case Func::Less:
    case Func::Greater:
    case Func::LessEq:
    case Func::GreaterEq: return 2;
    case Func::Select: return 3;
    case Func::PhiloxUniform: return 7;
  }
  return -1;
}

// --- Node small helpers ------------------------------------------------------

bool Node::is_number(double v) const {
  return kind_ == Kind::Number && num_ == v;
}

bool Node::integer_value(long* out) const {
  if (kind_ != Kind::Number) return false;
  const double r = std::round(num_);
  if (std::abs(num_ - r) > 1e-12 || std::abs(r) > 1e15) return false;
  *out = static_cast<long>(r);
  return true;
}

// --- NodeFactory --------------------------------------------------------------

class NodeFactory {
 public:
  static Expr make_number(double v) {
    auto n = blank(Kind::Number);
    if (v == 0.0) v = 0.0;  // normalize -0
    n->num_ = v;
    n->hash_ = hash_combine(0x11, std::hash<double>{}(v));
    return n;
  }

  static Expr make_symbol(std::string name, Builtin b) {
    auto n = blank(Kind::Symbol);
    n->name_ = std::move(name);
    n->symbol_id_ = next_symbol_id();
    n->builtin_ = b;
    n->hash_ = hash_combine(0x22, std::hash<std::string>{}(n->name_));
    n->hash_ = hash_combine(n->hash_, n->symbol_id_);
    return n;
  }

  static Expr make_field_ref(FieldPtr f, std::array<int, 3> off, int comp) {
    auto n = blank(Kind::FieldRef);
    n->field_ = std::move(f);
    n->offset_ = off;
    n->component_ = comp;
    std::size_t h = hash_combine(0x33, n->field_->id());
    for (int d = 0; d < 3; ++d) h = hash_combine(h, std::size_t(off[d] + 512));
    n->hash_ = hash_combine(h, std::size_t(comp));
    return n;
  }

  static Expr make_nary(Kind k, std::vector<Expr> args) {
    auto n = blank(k);
    std::size_t h = hash_combine(0x44, std::size_t(kind_rank(k)));
    for (const auto& a : args) h = hash_combine(h, a->hash());
    n->args_ = std::move(args);
    n->hash_ = h;
    return n;
  }

  static Expr make_call(Func f, std::vector<Expr> args) {
    auto n = blank(Kind::Call);
    n->func_ = f;
    std::size_t h = hash_combine(0x55, std::size_t(f));
    for (const auto& a : args) h = hash_combine(h, a->hash());
    n->args_ = std::move(args);
    n->hash_ = h;
    return n;
  }

  static Expr make_diff(Expr e, int dim) {
    auto n = blank(Kind::Diff);
    n->diff_dim_ = dim;
    n->hash_ = hash_combine(hash_combine(0x66, e->hash()), std::size_t(dim));
    n->args_ = {std::move(e)};
    return n;
  }

  static Expr make_dt(Expr e) {
    auto n = blank(Kind::Dt);
    n->hash_ = hash_combine(0x77, e->hash());
    n->args_ = {std::move(e)};
    return n;
  }

  static Expr make_random(int stream) {
    auto n = blank(Kind::Random);
    n->diff_dim_ = stream;
    n->hash_ = hash_combine(0x88, std::size_t(stream));
    return n;
  }

 private:
  static std::shared_ptr<Node> blank(Kind k) {
    auto n = std::shared_ptr<Node>(new Node);
    n->kind_ = k;
    return n;
  }
};

// --- equality / ordering -------------------------------------------------------

int compare(const Expr& a, const Expr& b) {
  if (a.get() == b.get()) return 0;
  const int ra = kind_rank(a->kind()), rb = kind_rank(b->kind());
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (a->kind()) {
    case Kind::Number: {
      if (a->number() < b->number()) return -1;
      if (a->number() > b->number()) return 1;
      return 0;
    }
    case Kind::Symbol: {
      const int c = a->name().compare(b->name());
      if (c != 0) return c;
      if (a->symbol_id() != b->symbol_id())
        return a->symbol_id() < b->symbol_id() ? -1 : 1;
      return 0;
    }
    case Kind::FieldRef: {
      if (a->field()->id() != b->field()->id())
        return a->field()->id() < b->field()->id() ? -1 : 1;
      if (a->component() != b->component())
        return a->component() < b->component() ? -1 : 1;
      for (int d = 0; d < 3; ++d) {
        if (a->offset()[d] != b->offset()[d])
          return a->offset()[d] < b->offset()[d] ? -1 : 1;
      }
      return 0;
    }
    case Kind::Random: {
      if (a->random_stream() != b->random_stream())
        return a->random_stream() < b->random_stream() ? -1 : 1;
      return 0;
    }
    case Kind::Call: {
      if (a->func() != b->func())
        return static_cast<int>(a->func()) < static_cast<int>(b->func()) ? -1
                                                                         : 1;
      break;
    }
    case Kind::Diff: {
      if (a->diff_dim() != b->diff_dim())
        return a->diff_dim() < b->diff_dim() ? -1 : 1;
      break;
    }
    default: break;
  }
  if (a->arity() != b->arity()) return a->arity() < b->arity() ? -1 : 1;
  for (std::size_t i = 0; i < a->arity(); ++i) {
    const int c = compare(a->arg(i), b->arg(i));
    if (c != 0) return c;
  }
  return 0;
}

bool equals(const Expr& a, const Expr& b) {
  if (a.get() == b.get()) return true;
  if (a->hash() != b->hash()) return false;
  return compare(a, b) == 0;
}

// --- factories --------------------------------------------------------------

Expr num(double v) { return NodeFactory::make_number(v); }

Expr symbol(const std::string& name) {
  return NodeFactory::make_symbol(name, Builtin::None);
}

Expr symbol(const std::string& name, Builtin b) {
  return NodeFactory::make_symbol(name, b);
}

Expr coord(int dim) {
  PFC_REQUIRE(dim >= 0 && dim < 3, "coord dim out of range");
  static const Expr c[3] = {
      NodeFactory::make_symbol("x0", Builtin::Coord0),
      NodeFactory::make_symbol("x1", Builtin::Coord1),
      NodeFactory::make_symbol("x2", Builtin::Coord2)};
  return c[dim];
}

Expr time_step() {
  static const Expr t = NodeFactory::make_symbol("t_step", Builtin::TimeStep);
  return t;
}

Expr time() {
  static const Expr t = NodeFactory::make_symbol("t", Builtin::Time);
  return t;
}

Expr field_ref(const FieldPtr& f, std::array<int, 3> offset, int component) {
  PFC_REQUIRE(f != nullptr, "null field");
  PFC_REQUIRE(component >= 0 && component < f->components(),
              "field component out of range for " + f->name());
  return NodeFactory::make_field_ref(f, offset, component);
}

Expr at(const FieldPtr& f, int c) { return field_ref(f, {0, 0, 0}, c); }

Expr shifted(const Expr& e, int dim, int shift) {
  PFC_REQUIRE(e->kind() == Kind::FieldRef, "shifted() needs a FieldRef");
  auto off = e->offset();
  off[std::size_t(dim)] += shift;
  return field_ref(e->field(), off, e->component());
}

namespace {

void flatten_into(Kind k, const Expr& e, std::vector<Expr>& out) {
  if (e->kind() == k) {
    for (const auto& a : e->args()) flatten_into(k, a, out);
  } else {
    out.push_back(e);
  }
}

Expr rebuild_term(double coeff, const Expr& base) {
  if (coeff == 0.0) return num(0.0);
  if (coeff == 1.0) return base;
  return mul({num(coeff), base});
}

}  // namespace

Expr add(std::vector<Expr> in) {
  std::vector<Expr> flat;
  flat.reserve(in.size());
  for (const auto& e : in) {
    PFC_ASSERT(e != nullptr);
    flatten_into(Kind::Add, e, flat);
  }

  double constant = 0.0;
  // (base, coeff) pairs for like-term collection
  std::vector<std::pair<Expr, double>> terms;
  terms.reserve(flat.size());
  for (const auto& t : flat) {
    if (t->kind() == Kind::Number) {
      constant += t->number();
    } else if (t->kind() == Kind::Mul && !t->args().empty() &&
               t->arg(0)->kind() == Kind::Number) {
      const double c = t->arg(0)->number();
      std::vector<Expr> rest(t->args().begin() + 1, t->args().end());
      terms.emplace_back(mul(std::move(rest)), c);
    } else {
      terms.emplace_back(t, 1.0);
    }
  }

  std::stable_sort(terms.begin(), terms.end(),
                   [](const auto& a, const auto& b) {
                     return compare(a.first, b.first) < 0;
                   });

  std::vector<Expr> out;
  out.reserve(terms.size() + 1);
  std::size_t i = 0;
  while (i < terms.size()) {
    double coeff = terms[i].second;
    std::size_t j = i + 1;
    while (j < terms.size() && equals(terms[j].first, terms[i].first)) {
      coeff += terms[j].second;
      ++j;
    }
    // A collected base may itself be a Number (e.g. when mul(rest) folded).
    if (terms[i].first->kind() == Kind::Number) {
      constant += coeff * terms[i].first->number();
    } else if (coeff != 0.0) {
      out.push_back(rebuild_term(coeff, terms[i].first));
    }
    i = j;
  }
  if (constant != 0.0) out.insert(out.begin(), num(constant));

  if (out.empty()) return num(0.0);
  if (out.size() == 1) return out[0];
  return NodeFactory::make_nary(Kind::Add, std::move(out));
}

Expr mul(std::vector<Expr> in) {
  std::vector<Expr> flat;
  flat.reserve(in.size());
  for (const auto& e : in) {
    PFC_ASSERT(e != nullptr);
    flatten_into(Kind::Mul, e, flat);
  }

  double coeff = 1.0;
  // (base, exponent) pairs for power collection
  std::vector<std::pair<Expr, Expr>> factors;
  factors.reserve(flat.size());
  for (const auto& f : flat) {
    if (f->kind() == Kind::Number) {
      coeff *= f->number();
    } else if (f->kind() == Kind::Pow) {
      factors.emplace_back(f->arg(0), f->arg(1));
    } else {
      factors.emplace_back(f, num(1.0));
    }
  }
  if (coeff == 0.0) return num(0.0);

  std::stable_sort(factors.begin(), factors.end(),
                   [](const auto& a, const auto& b) {
                     return compare(a.first, b.first) < 0;
                   });

  std::vector<Expr> out;
  out.reserve(factors.size() + 1);
  std::size_t i = 0;
  while (i < factors.size()) {
    std::vector<Expr> exps{factors[i].second};
    std::size_t j = i + 1;
    while (j < factors.size() && equals(factors[j].first, factors[i].first)) {
      exps.push_back(factors[j].second);
      ++j;
    }
    Expr p = pow(factors[i].first, add(std::move(exps)));
    if (p->kind() == Kind::Number) {
      coeff *= p->number();
    } else {
      out.push_back(std::move(p));
    }
    i = j;
  }
  if (coeff == 0.0) return num(0.0);

  // Distribute a numeric coefficient over a lone Add so that e.g.
  // -(x + y) and -x - y share one canonical form (sympy does the same).
  if (coeff != 1.0 && out.size() == 1 && out[0]->kind() == Kind::Add) {
    std::vector<Expr> terms;
    terms.reserve(out[0]->arity());
    for (const auto& t : out[0]->args()) {
      terms.push_back(mul({num(coeff), t}));
    }
    return add(std::move(terms));
  }
  if (coeff != 1.0) out.insert(out.begin(), num(coeff));

  if (out.empty()) return num(1.0);
  if (out.size() == 1) return out[0];
  return NodeFactory::make_nary(Kind::Mul, std::move(out));
}

Expr pow(const Expr& base, const Expr& exponent) {
  PFC_ASSERT(base != nullptr && exponent != nullptr);
  if (exponent->is_zero()) return num(1.0);
  if (exponent->is_one()) return base;
  if (base->is_one()) return num(1.0);
  long e_int = 0;
  const bool e_is_int = exponent->integer_value(&e_int);
  if (base->is_zero() && e_is_int && e_int > 0) return num(0.0);
  if (base->kind() == Kind::Number && exponent->kind() == Kind::Number) {
    const double v = std::pow(base->number(), exponent->number());
    if (std::isfinite(v)) return num(v);
  }
  // (b^a)^n -> b^(a n) for integer n (always valid)
  if (base->kind() == Kind::Pow && e_is_int) {
    return pow(base->arg(0), mul({base->arg(1), exponent}));
  }
  // (c * rest)^n -> c^n * rest^n for integer n: keeps numeric coefficients
  // out of Pow bases so like terms collect properly.
  if (base->kind() == Kind::Mul && e_is_int &&
      base->arg(0)->kind() == Kind::Number) {
    std::vector<Expr> rest(base->args().begin() + 1, base->args().end());
    const double c = std::pow(base->arg(0)->number(), double(e_int));
    return mul({num(c), pow(mul(std::move(rest)), exponent)});
  }
  return NodeFactory::make_nary(Kind::Pow, {base, exponent});
}

Expr pow(const Expr& base, long exponent) {
  return pow(base, num(static_cast<double>(exponent)));
}

Expr call(Func f, std::vector<Expr> args) {
  PFC_REQUIRE(static_cast<int>(args.size()) == func_arity(f),
              std::string{"wrong arity for "} + func_name(f));
  // numeric folding for pure scalar functions
  bool all_num = true;
  for (const auto& a : args) {
    if (a->kind() != Kind::Number) {
      all_num = false;
      break;
    }
  }
  if (all_num && f != Func::PhiloxUniform) {
    const auto v = [&](int i) { return args[std::size_t(i)]->number(); };
    switch (f) {
      case Func::Sqrt: return num(std::sqrt(v(0)));
      case Func::RSqrt: return num(1.0 / std::sqrt(v(0)));
      case Func::Exp: return num(std::exp(v(0)));
      case Func::Log: return num(std::log(v(0)));
      case Func::Sin: return num(std::sin(v(0)));
      case Func::Cos: return num(std::cos(v(0)));
      case Func::Tanh: return num(std::tanh(v(0)));
      case Func::Abs: return num(std::abs(v(0)));
      case Func::Min: return num(std::min(v(0), v(1)));
      case Func::Max: return num(std::max(v(0), v(1)));
      case Func::Select: return num(v(0) != 0.0 ? v(1) : v(2));
      case Func::Less: return num(v(0) < v(1) ? 1.0 : 0.0);
      case Func::Greater: return num(v(0) > v(1) ? 1.0 : 0.0);
      case Func::LessEq: return num(v(0) <= v(1) ? 1.0 : 0.0);
      case Func::GreaterEq: return num(v(0) >= v(1) ? 1.0 : 0.0);
      default: break;
    }
  }
  if (f == Func::Select && args[0]->kind() == Kind::Number) {
    return args[0]->number() != 0.0 ? args[1] : args[2];
  }
  return NodeFactory::make_call(f, std::move(args));
}

Expr neg(const Expr& a) { return mul({num(-1.0), a}); }
Expr sub(const Expr& a, const Expr& b) { return add({a, neg(b)}); }
Expr div(const Expr& a, const Expr& b) { return mul({a, pow(b, -1)}); }

Expr sqrt_(const Expr& a) { return call(Func::Sqrt, {a}); }
Expr rsqrt(const Expr& a) { return call(Func::RSqrt, {a}); }
Expr exp_(const Expr& a) { return call(Func::Exp, {a}); }
Expr log_(const Expr& a) { return call(Func::Log, {a}); }
Expr tanh_(const Expr& a) { return call(Func::Tanh, {a}); }
Expr abs_(const Expr& a) { return call(Func::Abs, {a}); }
Expr min_(const Expr& a, const Expr& b) { return call(Func::Min, {a, b}); }
Expr max_(const Expr& a, const Expr& b) { return call(Func::Max, {a, b}); }
Expr select(const Expr& c, const Expr& a, const Expr& b) {
  return call(Func::Select, {c, a, b});
}
Expr less(const Expr& a, const Expr& b) { return call(Func::Less, {a, b}); }
Expr greater(const Expr& a, const Expr& b) {
  return call(Func::Greater, {a, b});
}

Expr diff_op(const Expr& e, int dim) {
  PFC_REQUIRE(dim >= 0 && dim < 3, "diff_op dim out of range");
  if (e->kind() == Kind::Number) return num(0.0);
  return NodeFactory::make_diff(e, dim);
}

Expr dt_op(const Expr& e) { return NodeFactory::make_dt(e); }

Expr random_uniform(int stream) { return NodeFactory::make_random(stream); }

// --- traversal ---------------------------------------------------------------

void for_each(const Expr& e, const std::function<void(const Expr&)>& fn) {
  fn(e);
  for (const auto& a : e->args()) for_each(a, fn);
}

bool contains(const Expr& e, const Expr& target) {
  if (equals(e, target)) return true;
  for (const auto& a : e->args()) {
    if (contains(a, target)) return true;
  }
  return false;
}

namespace {
void collect_kind(const Expr& e, Kind k, std::vector<Expr>& out) {
  if (e->kind() == k) {
    bool seen = false;
    for (const auto& o : out) {
      if (equals(o, e)) {
        seen = true;
        break;
      }
    }
    if (!seen) out.push_back(e);
  }
  for (const auto& a : e->args()) collect_kind(a, k, out);
}
}  // namespace

std::vector<Expr> field_refs(const Expr& e) {
  std::vector<Expr> out;
  collect_kind(e, Kind::FieldRef, out);
  return out;
}

std::vector<Expr> symbols(const Expr& e) {
  std::vector<Expr> out;
  collect_kind(e, Kind::Symbol, out);
  return out;
}

std::size_t node_count(const Expr& e) {
  std::size_t n = 1;
  for (const auto& a : e->args()) n += node_count(a);
  return n;
}

Expr with_args(const Expr& e, std::vector<Expr> new_args) {
  switch (e->kind()) {
    case Kind::Number:
    case Kind::Symbol:
    case Kind::FieldRef:
    case Kind::Random: return e;
    case Kind::Add: return add(std::move(new_args));
    case Kind::Mul: return mul(std::move(new_args));
    case Kind::Pow:
      PFC_ASSERT(new_args.size() == 2);
      return pow(new_args[0], new_args[1]);
    case Kind::Call: return call(e->func(), std::move(new_args));
    case Kind::Diff:
      PFC_ASSERT(new_args.size() == 1);
      return diff_op(new_args[0], e->diff_dim());
    case Kind::Dt:
      PFC_ASSERT(new_args.size() == 1);
      return dt_op(new_args[0]);
  }
  PFC_ASSERT(false, "unreachable");
}

}  // namespace pfc::sym
