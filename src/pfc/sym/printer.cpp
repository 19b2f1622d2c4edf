#include "pfc/sym/printer.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "pfc/support/assert.hpp"

namespace pfc::sym {

namespace {

// precedence levels: Add < Mul < unary/Pow < atom
constexpr int kPrecAdd = 1;
constexpr int kPrecMul = 2;
constexpr int kPrecUnary = 3;
constexpr int kPrecAtom = 4;

bool is_comparison(Func f) {
  return f == Func::Less || f == Func::Greater || f == Func::LessEq ||
         f == Func::GreaterEq;
}

const char* comparison_op(Func f) {
  switch (f) {
    case Func::Less: return "<";
    case Func::Greater: return ">";
    case Func::LessEq: return "<=";
    case Func::GreaterEq: return ">=";
    default: PFC_ASSERT(false);
  }
}

const char* comparison_helper(Func f) {
  switch (f) {
    case Func::Less: return "pfc_vd_lt";
    case Func::Greater: return "pfc_vd_gt";
    case Func::LessEq: return "pfc_vd_le";
    case Func::GreaterEq: return "pfc_vd_ge";
    default: PFC_ASSERT(false);
  }
}

class Printer {
 public:
  explicit Printer(const PrintOptions& opts) : opts_(opts) {}

  std::string print(const Expr& e, int parent_prec) {
    std::string s;
    int prec = kPrecAtom;
    switch (e->kind()) {
      case Kind::Number: {
        s = number_atom(e->number());
        prec = !vec() && e->number() < 0 ? kPrecUnary : kPrecAtom;
        break;
      }
      case Kind::Symbol: {
        s = opts_.symbol_printer ? opts_.symbol_printer(e) : e->name();
        break;
      }
      case Kind::FieldRef: {
        if (opts_.field_printer) {
          s = opts_.field_printer(e);
        } else {
          std::ostringstream os;
          os << e->field()->name();
          if (e->field()->components() > 1) os << '@' << e->component();
          const auto& o = e->offset();
          if (o[0] != 0 || o[1] != 0 || o[2] != 0) {
            os << '[' << o[0] << ',' << o[1] << ',' << o[2] << ']';
          }
          s = os.str();
        }
        break;
      }
      case Kind::Random: {
        s = "rand" + std::to_string(e->random_stream()) + "()";
        break;
      }
      case Kind::Add: {
        std::ostringstream os;
        for (std::size_t i = 0; i < e->arity(); ++i) {
          std::string term = print(e->arg(i), kPrecAdd);
          if (i == 0) {
            os << term;
          } else if (!term.empty() && term[0] == '-') {
            os << " - " << term.substr(1);
          } else {
            os << " + " << term;
          }
        }
        s = os.str();
        prec = kPrecAdd;
        break;
      }
      case Kind::Mul: {
        s = print_mul(e);
        prec = (!s.empty() && s[0] == '-') ? kPrecAdd : kPrecMul;
        break;
      }
      case Kind::Pow: {
        s = print_pow(e->arg(0), e->arg(1));
        prec = kPrecMul;  // may expand to x*x or a/b
        break;
      }
      case Kind::Call: {
        s = print_call(e);
        if (is_comparison(e->func()) || e->func() == Func::Select) {
          // already fully parenthesized in C dialects
          prec = kPrecAtom;
        }
        break;
      }
      case Kind::Diff: {
        s = "D" + std::to_string(e->diff_dim()) + "(" +
            print(e->arg(0), 0) + ")";
        break;
      }
      case Kind::Dt: {
        s = "dt(" + print(e->arg(0), 0) + ")";
        break;
      }
    }
    if (prec < parent_prec) return "(" + s + ")";
    return s;
  }

 private:
  bool c_like() const { return opts_.dialect != Dialect::Pretty; }
  bool vec() const { return opts_.dialect == Dialect::CVec; }

  /// A number as an atomic term: broadcast through set1 in the vector
  /// dialect (GCC vector extensions reject mixed scalar/vector operands).
  std::string number_atom(double v) const {
    if (vec()) return "pfc_vd_set1(" + number_string(v) + ")";
    return number_string(v);
  }

  static std::string number_string(double v) {
    if (v == std::floor(v) && std::abs(v) < 1e15) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.1f", v);
      return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }

  std::string sqrt_of(const std::string& arg) const {
    if (vec()) {
      return (opts_.fast_math ? "pfc_vd_sqrt_fast(" : "pfc_vd_sqrt(") + arg +
             ")";
    }
    if (opts_.fast_math) {
      if (opts_.dialect == Dialect::Cuda) {
        return "(double)__fsqrt_rn((float)(" + arg + "))";
      }
      if (opts_.dialect == Dialect::C) {
        return "(double)sqrtf((float)(" + arg + "))";
      }
    }
    return "sqrt(" + arg + ")";
  }

  std::string rsqrt_of(const std::string& arg) const {
    if (vec()) {
      return (opts_.fast_math ? "pfc_vd_rsqrt_fast(" : "pfc_vd_rsqrt(") +
             arg + ")";
    }
    if (opts_.fast_math) {
      if (opts_.dialect == Dialect::Cuda) {
        return "__frsqrt_rn(" + arg + ")";
      }
      if (opts_.dialect == Dialect::C) {
        return "pfc_rsqrt_fast(" + arg + ")";
      }
    }
    if (c_like()) return "(1.0 / sqrt(" + arg + "))";
    return "rsqrt(" + arg + ")";
  }

  std::string divide(const std::string& numer, const std::string& denom) const {
    if (opts_.fast_math && opts_.dialect == Dialect::Cuda) {
      return "fdividef(" + numer + ", " + denom + ")";
    }
    return numer + " / " + denom;
  }

  std::string print_call(const Expr& e) {
    const Func f = e->func();
    if (vec()) {
      if (is_comparison(f)) {
        return std::string(comparison_helper(f)) + "(" + print(e->arg(0), 0) +
               ", " + print(e->arg(1), 0) + ")";
      }
      if (f == Func::Select) {
        return "pfc_vd_sel(" + print(e->arg(0), 0) + ", " +
               print(e->arg(1), 0) + ", " + print(e->arg(2), 0) + ")";
      }
      if (f == Func::Sqrt) return sqrt_of(print(e->arg(0), 0));
      if (f == Func::RSqrt) return rsqrt_of(print(e->arg(0), 0));
      // Preamble helpers: Philox runs on integer vectors; the libm
      // functions have no packed form and loop over the lanes.
      std::ostringstream os;
      os << "pfc_vd_" << (f == Func::PhiloxUniform ? "philox" : func_name(f))
         << '(';
      for (std::size_t i = 0; i < e->arity(); ++i) {
        if (i) os << ", ";
        os << print(e->arg(i), 0);
      }
      os << ')';
      return os.str();
    }
    if (c_like()) {
      if (is_comparison(f)) {
        return "((" + print(e->arg(0), 0) + " " + comparison_op(f) + " " +
               print(e->arg(1), 0) + ") ? 1.0 : 0.0)";
      }
      if (f == Func::Select) {
        const Expr& cond = e->arg(0);
        std::string cond_s;
        if (cond->kind() == Kind::Call && is_comparison(cond->func())) {
          cond_s = print(cond->arg(0), 0) + " " +
                   comparison_op(cond->func()) + " " + print(cond->arg(1), 0);
        } else {
          cond_s = print(cond, 0) + " != 0.0";
        }
        return "((" + cond_s + ") ? (" + print(e->arg(1), 0) + ") : (" +
               print(e->arg(2), 0) + "))";
      }
      if (f == Func::Sqrt) return sqrt_of(print(e->arg(0), 0));
      if (f == Func::RSqrt) return rsqrt_of(print(e->arg(0), 0));
      if (f == Func::PhiloxUniform) {
        const auto u64 = [&](std::size_t i) {
          return "(unsigned long long)(" + print(e->arg(i), 0) + ")";
        };
        std::ostringstream os;
        os << "pfc_philox_uniform(";
        for (std::size_t i = 0; i < 4; ++i) os << u64(i) << ", ";
        os << "(" << u64(6) << " << 32 | " << u64(4) << "), " << u64(5)
           << ")";
        return os.str();
      }
    }
    std::ostringstream os;
    os << func_name(f) << '(';
    for (std::size_t i = 0; i < e->arity(); ++i) {
      if (i) os << ", ";
      os << print(e->arg(i), 0);
    }
    os << ')';
    return os.str();
  }

  std::string print_pow(const Expr& base, const Expr& exp) {
    long n = 0;
    if (exp->integer_value(&n)) {
      if (n < 0) return divide(number_atom(1.0), print_pow_pos(base, -n));
      return print_pow_pos(base, n);
    }
    if (exp->is_number(0.5)) return sqrt_of(print(base, 0));
    if (exp->is_number(-0.5)) return rsqrt_of(print(base, 0));
    if (exp->is_number(1.5)) {
      const std::string b = print(base, 0);
      return "(" + b + " * " + sqrt_of(b) + ")";
    }
    if (exp->is_number(-1.5)) {
      const std::string b = print(base, 0);
      return divide(number_atom(1.0), "(" + b + " * " + sqrt_of(b) + ")");
    }
    return pow_call(print(base, 0), print(exp, 0));
  }

  std::string pow_call(const std::string& base, const std::string& exp) const {
    if (vec()) return "pfc_vd_pow(" + base + ", " + exp + ")";
    return "pow(" + base + ", " + exp + ")";
  }

  std::string print_pow_pos(const Expr& base, long n) {
    PFC_ASSERT(n >= 1);
    if (n == 1) return print(base, kPrecMul + 1);
    if (n <= opts_.unroll_pow_limit) {
      const std::string b = print(base, kPrecMul + 1);
      std::string s = b;
      for (long i = 1; i < n; ++i) s += "*" + b;
      return "(" + s + ")";
    }
    if (vec()) return pow_call(print(base, 0), number_atom(double(n)));
    return "pow(" + print(base, 0) + ", " + std::to_string(n) + ")";
  }

  std::string print_mul(const Expr& e) {
    // split numerator / denominator by sign of numeric exponents
    std::vector<std::string> numer, denom;
    double coeff = 1.0;
    for (const auto& f : e->args()) {
      if (f->kind() == Kind::Number) {
        coeff *= f->number();
        continue;
      }
      long n = 0;
      if (f->kind() == Kind::Pow && f->arg(1)->integer_value(&n) && n < 0) {
        denom.push_back(print_pow_pos(f->arg(0), -n));
        continue;
      }
      numer.push_back(print(f, kPrecMul));
    }
    std::ostringstream os;
    bool have_num = false;
    if (coeff == -1.0 && !numer.empty()) {
      os << '-';  // unary minus is valid on GCC vector operands too
    } else if (coeff != 1.0 || numer.empty()) {
      os << number_atom(coeff);
      have_num = true;
    }
    for (const auto& s : numer) {
      if (have_num || &s != &numer.front()) os << '*';
      os << s;
      have_num = true;
    }
    if (denom.empty()) return os.str();
    std::string den;
    if (denom.size() == 1) {
      den = denom[0];
    } else {
      den = "(";
      for (std::size_t i = 0; i < denom.size(); ++i) {
        if (i) den += '*';
        den += denom[i];
      }
      den += ')';
    }
    return divide(os.str(), den);
  }

  const PrintOptions& opts_;
};

}  // namespace

std::string to_string(const Expr& e, const PrintOptions& opts) {
  return Printer(opts).print(e, 0);
}

}  // namespace pfc::sym
