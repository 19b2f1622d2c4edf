// The symbolic expression system (the role sympy plays in the paper).
//
// Expressions are immutable DAG nodes behind shared_ptr. All construction
// goes through factory functions that canonicalize on the fly:
//   * Add/Mul are flattened n-ary with numeric folding and like-term
//     collection, children deterministically ordered;
//   * Pow folds numeric bases/exponents;
//   * structural hashing enables O(1)-ish equality pre-checks.
//
// Besides plain algebra the node set covers what the phase-field pipeline
// needs: FieldRef (lattice access with integer offsets), continuous Diff /
// Dt operators for the PDE layer, loop-coordinate and time symbols, and a
// Random node that the discretization layer lowers to Philox calls.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pfc/field/field.hpp"

namespace pfc::sym {

enum class Kind : std::uint8_t {
  Number,
  Symbol,
  FieldRef,
  Add,
  Mul,
  Pow,
  Call,
  Diff,    ///< continuous spatial derivative d/dx_dim (PDE layer only)
  Dt,      ///< continuous time derivative (PDE layer only)
  Random,  ///< uniform random in [-1, 1], lowered to Philox by the fd layer
};

/// Built-in scalar functions understood by every backend.
enum class Func : std::uint8_t {
  Sqrt,
  RSqrt,  ///< 1/sqrt(x); may be emitted approximately (paper §3.5)
  Exp,
  Log,
  Sin,
  Cos,
  Tanh,
  Abs,
  Min,
  Max,
  Select,  ///< Select(c, a, b) = c != 0 ? a : b (maps to vector blend)
  Less,
  Greater,
  LessEq,
  GreaterEq,
  /// PhiloxUniform(x,y,z,t, seed_lo, stream, seed_hi) in [-1,1]. The 64-bit
  /// seed travels as two exact 32-bit halves (a double holds 53 bits); the
  /// high half comes last, so a seed below 2^32 reads as argument 4.
  PhiloxUniform,
};

const char* func_name(Func f);
int func_arity(Func f);

/// Special meaning attached to a Symbol.
enum class Builtin : std::uint8_t {
  None,
  Coord0,    ///< innermost loop coordinate (global cell index, x)
  Coord1,
  Coord2,
  TimeStep,  ///< integer time step counter
  Time,      ///< physical time t = step * dt
};

class Node;
using Expr = std::shared_ptr<const Node>;

class Node {
 public:
  Kind kind() const { return kind_; }
  std::size_t hash() const { return hash_; }

  // --- Number ---
  double number() const { return num_; }
  bool is_number(double v) const;
  bool is_zero() const { return is_number(0.0); }
  bool is_one() const { return is_number(1.0); }
  /// True if Number with (near-)integral value; sets *out.
  bool integer_value(long* out) const;

  // --- Symbol ---
  const std::string& name() const { return name_; }
  std::uint64_t symbol_id() const { return symbol_id_; }
  Builtin builtin() const { return builtin_; }

  // --- FieldRef ---
  const FieldPtr& field() const { return field_; }
  const std::array<int, 3>& offset() const { return offset_; }
  int component() const { return component_; }

  // --- Add/Mul/Pow/Call/Diff/Dt ---
  const std::vector<Expr>& args() const { return args_; }
  std::size_t arity() const { return args_.size(); }
  const Expr& arg(std::size_t i) const { return args_[i]; }
  Func func() const { return func_; }
  int diff_dim() const { return diff_dim_; }

  // --- Random ---
  int random_stream() const { return diff_dim_; }

 private:
  friend class NodeFactory;
  Node() = default;

  Kind kind_ = Kind::Number;
  double num_ = 0.0;
  std::string name_;
  std::uint64_t symbol_id_ = 0;
  Builtin builtin_ = Builtin::None;
  FieldPtr field_;
  std::array<int, 3> offset_{0, 0, 0};
  int component_ = 0;
  std::vector<Expr> args_;
  Func func_ = Func::Sqrt;
  int diff_dim_ = 0;
  std::size_t hash_ = 0;
};

// --- structural comparison ------------------------------------------------

/// Structural equality (hash early-out).
bool equals(const Expr& a, const Expr& b);

/// Deterministic total order used for canonical child ordering: returns
/// <0, 0, >0 like strcmp.
int compare(const Expr& a, const Expr& b);

// --- factories (canonicalizing) --------------------------------------------

Expr num(double v);
Expr symbol(const std::string& name);
Expr symbol(const std::string& name, Builtin builtin);

/// The loop coordinate along `dim` (0 = x, 1 = y, 2 = z) as a global cell
/// index. All calls return the same node per dim.
Expr coord(int dim);
/// Integer time-step counter symbol.
Expr time_step();
/// Physical time symbol (t = step * dt, provided by the runtime).
Expr time();

Expr field_ref(const FieldPtr& f, std::array<int, 3> offset = {0, 0, 0},
               int component = 0);
/// Center access of component `c`.
Expr at(const FieldPtr& f, int c = 0);
/// Neighbour access: center shifted by `shift` along `dim`.
Expr shifted(const Expr& field_ref_expr, int dim, int shift);

Expr add(std::vector<Expr> args);
Expr mul(std::vector<Expr> args);
Expr pow(const Expr& base, const Expr& exponent);
Expr pow(const Expr& base, long exponent);
Expr call(Func f, std::vector<Expr> args);

Expr neg(const Expr& a);
Expr sub(const Expr& a, const Expr& b);
Expr div(const Expr& a, const Expr& b);

Expr sqrt_(const Expr& a);
Expr rsqrt(const Expr& a);
Expr exp_(const Expr& a);
Expr log_(const Expr& a);
Expr tanh_(const Expr& a);
Expr abs_(const Expr& a);
Expr min_(const Expr& a, const Expr& b);
Expr max_(const Expr& a, const Expr& b);
Expr select(const Expr& cond, const Expr& if_true, const Expr& if_false);
Expr less(const Expr& a, const Expr& b);
Expr greater(const Expr& a, const Expr& b);

/// Continuous spatial derivative (PDE layer); discretized by pfc::fd.
Expr diff_op(const Expr& e, int dim);
/// Continuous time derivative (PDE layer).
Expr dt_op(const Expr& e);
/// Fluctuation placeholder: uniform random in [-1,1], one independent stream
/// per `stream` id. Lowered to PhiloxUniform at discretization.
Expr random_uniform(int stream);

// --- operators --------------------------------------------------------------

inline Expr operator+(const Expr& a, const Expr& b) { return add({a, b}); }
inline Expr operator-(const Expr& a, const Expr& b) { return sub(a, b); }
inline Expr operator*(const Expr& a, const Expr& b) { return mul({a, b}); }
inline Expr operator/(const Expr& a, const Expr& b) { return div(a, b); }
inline Expr operator-(const Expr& a) { return neg(a); }

inline Expr operator+(const Expr& a, double b) { return add({a, num(b)}); }
inline Expr operator+(double a, const Expr& b) { return add({num(a), b}); }
inline Expr operator-(const Expr& a, double b) { return sub(a, num(b)); }
inline Expr operator-(double a, const Expr& b) { return sub(num(a), b); }
inline Expr operator*(const Expr& a, double b) { return mul({a, num(b)}); }
inline Expr operator*(double a, const Expr& b) { return mul({num(a), b}); }
inline Expr operator/(const Expr& a, double b) { return div(a, num(b)); }
inline Expr operator/(double a, const Expr& b) { return div(num(a), b); }

// --- traversal helpers -------------------------------------------------------

/// Calls fn on every node (pre-order, each distinct shared node possibly
/// multiple times — no dedup).
void for_each(const Expr& e, const std::function<void(const Expr&)>& fn);

/// True if `target` occurs as a subexpression of `e` (structural equality).
bool contains(const Expr& e, const Expr& target);

/// All distinct FieldRef nodes in `e` (deterministic order of first
/// occurrence).
std::vector<Expr> field_refs(const Expr& e);

/// All distinct Symbols in `e`.
std::vector<Expr> symbols(const Expr& e);

/// Number of nodes in the expression tree (counting repeats).
std::size_t node_count(const Expr& e);

/// Rebuilds `e` with args replaced; re-canonicalizes.
Expr with_args(const Expr& e, std::vector<Expr> new_args);

}  // namespace pfc::sym
