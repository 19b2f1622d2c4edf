#include "pfc/ir/kernel.hpp"

#include <algorithm>
#include <unordered_map>

#include "pfc/sym/cse.hpp"
#include "pfc/sym/subs.hpp"
#include "pfc/support/assert.hpp"

namespace pfc::ir {

using sym::Expr;
using sym::Kind;

namespace {

/// Bitmask of loop coordinates an expression depends on (bit d = coord d);
/// field accesses depend on every spatial coordinate.
unsigned coord_deps(const Expr& e, int dims,
                    const std::unordered_map<std::string, unsigned>& temps) {
  switch (e->kind()) {
    case Kind::Number: return 0;
    case Kind::Symbol: {
      switch (e->builtin()) {
        case sym::Builtin::Coord0: return 1u << 0;
        case sym::Builtin::Coord1: return 1u << 1;
        case sym::Builtin::Coord2: return 1u << 2;
        default: break;
      }
      auto it = temps.find(e->name());
      return it != temps.end() ? it->second : 0;
    }
    case Kind::FieldRef:
    case Kind::Random: return (1u << dims) - 1u;
    case Kind::Call:
      if (e->func() == sym::Func::PhiloxUniform) return (1u << dims) - 1u;
      [[fallthrough]];
    default: {
      unsigned m = 0;
      for (const auto& a : e->args()) m |= coord_deps(a, dims, temps);
      return m;
    }
  }
}

Level level_from_deps(unsigned deps) {
  if (deps == 0) return Level::Invariant;
  if ((deps & 0b011) == 0) return Level::PerZ;   // depends only on z
  if ((deps & 0b001) == 0) return Level::PerY;   // depends on y (and z)
  return Level::Body;
}

bool is_builtin_symbol(const Expr& s) {
  return s->kind() == Kind::Symbol && s->builtin() != sym::Builtin::None;
}

}  // namespace

std::array<int, 3> Kernel::access_radius() const {
  std::array<int, 3> r{0, 0, 0};
  for (const auto& sa : body) {
    for (const auto& fr : sym::field_refs(sa.assign.rhs)) {
      for (int d = 0; d < 3; ++d) {
        r[std::size_t(d)] = std::max(r[std::size_t(d)],
                                     std::abs(fr->offset()[std::size_t(d)]));
      }
    }
  }
  return r;
}

std::vector<const ScheduledAssignment*> Kernel::at_level(Level l) const {
  std::vector<const ScheduledAssignment*> out;
  for (const auto& sa : body) {
    if (sa.level == l) out.push_back(&sa);
  }
  return out;
}

std::size_t Kernel::num_temps() const {
  std::size_t n = 0;
  for (const auto& sa : body) {
    if (sa.assign.lhs->kind() == Kind::Symbol) ++n;
  }
  return n;
}

Kernel build_kernel(const fd::StencilKernel& sk, const BuildOptions& opts) {
  Kernel k;
  k.name = sk.name;
  k.dims = opts.dims;
  k.extent_plus = sk.extent_plus;

  // 0. Inline any pre-existing Symbol-lhs assignments (e.g. the simplex
  // renormalization temps of the discretizer) so the global CSE below sees
  // one flat set of store expressions and re-extracts sharing in correct
  // topological order.
  std::vector<fd::Assignment> stores;
  sym::SubsMap predefined;
  for (const auto& a : sk.assignments) {
    const Expr rhs = sym::substitute(a.rhs, predefined);
    if (a.lhs->kind() == Kind::Symbol) {
      predefined.emplace_back(a.lhs, rhs);
    } else {
      stores.push_back({a.lhs, rhs});
    }
  }

  // 1. CSE across all store right-hand sides.
  std::vector<Expr> roots;
  roots.reserve(stores.size());
  for (const auto& a : stores) roots.push_back(a.rhs);

  std::vector<fd::Assignment> flat;
  if (opts.cse) {
    sym::CseResult r = sym::cse(roots, sk.name + "_t");
    for (auto& [s, def] : r.temps) flat.push_back({s, def});
    for (std::size_t i = 0; i < stores.size(); ++i) {
      flat.push_back({stores[i].lhs, r.roots[i]});
    }
  } else {
    for (const auto& a : stores) flat.push_back(a);
  }

  // 2. Loop-level classification (temps only; stores are always Body).
  std::unordered_map<std::string, unsigned> temp_deps;
  for (const auto& a : flat) {
    const bool is_temp = a.lhs->kind() == Kind::Symbol;
    unsigned deps = coord_deps(a.rhs, opts.dims, temp_deps);
    Level lvl = Level::Body;
    if (is_temp) {
      temp_deps[a.lhs->name()] = deps;
      if (opts.hoist_invariants) lvl = level_from_deps(deps);
    }
    k.body.push_back({a, lvl});
  }

  // 3. Field and scalar-parameter discovery.
  const auto push_field = [&](std::vector<FieldPtr>& v, const FieldPtr& f) {
    for (const auto& x : v) {
      if (x->id() == f->id()) return;
    }
    v.push_back(f);
  };
  std::vector<Expr> seen_params;
  for (const auto& sa : k.body) {
    if (sa.assign.lhs->kind() == Kind::FieldRef) {
      push_field(k.writes, sa.assign.lhs->field());
      push_field(k.fields, sa.assign.lhs->field());
    }
    for (const auto& fr : sym::field_refs(sa.assign.rhs)) {
      push_field(k.reads, fr->field());
      push_field(k.fields, fr->field());
    }
    for (const auto& s : sym::symbols(sa.assign.rhs)) {
      if (s->builtin() == sym::Builtin::Time ||
          s->builtin() == sym::Builtin::TimeStep) {
        k.uses_time = true;
        continue;
      }
      if (s->builtin() == sym::Builtin::Coord0) k.uses_coord[0] = true;
      if (s->builtin() == sym::Builtin::Coord1) k.uses_coord[1] = true;
      if (s->builtin() == sym::Builtin::Coord2) k.uses_coord[2] = true;
      if (is_builtin_symbol(s)) continue;
      if (temp_deps.count(s->name()) != 0) continue;
      bool dup = false;
      for (const auto& p : seen_params) {
        if (sym::equals(p, s)) {
          dup = true;
          break;
        }
      }
      if (!dup) seen_params.push_back(s);
    }
  }
  // deterministic parameter order by name
  std::sort(seen_params.begin(), seen_params.end(),
            [](const Expr& a, const Expr& b) { return a->name() < b->name(); });
  k.scalar_params = std::move(seen_params);
  return k;
}

Level level_of(const Expr& e, int dims,
               const std::unordered_map<std::string, Level>& temps) {
  // the coordinate mask each level stands for (innermost coordinate bit)
  std::unordered_map<std::string, unsigned> deps;
  for (const auto& [name, level] : temps) {
    switch (level) {
      case Level::Invariant: deps[name] = 0; break;
      case Level::PerZ: deps[name] = 0b100; break;
      case Level::PerY: deps[name] = 0b010; break;
      case Level::Body: deps[name] = 0b001; break;
    }
  }
  return level_from_deps(coord_deps(e, dims, deps));
}

}  // namespace pfc::ir
