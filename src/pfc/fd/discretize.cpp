#include "pfc/fd/discretize.hpp"

#include <algorithm>

#include "pfc/sym/subs.hpp"
#include "pfc/support/assert.hpp"

namespace pfc::fd {

using sym::Expr;
using sym::Kind;
using sym::num;

namespace {

bool has_diff(const Expr& e) {
  if (e->kind() == Kind::Diff) return true;
  for (const auto& a : e->args()) {
    if (has_diff(a)) return true;
  }
  return false;
}

/// Shifts an expression by `amount` whole cells along `dim`: every FieldRef
/// offset moves, and the loop-coordinate symbol of that dim becomes
/// coord + amount (this is what lets analytic T(z, t) participate in
/// differencing).
Expr shift_expr(const Expr& e, int dim, int amount) {
  switch (e->kind()) {
    case Kind::FieldRef: return sym::shifted(e, dim, amount);
    case Kind::Symbol: {
      const auto b = e->builtin();
      if ((dim == 0 && b == sym::Builtin::Coord0) ||
          (dim == 1 && b == sym::Builtin::Coord1) ||
          (dim == 2 && b == sym::Builtin::Coord2)) {
        return e + double(amount);
      }
      return e;
    }
    case Kind::Number:
    case Kind::Random: return e;
    default: {
      std::vector<Expr> args;
      args.reserve(e->arity());
      bool changed = false;
      for (const auto& a : e->args()) {
        Expr s = shift_expr(a, dim, amount);
        changed = changed || s.get() != a.get();
        args.push_back(std::move(s));
      }
      return changed ? sym::with_args(e, std::move(args)) : e;
    }
  }
}

class Discretizer {
 public:
  Discretizer(const DiscretizeOptions& opts, bool collect_fluxes)
      : opts_(opts), collect_fluxes_(collect_fluxes) {}

  /// Registered staggered-flux expressions: (dim, continuous flux).
  struct FluxSlot {
    int dim;
    Expr flux;
  };

  const std::vector<FluxSlot>& flux_slots() const { return flux_slots_; }

  void bind_flux_field(FieldPtr f) { flux_field_ = std::move(f); }

  Expr discretize(const Expr& e) {
    switch (e->kind()) {
      case Kind::Dt:
        throw Error(
            "pfc: Dt on the right-hand side must be substituted by a "
            "(dst - src)/dt expression before discretization");
      case Kind::Diff: {
        const Expr& u = e->arg(0);
        const int d = e->diff_dim();
        PFC_REQUIRE(d < opts_.dims,
                    "derivative along unused spatial dimension");
        if (has_diff(u)) {
          // divergence of a flux: staggered evaluation
          if (flux_field_ != nullptr || collect_fluxes_) {
            const int slot = flux_slot(d, u);
            if (flux_field_ == nullptr) {
              // collection pass: only the slots count, the expression is
              // discarded
              return num(0.0);
            }
            const Expr left = sym::at(flux_field_, slot);
            const Expr right = sym::shifted(left, d, 1);
            return (right - left) / opts_.dx;
          }
          const Expr right = eval_staggered(u, d, +1);
          const Expr left = eval_staggered(u, d, -1);
          return (right - left) / opts_.dx;
        }
        // plain first derivative: central difference
        return central_diff(u, d);
      }
      case Kind::Random: return lower_random(e);
      case Kind::Number:
      case Kind::Symbol:
      case Kind::FieldRef: return e;
      default: {
        std::vector<Expr> args;
        args.reserve(e->arity());
        for (const auto& a : e->args()) args.push_back(discretize(a));
        return sym::with_args(e, std::move(args));
      }
    }
  }

  /// Flux value at the face between cells (j-1) and j along `d` when
  /// side == -1, or between j and (j+1) when side == +1.
  Expr eval_staggered(const Expr& e, int d, int side) {
    PFC_ASSERT(side == 1 || side == -1);
    switch (e->kind()) {
      case Kind::Number: return e;
      case Kind::Random: return lower_random(e);
      case Kind::Symbol: {
        const auto b = e->builtin();
        if ((d == 0 && b == sym::Builtin::Coord0) ||
            (d == 1 && b == sym::Builtin::Coord1) ||
            (d == 2 && b == sym::Builtin::Coord2)) {
          return e + 0.5 * double(side);
        }
        return e;
      }
      case Kind::FieldRef:
        // linear interpolation onto the face
        return 0.5 * (e + sym::shifted(e, d, side));
      case Kind::Dt:
        throw Error(
            "pfc: Dt inside a flux must be substituted before "
            "discretization");
      case Kind::Diff: {
        const Expr& v = e->arg(0);
        const int d2 = e->diff_dim();
        PFC_REQUIRE(!has_diff(v),
                    "derivatives nested deeper than divergence-of-fluxes "
                    "are not supported by the 2nd-order scheme");
        PFC_REQUIRE(d2 < opts_.dims,
                    "derivative along unused spatial dimension");
        if (d2 == d) {
          // exact two-point difference across the face
          if (side > 0) return (shift_expr(v, d, 1) - v) / opts_.dx;
          return (v - shift_expr(v, d, -1)) / opts_.dx;
        }
        // transverse derivative at the face: average of the central
        // differences of the two adjacent cells (Eq. 11)
        const Expr cd0 = central_diff(v, d2);
        const Expr cd1 = central_diff(shift_expr(v, d, side), d2);
        return 0.5 * (cd0 + cd1);
      }
      default: {
        std::vector<Expr> args;
        args.reserve(e->arity());
        for (const auto& a : e->args()) {
          args.push_back(eval_staggered(a, d, side));
        }
        return sym::with_args(e, std::move(args));
      }
    }
  }

  Expr central_diff(const Expr& v, int d) {
    if (opts_.order >= 4) {
      // (-f(+2) + 8 f(+1) - 8 f(-1) + f(-2)) / (12 dx)
      return (sym::neg(shift_expr(v, d, 2)) + 8.0 * shift_expr(v, d, 1) -
              8.0 * shift_expr(v, d, -1) + shift_expr(v, d, -2)) /
             (12.0 * opts_.dx);
    }
    return (shift_expr(v, d, 1) - shift_expr(v, d, -1)) / (2.0 * opts_.dx);
  }

  Expr lower_random(const Expr& e) {
    PFC_ASSERT(e->kind() == Kind::Random);
    return sym::call(sym::Func::PhiloxUniform,
                     {sym::coord(0), sym::coord(1), sym::coord(2),
                      sym::time_step(),
                      num(double(opts_.rng_seed & 0xFFFFFFFFu)),
                      num(double(e->random_stream())),
                      num(double(opts_.rng_seed >> 32))});
  }

 private:
  int flux_slot(int d, const Expr& u) {
    for (std::size_t i = 0; i < flux_slots_.size(); ++i) {
      if (flux_slots_[i].dim == d && sym::equals(flux_slots_[i].flux, u)) {
        return static_cast<int>(i);
      }
    }
    flux_slots_.push_back({d, u});
    return static_cast<int>(flux_slots_.size()) - 1;
  }

  const DiscretizeOptions& opts_;
  bool collect_fluxes_;
  FieldPtr flux_field_;
  std::vector<FluxSlot> flux_slots_;
};

Expr clamp_unit(const Expr& e) {
  return sym::min_(sym::max_(e, num(0.0)), num(1.0));
}

/// Emits the stores for one update vector, optionally clamped to [0,1] and
/// renormalized onto the Gibbs simplex (via intermediate temporaries).
void emit_stores(StencilKernel& k, const FieldPtr& dst,
                 std::vector<Expr> updates, const DiscretizeOptions& opts) {
  if (opts.clamp_unit_interval) {
    for (auto& u : updates) u = clamp_unit(u);
  }
  if (opts.renormalize_simplex && updates.size() > 1) {
    PFC_REQUIRE(opts.clamp_unit_interval,
                "renormalize_simplex requires clamp_unit_interval");
    std::vector<Expr> temps;
    for (std::size_t c = 0; c < updates.size(); ++c) {
      Expr t = sym::symbol(dst->name() + "_upd" + std::to_string(c));
      k.assignments.push_back({t, updates[c]});
      temps.push_back(std::move(t));
    }
    const Expr inv_sum =
        sym::pow(sym::max_(sym::add(temps), num(1e-12)), -1);
    for (std::size_t c = 0; c < updates.size(); ++c) {
      k.assignments.push_back(
          {sym::at(dst, static_cast<int>(c)), temps[c] * inv_sum});
    }
    return;
  }
  for (std::size_t c = 0; c < updates.size(); ++c) {
    k.assignments.push_back(
        {sym::at(dst, static_cast<int>(c)), updates[c]});
  }
}

}  // namespace

void recompute_field_lists(StencilKernel& k) {
  k.reads.clear();
  k.writes.clear();
  const auto push_unique = [](std::vector<FieldPtr>& v, const FieldPtr& f) {
    for (const auto& x : v) {
      if (x->id() == f->id()) return;
    }
    v.push_back(f);
  };
  for (const auto& a : k.assignments) {
    if (a.lhs->kind() == sym::Kind::FieldRef) {
      push_unique(k.writes, a.lhs->field());
    }
    for (const auto& fr : sym::field_refs(a.rhs)) {
      push_unique(k.reads, fr->field());
    }
  }
}

std::array<int, 3> access_radius(const StencilKernel& k) {
  std::array<int, 3> r{0, 0, 0};
  for (const auto& a : k.assignments) {
    for (const auto& fr : sym::field_refs(a.rhs)) {
      for (int d = 0; d < 3; ++d) {
        r[std::size_t(d)] = std::max(r[std::size_t(d)],
                                     std::abs(fr->offset()[std::size_t(d)]));
      }
    }
  }
  return r;
}

AccessCounts count_accesses(const StencilKernel& k) {
  AccessCounts c;
  std::vector<sym::Expr> distinct;
  for (const auto& a : k.assignments) {
    if (a.lhs->kind() == sym::Kind::FieldRef) ++c.stores;
    for (const auto& fr : sym::field_refs(a.rhs)) {
      bool seen = false;
      for (const auto& x : distinct) {
        if (sym::equals(x, fr)) {
          seen = true;
          break;
        }
      }
      if (!seen) distinct.push_back(fr);
    }
  }
  c.loads = static_cast<int>(distinct.size());
  return c;
}

Expr discretize_expression(const Expr& e, const DiscretizeOptions& opts) {
  Discretizer disc(opts, /*collect_fluxes=*/false);
  return disc.discretize(e);
}

DiscretizeResult discretize(const PdeUpdate& pde,
                            const DiscretizeOptions& opts) {
  PFC_REQUIRE(pde.src != nullptr && pde.dst != nullptr, "null field in pde");
  PFC_REQUIRE(static_cast<int>(pde.rhs.size()) == pde.dst->components(),
              "need one rhs per destination component");

  DiscretizeResult result;

  if (!opts.split_staggered) {
    Discretizer disc(opts, /*collect_fluxes=*/false);
    StencilKernel k;
    k.name = pde.name + "-full";
    std::vector<Expr> updates;
    for (int c = 0; c < pde.dst->components(); ++c) {
      Expr rhs = disc.discretize(pde.rhs[std::size_t(c)]);
      updates.push_back(sym::at(pde.src, c) + opts.dt * rhs);
    }
    emit_stores(k, pde.dst, std::move(updates), opts);
    recompute_field_lists(k);
    result.kernels.push_back(std::move(k));
    return result;
  }

  // Split mode. Pass 1: collect the distinct staggered fluxes.
  Discretizer collector(opts, /*collect_fluxes=*/true);
  for (const auto& r : pde.rhs) (void)collector.discretize(r);
  const auto& slots = collector.flux_slots();

  if (slots.empty()) {
    // nothing to cache — fall back to the single kernel
    DiscretizeOptions full = opts;
    full.split_staggered = false;
    auto r = discretize(pde, full);
    r.kernels[0].name = pde.name + "-split";
    return r;
  }

  auto flux_field = Field::create(pde.name + "_flux", opts.dims,
                                  static_cast<int>(slots.size()));
  result.flux_field = flux_field;

  // Staggered precompute kernels: slot i at cell j holds the flux through
  // the lower face of cell j along the slot's dim. One sweep per axis, each
  // extended by one cell only along its own axis — transverse stencil reads
  // then stay within the single ghost layer (the differing loop bounds the
  // paper handles with isl-derived iteration patterns, §3.4).
  for (int d = 0; d < opts.dims; ++d) {
    Discretizer disc(opts, /*collect_fluxes=*/false);
    StencilKernel k;
    k.name = pde.name + "-split-stag" + std::to_string(d);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].dim != d) continue;
      Expr val = disc.eval_staggered(slots[i].flux, slots[i].dim, -1);
      k.assignments.push_back(
          {sym::at(flux_field, static_cast<int>(i)), std::move(val)});
    }
    if (k.assignments.empty()) continue;
    k.extent_plus[std::size_t(d)] = 1;
    recompute_field_lists(k);
    result.kernels.push_back(std::move(k));
  }

  // Consumer kernel: divergences read the cached staggered values.
  {
    Discretizer disc(opts, /*collect_fluxes=*/false);
    disc.bind_flux_field(flux_field);
    StencilKernel k;
    k.name = pde.name + "-split-main";
    std::vector<Expr> updates;
    for (int c = 0; c < pde.dst->components(); ++c) {
      Expr rhs = disc.discretize(pde.rhs[std::size_t(c)]);
      updates.push_back(sym::at(pde.src, c) + opts.dt * rhs);
    }
    emit_stores(k, pde.dst, std::move(updates), opts);
    recompute_field_lists(k);
    result.kernels.push_back(std::move(k));
  }
  return result;
}

}  // namespace pfc::fd
