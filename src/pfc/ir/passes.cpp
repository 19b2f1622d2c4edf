#include "pfc/ir/passes.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "pfc/ir/opcount.hpp"
#include "pfc/sym/simplify.hpp"
#include "pfc/sym/subs.hpp"
#include "pfc/support/assert.hpp"

namespace pfc::ir {

using sym::Expr;
using sym::Kind;

namespace {

std::size_t count_uses(const Kernel& k, const Expr& temp_sym) {
  std::size_t uses = 0;
  for (const auto& sa : k.body) {
    sym::for_each(sa.assign.rhs, [&](const Expr& e) {
      if (e->kind() == Kind::Symbol && sym::equals(e, temp_sym)) ++uses;
    });
  }
  return uses;
}

bool negative_power(const Expr& e, long* n) {
  return e->kind() == Kind::Pow && e->arg(1)->integer_value(n) && *n < 0;
}

bool divides(const Expr& e) {
  bool found = false;
  sym::for_each(e, [&](const Expr& x) {
    long n = 0;
    found = found || negative_power(x, &n);
  });
  return found;
}

constexpr std::size_t kNone = std::size_t(-1);

/// Distinct expressions by structure, numbered in order of first sight.
class ExprIndex {
 public:
  std::size_t find(const Expr& e) const {
    const auto it = by_hash_.find(e->hash());
    if (it == by_hash_.end()) return kNone;
    for (const std::size_t i : it->second) {
      if (sym::equals(items_[i], e)) return i;
    }
    return kNone;
  }

  std::size_t intern(const Expr& e) {
    std::size_t i = find(e);
    if (i != kNone) return i;
    i = items_.size();
    items_.push_back(e);
    by_hash_[e->hash()].push_back(i);
    return i;
  }

  const Expr& operator[](std::size_t i) const { return items_[i]; }
  std::size_t size() const { return items_.size(); }

 private:
  std::vector<Expr> items_;
  std::unordered_map<std::size_t, std::vector<std::size_t>> by_hash_;
};

/// The divisions a kernel's C rendering performs: a product divides once by
/// all of its negative-power factors, and a bare negative power divides by
/// its base. `sites` holds each division's bases as indices into `bases`.
struct Divisions {
  ExprIndex bases;
  std::vector<std::vector<std::size_t>> sites;

  void scan(const Expr& e) {
    long n = 0;
    if (e->kind() == Kind::Mul) {
      std::vector<std::size_t> site;
      for (const auto& f : e->args()) {
        if (negative_power(f, &n)) {
          site.push_back(bases.intern(f->arg(0)));
          scan(f->arg(0));
        } else {
          scan(f);
        }
      }
      if (!site.empty()) sites.push_back(std::move(site));
      return;
    }
    if (negative_power(e, &n)) sites.push_back({bases.intern(e->arg(0))});
    for (const auto& a : e->args()) scan(a);
  }

  /// Divisions left when each base flagged in `fold` divides once, into its
  /// reciprocal.
  std::size_t count(const std::vector<char>& fold) const {
    std::size_t d = std::size_t(std::count(fold.begin(), fold.end(), 1));
    for (const auto& site : sites) {
      for (const std::size_t b : site) {
        if (fold[b] == 0) {
          ++d;
          break;
        }
      }
    }
    return d;
  }
};

/// e as radicand^(h/2) when e is sqrt(a), rsqrt(a) or a^(k/2) with k odd.
bool radical(const Expr& e, Expr* radicand, long* h) {
  if (e->kind() == Kind::Call &&
      (e->func() == sym::Func::Sqrt || e->func() == sym::Func::RSqrt)) {
    *radicand = e->arg(0);
    *h = e->func() == sym::Func::Sqrt ? 1 : -1;
    return true;
  }
  long twice = 0;
  if (e->kind() == Kind::Pow && e->arg(1)->kind() == Kind::Number &&
      sym::num(2.0 * e->arg(1)->number())->integer_value(&twice) &&
      twice % 2 != 0) {
    *radicand = e->arg(0);
    *h = twice;
    return true;
  }
  return false;
}

using Defs = std::unordered_map<std::string, Expr>;

/// A radical factor of a product, radicand^(h/2), written inline or read
/// through the temp `via`.
struct Radical {
  Expr radicand;
  long h = 0;
  Expr via;
};

/// True when the product factor f is a radical that may be merged: sqrt(a),
/// rsqrt(a), a^(k/2), a temp defined as one, or an integer power of these,
/// whose radicand is max(e, c) with a numeric c >= 0, and c > 0 when it
/// divides. Then a_1^(h_1/2) · a_2^(h_2/2) equals
/// (a_1^h_1 · a_2^h_2)^(1/2).
bool radical_factor(const Expr& f, const Defs& defs, Radical* out) {
  Expr base = f;
  long n = 1;
  if (f->kind() == Kind::Pow && f->arg(1)->integer_value(&n)) {
    base = f->arg(0);
  } else {
    n = 1;
  }
  Radical r;
  if (base->kind() == Kind::Symbol) {
    const auto it = defs.find(base->name());
    if (it == defs.end() || !radical(it->second, &r.radicand, &r.h)) {
      return false;
    }
    r.via = base;
  } else if (!radical(base, &r.radicand, &r.h)) {
    return false;
  }
  r.h *= n;
  const Expr& guard = r.radicand;
  if (guard->kind() != Kind::Call || guard->func() != sym::Func::Max) {
    return false;
  }
  for (const auto& c : guard->args()) {
    if (c->kind() == Kind::Number &&
        (r.h > 0 ? c->number() >= 0.0 : c->number() > 0.0)) {
      *out = std::move(r);
      return true;
    }
  }
  return false;
}

/// The divider instructions (sqrt and division; an exact rsqrt is one of
/// each) that an expression's C rendering executes.
long dividers(const Expr& e) {
  const OpCounts c = count_ops(e);
  return c.sqrts + c.divs + 2 * c.rsqrts;
}

/// The radicands whose powers a merged N or D multiplies. Every radicand is
/// a max(e, c) call, so each factor is one radicand or a power of one.
std::vector<Expr> radicands_of(const Expr& product) {
  std::vector<Expr> out;
  const auto add = [&](const Expr& f) {
    out.push_back(f->kind() == Kind::Pow ? f->arg(0) : f);
  };
  if (product->kind() != Kind::Mul) {
    add(product);
  } else {
    for (const auto& f : product->args()) add(f);
  }
  return out;
}

}  // namespace

std::size_t fold_reciprocals(Kernel& k) {
  Divisions dv;
  for (const auto& sa : k.body) dv.scan(sa.assign.rhs);
  const std::size_t nb = dv.bases.size();
  std::vector<std::size_t> places(nb, 0);
  for (const auto& site : dv.sites) {
    for (const std::size_t b : site) ++places[b];
  }
  std::vector<char> fold(nb, 0);
  for (std::size_t b = 0; b < nb; ++b) fold[b] = places[b] >= 2 ? 1 : 0;
  // A reciprocal whose every use still shares its denominator with a
  // divisor that stays adds a division: keep dropping such bases.
  std::size_t divs = dv.count(fold);
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t b = 0; b < nb; ++b) {
      if (fold[b] == 0) continue;
      fold[b] = 0;
      const std::size_t d = dv.count(fold);
      if (d <= divs) {
        divs = d;
        changed = true;
      } else {
        fold[b] = 1;
      }
    }
  }
  const auto folded = std::size_t(std::count(fold.begin(), fold.end(), 1));
  if (folded == 0) return 0;

  // One reciprocal per folded base: a temp already defined as base^-1, or a
  // new one.
  std::vector<Expr> recip(nb);
  std::vector<std::size_t> existing(nb, kNone);
  std::unordered_map<std::string, Level> temp_level;
  for (std::size_t i = 0; i < k.body.size(); ++i) {
    const auto& a = k.body[i].assign;
    if (a.lhs->kind() != Kind::Symbol) continue;
    temp_level[a.lhs->name()] = k.body[i].level;
    long n = 0;
    if (!negative_power(a.rhs, &n) || n != -1) continue;
    const std::size_t b = dv.bases.find(a.rhs->arg(0));
    if (b == kNone || fold[b] == 0 || recip[b]) continue;
    recip[b] = a.lhs;
    existing[b] = i;
  }
  std::unordered_map<std::string, std::size_t> recip_base;
  std::size_t fresh = 0;
  for (std::size_t b = 0; b < nb; ++b) {
    if (fold[b] == 0) continue;
    if (!recip[b]) {
      recip[b] = sym::symbol(k.name + "_r_" + std::to_string(fresh++));
    }
    recip_base.emplace(recip[b]->name(), b);
  }
  // base^-n -> r^n for every power a folded base is divided by
  sym::SubsMap to_recip;
  for (const auto& sa : k.body) {
    sym::for_each(sa.assign.rhs, [&](const Expr& x) {
      long n = 0;
      if (!negative_power(x, &n)) return;
      const std::size_t b = dv.bases.find(x->arg(0));
      if (b == kNone || fold[b] == 0) return;
      for (const auto& [pat, rep] : to_recip) {
        if (sym::equals(pat, x)) return;
      }
      to_recip.emplace_back(x, n == -1 ? recip[b] : sym::pow(recip[b], -n));
    });
  }

  // Each reciprocal is defined just ahead of its first reader, after the
  // reciprocals its own base reads.
  std::vector<ScheduledAssignment> body;
  body.reserve(k.body.size() + folded);
  std::vector<char> defined(nb, 0);
  std::function<void(const Expr&)> define_read;
  const auto define = [&](std::size_t b) {
    defined[b] = 1;
    const Expr def = sym::pow(sym::substitute(dv.bases[b], to_recip), -1);
    define_read(def);
    const Level lvl = existing[b] != kNone ? k.body[existing[b]].level
                                           : level_of(def, k.dims, temp_level);
    temp_level[recip[b]->name()] = lvl;
    body.push_back({{recip[b], def}, lvl});
  };
  define_read = [&](const Expr& rhs) {
    sym::for_each(rhs, [&](const Expr& x) {
      if (x->kind() != Kind::Symbol) return;
      const auto it = recip_base.find(x->name());
      if (it != recip_base.end() && defined[it->second] == 0) {
        define(it->second);
      }
    });
  };
  for (const auto& sa : k.body) {
    if (sa.assign.lhs->kind() == Kind::Symbol) {
      const auto it = recip_base.find(sa.assign.lhs->name());
      if (it != recip_base.end()) {
        if (defined[it->second] == 0) define(it->second);
        continue;
      }
    }
    ScheduledAssignment out = sa;
    out.assign.rhs = sym::substitute(sa.assign.rhs, to_recip);
    define_read(out.assign.rhs);
    body.push_back(std::move(out));
  }
  k.body = std::move(body);
  return folded;
}

std::size_t fold_radicals(Kernel& k) {
  Defs defs;
  std::unordered_map<std::string, Level> temp_level;
  for (const auto& sa : k.body) {
    if (sa.assign.lhs->kind() != Kind::Symbol) continue;
    defs[sa.assign.lhs->name()] = sa.assign.rhs;
    temp_level[sa.assign.lhs->name()] = sa.level;
  }

  // Every per-cell product of two or more mergeable radicals is a site.
  // Sites whose radicals multiply to one radicand N·D^-1 form a group, and
  // groups with one denominator D share its reciprocal.
  ExprIndex radicands, dens, temps;
  std::vector<Expr> numer;          // per group: N
  std::vector<std::size_t> den_of;  // per group: D, or kNone
  struct Site {
    std::size_t group;
    long inline_cost;                // dividers of the radicals written inline
    std::vector<std::size_t> temps;  // radical temps it reads
  };
  std::vector<Site> sites;
  std::unordered_map<const sym::Node*, std::size_t> group_at;
  std::function<void(const Expr&)> scan = [&](const Expr& e) {
    Expr a;
    long h = 0;
    if (radical(e, &a, &h)) return;
    for (const auto& x : e->args()) scan(x);
    if (e->kind() != Kind::Mul) return;
    Site site{kNone, 0, {}};
    std::vector<std::pair<Expr, long>> powers;  // radicand, summed h
    std::size_t factors = 0;
    for (const auto& f : e->args()) {
      Radical r;
      if (!radical_factor(f, defs, &r)) continue;
      ++factors;
      if (r.via) {
        site.temps.push_back(temps.intern(r.via));
      } else {
        site.inline_cost += dividers(f);
      }
      auto it = std::find_if(powers.begin(), powers.end(), [&](const auto& p) {
        return sym::equals(p.first, r.radicand);
      });
      if (it == powers.end()) {
        powers.emplace_back(r.radicand, r.h);
      } else {
        it->second += r.h;
      }
    }
    if (factors < 2) return;
    std::vector<Expr> num, den;
    for (const auto& [base, p] : powers) {
      if (p > 0) num.push_back(sym::pow(base, p));
      if (p < 0) den.push_back(sym::pow(base, -p));
    }
    if (num.empty() && den.empty()) return;
    const Expr n = sym::mul(num);
    const Expr d = den.empty() ? nullptr : sym::mul(den);
    const std::size_t g =
        radicands.intern(d ? sym::mul({n, sym::pow(d, -1)}) : n);
    if (g == numer.size()) {
      numer.push_back(n);
      den_of.push_back(d ? dens.intern(d) : kNone);
    }
    site.group = g;
    group_at[e.get()] = g;
    sites.push_back(std::move(site));
  };
  for (const auto& sa : k.body) {
    if (sa.level == Level::Body) scan(sa.assign.rhs);
  }
  const std::size_t ng = radicands.size();
  if (ng == 0) return 0;

  // Per-cell dividers that depend on the fold: radical temps still read,
  // radicals written inline in unfolded sites, and one square root per
  // folded group plus one division per denominator they use.
  const auto per_cell = [&](const Expr& def, long cost) {
    return level_of(def, k.dims, temp_level) == Level::Body ? cost : 0;
  };
  std::vector<long> root_cost(ng), den_cost(dens.size()), temp_cost;
  for (std::size_t g = 0; g < ng; ++g) {
    root_cost[g] = per_cell(radicands[g], 1 + dividers(numer[g]));
  }
  for (std::size_t d = 0; d < dens.size(); ++d) {
    den_cost[d] = per_cell(dens[d], 1 + dividers(dens[d]));
  }
  std::unordered_map<std::string, std::size_t> temp_index;
  for (std::size_t t = 0; t < temps.size(); ++t) {
    const std::string& name = temps[t]->name();
    temp_index.emplace(name, t);
    temp_cost.push_back(
        temp_level[name] == Level::Body ? dividers(defs[name]) : 0);
  }
  std::vector<std::size_t> uses(temps.size(), 0);
  for (const auto& sa : k.body) {
    sym::for_each(sa.assign.rhs, [&](const Expr& x) {
      if (x->kind() != Kind::Symbol) return;
      const auto it = temp_index.find(x->name());
      if (it != temp_index.end()) ++uses[it->second];
    });
  }
  const auto count = [&](const std::vector<char>& fold,
                         std::vector<std::size_t>* freed) {
    long d = 0;
    freed->assign(temps.size(), 0);
    std::vector<char> den_used(dens.size(), 0);
    for (const Site& s : sites) {
      if (fold[s.group] == 0) {
        d += s.inline_cost;
        continue;
      }
      for (const std::size_t t : s.temps) ++(*freed)[t];
    }
    for (std::size_t t = 0; t < temps.size(); ++t) {
      if ((*freed)[t] < uses[t]) d += temp_cost[t];
    }
    for (std::size_t g = 0; g < ng; ++g) {
      if (fold[g] == 0) continue;
      d += root_cost[g];
      if (den_of[g] != kNone) den_used[den_of[g]] = 1;
    }
    for (std::size_t i = 0; i < dens.size(); ++i) {
      if (den_used[i] != 0) d += den_cost[i];
    }
    return d;
  };
  // Fold every group, then drop groups while that does not add dividers
  // (a radical temp other statements still read stays alive).
  std::vector<std::size_t> freed;
  const long unfolded = count(std::vector<char>(ng, 0), &freed);
  std::vector<char> fold(ng, 1);
  long divs = count(fold, &freed);
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t g = 0; g < ng; ++g) {
      if (fold[g] == 0) continue;
      fold[g] = 0;
      const long d = count(fold, &freed);
      if (d <= divs) {
        divs = d;
        changed = true;
      } else {
        fold[g] = 1;
      }
    }
  }
  if (divs >= unfolded) return 0;
  count(fold, &freed);  // the reads each radical temp loses

  // R_g = sqrt(N · r) with r = D^-1 a temp of its own, so every tier
  // multiplies by the one reciprocal.
  std::vector<Expr> root(ng), recip(dens.size());
  std::unordered_map<std::string, std::size_t> root_group;
  std::size_t folded = 0, reciprocals = 0;
  for (std::size_t g = 0; g < ng; ++g) {
    if (fold[g] == 0) continue;
    root[g] = sym::symbol(k.name + "_sqrt_" + std::to_string(folded++));
    root_group.emplace(root[g]->name(), g);
    const std::size_t d = den_of[g];
    if (d != kNone && !recip[d]) {
      recip[d] =
          sym::symbol(k.name + "_rden_" + std::to_string(reciprocals++));
    }
  }
  // A radicand that two or more roots and reciprocals multiply is a temp
  // of its own, evaluated once (the liquid normal's |grad phi_l|^2 guard is
  // in every solid phase's D at one face).
  std::vector<char> den_used(dens.size(), 0);
  for (std::size_t g = 0; g < ng; ++g) {
    if (fold[g] != 0 && den_of[g] != kNone) den_used[den_of[g]] = 1;
  }
  ExprIndex read_radicands;
  std::vector<std::size_t> readers;
  const auto tally = [&](const Expr& product) {
    for (const Expr& a : radicands_of(product)) {
      const std::size_t i = read_radicands.intern(a);
      if (i == readers.size()) readers.push_back(0);
      ++readers[i];
    }
  };
  for (std::size_t g = 0; g < ng; ++g) {
    if (fold[g] != 0) tally(numer[g]);
  }
  for (std::size_t d = 0; d < dens.size(); ++d) {
    if (den_used[d] != 0) tally(dens[d]);
  }
  sym::SubsMap to_shared;
  std::unordered_map<std::string, Expr> shared_def;
  for (std::size_t i = 0; i < readers.size(); ++i) {
    if (readers[i] < 2) continue;
    const Expr t = sym::symbol(k.name + "_rad_" +
                               std::to_string(to_shared.size()));
    to_shared.emplace_back(read_radicands[i], t);
    shared_def.emplace(t->name(), read_radicands[i]);
  }
  std::vector<Expr> den_def(dens.size());
  for (std::size_t d = 0; d < dens.size(); ++d) {
    den_def[d] = sym::substitute(dens[d], to_shared);
  }
  for (auto& n : numer) n = sym::substitute(n, to_shared);

  std::function<Expr(const Expr&)> rewrite = [&](const Expr& e) -> Expr {
    Expr a;
    long h = 0;
    if (e->arity() == 0 || radical(e, &a, &h)) return e;
    std::vector<Expr> args;
    bool changed = false;
    for (const auto& x : e->args()) {
      args.push_back(rewrite(x));
      changed = changed || args.back().get() != x.get();
    }
    const auto it = group_at.find(e.get());
    if (it != group_at.end() && fold[it->second] != 0) {
      std::vector<Expr> rest{root[it->second]};
      for (std::size_t i = 0; i < args.size(); ++i) {
        Radical r;
        if (!radical_factor(e->arg(i), defs, &r)) rest.push_back(args[i]);
      }
      return sym::mul(std::move(rest));
    }
    return changed ? sym::with_args(e, std::move(args)) : e;
  };

  // Each root is defined just ahead of its first reader, after its
  // reciprocal and their shared radicands; a radical temp no statement
  // reads any more goes.
  std::vector<ScheduledAssignment> body;
  body.reserve(k.body.size() + 2 * folded + to_shared.size());
  std::vector<char> defined(ng, 0), den_defined(dens.size(), 0);
  const auto define = [&](const Expr& lhs, const Expr& def) {
    sym::for_each(def, [&](const Expr& x) {
      if (x->kind() != Kind::Symbol) return;
      const auto it = shared_def.find(x->name());
      if (it == shared_def.end() || temp_level.count(x->name()) != 0) return;
      temp_level[x->name()] = level_of(it->second, k.dims, temp_level);
      body.push_back({{x, it->second}, temp_level[x->name()]});
    });
    const Level lvl = level_of(def, k.dims, temp_level);
    temp_level[lhs->name()] = lvl;
    body.push_back({{lhs, def}, lvl});
  };
  for (const auto& sa : k.body) {
    if (sa.assign.lhs->kind() == Kind::Symbol) {
      const auto it = temp_index.find(sa.assign.lhs->name());
      if (it != temp_index.end() && freed[it->second] == uses[it->second]) {
        continue;
      }
    }
    ScheduledAssignment out = sa;
    if (sa.level == Level::Body) out.assign.rhs = rewrite(sa.assign.rhs);
    sym::for_each(out.assign.rhs, [&](const Expr& x) {
      if (x->kind() != Kind::Symbol) return;
      const auto it = root_group.find(x->name());
      if (it == root_group.end() || defined[it->second] != 0) return;
      const std::size_t g = it->second, d = den_of[g];
      defined[g] = 1;
      std::vector<Expr> radicand{numer[g]};
      if (d != kNone) {
        if (den_defined[d] == 0) {
          den_defined[d] = 1;
          define(recip[d], sym::pow(den_def[d], -1));
        }
        radicand.push_back(recip[d]);
      }
      define(root[g], sym::sqrt_(sym::mul(std::move(radicand))));
    });
    body.push_back(std::move(out));
  }
  k.body = std::move(body);
  return folded;
}

std::size_t share_sums(Kernel& k) {
  // The largest sum of every per-cell statement.
  std::vector<std::size_t> stmt;
  std::vector<Expr> sums;
  for (std::size_t i = 0; i < k.body.size(); ++i) {
    if (k.body[i].level != Level::Body) continue;
    Expr best;
    sym::for_each(k.body[i].assign.rhs, [&](const Expr& x) {
      if (x->kind() == Kind::Add && (!best || x->arity() > best->arity())) {
        best = x;
      }
    });
    if (best) {
      stmt.push_back(i);
      sums.push_back(best);
    }
  }
  const std::size_t m = sums.size();
  if (m < 2) return 0;

  // Every non-constant term c·t of a sum as t, with its coefficient c in
  // each sum; term_of[s] numbers the terms of sum s (kNone: a constant).
  ExprIndex rests;
  std::vector<std::vector<double>> coeff;
  std::vector<std::vector<std::size_t>> term_of(m);
  for (std::size_t s = 0; s < m; ++s) {
    for (const auto& t : sums[s]->args()) {
      if (t->kind() == Kind::Number) {
        term_of[s].push_back(kNone);
        continue;
      }
      double c = 1.0;
      Expr rest = t;
      if (t->kind() == Kind::Mul && t->arg(0)->kind() == Kind::Number) {
        c = t->arg(0)->number();
        rest = sym::mul(
            std::vector<Expr>(t->args().begin() + 1, t->args().end()));
      }
      const std::size_t i = rests.intern(rest);
      if (i == coeff.size()) coeff.emplace_back(m, 0.0);
      coeff[i][s] = c;
      term_of[s].push_back(i);
    }
  }

  // Group terms by the direction of their coefficient vector, scaled so
  // that the largest entry (the pivot) is 1.
  struct Group {
    std::size_t pivot = 0;
    std::vector<double> dir;
    std::vector<std::size_t> members;
  };
  std::vector<Group> groups;
  for (std::size_t i = 0; i < coeff.size(); ++i) {
    const auto& c = coeff[i];
    if (std::count(c.begin(), c.end(), 0.0) + 2 > std::ptrdiff_t(m)) continue;
    std::size_t p = 0;
    for (std::size_t s = 1; s < m; ++s) {
      if (std::abs(c[s]) > std::abs(c[p])) p = s;
    }
    std::vector<double> dir(m);
    for (std::size_t s = 0; s < m; ++s) dir[s] = c[s] / c[p];
    std::size_t g = 0;
    for (; g < groups.size(); ++g) {
      if (groups[g].pivot != p) continue;
      bool same = true;
      for (std::size_t s = 0; s < m && same; ++s) {
        same = (groups[g].dir[s] == 0.0) == (dir[s] == 0.0) &&
               std::abs(groups[g].dir[s] - dir[s]) <= 1e-14;
      }
      if (same) break;
    }
    if (g == groups.size()) groups.push_back({p, std::move(dir), {}});
    groups[g].members.push_back(i);
  }

  std::unordered_map<std::string, std::size_t> defined_at;
  std::unordered_map<std::string, Level> temp_level;
  for (std::size_t i = 0; i < k.body.size(); ++i) {
    const auto& a = k.body[i].assign;
    if (a.lhs->kind() != Kind::Symbol) continue;
    defined_at[a.lhs->name()] = i;
    temp_level[a.lhs->name()] = k.body[i].level;
  }
  struct Shared {
    Expr sym, def;
    std::size_t at;  ///< body index of the first reader
    std::vector<double> dir;
  };
  std::vector<Shared> shared;
  std::vector<char> grouped(coeff.size(), 0);
  for (const Group& gr : groups) {
    // A group pays when its n terms, summed in k places, cost more than one
    // partial sum plus k scaled adds: n(k-1) > k.
    const std::size_t n = gr.members.size();
    const auto k_sums = std::size_t(
        std::ptrdiff_t(m) - std::count(gr.dir.begin(), gr.dir.end(), 0.0));
    if (n * (k_sums - 1) <= k_sums) continue;
    std::vector<Expr> parts;
    parts.reserve(n);
    for (const std::size_t i : gr.members) {
      parts.push_back(sym::mul({sym::num(coeff[i][gr.pivot]), rests[i]}));
    }
    const Expr def = sym::add(std::move(parts));
    std::size_t first = k.body.size();
    for (std::size_t s = 0; s < m; ++s) {
      if (gr.dir[s] != 0.0) first = std::min(first, stmt[s]);
    }
    // every temp the partial sum reads is defined ahead of its first reader
    bool ready = true;
    sym::for_each(def, [&](const Expr& x) {
      if (x->kind() != Kind::Symbol) return;
      const auto it = defined_at.find(x->name());
      if (it != defined_at.end() && it->second >= first) ready = false;
    });
    if (!ready) continue;
    for (const std::size_t i : gr.members) grouped[i] = 1;
    shared.push_back(
        {sym::symbol(k.name + "_s_" + std::to_string(shared.size())), def,
         first, gr.dir});
  }
  if (shared.empty()) return 0;

  // Each sum keeps its ungrouped terms and adds its share of every group.
  std::vector<ScheduledAssignment> body;
  body.reserve(k.body.size() + shared.size());
  std::size_t s = 0;
  for (std::size_t i = 0; i < k.body.size(); ++i) {
    for (const auto& sh : shared) {
      if (sh.at == i) {
        body.push_back(
            {{sh.sym, sh.def}, level_of(sh.def, k.dims, temp_level)});
      }
    }
    ScheduledAssignment out = k.body[i];
    if (s < m && stmt[s] == i) {
      std::vector<Expr> args;
      for (std::size_t j = 0; j < term_of[s].size(); ++j) {
        const std::size_t t = term_of[s][j];
        if (t == kNone || grouped[t] == 0) args.push_back(sums[s]->arg(j));
      }
      for (const auto& sh : shared) {
        if (sh.dir[s] != 0.0) {
          args.push_back(sym::mul({sym::num(sh.dir[s]), sh.sym}));
        }
      }
      out.assign.rhs =
          sym::substitute(out.assign.rhs, sums[s], sym::add(std::move(args)));
      ++s;
    }
    body.push_back(std::move(out));
  }
  k.body = std::move(body);
  return shared.size();
}

std::size_t rematerialize(Kernel& k, const RematOptions& opts) {
  std::size_t inlined = 0;
  // iterate until fixpoint: inlining one temp can make another eligible
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < k.body.size(); ++i) {
      const auto& sa = k.body[i];
      if (sa.level != Level::Body) continue;
      if (sa.assign.lhs->kind() != Kind::Symbol) continue;
      if (sym::operation_count(sa.assign.rhs) > opts.max_cost) continue;
      if (divides(sa.assign.rhs)) continue;
      const std::size_t uses = count_uses(k, sa.assign.lhs);
      if (uses == 0 || uses > opts.max_uses) continue;
      // substitute the definition into every later statement
      const Expr pat = sa.assign.lhs;
      const Expr def = sa.assign.rhs;
      for (std::size_t j = i + 1; j < k.body.size(); ++j) {
        k.body[j].assign.rhs = sym::substitute(k.body[j].assign.rhs, pat, def);
      }
      k.body.erase(k.body.begin() + std::ptrdiff_t(i));
      ++inlined;
      changed = true;
      break;  // indices shifted; restart scan
    }
  }
  return inlined;
}

std::size_t eliminate_dead_code(Kernel& k) {
  std::size_t removed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < k.body.size(); ++i) {
      const auto& sa = k.body[i];
      if (sa.assign.lhs->kind() != Kind::Symbol) continue;
      if (count_uses(k, sa.assign.lhs) == 0) {
        k.body.erase(k.body.begin() + std::ptrdiff_t(i));
        ++removed;
        changed = true;
        break;
      }
    }
  }
  return removed;
}

std::size_t insert_thread_fences(Kernel& k, std::size_t stride) {
  PFC_REQUIRE(stride >= 1, "fence stride must be >= 1");
  k.fence_positions.clear();
  std::size_t body_count = 0;
  for (std::size_t i = 0; i < k.body.size(); ++i) {
    if (k.body[i].level != Level::Body) continue;
    ++body_count;
    if (body_count % stride == 0) k.fence_positions.push_back(i);
  }
  return k.fence_positions.size();
}

void fold_parameters(Kernel& k,
                     const std::unordered_map<std::string, double>& values) {
  sym::SubsMap map;
  std::vector<Expr> remaining;
  for (const auto& p : k.scalar_params) {
    auto it = values.find(p->name());
    if (it != values.end()) {
      map.emplace_back(p, sym::num(it->second));
    } else {
      remaining.push_back(p);
    }
  }
  if (map.empty()) return;
  for (auto& sa : k.body) {
    sa.assign.rhs = sym::substitute(sa.assign.rhs, map);
  }
  k.scalar_params = std::move(remaining);
}

}  // namespace pfc::ir
