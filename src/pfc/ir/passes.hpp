// IR-level optimization passes (paper §3.4–3.5): reciprocal folding of
// repeated divisors, merged radicals and shared partial sums (all run by
// every lowering),
// rematerialization of cheap CSE temporaries ("dupl"), modelled thread
// fences ("fence"), dead-code elimination and runtime-parameter folding
// (the §5.1 ablation of compile-time vs runtime model parameters).
#pragma once

#include <unordered_map>

#include "pfc/ir/kernel.hpp"

namespace pfc::ir {

struct RematOptions {
  /// Inline temps whose definition costs at most this many operations.
  std::size_t max_cost = 3;
  /// Only inline temps with at most this many uses (re-computation grows
  /// code size linearly in the use count).
  std::size_t max_uses = 4;
};

/// Folds repeated divisors: every base that occurs as a negative-integer-
/// power factor in two or more places gets one temporary r = base^-1 at the
/// base's own loop level, and each base^-n becomes r^n. A divisor used once
/// keeps its division, and so does a base whose reciprocal would not lower
/// the kernel's division count (one whose every use shares a denominator
/// with a divisor that stays). An existing temporary defined as base^-1
/// serves as r. x/t becomes x*(1/t), a few ulp per folded use; every
/// back-end reads the folded IR, so all tiers round alike. Returns the
/// number of bases folded.
std::size_t fold_reciprocals(Kernel& k);

/// Merges the radicals of a product into one square root: in every per-cell
/// product, the factors sqrt(a), rsqrt(a), a^(k/2) (or temps defined as one,
/// or integer powers of these) become one temp R = sqrt(N · r), where N
/// multiplies the radicands of positive power and r = D^-1 is a reciprocal
/// temp of those of negative power. So sqrt(u)·rsqrt(v)·rsqrt(w)^2 costs
/// one sqrt and one division instead of three sqrts and two divisions.
/// Products with one radicand share one R, and radicands with one D one r.
/// A radical merges only when its radicand is max(e, c) with a numeric
/// c >= 0 (c > 0 when it divides), so every merged radicand is
/// non-negative and every divisor positive. A product is folded only when
/// that lowers the kernel's per-cell dividers (sqrt plus division, an
/// exact rsqrt counting one of each); a radical temp that other statements
/// still read stays. Rounding moves by a few ulp, for every tier alike.
/// Returns the number of roots R.
std::size_t fold_radicals(Kernel& k);

/// Builds a shared partial sum once instead of once per statement. Each
/// per-cell statement's largest sum is a linear combination of terms; terms
/// whose coefficient vectors across those sums are proportional (in a
/// projected update, the terms of one phase's variational derivative carry
/// the weights of λ - δF/δφ_α) are summed once into a temporary, and every
/// sum adds that temporary times its share. Coefficients move by a few ulp
/// (c·t becomes (c/c_p)·(c_p·t)). Returns the number of shared sums.
std::size_t share_sums(Kernel& k);

/// Takes back part of the CSE: temporaries that are cheap to recompute are
/// substituted back into their users and removed, trading FLOPs for live
/// range (paper: "rematerializing expressions that are cheap to compute").
/// A temporary whose definition divides is never cheap: inlining it would
/// undo fold_reciprocals. Returns the number of temps inlined.
std::size_t rematerialize(Kernel& k, const RematOptions& opts = {});

/// Removes temporaries that are never read. Returns the number removed.
std::size_t eliminate_dead_code(Kernel& k);

/// Inserts a modelled __threadfence() after every `stride` Body statements;
/// the GPU performance model interprets these as limits on compiler
/// reordering. Returns the number of fences recorded.
std::size_t insert_thread_fences(Kernel& k, std::size_t stride = 32);

/// Substitutes numeric values for runtime scalar parameters (by name) and
/// re-canonicalizes; parameters disappear from scalar_params. The inverse of
/// the paper's "keep a set of parameters symbolic at runtime".
void fold_parameters(Kernel& k,
                     const std::unordered_map<std::string, double>& values);

}  // namespace pfc::ir
