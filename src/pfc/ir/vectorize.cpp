#include "pfc/ir/vectorize.hpp"

#include <unordered_map>
#include <unordered_set>

#include "pfc/ir/opcount.hpp"
#include "pfc/support/assert.hpp"

namespace pfc::ir {

using sym::Expr;
using sym::Kind;

bool vector_width_supported(int width) {
  return width == 1 || width == 2 || width == 4 || width == 8;
}

VectorPlan plan_vectorize(const Kernel& k, const VectorizeOptions& opts) {
  PFC_REQUIRE(vector_width_supported(opts.width),
              "unsupported vector width " + std::to_string(opts.width) +
                  " (expected 1, 2, 4 or 8)");
  VectorPlan plan;
  const OpCounts ops = count_ops(k);
  plan.flops_per_cell_scalar = ops.normalized_flops();
  // Nothing to widen without a destination; interpreter-only synthetic
  // kernels with no writes stay scalar.
  if (opts.width <= 1 || k.writes.empty()) return plan;
  plan.width = opts.width;

  // Definition level of every temp, by name (temps are SSA: one def each).
  std::unordered_map<std::string, Level> temp_level;
  for (const auto& sa : k.body) {
    if (sa.assign.lhs->kind() == Kind::Symbol) {
      temp_level.emplace(sa.assign.lhs->name(), sa.level);
    }
  }

  std::unordered_set<std::string> seen_broadcast;
  const auto classify_symbol = [&](const Expr& s) {
    switch (s->builtin()) {
      case sym::Builtin::Coord0: plan.body_uses_coord[0] = true; return;
      case sym::Builtin::Coord1: plan.body_uses_coord[1] = true; return;
      case sym::Builtin::Coord2: plan.body_uses_coord[2] = true; return;
      case sym::Builtin::Time: plan.body_uses_time = true; return;
      case sym::Builtin::TimeStep: plan.body_uses_timestep = true; return;
      case sym::Builtin::None: break;
    }
    const auto it = temp_level.find(s->name());
    const Level lvl = it != temp_level.end() ? it->second : Level::Invariant;
    if (lvl == Level::Body) return;  // already a vector temp in the body
    if (seen_broadcast.insert(s->name()).second) {
      plan.broadcasts.emplace_back(s, lvl);
    }
  };
  for (const auto& sa : k.body) {
    if (sa.level != Level::Body) continue;
    for (const auto& s : sym::symbols(sa.assign.rhs)) classify_symbol(s);
  }

  // Streaming candidates: written fields the kernel never reads (their old
  // values cannot be wanted in cache). The emitter only streams the primary
  // write — the one the alignment peel targets.
  for (const auto& w : k.writes) {
    bool read = false;
    for (const auto& r : k.reads) read = read || r->id() == w->id();
    if (read) continue;
    for (std::size_t i = 0; i < k.fields.size(); ++i) {
      if (k.fields[i]->id() == w->id()) {
        if (opts.streaming_stores) plan.streamed_fields.push_back(i);
        break;
      }
    }
  }
  for (std::size_t i = 0; i < k.fields.size(); ++i) {
    if (k.fields[i]->id() == k.writes.front()->id()) {
      plan.primary_write = i;
      break;
    }
  }

  // Widened cost model: one vector instruction covers `width` cells for the
  // vectorizable op classes (Philox included: it runs on integer vectors);
  // transcendentals stay one scalar call per lane and do not amortize.
  plan.lane_serial_calls = ops.transcendental;
  const double lane_cost = 20.0 * double(ops.transcendental);
  plan.flops_per_cell_vector =
      (double(plan.flops_per_cell_scalar) - lane_cost) / double(plan.width) +
      lane_cost;
  return plan;
}

}  // namespace pfc::ir
