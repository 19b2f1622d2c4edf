#include "pfc/app/wavefront.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "pfc/backend/kernel_runner.hpp"
#include "pfc/support/timer.hpp"

namespace pfc::app {

WavefrontSchedule build_wavefront(
    const std::vector<const CompiledKernel*>& chain, int dims, int ghost,
    const std::function<Array*(std::uint64_t)>& array_of) {
  WavefrontSchedule s;
  if (chain.empty() || dims < 2) return s;
  s.outer = dims - 1;
  const std::size_t nstages = chain.size();

  // Per-stage read-offset ranges along the outer axis (the analysis
  // marshal() uses for ghost validation) and written-field sets.
  std::vector<const backend::ReadRanges*> reads;
  std::vector<std::vector<std::uint64_t>> writes;
  for (const CompiledKernel* ck : chain) {
    PFC_ASSERT(ck->ir.dims == dims, "wavefront: mixed-dims kernel chain");
    reads.push_back(&ck->reads());
    std::vector<std::uint64_t> w;
    for (const auto& f : ck->ir.writes) w.push_back(f->id());
    writes.push_back(std::move(w));
  }

  s.stages.resize(nstages);
  std::set<std::uint64_t> barrier_fields;
  for (std::size_t j = 0; j < nstages; ++j) {
    s.stages[j].kernel = chain[j];
    // Attach the in-schedule ghost fill to stages whose ghosted output a
    // later stage reads (φ_dst between the φ and µ sweeps).
    for (std::uint64_t f : writes[j]) {
      bool read_later = false;
      for (std::size_t l = j + 1; l < nstages && !read_later; ++l) {
        read_later = reads[l]->count(f) != 0;
      }
      if (!read_later) continue;
      Array* a = array_of(f);
      if (a != nullptr && a->ghost_layers() > 0) {
        PFC_ASSERT(s.stages[j].ghost_fill == nullptr,
                   "wavefront: stage writes two ghosted chain fields");
        s.stages[j].ghost_fill = a;
        barrier_fields.insert(f);
      }
    }
  }

  const auto outer_ep = [&](std::size_t j) {
    return static_cast<long long>(
        chain[j]->ir.extent_plus[std::size_t(s.outer)]);
  };

  // Run-ahead intervals: back-propagate consumer needs along the outer
  // axis (the frontier-width recurrence of the distributed overlap driver,
  // kept as a signed interval instead of a symmetric width).
  for (std::size_t jj = nstages; jj-- > 0;) {
    auto& st = s.stages[jj];
    for (std::size_t l = jj + 1; l < nstages; ++l) {
      for (std::uint64_t f : writes[jj]) {
        const auto it = reads[l]->find(f);
        if (it == reads[l]->end()) continue;
        const long long rlo = it->second.lo[std::size_t(s.outer)];
        const long long rhi = it->second.hi[std::size_t(s.outer)];
        st.ext_lo = std::min(st.ext_lo, s.stages[l].ext_lo + rlo);
        st.ext_hi = std::max(st.ext_hi, s.stages[l].ext_hi + rhi);
      }
    }
    s.span = std::max(s.span, st.ext_hi - st.ext_lo);
  }

  // Domain-edge prologue strips: rows the barrier ghost fill needs as copy
  // sources (seeded `ghost` on the ghost-filled stages) plus, recursively,
  // the producer rows those strips consume.
  for (std::size_t j = 0; j < nstages; ++j) {
    if (s.stages[j].ghost_fill != nullptr) {
      s.stages[j].edge_lo = ghost;
      s.stages[j].edge_hi = ghost;
    }
  }
  for (std::size_t jj = nstages; jj-- > 0;) {
    auto& st = s.stages[jj];
    for (std::size_t l = jj + 1; l < nstages; ++l) {
      for (std::uint64_t f : writes[jj]) {
        const auto it = reads[l]->find(f);
        if (it == reads[l]->end()) continue;
        const long long rlo = it->second.lo[std::size_t(s.outer)];
        const long long rhi = it->second.hi[std::size_t(s.outer)];
        if (s.stages[l].edge_lo > 0) {
          st.edge_lo = std::max(st.edge_lo, s.stages[l].edge_lo + rhi);
        }
        if (s.stages[l].edge_hi > 0) {
          st.edge_hi = std::max(
              st.edge_hi, s.stages[l].edge_hi +
                              (outer_ep(jj) - outer_ep(l)) - rlo);
        }
      }
    }
  }

  // A domain-edge prologue stage must not read a barrier-filled field: its
  // strips run at the domain boundary before the barrier, where that
  // field's outer-axis ghosts are still stale. Pure run-ahead (ext) strips
  // are safe — they only touch interior rows their producers' strips have
  // already computed and transverse-filled (the back-propagation above plus
  // the min_slab_rows guard keep them away from the domain edge). Holds
  // for the GrandChem chains (only µ stages read φ_dst and none of them is
  // edge-seeded); decline the schedule if a model ever violates it.
  for (std::size_t j = 0; j < nstages; ++j) {
    const auto& st = s.stages[j];
    if (st.edge_lo <= 0 && st.edge_hi <= 0) continue;
    for (std::uint64_t f : barrier_fields) {
      if (reads[std::size_t(j)]->count(f) != 0) {
        s.stages.clear();  // invalid: caller falls back to unfused
        return s;
      }
    }
  }

  long long need = 0;
  for (const auto& st : s.stages) {
    need = std::max(need,
                    std::max(st.edge_lo, st.edge_hi) +
                        std::max(st.ext_hi, -st.ext_lo));
  }
  s.min_slab_rows = 2 * std::max<long long>(need, ghost) + 2;
  return s;
}

namespace {

struct StageBox {
  long long hi = 0;  ///< outer iteration extent (n + extent_plus)
};

}  // namespace

std::vector<double> run_wavefront(const WavefrontRun& r) {
  const WavefrontSchedule& s = *r.schedule;
  PFC_ASSERT(s.valid(), "run_wavefront: invalid schedule");
  PFC_ASSERT(r.plan != nullptr, "run_wavefront: needs a slab plan");
  const int outer = s.outer;
  const long long n = r.cells[std::size_t(outer)];
  const int nt = r.pool != nullptr ? r.pool->num_threads() : 1;
  PFC_ASSERT(r.plan->workers == nt, "run_wavefront: plan/pool mismatch");
  const std::size_t nstages = s.stages.size();
  const long long tile = std::max<long long>(1, r.tile_rows);

  std::vector<StageBox> boxes(nstages);
  for (std::size_t j = 0; j < nstages; ++j) {
    boxes[j].hi =
        n + s.stages[j].kernel->ir.extent_plus[std::size_t(outer)];
  }

  std::vector<std::vector<double>> secs(
      std::size_t(nt), std::vector<double>(nstages, 0.0));

  const auto run_rows = [&](int w, std::size_t j, long long lo,
                            long long hi) {
    lo = std::max<long long>(lo, 0);
    hi = std::min(hi, boxes[j].hi);
    if (lo >= hi) return;
    Timer timer;
    const auto& st = s.stages[j];
    backend::CellRange range = backend::full_range(st.kernel->ir, r.cells);
    range.lo[std::size_t(outer)] = lo;
    range.hi[std::size_t(outer)] = hi;
    st.kernel->run(r.bindings[j], r.cells, r.t, r.t_step, nullptr, nullptr,
                   &range);
    if (st.ghost_fill != nullptr) {
      grid::fill_ghosts_transverse_rows(*st.ghost_fill, r.boundary, outer,
                                        lo, hi);
    }
    secs[std::size_t(w)][j] += timer.seconds();
  };

  const auto on_all = [&](const std::function<void(int)>& fn) {
    if (r.pool != nullptr) {
      r.pool->run_on_all(fn);
    } else {
      fn(0);
    }
  };

  // Phase 1 (parallel): boundary strips. Each worker computes, in chain
  // order, the rows its neighbours' wavefronts will read across the slab
  // boundary, plus — on the domain-edge workers — the rows the barrier
  // ghost fill copies from. Strips are disjoint across workers
  // (min_slab_rows guard) and each worker only reads its own strips, so
  // the phase is race-free.
  on_all([&](int w) {
    const auto [lo, hi] = r.plan->slab(w, 0, n);
    if (lo >= hi) return;
    const bool first = lo == 0;
    const bool last = hi == n;
    for (std::size_t j = 0; j < nstages; ++j) {
      const auto& st = s.stages[j];
      if (!first) run_rows(w, j, lo + st.ext_lo, lo + st.ext_hi);
      if (first && st.edge_lo > 0) run_rows(w, j, 0, st.edge_lo);
      if (last && st.edge_hi > 0) {
        run_rows(w, j, boxes[j].hi - st.edge_hi, boxes[j].hi);
      }
    }
  });

  // Barrier: outer-axis ghost faces of the mid-chain ghosted fields. The
  // copy sources (edge strips, transverse ghosts included) are complete,
  // so this single serial sweep reproduces the reference fill bitwise.
  {
    std::set<Array*> filled;
    for (const auto& st : s.stages) {
      if (st.ghost_fill != nullptr && filled.insert(st.ghost_fill).second) {
        grid::fill_ghosts_axis(*st.ghost_fill, outer, r.boundary);
      }
    }
  }

  // Phase 2 (parallel): the wavefront proper. Each worker advances
  // per-stage watermarks tile by tile; stage j leads the front by ext_hi
  // rows and stops at its ownership end, where the neighbour's phase-1
  // strip already holds the remaining rows. Every row of every stage is
  // computed exactly once across the two phases (the last worker may
  // recompute its own edge-strip rows — same worker, same inputs, same
  // bits), and no worker ever reads rows another worker writes after the
  // barrier.
  on_all([&](int w) {
    const auto [lo, hi] = r.plan->slab(w, 0, n);
    if (lo >= hi) return;
    const bool first = lo == 0;
    const bool last = hi == n;
    std::vector<long long> wm(nstages), own_hi(nstages);
    for (std::size_t j = 0; j < nstages; ++j) {
      const auto& st = s.stages[j];
      own_hi[j] = last ? boxes[j].hi : hi + st.ext_lo;
      wm[j] = first ? st.edge_lo : lo + st.ext_hi;
      wm[j] = std::min(wm[j], own_hi[j]);
    }
    for (long long a = lo; a < hi; a += tile) {
      const long long b = std::min<long long>(hi, a + tile);
      for (std::size_t j = 0; j < nstages; ++j) {
        const auto& st = s.stages[j];
        const long long target =
            b == hi ? own_hi[j] : std::min(b + st.ext_hi, own_hi[j]);
        if (wm[j] < target) {
          run_rows(w, j, wm[j], target);
          wm[j] = target;
        }
      }
    }
  });

  std::vector<double> stage_seconds(nstages, 0.0);
  for (std::size_t j = 0; j < nstages; ++j) {
    for (int w = 0; w < nt; ++w) {
      stage_seconds[j] =
          std::max(stage_seconds[j], secs[std::size_t(w)][j]);
    }
  }
  return stage_seconds;
}

}  // namespace pfc::app
