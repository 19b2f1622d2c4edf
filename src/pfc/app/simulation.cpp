#include "pfc/app/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "pfc/perf/drift.hpp"
#include "pfc/support/timer.hpp"

#ifndef M_PI
#define M_PI 3.14159265358979323846
#endif

namespace pfc::app {

namespace {

/// Ghost layers of every φ/µ array (the stencils reach one cell).
constexpr int kGhost = 1;

/// Exchange tags: the src fields (init, Heun, restore, rollback) and the
/// dst fields (the step's groups).
constexpr int kPhiSrcTag = 0, kMuSrcTag = 1, kPhiDstTag = 2, kMuDstTag = 3;

// JIT fault injection must reach the ctor's compile, which runs in the
// member-init list — fold the plan into the compile options up front.
CompileOptions compile_opts_with_faults(const SimulationOptions& o) {
  CompileOptions c = o.compile;
  c.fail_jit_attempts =
      resilience::effective_faults(o.resilience).fail_jit_attempts;
  return c;
}

/// Peels `width`-wide x slabs off the faces of `full` flagged remote into
/// `slabs` and returns the remaining interior box. Degenerate boxes
/// (2·width ≥ extent) leave an empty interior with the whole box covered by
/// slabs — still correct, just nothing to overlap.
backend::CellRange peel_x(const backend::CellRange& full, long long width,
                          bool lo_remote, bool hi_remote,
                          std::array<backend::CellRange, 2>& slabs,
                          int& num_slabs) {
  backend::CellRange inner = full;
  num_slabs = 0;
  if (width <= 0) return inner;
  if (lo_remote) {
    backend::CellRange lo = inner;
    lo.hi[0] = std::min(inner.hi[0], inner.lo[0] + width);
    inner.lo[0] = lo.hi[0];
    if (lo.cells() > 0) slabs[std::size_t(num_slabs++)] = lo;
  }
  if (hi_remote) {
    backend::CellRange hi = inner;
    hi.lo[0] = std::max(inner.lo[0], inner.hi[0] - width);
    inner.hi[0] = hi.lo[0];
    if (hi.cells() > 0) slabs[std::size_t(num_slabs++)] = hi;
  }
  return inner;
}

/// Frontier width along x of a group's kernel: the `ghost` edge cells
/// begin() packs, rounded up to whole vectors of the kernel's code, so the
/// interior sweep starts on an aligned x and runs no scalar peel.
long long frontier_width(const CompiledKernel& kernel, int ghost) {
  const long long v = std::max(1, kernel.vector_width());
  return (ghost + v - 1) / v * v;
}

}  // namespace

double interface_profile(double signed_distance, double width) {
  if (signed_distance <= -width / 2) return 1.0;
  if (signed_distance >= width / 2) return 0.0;
  return 0.5 - 0.5 * std::sin(M_PI * signed_distance / width);
}

Simulation::Simulation(GrandChemModel model, const SimulationOptions& opts,
                       mpi::Comm* comm)
    : model_(std::move(model)),
      opts_(opts),
      forest_(opts.cells, opts.blocks_per_dim,
              comm != nullptr ? comm->size() : 1, model_.params().dims,
              opts.boundary),
      comm_(comm),
      compiled_(ModelCompiler(compile_opts_with_faults(opts)).compile(model_)),
      pool_(opts.threads > 1
                ? std::make_unique<ThreadPool>(
                      ThreadPoolOptions{opts.threads, opts.pin})
                : nullptr),
      exchange_(forest_, comm,
                std::max(model_.phi_src()->components(),
                         model_.mu_src()->components())),
      health_(opts.health) {
#if defined(__GLIBC__)
  // The compile's freed symbolic state lies between the kernels it keeps,
  // so the blocks' arrays cannot reuse it and its pages would stay
  // resident beside them for the whole run: hand them back first.
  malloc_trim(0);
#endif
  const int rank = comm != nullptr ? comm->rank() : 0;
  for (const grid::Block* b : forest_.blocks_of_rank(rank)) {
    const std::array<std::int64_t, 3> n{b->size[0], b->size[1], b->size[2]};
    ThreadPool* ft = first_touch_pool();
    auto lb = std::make_unique<LocalBlock>(LocalBlock{
        b, Array(model_.phi_src(), n, kGhost, ft),
        Array(model_.phi_dst(), n, kGhost, ft),
        Array(model_.mu_src(), n, kGhost, ft),
        Array(model_.mu_dst(), n, kGhost, ft), std::nullopt, std::nullopt,
        0.0});
    if (opts.time_scheme == TimeScheme::Heun) {
      lb->phi_0.emplace(model_.phi_src(), n, kGhost, ft);
      lb->mu_0.emplace(model_.mu_src(), n, kGhost, ft);
    }
    locals_.push_back(std::move(lb));
  }
  setup_schedule();

  tracer_.configure(opts.trace, /*pid=*/rank);
  if (tracer_.enabled()) {
    // compile stages as instant events at the timeline origin, carrying
    // their duration as args.seconds (the stages ran before the epoch)
    for (const auto& [stage, t] : compiled_.compile_report().stage_timers) {
      tracer_.instant(tracer_.intern("compile/" + stage), "compile", -1,
                      t.seconds);
    }
  }
  // Cache ECM predictions once (block geometry and threads are fixed),
  // each of the code that runs: a face-once kernel is its passes' times.
  for (const auto* group : {&compiled_.phi_kernels, &compiled_.mu_kernels}) {
    for (const CompiledKernel& ck : *group) {
      std::vector<const ir::Kernel*> chain{&ck.ir};
      if (!ck.face_once().empty()) chain.clear();
      for (const ir::Kernel& pass : ck.face_once().passes) {
        chain.push_back(&pass);
      }
      predicted_mlups_[ck.ir.name] = perf::predicted_chain_mlups(
          chain, forest_.blocks().front().size, opts.machine, opts.threads,
          compiled_.compile_report().vector_width);
    }
  }
  topology_ = support::Topology::detect();

  dt_current_ = model_.params().dt;
  faults_ = resilience::effective_faults(opts.resilience);
  if (!opts.resilience.restart_from.empty()) restore_from_disk();
}

Simulation::LocalBlock& Simulation::only_block() const {
  PFC_REQUIRE(locals_.size() == 1,
              "simulation: phi()/mu() need exactly one local block (this "
              "rank holds " + std::to_string(locals_.size()) +
                  "); use gather_phi()/gather_mu()");
  return *locals_.front();
}

long long Simulation::local_cells() const {
  long long cells = 0;
  for (const auto& lb : locals_) {
    cells += lb->block->size[0] * lb->block->size[1] * lb->block->size[2];
  }
  return cells;
}

Array* Simulation::array_of(std::uint64_t id, LocalBlock& lb) const {
  if (id == model_.phi_src()->id()) return &lb.phi_src;
  if (id == model_.phi_dst()->id()) return &lb.phi_dst;
  if (id == model_.mu_src()->id()) return &lb.mu_src;
  if (id == model_.mu_dst()->id()) return &lb.mu_dst;
  return nullptr;
}

backend::Binding Simulation::bind(const ir::Kernel& k, LocalBlock& lb) const {
  backend::Binding b;
  b.block_offset = lb.block->offset;
  for (const auto& f : k.fields) {
    Array* a = array_of(f->id(), lb);
    PFC_REQUIRE(a != nullptr, "simulation: kernel needs unknown field " +
                                  f->name());
    b.arrays.push_back(a);
  }
  return b;
}

std::vector<grid::LocalBlockField> Simulation::field_view(
    Array LocalBlock::*member) {
  std::vector<grid::LocalBlockField> v;
  v.reserve(locals_.size());
  for (auto& lb : locals_) v.push_back({lb->block, &((*lb).*member)});
  return v;
}

void Simulation::exchange(Array LocalBlock::*member, int tag) {
  exchange_.exchange(field_view(member), tag);
}

void Simulation::init_field(Array LocalBlock::*member, const CellFn& f,
                            int tag) {
  // Each worker writes the outer-axis rows of its static slab, the rows it
  // first-touched and sweeps. In 1-D the outer axis is x itself, so the
  // caller writes the one y row as a single slab, as it does without a pool.
  const int dims = model_.params().dims;
  const int outer = std::max(1, dims - 1);
  ThreadPool* pool = dims > 1 ? pool_.get() : nullptr;
  for (auto& lb : locals_) {
    Array& a = (*lb).*member;
    const auto& off = lb->block->offset;
    const auto& n = lb->block->size;
    const auto rows = [&](long long lo, long long hi) {
      std::array<long long, 3> from{0, 0, 0}, to = n;
      from[std::size_t(outer)] = lo;
      to[std::size_t(outer)] = hi;
      for (int c = 0; c < a.components(); ++c) {
        for (long long z = from[2]; z < to[2]; ++z) {
          for (long long y = from[1]; y < to[1]; ++y) {
            double* row = a.origin(c) + y * a.stride(1) + z * a.stride(2);
            for (long long x = 0; x < n[0]; ++x) {
              row[x] = f(x + off[0], y + off[1], z + off[2], c);
            }
          }
        }
      }
    };
    const long long n_outer = n[std::size_t(outer)];
    if (pool == nullptr) {
      rows(0, n_outer);
      continue;
    }
    pool->run_on_all([&](int w) {
      const auto [lo, hi] = slab_plan_.slab(w, 0, n_outer);
      if (lo < hi) rows(lo, hi);
    });
  }
  exchange(member, tag);
}

void Simulation::init_phi(const CellFn& f) {
  init_field(&LocalBlock::phi_src, f, kPhiSrcTag);
}

void Simulation::init_mu(const CellFn& f) {
  init_field(&LocalBlock::mu_src, f, kMuSrcTag);
}

void Simulation::setup_schedule() {
  const int dims = model_.params().dims;
  const std::array<long long, 3> n = forest_.blocks().front().size;
  const long long n_outer = n[std::size_t(dims - 1)];
  const int nt = pool_ != nullptr ? pool_->num_threads() : 1;
  // In 1-D the slab axis is the vectorized axis: keep boundaries aligned
  // so the static launches match parallel_for's chunk rounding bitwise.
  const int align =
      dims == 1 ? std::max(1, compiled_.compile_report().vector_width) : 1;
  slab_plan_ = SlabPlan::make(0, n_outer, nt, align);
  PFC_ASSERT(compiled_.phi_kernels.size() == 1 &&
                 compiled_.mu_kernels.size() == 1,
             "simulation: compile() gives one kernel per PDE");

  // --- interior/frontier regions of every block ---
  const bool overlap = opts_.overlap == OverlapMode::InteriorFrontier;
  const int rank = comm_ != nullptr ? comm_->rank() : 0;
  const auto build = [&](const CompiledKernel& kernel) {
    const long long width = frontier_width(kernel, kGhost);
    const backend::CellRange full = backend::full_range(kernel.ir, n);
    std::vector<KernelRegions> regions(locals_.size());
    for (std::size_t i = 0; i < locals_.size(); ++i) {
      const auto remote = [&](int side) {
        const grid::Block* nb = forest_.neighbor(*locals_[i]->block, 0, side);
        return nb != nullptr && nb->owner != rank;
      };
      KernelRegions& r = regions[i];
      if (overlap) {
        r.interior = peel_x(full, width, remote(-1), remote(+1), r.frontier,
                            r.num_frontier);
      } else {
        r.interior = backend::CellRange{{0, 0, 0}, {0, 0, 0}};
        r.frontier[0] = full;
        r.num_frontier = 1;
      }
    }
    return regions;
  };
  phi_regions_ = build(compiled_.phi_kernels.front());
  mu_regions_ = build(compiled_.mu_kernels.front());
  // Per-step cell accounting on the φ kernel's lattice (extent_plus = 0,
  // so interior + frontier = block cells per block).
  overlap_interior_cells_ = 0;
  for (const KernelRegions& r : phi_regions_) {
    overlap_interior_cells_ += r.interior.cells();
  }
  overlap_frontier_cells_ = local_cells() - overlap_interior_cells_;

  // --- temporal blocking ---
  wavefront_ = WavefrontSchedule{};
  blocking_ = perf::BlockingPlan{};
  if (opts_.blocking == BlockingMode::Off) {
    blocking_.reason = "temporal blocking not requested";
    return;
  }
  // The fused schedule fills φ_dst's ghosts with single-block boundary
  // fills, so the one local block must be its own neighbour or a wall on
  // every axis.
  const auto self_contained = [&] {
    if (locals_.size() != 1) return false;
    const grid::Block* b = locals_.front()->block;
    for (int axis = 0; axis < dims; ++axis) {
      for (int side : {-1, +1}) {
        const grid::Block* nb = forest_.neighbor(*b, axis, side);
        if (nb != nullptr && nb != b) return false;
      }
    }
    return true;
  };
  if (!self_contained()) {
    blocking_.reason =
        "the wavefront needs one block per rank that is its own neighbour "
        "or a wall on every axis";
    return;
  }
  LocalBlock& lb = *locals_.front();
  std::vector<const CompiledKernel*> chain;
  std::vector<const ir::Kernel*> irs;
  for (const auto& ck : compiled_.phi_kernels) chain.push_back(&ck);
  for (const auto& ck : compiled_.mu_kernels) chain.push_back(&ck);
  for (const CompiledKernel* ck : chain) irs.push_back(&ck->ir);
  WavefrontSchedule ws =
      build_wavefront(chain, dims, kGhost, [&](std::uint64_t id) {
        return array_of(id, lb);
      });
  if (!ws.valid()) {
    blocking_.reason =
        "no fusable wavefront schedule (1-D chain, or a domain-edge "
        "prologue stage reads a mid-chain ghosted field)";
    return;
  }
  blocking_ =
      perf::blocking_plan(irs, n, opts_.machine, nt, ws.span, kGhost);
  if (opts_.blocking == BlockingMode::Fixed) {
    blocking_.enabled = opts_.blocking_tile_rows > 0;
    blocking_.tile_rows = opts_.blocking_tile_rows;
    blocking_.reason = blocking_.enabled
                           ? "fixed tile height requested"
                           : "BlockingMode::Fixed needs tile_rows > 0";
  }
  if (!blocking_.enabled) return;
  // Prologue strips of adjacent workers must not overlap — decline fusion
  // (rather than racing) when a slab is too thin.
  for (int w = 0; w < nt; ++w) {
    const auto [lo, hi] = slab_plan_.slab(w, 0, n_outer);
    if (hi - lo < ws.min_slab_rows) {
      blocking_.enabled = false;
      blocking_.reason = "worker slab of " + std::to_string(hi - lo) +
                         " rows is thinner than the " +
                         std::to_string(ws.min_slab_rows) +
                         " the wavefront prologue needs";
      return;
    }
  }
  wavefront_ = std::move(ws);
}

void Simulation::run_group(const CompiledKernel* kernel,
                           const std::vector<KernelRegions>& regions,
                           Array LocalBlock::*dst, int tag, double t) {
  obs::TraceRecorder* tr = trace_this_step_ ? &tracer_ : nullptr;
  const SlabPlan* plan = opts_.dispatch == Dispatch::Static && pool_ != nullptr
                             ? &slab_plan_
                             : nullptr;
  std::vector<double> seconds(locals_.size(), 0.0);
  const auto sweep = [&](bool frontier) {
    if (kernel == nullptr) return;
    for (std::size_t i = 0; i < locals_.size(); ++i) {
      LocalBlock& lb = *locals_[i];
      const KernelRegions& r = regions[i];
      const backend::CellRange* boxes =
          frontier ? r.frontier.data() : &r.interior;
      const int count =
          frontier ? r.num_frontier : int(r.interior.cells() > 0);
      if (count == 0) continue;
      const backend::Binding b = bind(kernel->ir, lb);
      const double ts = tr != nullptr ? tr->now_us() : 0.0;
      Timer timer;
      for (int s = 0; s < count; ++s) {
        kernel->run(b, lb.block->size, t, step_, pool_.get(), tr,
                    &boxes[std::size_t(s)], plan);
      }
      const double s = timer.seconds();
      if (tr != nullptr) {
        tr->complete(kernel->ir.name.c_str(), "kernel", ts, s * 1e6, step_,
                     lb.block->linear_id);
      }
      seconds[i] += s;
    }
  };

  // Phase boundaries on one clock: frontier | pack | interior | wait.
  const std::vector<grid::LocalBlockField> view = field_view(dst);
  const double t0 = tr != nullptr ? tr->now_us() : 0.0;
  Timer clock;
  sweep(/*frontier=*/true);
  const double t_frontier = clock.seconds();
  exchange_.begin(view, tag);
  const double t_pack = clock.seconds();
  sweep(/*frontier=*/false);
  const double t_interior = clock.seconds();
  exchange_.finish();
  const double t_wait = clock.seconds();

  // Only pack + wait are exposed exchange time.
  const double exposed = (t_pack - t_frontier) + (t_wait - t_interior);
  totals_.exchange_seconds += exposed;
  totals_.exchange_bytes += exchange_.last_bytes_sent();
  if (opts_.overlap == OverlapMode::InteriorFrontier) {
    obs::OverlapStats& ov = totals_.overlap;
    const struct {
      const char* name;
      const char* cat;
      double lo, hi;
      double* total;
    } phases[] = {
        {"kernel.frontier", "kernel", 0.0, t_frontier, &ov.frontier_seconds},
        {"exchange.pack", "ghost", t_frontier, t_pack, &ov.pack_seconds},
        {"kernel.interior", "kernel", t_pack, t_interior,
         &ov.interior_seconds},
        {"exchange.wait", "ghost", t_interior, t_wait, &ov.wait_seconds}};
    for (const auto& p : phases) {
      *p.total += p.hi - p.lo;
      if (tr != nullptr) {
        tr->complete(p.name, p.cat, t0 + p.lo * 1e6, (p.hi - p.lo) * 1e6,
                     step_, -1);
      }
    }
  } else if (tr != nullptr) {
    tr->complete("exchange", "ghost", t0 + t_frontier * 1e6, exposed * 1e6,
                 step_, -1);
  }

  // One add per block and step, so the drift model's launches ×
  // cells-per-launch accounting holds whatever the schedule.
  if (kernel == nullptr) return;
  for (std::size_t i = 0; i < locals_.size(); ++i) {
    totals_.kernel_timers[kernel->ir.name].add(seconds[i]);
    locals_[i]->kernel_seconds += seconds[i];
  }
}

void Simulation::fused_group(double t) {
  obs::TraceRecorder* tr = trace_this_step_ ? &tracer_ : nullptr;
  LocalBlock& lb = *locals_.front();
  WavefrontRun wr;
  wr.schedule = &wavefront_;
  for (const auto& st : wavefront_.stages) {
    wr.bindings.push_back(bind(st.kernel->ir, lb));
  }
  wr.cells = lb.block->size;
  wr.t = t;
  wr.t_step = step_;
  wr.pool = pool_.get();
  wr.plan = &slab_plan_;
  wr.boundary = opts_.boundary;
  wr.tile_rows = blocking_.tile_rows;
  const double ts = tr != nullptr ? tr->now_us() : 0.0;
  Timer timer;
  const std::vector<double> stage_seconds = run_wavefront(wr);
  if (tr != nullptr) {
    tr->complete("wavefront", "kernel", ts, timer.seconds() * 1e6, step_,
                 lb.block->linear_id);
  }
  for (std::size_t j = 0; j < wavefront_.stages.size(); ++j) {
    totals_.kernel_timers[wavefront_.stages[j].kernel->ir.name].add(
        stage_seconds[j]);
    lb.kernel_seconds += stage_seconds[j];
  }
  ++fused_substeps_;
  // φ_dst's ghosts were completed inside the schedule (transverse per row
  // band, outer axis at the barrier); only µ_dst still needs its exchange.
  run_group(nullptr, {}, &LocalBlock::mu_dst, kMuDstTag, t);
}

void Simulation::substep(double t) {
  if (blocking_active()) {
    fused_group(t);
  } else {
    run_group(&compiled_.phi_kernels.front(), phi_regions_,
              &LocalBlock::phi_dst, kPhiDstTag, t);
    run_group(&compiled_.mu_kernels.front(), mu_regions_,
              &LocalBlock::mu_dst, kMuDstTag, t);
  }
  for (auto& lb : locals_) {
    lb->phi_src.swap_data(lb->phi_dst);
    lb->mu_src.swap_data(lb->mu_dst);
  }
}

obs::RunReport Simulation::run(int n) {
  const long long cells = local_cells();
  const auto& res = opts_.resilience;
  const bool recovery =
      health_.enabled() && opts_.health.policy == obs::HealthPolicy::Recover;
  // Baseline rollback target: without one, a violation before the first
  // periodic checkpoint would be unrecoverable.
  if ((recovery || res.checkpoint_every > 0) && !snapshot_.valid()) {
    capture_checkpoint(/*to_disk=*/false);
  }
  // run(n) advances n *net* steps: a rollback rewinds step_, and the loop
  // keeps going until the target is reached (bounded by max_retries).
  const long long target = step_ + n;
  while (step_ < target) {
    // Cooperative cancellation at step granularity: a cancelled/expired
    // job stops within one step, checkpoints when configured (so a client
    // cancel is resumable), then surfaces as JobCancelled. All ranks share
    // one in-process token, so they agree without a reduction; a real-MPI
    // transport would broadcast the flag instead.
    if (progress_.cancel != nullptr && progress_.cancel->requested()) {
      if (!res.directory.empty()) capture_checkpoint(/*to_disk=*/true);
      throw JobCancelled(progress_.cancel->kind(),
                         progress_.cancel->reason());
    }
    const double dt = dt_current_;
    Timer step_wall;
    trace_this_step_ = tracer_.sampled(step_);
    const double step_ts = trace_this_step_ ? tracer_.now_us() : 0.0;
    if (opts_.time_scheme == TimeScheme::Euler) {
      substep(time_);
    } else {
      // Heun: u1 = u0 + dt f(u0); u2 = u1 + dt f(u1); u_new = (u0 + u2) / 2
      // Staging copy and trapezoidal average are memory-bound; both split
      // across the pool (the exchange below refreshes the ghosts, so
      // blending them too is harmless).
      for (auto& lb : locals_) {
        lb->phi_0->copy_from(lb->phi_src, pool_.get());
        lb->mu_0->copy_from(lb->mu_src, pool_.get());
      }
      substep(time_);       // src now holds u1
      substep(time_ + dt);  // src now holds u2
      for (auto& lb : locals_) {
        lb->phi_src.average_with(*lb->phi_0, pool_.get());
        lb->mu_src.average_with(*lb->mu_0, pool_.get());
      }
      exchange(&LocalBlock::phi_src, kPhiSrcTag);
      exchange(&LocalBlock::mu_src, kMuSrcTag);
    }
    ++step_;
    time_ += dt;
    // One lattice update per step, whatever the scheme — Heun's two
    // substeps advance time once. Rolled-back steps stay counted, and a
    // restart counts only the steps after it: both totals measure work
    // this Simulation performed.
    ++totals_.steps;
    totals_.cell_updates += std::uint64_t(cells);
    if (trace_this_step_) {
      tracer_.complete("step", "step", step_ts, tracer_.now_us() - step_ts,
                       step_ - 1, -1);
    }
    maybe_inject_nan();
    const bool cp_due =
        res.checkpoint_every > 0 && step_ % res.checkpoint_every == 0;
    std::uint64_t found = 0;
    // A checkpoint-due step always scans (when monitoring is on), so a
    // capture never preserves unverified state.
    if (health_.due(step_) || (cp_due && health_.enabled())) {
      for (const auto& lb : locals_) {
        health_.scan_block(lb->phi_src, &lb->mu_src);
      }
      found = health_.finish_scan(step_);  // throws under Throw
    }
    // Ranks must agree on rollback vs. checkpoint: each rank only scans
    // its own blocks, so reduce the finding over the communicator.
    double global_found = double(found);
    if (comm_ != nullptr && (recovery || cp_due) && health_.enabled()) {
      global_found = comm_->allreduce_sum(global_found);
    }
    if (global_found > 0 && recovery) {
      if (retries_ >= res.max_retries) {
        throw Error("pfc resilience: violation at step " +
                    std::to_string(step_) + " persists after " +
                    std::to_string(retries_) + " rollbacks, giving up");
      }
      ++retries_;
      last_violation_step_ = std::max(last_violation_step_, step_);
      rollback();
      continue;
    }
    // Progress beyond the troubled step means the recovery worked.
    if (step_ > last_violation_step_) retries_ = 0;
    if (cp_due && global_found == 0) {
      capture_checkpoint(!res.directory.empty());
    }
    record_progress(step_wall.seconds());
  }
  if (tracer_.enabled()) {
    const bool multi_rank = comm_ != nullptr && comm_->size() > 1;
    tracer_.write(multi_rank ? obs::rank_trace_path(opts_.trace.path,
                                                    comm_->rank())
                             : opts_.trace.path);
  }
  return report();
}

void Simulation::record_progress(double step_wall_seconds) {
  step_seconds_ewma_ =
      step_seconds_ewma_ <= 0.0
          ? step_wall_seconds
          : kProgressEwmaAlpha * step_wall_seconds +
                (1.0 - kProgressEwmaAlpha) * step_seconds_ewma_;
  if (!progress_.sink || progress_.every <= 0) return;
  if (step_ % progress_.every != 0 || step_ <= last_progress_step_) return;
  last_progress_step_ = step_;
  ProgressUpdate u;
  u.step = step_;
  u.steps_total = progress_.steps_total;
  u.fraction = progress_.steps_total > 0
                   ? double(step_) / double(progress_.steps_total)
                   : 0.0;
  u.step_seconds_ewma = step_seconds_ewma_;
  u.mlups = obs::safe_rate(double(local_cells()), step_seconds_ewma_) / 1e6;
  u.eta_seconds =
      progress_.steps_total > 0 && progress_.steps_total > step_
          ? double(progress_.steps_total - step_) * step_seconds_ewma_
          : 0.0;
  u.health_violations = health_.stats().total_violations();
  progress_.sink(u);
}

obs::RunReport Simulation::report() const {
  obs::RunReport r = totals_;
  r.name = "simulation";
  r.cells_per_step = local_cells();
  r.num_blocks = int(locals_.size());
  for (const auto& [name, t] : r.kernel_timers) {
    r.kernel_seconds_total += t.seconds;
  }
  double block_max = 0.0, block_sum = 0.0;
  for (const auto& lb : locals_) {
    block_max = std::max(block_max, lb->kernel_seconds);
    block_sum += lb->kernel_seconds;
  }
  r.block_imbalance =
      obs::safe_rate(block_max, block_sum / std::max(r.num_blocks, 1));
  r.health = health_.stats();
  r.health_policy = opts_.health.policy;
  r.resilience = res_stats_;
  r.resilience.dt_current = dt_current_;
  r.overlap.enabled = opts_.overlap == OverlapMode::InteriorFrontier;
  r.overlap.interior_cells = overlap_interior_cells_;
  r.overlap.frontier_cells = overlap_frontier_cells_;
  r.threading.threads = opts_.threads;
  r.threading.pin_policy = support::enum_name(opts_.pin);
  r.threading.dispatch = support::enum_name(opts_.dispatch);
  r.threading.first_touch = opts_.first_touch && pool_ != nullptr;
  r.threading.cpus = int(topology_.cpus.size());
  r.threading.cores = topology_.cores;
  r.threading.packages = topology_.packages;
  r.threading.numa_nodes = topology_.nodes;
  r.threading.blocking_enabled = blocking_active();
  r.threading.blocking_tile_rows = blocking_.tile_rows;
  r.threading.blocking_lookahead = blocking_.lookahead;
  r.threading.fused_stages = int(wavefront_.stages.size());
  r.threading.fused_substeps = fused_substeps_;
  r.threading.blocking_reason = blocking_.reason;
  r.threading.bytes_per_update_unfused = blocking_.bytes_per_update_unfused;
  r.threading.bytes_per_update_fused = blocking_.bytes_per_update_fused;
  // fill_model_accuracy derives hidden_seconds/hidden_fraction from the
  // overlap phase timers and the netmodel comm prediction.
  const auto& bs = forest_.blocks().front().size;
  perf::fill_model_accuracy(r, predicted_mlups_, bs[0] * bs[1] * bs[2],
                            model_.params().dims);
  return r;
}

// --- resilience ---------------------------------------------------------------

std::string Simulation::layout_signature() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, ";phases=%d;mu=%d", model_.params().phases,
                model_.params().num_mu());
  return forest_.layout_signature() + buf;
}

int Simulation::file_rank() const {
  return comm_ != nullptr ? comm_->rank() : -1;
}

std::vector<resilience::RestoreArray> Simulation::checkpoint_arrays() {
  std::vector<resilience::RestoreArray> arrays;
  for (auto& lb : locals_) {
    const std::string id = std::to_string(lb->block->linear_id);
    arrays.push_back({"phi/block" + id, &lb->phi_src});
    arrays.push_back({"mu/block" + id, &lb->mu_src});
  }
  return arrays;
}

void Simulation::capture_checkpoint(bool to_disk) {
  const std::vector<resilience::RestoreArray> arrays = checkpoint_arrays();
  std::vector<const Array*> snap;
  std::vector<resilience::CheckpointArray> files;
  for (const auto& a : arrays) {
    snap.push_back(a.array);
    files.push_back({a.name, a.array});
  }
  snapshot_.capture({step_, time_, dt_current_}, snap);
  ++res_stats_.checkpoints;
  res_stats_.last_checkpoint_step = step_;
  if (!to_disk) return;
  resilience::CheckpointMeta meta;
  meta.step = step_;
  meta.time = time_;
  meta.dt = dt_current_;
  meta.rng_seed = model_.params().rng_seed;
  meta.layout = layout_signature();
  meta.health = health_.stats();
  resilience::write_checkpoint(opts_.resilience.directory, meta, files,
                               file_rank(), faults_.truncate_checkpoint);
  if (faults_.truncate_checkpoint) ++res_stats_.faults_injected;
  ++res_stats_.checkpoint_files;
}

void Simulation::rollback() {
  PFC_REQUIRE(snapshot_.valid(), "resilience: no snapshot to roll back to");
  std::vector<Array*> snap;
  for (const auto& a : checkpoint_arrays()) snap.push_back(a.array);
  snapshot_.restore(snap);
  exchange(&LocalBlock::phi_src, kPhiSrcTag);
  exchange(&LocalBlock::mu_src, kMuSrcTag);
  step_ = snapshot_.meta().step;
  time_ = snapshot_.meta().time;
  ++res_stats_.rollbacks;
  const double shrink = opts_.resilience.dt_shrink;
  if (shrink > 0.0 && shrink < 1.0) {
    rebuild_with_dt(dt_current_ * shrink);
    ++res_stats_.dt_shrinks;
  }
  if (comm_ == nullptr || comm_->rank() == 0) {
    std::fprintf(stderr,
                 "pfc resilience: rolled back to step %lld (retry %d/%d, "
                 "dt=%g)\n",
                 step_, retries_, opts_.resilience.max_retries, dt_current_);
  }
}

void Simulation::rebuild_with_dt(double new_dt) {
  // with_dt() shares the model's Field handles, so the recompiled kernels
  // bind to the existing φ/µ arrays.
  model_ = model_.with_dt(new_dt);
  dt_current_ = new_dt;
  compiled_ = ModelCompiler(opts_.compile).compile(model_);
  // The schedule holds CompiledKernel/Array pointers into the old compiled
  // model — rebuild it against the fresh one.
  setup_schedule();
}

void Simulation::maybe_inject_nan() {
  if (fault_nan_fired_ || faults_.nan_step < 0 || step_ != faults_.nan_step) {
    return;
  }
  fault_nan_fired_ = true;
  // Global cell coordinates: only the owning block gets the NaN.
  std::array<long long, 3> c = faults_.nan_cell;
  const auto& g = forest_.global_cells();
  for (int d = 0; d < 3; ++d) {
    c[std::size_t(d)] = std::clamp(c[std::size_t(d)], 0LL,
                                   g[std::size_t(d)] - 1);
  }
  for (auto& lb : locals_) {
    const auto& off = lb->block->offset;
    const auto& n = lb->block->size;
    bool inside = true;
    for (int d = 0; d < 3; ++d) {
      const auto ld = c[std::size_t(d)] - off[std::size_t(d)];
      if (ld < 0 || ld >= n[std::size_t(d)]) inside = false;
    }
    if (!inside) continue;
    lb->phi_src.at(c[0] - off[0], c[1] - off[1], c[2] - off[2], 0) =
        std::numeric_limits<double>::quiet_NaN();
    ++res_stats_.faults_injected;
    std::fprintf(stderr,
                 "pfc fault: injected NaN into phi at step %lld, global "
                 "cell (%lld,%lld,%lld)\n",
                 step_, c[0], c[1], c[2]);
    break;
  }
}

void Simulation::restore_from_disk() {
  const resilience::CheckpointMeta meta = resilience::read_checkpoint(
      opts_.resilience.restart_from, checkpoint_arrays(), layout_signature(),
      file_rank());
  PFC_REQUIRE(meta.rng_seed == model_.params().rng_seed,
              "resilience: checkpoint rng_seed " +
                  std::to_string(meta.rng_seed) +
                  " differs from the model's " +
                  std::to_string(model_.params().rng_seed) +
                  " — restart would change the noise stream");
  exchange(&LocalBlock::phi_src, kPhiSrcTag);
  exchange(&LocalBlock::mu_src, kMuSrcTag);
  step_ = meta.step;
  time_ = meta.time;
  health_.restore_stats(meta.health);
  if (meta.dt != dt_current_) rebuild_with_dt(meta.dt);
  res_stats_.restarted = true;
  res_stats_.restart_step = meta.step;
}

// --- gathers ------------------------------------------------------------------

double Simulation::local_phi_sum(int c) const {
  double s = 0.0;
  for (const auto& lb : locals_) s += lb->phi_src.interior_sum(c);
  return s;
}

std::vector<double> Simulation::gather(Array LocalBlock::*member) const {
  const auto& g = forest_.global_cells();
  const int comps =
      (member == &LocalBlock::phi_src ? model_.phi_src() : model_.mu_src())
          ->components();
  const std::size_t plane = std::size_t(g[0] * g[1] * g[2]);
  std::vector<double> out(plane * std::size_t(comps), 0.0);

  const auto put_block = [&](const grid::Block& b,
                             const std::vector<double>& data) {
    std::size_t i = 0;
    for (int c = 0; c < comps; ++c) {
      for (long long z = 0; z < b.size[2]; ++z) {
        for (long long y = 0; y < b.size[1]; ++y) {
          for (long long x = 0; x < b.size[0]; ++x) {
            const std::size_t gi =
                std::size_t((x + b.offset[0]) +
                            g[0] * ((y + b.offset[1]) +
                                    g[1] * (z + b.offset[2])));
            out[gi + plane * std::size_t(c)] = data[i++];
          }
        }
      }
    }
  };
  const auto block_data = [&](const LocalBlock& lb) {
    std::vector<double> d(std::size_t((lb.*member).interior_count()));
    (lb.*member).copy_interior_out(d.data());
    return d;
  };

  for (const auto& lb : locals_) put_block(*lb->block, block_data(*lb));
  if (comm_ == nullptr) return out;

  constexpr int kGatherTag = 7000000;
  if (comm_->rank() == 0) {
    for (const auto& b : forest_.blocks()) {
      if (b.owner == 0) continue;
      std::vector<double> data(
          std::size_t(b.size[0] * b.size[1] * b.size[2] * comps));
      comm_->recv_vec(b.owner, kGatherTag + b.linear_id, data);
      put_block(b, data);
    }
    for (int r = 1; r < comm_->size(); ++r) {
      comm_->send_vec(r, kGatherTag - 1, out);
    }
  } else {
    for (const auto& lb : locals_) {
      comm_->send_vec(0, kGatherTag + lb->block->linear_id,
                      block_data(*lb));
    }
    comm_->recv_vec(0, kGatherTag - 1, out);
  }
  return out;
}

}  // namespace pfc::app
