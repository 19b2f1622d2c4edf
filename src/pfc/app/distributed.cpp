#include "pfc/app/distributed.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "pfc/perf/drift.hpp"
#include "pfc/support/timer.hpp"

namespace pfc::app {

namespace {

std::array<std::int64_t, 3> flux_size(const std::array<long long, 3>& n,
                                      int dims) {
  std::array<std::int64_t, 3> s{1, 1, 1};
  for (int d = 0; d < dims; ++d) s[std::size_t(d)] = n[std::size_t(d)] + 1;
  return s;
}

// JIT fault injection must reach the ctor's compile (member-init list).
CompileOptions compile_opts_with_faults(const DistributedOptions& o) {
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

/// Frontier width along x per kernel of one execution group, back to
/// front: every kernel writing the exchanged field needs a `ghost`-wide
/// slab (begin() packs those edge cells), and an upstream kernel j feeding
/// a downstream kernel l must widen l's slab by l's x read offsets into
/// j's output (plus the iteration-extent difference on the high side).
std::vector<long long> frontier_widths(
    const std::vector<CompiledKernel>& kernels, std::uint64_t exchanged_id,
    int ghost) {
  std::vector<long long> w(kernels.size(), 0);
  for (std::size_t j = kernels.size(); j-- > 0;) {
    for (const auto& wr : kernels[j].ir.writes) {
      if (wr->id() == exchanged_id) w[j] = std::max(w[j], (long long)ghost);
    }
    for (std::size_t l = j + 1; l < kernels.size(); ++l) {
      const backend::ReadRanges& reads = kernels[l].reads();
      for (const auto& wr : kernels[j].ir.writes) {
        const auto it = reads.find(wr->id());
        if (it == reads.end()) continue;
        const long long extent_diff =
            kernels[j].ir.extent_plus[0] - kernels[l].ir.extent_plus[0];
        w[j] = std::max({w[j], w[l] + it->second.hi[0],
                         w[l] + extent_diff - it->second.lo[0]});
      }
    }
  }
  return w;
}

}  // namespace

DistributedSimulation::DistributedSimulation(const GrandChemModel& model,
                                             const DistributedOptions& opts,
                                             mpi::Comm* comm)
    : model_(model),
      opts_(opts),
      forest_(opts.cells, opts.blocks_per_dim,
              comm != nullptr ? comm->size() : 1, model.params().dims,
              opts.boundary),
      comm_(comm),
      compiled_(ModelCompiler(compile_opts_with_faults(opts)).compile(model)),
      exchange_(forest_, comm,
                std::max(model.phi_src()->components(),
                         model.mu_src()->components())),
      health_(opts.health, &reg_) {
  const int my_rank = comm != nullptr ? comm->rank() : 0;
  const int dims = model.params().dims;
  for (const grid::Block* b : forest_.blocks_of_rank(my_rank)) {
    auto lb = std::make_unique<LocalBlock>(LocalBlock{
        b,
        Array(model.phi_src(), {b->size[0], b->size[1], b->size[2]}, 1),
        Array(model.phi_dst(), {b->size[0], b->size[1], b->size[2]}, 1),
        Array(model.mu_src(), {b->size[0], b->size[1], b->size[2]}, 1),
        Array(model.mu_dst(), {b->size[0], b->size[1], b->size[2]}, 1),
        std::nullopt, std::nullopt});
    if (compiled_.phi_flux_field) {
      lb->phi_flux.emplace(*compiled_.phi_flux_field,
                           flux_size(b->size, dims), 0);
    }
    if (compiled_.mu_flux_field) {
      lb->mu_flux.emplace(*compiled_.mu_flux_field, flux_size(b->size, dims),
                          0);
    }
    locals_.push_back(std::move(lb));
  }

  tracer_.configure(opts.trace, /*pid=*/my_rank);
  if (tracer_.enabled()) {
    for (const auto& [stage, t] : compiled_.compile_report().stage_timers) {
      tracer_.instant(tracer_.intern("compile/" + stage), "compile", -1,
                      t.seconds);
    }
  }
  if (!locals_.empty()) {
    const auto& bs = locals_.front()->block->size;
    cells_per_launch_ = bs[0] * bs[1] * bs[2];
    std::vector<const ir::Kernel*> kernels;
    for (const auto& ck : compiled_.phi_kernels) kernels.push_back(&ck.ir);
    for (const auto& ck : compiled_.mu_kernels) kernels.push_back(&ck.ir);
    // per-block launches are serial: one core per launch
    predicted_mlups_ = perf::predicted_mlups_by_kernel(
        kernels, bs, opts.machine, /*cores=*/1,
        compiled_.compile_report().vector_width);
  }

  if (opts_.overlap == OverlapMode::InteriorFrontier && opts_.threads > 1) {
    pool_ = std::make_unique<ThreadPool>(opts_.threads);
  }
  compute_overlap_regions();

  dt_current_ = model_.params().dt;
  faults_ = resilience::effective_faults(opts.resilience);
  if (!opts.resilience.restart_from.empty()) restore_from_disk();
}

void DistributedSimulation::compute_overlap_regions() {
  phi_regions_.clear();
  mu_regions_.clear();
  overlap_interior_cells_ = 0;
  overlap_frontier_cells_ = 0;
  if (opts_.overlap != OverlapMode::InteriorFrontier || locals_.empty()) {
    return;
  }
  const int my_rank = comm_ != nullptr ? comm_->rank() : 0;
  const std::array<long long, 3> n = locals_.front()->block->size;

  const auto build = [&](const std::vector<CompiledKernel>& kernels,
                         std::uint64_t exchanged_id,
                         int ghost) -> std::vector<KernelRegions> {
    const auto widths = frontier_widths(kernels, exchanged_id, ghost);
    std::vector<KernelRegions> regions(locals_.size() * kernels.size());
    for (std::size_t i = 0; i < locals_.size(); ++i) {
      const auto remote = [&](int side) {
        const grid::Block* nb = forest_.neighbor(*locals_[i]->block, 0, side);
        return nb != nullptr && nb->owner != my_rank;
      };
      const bool lo = remote(-1), hi = remote(+1);
      for (std::size_t k = 0; k < kernels.size(); ++k) {
        KernelRegions& r = regions[i * kernels.size() + k];
        r.interior = peel_x(backend::full_range(kernels[k].ir, n), widths[k],
                            lo, hi, r.frontier, r.num_frontier);
      }
    }
    return regions;
  };
  phi_regions_ = build(compiled_.phi_kernels, model_.phi_dst()->id(),
                       locals_.front()->phi_dst.ghost_layers());
  mu_regions_ = build(compiled_.mu_kernels, model_.mu_dst()->id(),
                      locals_.front()->mu_dst.ghost_layers());

  // Per-step cell accounting on the dst-kernel lattice (the last φ kernel,
  // extent_plus = 0, so interior + frontier = block cells per block).
  const std::size_t nk = compiled_.phi_kernels.size();
  PFC_ASSERT(nk > 0);
  const long long block_cells = n[0] * n[1] * n[2];
  for (std::size_t i = 0; i < locals_.size(); ++i) {
    const long long interior = phi_regions_[i * nk + nk - 1].interior.cells();
    overlap_interior_cells_ += interior;
    overlap_frontier_cells_ += block_cells - interior;
  }
}

backend::Binding DistributedSimulation::bind(const ir::Kernel& k,
                                             LocalBlock& lb) const {
  backend::Binding b;
  b.block_offset = {lb.block->offset[0], lb.block->offset[1],
                    lb.block->offset[2]};
  for (const auto& f : k.fields) {
    Array* a = nullptr;
    if (f->id() == model_.phi_src()->id()) a = &lb.phi_src;
    else if (f->id() == model_.phi_dst()->id()) a = &lb.phi_dst;
    else if (f->id() == model_.mu_src()->id()) a = &lb.mu_src;
    else if (f->id() == model_.mu_dst()->id()) a = &lb.mu_dst;
    else if (compiled_.phi_flux_field &&
             f->id() == (*compiled_.phi_flux_field)->id()) {
      a = &*lb.phi_flux;
    } else if (compiled_.mu_flux_field &&
               f->id() == (*compiled_.mu_flux_field)->id()) {
      a = &*lb.mu_flux;
    }
    PFC_REQUIRE(a != nullptr, "distributed: unknown field " + f->name());
    b.arrays.push_back(a);
  }
  return b;
}

std::vector<grid::LocalBlockField> DistributedSimulation::field_view(
    Array LocalBlock::* member) {
  std::vector<grid::LocalBlockField> v;
  v.reserve(locals_.size());
  for (auto& lb : locals_) {
    v.push_back({lb->block, &((*lb).*member)});
  }
  return v;
}

void DistributedSimulation::init(
    const std::function<double(long long, long long, long long, int)>& phi_f,
    const std::function<double(long long, long long, long long, int)>& mu_f) {
  for (auto& lb : locals_) {
    const auto& off = lb->block->offset;
    const auto& n = lb->block->size;
    for (int c = 0; c < lb->phi_src.components(); ++c) {
      for (long long z = 0; z < n[2]; ++z) {
        for (long long y = 0; y < n[1]; ++y) {
          for (long long x = 0; x < n[0]; ++x) {
            lb->phi_src.at(x, y, z, c) =
                phi_f(x + off[0], y + off[1], z + off[2], c);
          }
        }
      }
    }
    for (int c = 0; c < lb->mu_src.components(); ++c) {
      for (long long z = 0; z < n[2]; ++z) {
        for (long long y = 0; y < n[1]; ++y) {
          for (long long x = 0; x < n[0]; ++x) {
            lb->mu_src.at(x, y, z, c) =
                mu_f(x + off[0], y + off[1], z + off[2], c);
          }
        }
      }
    }
  }
  auto phi_view = field_view(&LocalBlock::phi_src);
  exchange_.exchange(phi_view, /*field_tag=*/0);
  auto mu_view = field_view(&LocalBlock::mu_src);
  exchange_.exchange(mu_view, /*field_tag=*/1);
}

obs::RunReport DistributedSimulation::run(int steps) {
  long long local_cells = 0;
  for (const auto& lb : locals_) {
    local_cells +=
        lb->block->size[0] * lb->block->size[1] * lb->block->size[2];
  }
  obs::Counter& updates = reg_.counter("cell_updates");
  obs::Counter& xbytes = reg_.counter("exchange_bytes");
  const auto& res = opts_.resilience;
  const bool recovery =
      health_.enabled() && opts_.health.policy == obs::HealthPolicy::Recover;
  if ((recovery || res.checkpoint_every > 0) && !snapshot_.valid()) {
    capture_checkpoint(/*to_disk=*/false);
  }
  // Net-step semantics as in Simulation::run: rollbacks rewind step_ and
  // the loop keeps going until the target step is reached.
  const long long target = step_ + steps;
  while (step_ < target) {
    // Cooperative cancellation at step granularity (see Simulation::run).
    // All ranks share one in-process token, so they agree without a
    // reduction; a real-MPI transport would broadcast the flag instead.
    if (progress_.cancel != nullptr && progress_.cancel->requested()) {
      if (!res.directory.empty()) capture_checkpoint(/*to_disk=*/true);
      throw JobCancelled(progress_.cancel->kind(),
                         progress_.cancel->reason());
    }
    const double t = time_;
    Timer step_wall;
    trace_this_step_ = tracer_.sampled(step_);
    obs::TraceRecorder* tr = trace_this_step_ ? &tracer_ : nullptr;
    const double step_ts = tr != nullptr ? tr->now_us() : 0.0;
    double step_kernel_seconds = 0.0;
    double step_exchange_seconds = 0.0;
    std::uint64_t step_exchange_bytes = 0;

    const auto run_group = [&](const std::vector<CompiledKernel>& kernels) {
      for (std::size_t i = 0; i < locals_.size(); ++i) {
        LocalBlock& lb = *locals_[i];
        const std::array<long long, 3> n = lb.block->size;
        const int block_id = lb.block->linear_id;
        Timer block_timer;
        for (const auto& ck : kernels) {
          Timer timer;
          const double ts = tr != nullptr ? tr->now_us() : 0.0;
          ck.run(bind(ck.ir, lb), n, t, step_, nullptr, tr);
          const double s = timer.seconds();
          if (tr != nullptr) {
            tr->complete(ck.ir.name.c_str(), "kernel", ts, s * 1e6, step_,
                         block_id);
          }
          reg_.add_time("kernel/" + ck.ir.name, s);
        }
        reg_.add_time("block/" + std::to_string(block_id),
                      block_timer.seconds());
        step_kernel_seconds += block_timer.seconds();
      }
    };
    const auto timed_exchange = [&](std::vector<grid::LocalBlockField>& view,
                                    int tag) {
      Timer timer;
      const double ts = tr != nullptr ? tr->now_us() : 0.0;
      exchange_.exchange(view, tag);
      const double s = timer.seconds();
      if (tr != nullptr) {
        tr->complete("exchange", "ghost", ts, s * 1e6, step_, -1);
      }
      reg_.add_time("exchange", s);
      step_exchange_seconds += s;
      const std::uint64_t b = exchange_.last_bytes_sent();
      xbytes.add(b);
      step_exchange_bytes += b;
    };

    // Communication-hiding step (OverlapMode::InteriorFrontier): compute
    // the x slabs another rank reads first, post their messages
    // nonblocking, run the interior (everything else) while they fly, then
    // complete the exchange. A block without a remote x face runs each
    // kernel once over its full box, as the synchronous path does.
    // Kernel/block timer counts stay identical to the synchronous path
    // (one add per block/kernel/step) so the drift model's launches ×
    // cells_per_launch accounting stays honest.
    const auto run_group_overlap =
        [&](const std::vector<CompiledKernel>& kernels,
            const std::vector<KernelRegions>& regions,
            std::vector<grid::LocalBlockField>& view, int tag) {
          std::vector<double> acc(locals_.size() * kernels.size(), 0.0);
          const auto sweep = [&](bool frontier, ThreadPool* pool) {
            for (std::size_t i = 0; i < locals_.size(); ++i) {
              LocalBlock& lb = *locals_[i];
              const std::array<long long, 3> n = lb.block->size;
              for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
                const CompiledKernel& ck = kernels[ki];
                const KernelRegions& r = regions[i * kernels.size() + ki];
                if (frontier && r.num_frontier == 0) continue;
                Timer timer;
                if (frontier) {
                  for (int s = 0; s < r.num_frontier; ++s) {
                    ck.run(bind(ck.ir, lb), n, t, step_, nullptr, nullptr,
                           &r.frontier[std::size_t(s)]);
                  }
                } else if (r.interior.cells() > 0) {
                  ck.run(bind(ck.ir, lb), n, t, step_, pool, tr,
                         &r.interior);
                }
                acc[i * kernels.size() + ki] += timer.seconds();
              }
            }
          };
          const auto phase = [&](const char* name, const char* cat,
                                 const auto& fn) {
            Timer timer;
            const double ts = tr != nullptr ? tr->now_us() : 0.0;
            fn();
            const double s = timer.seconds();
            if (tr != nullptr) {
              tr->complete(name, cat, ts, s * 1e6, step_, -1);
            }
            reg_.add_time(name, s);
            return s;
          };

          phase("kernel.frontier", "kernel",
                [&] { sweep(/*frontier=*/true, nullptr); });
          const double pack_s = phase("exchange.pack", "ghost",
                                      [&] { exchange_.begin(view, tag); });
          const std::uint64_t b = exchange_.last_bytes_sent();
          xbytes.add(b);
          step_exchange_bytes += b;
          phase("kernel.interior", "kernel",
                [&] { sweep(/*frontier=*/false, pool_.get()); });
          const double wait_s =
              phase("exchange.wait", "ghost", [&] { exchange_.finish(); });

          // Only pack + wait are exposed exchange time in this mode.
          reg_.add_time("exchange", pack_s + wait_s);
          step_exchange_seconds += pack_s + wait_s;

          for (std::size_t i = 0; i < locals_.size(); ++i) {
            double block_s = 0.0;
            for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
              const double s = acc[i * kernels.size() + ki];
              reg_.add_time("kernel/" + kernels[ki].ir.name, s);
              block_s += s;
            }
            reg_.add_time(
                "block/" + std::to_string(locals_[i]->block->linear_id),
                block_s);
            step_kernel_seconds += block_s;
          }
        };

    auto phi_view = field_view(&LocalBlock::phi_dst);
    auto mu_view = field_view(&LocalBlock::mu_dst);
    if (opts_.overlap == OverlapMode::InteriorFrontier) {
      run_group_overlap(compiled_.phi_kernels, phi_regions_, phi_view,
                        /*field_tag=*/2);
      run_group_overlap(compiled_.mu_kernels, mu_regions_, mu_view,
                        /*field_tag=*/3);
    } else {
      run_group(compiled_.phi_kernels);
      timed_exchange(phi_view, /*field_tag=*/2);
      run_group(compiled_.mu_kernels);
      timed_exchange(mu_view, /*field_tag=*/3);
    }

    for (auto& lb : locals_) {
      lb->phi_src.swap_data(lb->phi_dst);
      lb->mu_src.swap_data(lb->mu_dst);
    }
    ++step_;
    time_ += dt_current_;
    updates.add(std::uint64_t(local_cells));
    reg_.push_step({step_, step_kernel_seconds, step_exchange_seconds,
                    step_exchange_bytes, std::uint64_t(local_cells)});
    if (tr != nullptr) {
      tr->complete("step", "step", step_ts, tr->now_us() - step_ts,
                   step_ - 1, -1);
    }
    maybe_inject_nan();
    const bool cp_due =
        res.checkpoint_every > 0 && step_ % res.checkpoint_every == 0;
    std::uint64_t found = 0;
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
    if (step_ > last_violation_step_) retries_ = 0;
    if (cp_due && global_found == 0) {
      capture_checkpoint(!res.directory.empty());
    }
    record_progress(step_wall.seconds());
  }
  if (tracer_.enabled()) {
    const bool multi_rank = comm_ != nullptr && comm_->size() > 1;
    const int rank = comm_ != nullptr ? comm_->rank() : 0;
    tracer_.write(multi_rank ? obs::rank_trace_path(opts_.trace.path, rank)
                             : opts_.trace.path);
  }
  return report();
}

void DistributedSimulation::record_progress(double step_wall_seconds) {
  step_seconds_ewma_ =
      step_seconds_ewma_ <= 0.0
          ? step_wall_seconds
          : kProgressEwmaAlpha * step_wall_seconds +
                (1.0 - kProgressEwmaAlpha) * step_seconds_ewma_;
  if (!progress_.sink || progress_.every <= 0) return;
  if (step_ % progress_.every != 0 || step_ <= last_progress_step_) return;
  last_progress_step_ = step_;
  long long local_cells = 0;
  for (const auto& lb : locals_) {
    local_cells += lb->block->size[0] * lb->block->size[1] * lb->block->size[2];
  }
  ProgressUpdate u;
  u.step = step_;
  u.steps_total = progress_.steps_total;
  u.fraction = progress_.steps_total > 0
                   ? double(step_) / double(progress_.steps_total)
                   : 0.0;
  u.step_seconds_ewma = step_seconds_ewma_;
  u.mlups = obs::safe_rate(double(local_cells), step_seconds_ewma_) / 1e6;
  u.eta_seconds =
      progress_.steps_total > 0 && progress_.steps_total > step_
          ? double(progress_.steps_total - step_) * step_seconds_ewma_
          : 0.0;
  u.health_violations = health_.stats().total_violations();
  progress_.sink(u);
}

obs::RunReport DistributedSimulation::report() const {
  obs::RunReport r;
  r.name = "distributed";
  r.steps = step_;
  r.cell_updates = reg_.counter_value("cell_updates");
  r.num_blocks = static_cast<int>(locals_.size());
  for (const auto& lb : locals_) {
    r.cells_per_step +=
        lb->block->size[0] * lb->block->size[1] * lb->block->size[2];
  }
  double block_max = 0.0, block_sum = 0.0;
  int block_n = 0;
  for (const auto& [path, t] : reg_.timers()) {
    if (path.rfind("kernel/", 0) == 0) {
      r.kernel_timers[path.substr(7)] = t;
      r.kernel_seconds_total += t.seconds;
    } else if (path == "exchange") {
      r.exchange_seconds = t.seconds;
    } else if (path == "exchange.pack") {
      r.overlap.pack_seconds = t.seconds;
    } else if (path == "exchange.wait") {
      r.overlap.wait_seconds = t.seconds;
    } else if (path == "kernel.interior") {
      r.overlap.interior_seconds = t.seconds;
    } else if (path == "kernel.frontier") {
      r.overlap.frontier_seconds = t.seconds;
    } else if (path.rfind("block/", 0) == 0) {
      block_max = std::max(block_max, t.seconds);
      block_sum += t.seconds;
      ++block_n;
    }
  }
  r.exchange_bytes = reg_.counter_value("exchange_bytes");
  r.block_imbalance =
      obs::safe_rate(block_max, block_sum / std::max(block_n, 1));
  r.recent_steps = reg_.recent_steps();
  r.health = health_.stats();
  r.health_policy = opts_.health.policy;
  r.resilience = res_stats_;
  r.resilience.dt_current = dt_current_;
  r.overlap.enabled = opts_.overlap == OverlapMode::InteriorFrontier;
  r.overlap.interior_cells = overlap_interior_cells_;
  r.overlap.frontier_cells = overlap_frontier_cells_;
  // fill_model_accuracy derives hidden_seconds/hidden_fraction from the
  // overlap phase timers and the netmodel comm prediction.
  perf::fill_model_accuracy(r, predicted_mlups_, cells_per_launch_,
                            model_.params().dims);
  return r;
}

std::string DistributedSimulation::layout_signature() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, ";phases=%d;mu=%d", model_.params().phases,
                model_.params().num_mu());
  return forest_.layout_signature() + buf;
}

int DistributedSimulation::file_rank() const {
  return comm_ != nullptr ? comm_->rank() : -1;
}

void DistributedSimulation::refresh_src_ghosts() {
  auto phi_view = field_view(&LocalBlock::phi_src);
  exchange_.exchange(phi_view, /*field_tag=*/0);
  auto mu_view = field_view(&LocalBlock::mu_src);
  exchange_.exchange(mu_view, /*field_tag=*/1);
}

void DistributedSimulation::capture_checkpoint(bool to_disk) {
  std::vector<const Array*> snap;
  for (const auto& lb : locals_) {
    snap.push_back(&lb->phi_src);
    snap.push_back(&lb->mu_src);
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
  meta.counters["cell_updates"] = reg_.counter_value("cell_updates");
  meta.counters["exchange_bytes"] = reg_.counter_value("exchange_bytes");
  std::vector<resilience::CheckpointArray> arrays;
  for (const auto& lb : locals_) {
    const std::string id = std::to_string(lb->block->linear_id);
    arrays.push_back({"phi/block" + id, &lb->phi_src});
    arrays.push_back({"mu/block" + id, &lb->mu_src});
  }
  resilience::write_checkpoint(opts_.resilience.directory, meta, arrays,
                               file_rank(), faults_.truncate_checkpoint);
  if (faults_.truncate_checkpoint) ++res_stats_.faults_injected;
  ++res_stats_.checkpoint_files;
}

void DistributedSimulation::rollback() {
  PFC_REQUIRE(snapshot_.valid(), "resilience: no snapshot to roll back to");
  std::vector<Array*> snap;
  for (auto& lb : locals_) {
    snap.push_back(&lb->phi_src);
    snap.push_back(&lb->mu_src);
  }
  snapshot_.restore(snap);
  refresh_src_ghosts();
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

void DistributedSimulation::rebuild_with_dt(double new_dt) {
  model_ = model_.with_dt(new_dt);
  dt_current_ = new_dt;
  compiled_ = ModelCompiler(opts_.compile).compile(model_);
  const int dims = model_.params().dims;
  for (auto& lb : locals_) {
    lb->phi_flux.reset();
    lb->mu_flux.reset();
    if (compiled_.phi_flux_field) {
      lb->phi_flux.emplace(*compiled_.phi_flux_field,
                           flux_size(lb->block->size, dims), 0);
    }
    if (compiled_.mu_flux_field) {
      lb->mu_flux.emplace(*compiled_.mu_flux_field,
                          flux_size(lb->block->size, dims), 0);
    }
  }
  compute_overlap_regions();
}

void DistributedSimulation::maybe_inject_nan() {
  if (fault_nan_fired_ || faults_.nan_step < 0 || step_ != faults_.nan_step) {
    return;
  }
  fault_nan_fired_ = true;
  // Global cell coordinates: only the owning rank's block gets the NaN.
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

void DistributedSimulation::restore_from_disk() {
  std::vector<resilience::RestoreArray> arrays;
  for (auto& lb : locals_) {
    const std::string id = std::to_string(lb->block->linear_id);
    arrays.push_back({"phi/block" + id, &lb->phi_src});
    arrays.push_back({"mu/block" + id, &lb->mu_src});
  }
  const resilience::CheckpointMeta meta = resilience::read_checkpoint(
      opts_.resilience.restart_from, arrays, layout_signature(), file_rank());
  PFC_REQUIRE(meta.rng_seed == model_.params().rng_seed,
              "resilience: checkpoint rng_seed differs from the model's — "
              "restart would change the noise stream");
  refresh_src_ghosts();
  step_ = meta.step;
  time_ = meta.time;
  health_.restore_stats(meta.health);
  if (meta.dt != dt_current_) rebuild_with_dt(meta.dt);
  res_stats_.restarted = true;
  res_stats_.restart_step = meta.step;
}

double DistributedSimulation::local_phi_sum(int c) const {
  double s = 0.0;
  for (const auto& lb : locals_) s += lb->phi_src.interior_sum(c);
  return s;
}

std::vector<double> DistributedSimulation::gather_phi() const {
  const auto& g = forest_.global_cells();
  const int comps = model_.phi_src()->components();
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
    std::vector<double> d;
    d.reserve(std::size_t(lb.block->size[0] * lb.block->size[1] *
                          lb.block->size[2] * comps));
    for (int c = 0; c < comps; ++c) {
      for (long long z = 0; z < lb.block->size[2]; ++z) {
        for (long long y = 0; y < lb.block->size[1]; ++y) {
          for (long long x = 0; x < lb.block->size[0]; ++x) {
            d.push_back(lb.phi_src.at(x, y, z, c));
          }
        }
      }
    }
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
