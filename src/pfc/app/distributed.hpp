// Distributed multi-block time stepping: Algorithm 1 with the boundary
// handling replaced by block-forest ghost exchange (paper §4). Each rank
// owns the blocks assigned by the Morton curve; the model is generated and
// JIT-compiled once per rank and shared across its blocks.
#pragma once

#include "pfc/app/simulation.hpp"
#include "pfc/grid/ghost_exchange.hpp"

namespace pfc::app {

/// How the distributed step schedules ghost exchange against compute.
enum class OverlapMode {
  /// Synchronous: sweep all cells, then exchange (the seed behaviour).
  Off,
  /// Communication hiding: compute the x slabs another rank reads first,
  /// post their messages nonblocking, compute the interior while they fly,
  /// then complete the exchange. With no remote x face this is the Off
  /// sweep. Bitwise-identical results to Off.
  InteriorFrontier,
};

struct DistributedOptions : DomainOptions {
  /// `cells` (from DomainOptions) is the *global* domain, decomposed into
  /// `blocks_per_dim` equal blocks per dimension.
  std::array<int, 3> blocks_per_dim{2, 2, 1};
  /// Exchange/compute scheduling of the step (see OverlapMode).
  OverlapMode overlap = OverlapMode::Off;
  /// Thread-pool size for slab-splitting the interior sweep while the
  /// exchange is in flight (1 = interior runs on the rank's own thread).
  int threads = 1;

  DistributedOptions& with_cells(long long nx, long long ny,
                                 long long nz = 1) {
    DomainOptions::with_cells(nx, ny, nz);
    return *this;
  }
  DistributedOptions& with_boundary(grid::BoundaryKind b) {
    DomainOptions::with_boundary(b);
    return *this;
  }
  DistributedOptions& with_compile(const CompileOptions& c) {
    DomainOptions::with_compile(c);
    return *this;
  }
  DistributedOptions& with_trace(const obs::TraceOptions& t) {
    DomainOptions::with_trace(t);
    return *this;
  }
  DistributedOptions& with_health(const obs::HealthOptions& h) {
    DomainOptions::with_health(h);
    return *this;
  }
  DistributedOptions& with_resilience(const resilience::ResilienceOptions& r) {
    DomainOptions::with_resilience(r);
    return *this;
  }
  DistributedOptions& with_blocks(int bx, int by, int bz = 1) {
    blocks_per_dim = {bx, by, bz};
    return *this;
  }
  DistributedOptions& with_overlap(OverlapMode m) {
    overlap = m;
    return *this;
  }
  DistributedOptions& with_threads(int t) {
    threads = t;
    return *this;
  }
};

/// One rank's part of a distributed run. Construct inside an mpi::run
/// callback (or with comm == nullptr for serial multi-block execution).
class DistributedSimulation {
 public:
  /// With `opts.resilience.restart_from` set, every rank restores its own
  /// blocks from the per-rank checkpoint files; skip init() in that case.
  DistributedSimulation(const GrandChemModel& model,
                        const DistributedOptions& opts, mpi::Comm* comm);

  const grid::BlockForest& forest() const { return forest_; }
  int num_local_blocks() const { return static_cast<int>(locals_.size()); }
  /// The rank-wide compiled model (kernels are shared across local blocks).
  const CompiledModel& compiled() const { return compiled_; }

  /// Initializes phi/mu from *global* cell coordinates.
  void init(const std::function<double(long long, long long, long long,
                                       int)>& phi_f,
            const std::function<double(long long, long long, long long,
                                       int)>& mu_f);

  /// Advances `steps` time steps; returns the cumulative run report of
  /// this rank (kernel timers, exchange bytes/seconds, block imbalance).
  obs::RunReport run(int steps);

  long long step_count() const { return step_; }

  /// Cumulative report without advancing time.
  obs::RunReport report() const;
  const obs::Registry& registry() const { return reg_; }
  /// The span recorder (pid = rank; multi-rank runs write per-rank files
  /// via obs::rank_trace_path).
  const obs::TraceRecorder& tracer() const { return tracer_; }
  /// The in-situ health monitor of this rank's blocks.
  const obs::HealthMonitor& health() const { return health_; }
  /// Checkpoint/rollback accounting of this rank.
  const obs::ResilienceStats& resilience_stats() const { return res_stats_; }

  /// Enables periodic progress sampling of this rank's step loop (see
  /// progress.hpp; the serve daemon sets this on single-process runs).
  void set_progress(ProgressOptions p) { progress_ = std::move(p); }

  /// Sum over local blocks of component c of phi (for cross-validation).
  double local_phi_sum(int c) const;

  /// Gathers the full global phi field onto every rank (test utility; the
  /// production path writes per-block VTK instead).
  /// Entry (x + gx*(y + gy*z), c).
  std::vector<double> gather_phi() const;

 private:
  struct LocalBlock {
    const grid::Block* block;
    Array phi_src, phi_dst, mu_src, mu_dst;
    std::optional<Array> phi_flux, mu_flux;
  };

  /// Interior box + disjoint frontier slabs of one kernel's iteration
  /// space on one block. A frontier slab sits only on an x face whose
  /// neighbour block is on another rank: it covers the edge cells that
  /// GhostExchange::begin() packs (directly or through a downstream kernel
  /// of the same group). Local faces and y/z faces are interior, because
  /// their copies and packs run in finish(), after the interior sweep.
  /// Widths are derived from the read-offset ranges marshal() checks, so
  /// split staggered pipelines get correct slabs.
  struct KernelRegions {
    backend::CellRange interior;
    std::array<backend::CellRange, 2> frontier;
    int num_frontier = 0;
  };

  backend::Binding bind(const ir::Kernel& k, LocalBlock& lb) const;
  std::vector<grid::LocalBlockField> field_view(
      Array LocalBlock::* src) ;

  /// (Re)derives phi_regions_/mu_regions_ and the per-step interior/
  /// frontier cell counts from the compiled kernels (called at
  /// construction and after a dt-shrink recompile).
  void compute_overlap_regions();

  // --- resilience (mirrors Simulation; rollback is rank-coordinated) ---
  std::string layout_signature() const;
  int file_rank() const;  ///< rank suffix for checkpoint files (−1 serial)
  void capture_checkpoint(bool to_disk);
  void rollback();
  void rebuild_with_dt(double new_dt);
  void maybe_inject_nan();
  void restore_from_disk();
  /// Re-exchanges ghosts of both src fields (after restore/rollback).
  void refresh_src_ghosts();
  /// Updates the step-time EWMA and emits a progress sample when due.
  void record_progress(double step_wall_seconds);

  /// Owned copy (shares the caller's Field handles) so a dt shrink can
  /// regenerate kernels without mutating the caller's model.
  GrandChemModel model_;
  DistributedOptions opts_;
  grid::BlockForest forest_;
  mpi::Comm* comm_;
  CompiledModel compiled_;
  std::vector<std::unique_ptr<LocalBlock>> locals_;
  grid::GhostExchange exchange_;
  /// Slab-split pool for interior sweeps (overlap mode, threads > 1).
  std::unique_ptr<ThreadPool> pool_;
  /// Interior/frontier decomposition per local block and kernel, flat at
  /// [block * kernels + kernel] over locals_ and compiled_.phi_kernels /
  /// mu_kernels (empty when overlap is Off).
  std::vector<KernelRegions> phi_regions_, mu_regions_;
  /// Per-step local cell counts of the decomposition (dst-kernel lattice).
  long long overlap_interior_cells_ = 0;
  long long overlap_frontier_cells_ = 0;
  long long step_ = 0;
  double time_ = 0.0;
  double dt_current_ = 0.0;
  resilience::FaultPlan faults_;
  bool fault_nan_fired_ = false;
  resilience::Snapshot snapshot_;
  obs::ResilienceStats res_stats_;
  int retries_ = 0;
  long long last_violation_step_ = -1;
  obs::Registry reg_;
  obs::TraceRecorder tracer_;
  obs::HealthMonitor health_;
  /// ECM-predicted MLUP/s per kernel at the local block size (serial
  /// per-block launches, so cores = 1); feeds model_accuracy.
  std::map<std::string, double> predicted_mlups_;
  /// Interior cells of one block launch (all blocks are equal-sized).
  long long cells_per_launch_ = 0;
  bool trace_this_step_ = false;
  ProgressOptions progress_;
  double step_seconds_ewma_ = 0.0;
  long long last_progress_step_ = -1;
};

}  // namespace pfc::app
