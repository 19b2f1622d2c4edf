// The time-stepping driver implementing the paper's Algorithm 1 on this
// rank's blocks of a block forest (paper §4):
//
//   1. φ_dst ← φ-kernel(φ_src^D..C.., µ_src)           ("φ-full"/"φ-split")
//   2. φ_dst ghost exchange (block-forest copies, messages, wall fills)
//   3. µ_dst ← µ-kernel(µ_src, φ_src, φ_dst)           ("µ-full"/"µ-split")
//   4. µ_dst ghost exchange
//   5. swap φ_src ↔ φ_dst and µ_src ↔ µ_dst
//
// Following waLBerla, every run is a block forest: `cells` is the global
// domain, decomposed into `blocks_per_dim` equal blocks that the Morton
// curve distributes over the ranks of `comm`. One block with no
// communicator is the node-level run; a periodic one-block forest is its
// own neighbour, so its ghosts are self-copies of the exchange. The model
// is generated and compiled once per rank and shared by its blocks.
#pragma once

#include <array>
#include <functional>
#include <map>

#include "pfc/app/compiler.hpp"
#include "pfc/app/progress.hpp"
#include "pfc/app/wavefront.hpp"
#include "pfc/grid/ghost_exchange.hpp"
#include "pfc/obs/health.hpp"
#include "pfc/obs/report.hpp"
#include "pfc/obs/trace.hpp"
#include "pfc/perf/blocking.hpp"
#include "pfc/perf/machine.hpp"
#include "pfc/resilience/checkpoint.hpp"
#include "pfc/resilience/resilience.hpp"
#include "pfc/support/topology.hpp"

namespace pfc::app {

/// Explicit time integrator. Heun (RK2) reuses the generated Euler-update
/// kernels: predictor step, corrector step, then averaging — the paper's
/// "further temporal discretization options" extension, realized purely at
/// the driver level.
enum class TimeScheme { Euler, Heun };

/// How kernel launches split the outer loop across the pool.
enum class Dispatch {
  /// parallel_for chunks re-enqueued per launch (the seed behaviour).
  Dynamic,
  /// Static slab ownership: worker w runs the same rows for every launch
  /// of every step — the rows first-touch placed on w's NUMA node.
  Static,
};

/// Temporal-blocking (wavefront) schedule of the fused φ/µ substep.
enum class BlockingMode {
  Off,   ///< reference order: φ sweep, exchange, µ sweep, exchange
  Auto,  ///< fuse with perf::blocking_plan-sized tiles when profitable
  Fixed, ///< fuse with a caller-chosen tile height (blocking_tile_rows)
};

/// How a step schedules the ghost exchange against compute.
enum class OverlapMode {
  /// Every block's whole box is swept before the exchange starts.
  Off,
  /// Communication hiding: compute the x slabs another rank reads first,
  /// post their messages nonblocking, compute the interior while they fly,
  /// then complete the exchange. With no remote x face this is the Off
  /// sweep. Bitwise-identical results to Off.
  InteriorFrontier,
};

/// Every driver knob. Plain aggregate — member assignment and brace-init
/// both work — with named-setter chaining for fluent construction:
///
///   auto opts = app::SimulationOptions{}.with_cells(128, 128).with_threads(4);
struct SimulationOptions {
  /// Global interior cells, decomposed into `blocks_per_dim` blocks.
  std::array<long long, 3> cells{64, 64, 1};
  grid::BoundaryKind boundary = grid::BoundaryKind::Periodic;
  CompileOptions compile;
  /// Span-timeline recording (chrome://tracing JSON); off by default.
  obs::TraceOptions trace;
  /// In-situ physics health monitoring; off by default.
  obs::HealthOptions health;
  /// Machine the ECM/drift layer models this run against. Defaults to the
  /// PFC_MACHINE env preset (perf::default_machine()), else Skylake-SP.
  perf::MachineModel machine = perf::default_machine();
  /// Checkpoint/restart and health-driven recovery; off by default.
  resilience::ResilienceOptions resilience;
  /// Worker-pool width of every kernel launch on this rank.
  int threads = 1;
  TimeScheme time_scheme = TimeScheme::Euler;
  /// Equal blocks per dimension the global domain is decomposed into.
  std::array<int, 3> blocks_per_dim{1, 1, 1};
  /// Exchange/compute scheduling of the step (see OverlapMode).
  OverlapMode overlap = OverlapMode::Off;
  /// Worker→CPU binding policy of the pool (threads > 1).
  support::PinPolicy pin = support::PinPolicy::None;
  /// First-touch the field arrays through the pool so each worker's slab
  /// is resident on its local NUMA node. On by default: with the static
  /// dispatch below it is free, and harmless on single-node-memory boxes.
  bool first_touch = true;
  Dispatch dispatch = Dispatch::Static;
  BlockingMode blocking = BlockingMode::Off;
  /// Tile height for BlockingMode::Fixed (rows along the outer axis).
  long long blocking_tile_rows = 0;

  SimulationOptions& with_cells(long long nx, long long ny,
                                long long nz = 1) {
    cells = {nx, ny, nz};
    return *this;
  }
  SimulationOptions& with_boundary(grid::BoundaryKind b) {
    boundary = b;
    return *this;
  }
  SimulationOptions& with_compile(const CompileOptions& c) {
    compile = c;
    return *this;
  }
  SimulationOptions& with_trace(const obs::TraceOptions& t) {
    trace = t;
    return *this;
  }
  SimulationOptions& with_health(const obs::HealthOptions& h) {
    health = h;
    return *this;
  }
  SimulationOptions& with_machine(const perf::MachineModel& m) {
    machine = m;
    return *this;
  }
  SimulationOptions& with_resilience(const resilience::ResilienceOptions& r) {
    resilience = r;
    return *this;
  }
  SimulationOptions& with_threads(int t) {
    threads = t;
    return *this;
  }
  SimulationOptions& with_time_scheme(TimeScheme s) {
    time_scheme = s;
    return *this;
  }
  SimulationOptions& with_blocks(int bx, int by, int bz = 1) {
    blocks_per_dim = {bx, by, bz};
    return *this;
  }
  SimulationOptions& with_overlap(OverlapMode m) {
    overlap = m;
    return *this;
  }
  SimulationOptions& with_pin(support::PinPolicy p) {
    pin = p;
    return *this;
  }
  SimulationOptions& with_first_touch(bool on) {
    first_touch = on;
    return *this;
  }
  SimulationOptions& with_dispatch(Dispatch d) {
    dispatch = d;
    return *this;
  }
  SimulationOptions& with_blocking(BlockingMode m, long long tile_rows = 0) {
    blocking = m;
    blocking_tile_rows = tile_rows;
    return *this;
  }
};

/// Initial-condition callback: the value at global cell (x, y, z) of
/// component c.
using CellFn = std::function<double(long long, long long, long long, int)>;

/// One rank's part of a run. Construct inside an mpi::run callback, or
/// with comm == nullptr when one rank holds every block.
class Simulation {
 public:
  /// When `opts.resilience.restart_from` names a checkpoint directory,
  /// every rank restores φ/µ/step/time (and dt, recompiling if a shrink
  /// had been applied) of its blocks from it; skip init*() in that case.
  Simulation(GrandChemModel model, const SimulationOptions& opts,
             mpi::Comm* comm = nullptr);

  /// The rank-wide compiled model (kernels are shared across local blocks).
  const CompiledModel& compiled() const { return compiled_; }
  int num_local_blocks() const { return int(locals_.size()); }

  /// State of this rank's only block (reads after the most recent
  /// completed step). Throws unless the rank holds exactly one block.
  Array& phi() { return only_block().phi_src; }
  Array& mu() { return only_block().mu_src; }
  const Array& phi() const { return only_block().phi_src; }
  const Array& mu() const { return only_block().mu_src; }

  /// Set φ/µ over every local interior cell from *global* coordinates,
  /// then exchange ghosts. Collective: every rank calls them in order.
  void init_phi(const CellFn& f);
  void init_mu(const CellFn& f);
  void init(const CellFn& phi_f, const CellFn& mu_f) {
    init_phi(phi_f);
    init_mu(mu_f);
  }

  /// Advances `n` time steps and returns the cumulative run report of this
  /// rank (all steps since construction, so repeated bursts keep one
  /// consistent accounting).
  obs::RunReport run(int n);

  long long step_count() const { return step_; }
  /// Accumulated simulation time. Summed step by step (not step_ * dt): dt
  /// may shrink after a rollback, and a checkpointed time restores bitwise
  /// because the manifest stores the accumulated double exactly.
  double time() const { return time_; }
  /// Current time-step size (params().dt until a rollback shrank it).
  double dt() const { return dt_current_; }

  /// Cumulative report without advancing time (equals the last run()'s
  /// return value).
  obs::RunReport report() const;
  /// The span recorder (pid = rank; multi-rank runs write per-rank files
  /// via obs::rank_trace_path).
  const obs::TraceRecorder& tracer() const { return tracer_; }
  /// The in-situ health monitor of this rank's blocks.
  const obs::HealthMonitor& health() const { return health_; }
  /// Checkpoint/rollback accounting (mirrors report().resilience).
  const obs::ResilienceStats& resilience_stats() const { return res_stats_; }

  /// The temporal-blocking decision (sized tile / why disabled).
  const perf::BlockingPlan& blocking_plan() const { return blocking_; }
  /// True when steps run the fused wavefront schedule.
  bool blocking_active() const {
    return blocking_.enabled && wavefront_.valid();
  }

  /// Enables periodic progress sampling: run() invokes p.sink every
  /// p.every completed steps (on the stepping thread; see progress.hpp).
  void set_progress(ProgressOptions p) { progress_ = std::move(p); }

  /// Sum over local blocks of component c of φ (for cross-validation).
  double local_phi_sum(int c) const;

  /// The global φ / µ interiors, gathered onto every rank, at entry
  /// (x + gx*(y + gy*z)) + gx*gy*gz*c — the order interior_checksum hashes.
  std::vector<double> gather_phi() const { return gather(&LocalBlock::phi_src); }
  std::vector<double> gather_mu() const { return gather(&LocalBlock::mu_src); }

 private:
  struct LocalBlock {
    const grid::Block* block;
    Array phi_src, phi_dst, mu_src, mu_dst;
    std::optional<Array> phi_flux, mu_flux;
    /// Heun predictor storage for the state at the step start.
    std::optional<Array> phi_0, mu_0;
  };

  /// Interior box + disjoint frontier slabs of one kernel's iteration
  /// space on one block. The frontier is swept before the exchange begins:
  /// the whole box with overlap off; with overlap on only the x slabs of
  /// faces whose neighbour block is on another rank, the edge cells that
  /// GhostExchange::begin() packs (directly or through a downstream kernel
  /// of the same group). Local faces and y/z faces are interior, because
  /// their copies and packs run in finish(), after the interior sweep.
  struct KernelRegions {
    backend::CellRange interior;
    std::array<backend::CellRange, 2> frontier;
    int num_frontier = 0;
  };

  LocalBlock& only_block() const;
  /// The block's array of field `id` (null for a field the model lacks).
  Array* array_of(std::uint64_t id, LocalBlock& lb) const;
  backend::Binding bind(const ir::Kernel& k, LocalBlock& lb) const;
  std::vector<grid::LocalBlockField> field_view(Array LocalBlock::*member);
  /// Exchanges the ghosts of `member` on every local block (init, Heun,
  /// restore and rollback; the step itself uses begin/finish).
  void exchange(Array LocalBlock::*member, int tag);
  std::vector<double> gather(Array LocalBlock::*member) const;
  void init_field(Array LocalBlock::*member, const CellFn& f, int tag);
  /// (Re)allocates every block's flux scratch arrays for compiled_.
  void allocate_flux();
  long long local_cells() const;

  /// One kernel group (φ or µ) on every local block, with its ghost
  /// exchange: frontier sweeps → begin → interior sweeps → finish.
  void run_group(const std::vector<CompiledKernel>& kernels,
                 const std::vector<KernelRegions>& regions,
                 Array LocalBlock::*dst, int tag, double t);
  /// Fused (wavefront) φ/µ sweeps of the one local block, then the µ
  /// exchange (the schedule fills φ_dst's ghosts itself).
  void fused_group(double t);
  /// One Euler substep: both groups, then the src/dst swap.
  void substep(double t);
  /// (Re)derives the regions, slab plan, wavefront schedule and blocking
  /// decision from the compiled kernels (ctor and rebuild_with_dt).
  void setup_schedule();

  // --- resilience (checkpoint/rollback/recovery, rank-coordinated) ---
  std::string layout_signature() const;
  int file_rank() const;  ///< rank suffix for checkpoint files (−1 serial)
  /// Per-block array names of the checkpoint ("phi/block<id>", ...).
  std::vector<resilience::RestoreArray> checkpoint_arrays();
  /// Captures the in-memory rollback snapshot; also writes the on-disk
  /// checkpoint when `to_disk`.
  void capture_checkpoint(bool to_disk);
  /// Restores the last snapshot (state, step, time) and applies the
  /// configured dt shrink.
  void rollback();
  /// Regenerates + recompiles the kernels with a new dt (dt folds into the
  /// generated code) and rebinds the flux scratch arrays.
  void rebuild_with_dt(double new_dt);
  /// Fires FaultPlan::nan_step once when due (right after `step_`
  /// advanced), at a global cell: only the owning block is poisoned.
  void maybe_inject_nan();
  /// Updates the step-time EWMA and emits a progress sample when due.
  void record_progress(double step_wall_seconds);
  /// Restores state from opts_.resilience.restart_from (ctor helper).
  void restore_from_disk();

  ThreadPool* first_touch_pool() const {
    return opts_.first_touch ? pool_.get() : nullptr;
  }

  /// Owned copy (shares the caller's Field handles) so a dt shrink can
  /// regenerate kernels without mutating the caller's model.
  GrandChemModel model_;
  SimulationOptions opts_;
  grid::BlockForest forest_;
  mpi::Comm* comm_;
  CompiledModel compiled_;
  /// Declared before the blocks: first-touch initialization runs on the
  /// (pinned) pool during array construction.
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<LocalBlock>> locals_;
  grid::GhostExchange exchange_;
  /// Interior/frontier decomposition per local block and kernel, flat at
  /// [block * kernels + kernel] over locals_ and compiled_.phi_kernels /
  /// mu_kernels.
  std::vector<KernelRegions> phi_regions_, mu_regions_;
  /// Per-step local cell counts of the overlap decomposition (dst-kernel
  /// lattice).
  long long overlap_interior_cells_ = 0;
  long long overlap_frontier_cells_ = 0;
  /// Static outer-axis slab ownership shared by first-touch, every kernel
  /// launch (Dispatch::Static) and the wavefront schedule.
  SlabPlan slab_plan_;
  WavefrontSchedule wavefront_;
  perf::BlockingPlan blocking_;
  long long fused_substeps_ = 0;
  long long step_ = 0;
  double time_ = 0.0;
  /// Live dt: starts at params().dt, shrunk by rollbacks (kernels are
  /// recompiled to match — dt is folded into the generated code).
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
  /// ECM-predicted MLUP/s per kernel at the block size and pool width
  /// (cached; feeds model_accuracy).
  std::map<std::string, double> predicted_mlups_;
  /// The topology the stepping thread sees once the pool has pinned its
  /// workers (probed once: run() returns a report every call).
  support::Topology topology_;
  /// True while the current step is on the trace sampling grid.
  bool trace_this_step_ = false;
  /// Kernel seconds and exchange seconds/bytes of the step in progress.
  double step_kernel_seconds_ = 0.0;
  double step_exchange_seconds_ = 0.0;
  std::uint64_t step_exchange_bytes_ = 0;
  ProgressOptions progress_;
  double step_seconds_ewma_ = 0.0;
  long long last_progress_step_ = -1;
};

// --- initial-condition helpers ----------------------------------------------

/// Smooth interface profile: 1 inside (d < 0), 0 outside, sinusoidal ramp
/// of width `w` (the obstacle potential's equilibrium profile).
double interface_profile(double signed_distance, double width);

}  // namespace pfc::app
