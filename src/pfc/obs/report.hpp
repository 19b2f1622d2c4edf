// The reporting API: drivers return a RunReport from run(), the compiler
// exposes a CompileReport, and both (plus the bench harness) emit one JSON
// schema, pfc-obs-report-v7:
//
//   {
//     "schema":   "pfc-obs-report-v7",
//     "kind":     "run" | "compile" | "bench",
//     "name":     "<producer>",
//     "timers":   { "<path>": {"seconds": s, "count": n}, ... },
//     "counters": { "<path>": n, ... },
//     "derived":  { "<stat>": x, ... },
//     ...sections below
//   }
//
// Run reports carry:
//
//     "model_accuracy": { "<target>": {"predicted_seconds": p,
//                                      "measured_seconds": m,
//                                      "ratio": m/p}, ... } — <target> is
//                       "kernel/<ir name>" (ECM prediction, paper Fig. 2)
//                       or "exchange" (network model, Table 2); omitted
//                       before the first step.
//     "health":         HealthStats + "policy".
//     "resilience":     ResilienceStats — checkpoints captured/
//                       written, rollbacks, dt shrinks, injected faults,
//                       restart provenance.
//     "threading":      ThreadingStats — pool width, pin policy,
//                       dispatch mode, first-touch placement, the topology
//                       the process saw (cpus/cores/packages/numa_nodes
//                       after the affinity mask) and the temporal-blocking
//                       decision (enabled, tile rows, lookahead, fused
//                       stage/substep counts, sizing rationale, modeled
//                       bytes-per-update with and without fusion).
//     "overlap":        OverlapStats — only when the step ran
//                       with OverlapMode::InteriorFrontier: pack/wait/
//                       interior/frontier seconds, interior/frontier cell
//                       counts and the netmodel-derived hidden-seconds /
//                       hidden-fraction.
//     "tuning":         TuningStats — only when the driver ran
//                       with tune != off: mode (cached/full), tuning-cache
//                       key + hit/miss, machine signature, candidates
//                       enumerated vs. measured, search seconds, the
//                       winning configuration and the prior-vs-measured
//                       ranking of every measured candidate.
//
// Compile reports carry "backend_tier" / "fallback_reason" — which rung of
// the JIT fallback chain (vector → scalar → interpreter) actually runs —
// and, when the JIT consulted the kernel cache, "cache": {"hit", "key",
// "hits", "misses", "evictions", "bytes"} (whether *this* compile was
// served from the cache, its SHA-256 content address, and the
// process-wide cache counters after the request). A run report may embed
// the compile report of its kernels under "compile" (quickstart does).
// Bench reports carry the six core sections only, with free-form paths.
//
// report.cpp declares each report and section once, as a field list
// (json_fields.hpp) that to_json and the strict from_json both walk; it
// holds the range checks and cross-field rules too. tools/report_check
// validates a report by decode -> re-emit -> equality with its input.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "pfc/obs/health.hpp"
#include "pfc/support/enum_names.hpp"
#include "pfc/support/topology.hpp"

namespace pfc::obs {

inline constexpr const char* kReportSchema = "pfc-obs-report-v7";

/// The "kind" of a report.
enum class ReportKind { Run, Compile, Bench };
constexpr support::EnumNames<ReportKind, 3> enum_names(ReportKind) {
  return {"report kind", {{ReportKind::Run, "run"},
                          {ReportKind::Compile, "compile"},
                          {ReportKind::Bench, "bench"}}};
}

/// numerator/denominator with division-by-zero (and non-finite) guarded to
/// 0. All derived throughput stats (MLUP/s, bytes/s, imbalance) route
/// through here so `run(0)` and empty timers are handled consistently.
double safe_rate(double numerator, double denominator);

/// Accumulated wall-clock of one timed quantity.
struct TimerStat {
  double seconds = 0.0;
  std::uint64_t count = 0;  ///< number of timed intervals

  void add(double s) {
    seconds += s;
    ++count;
  }
};

/// Model-vs-measured drift of one prediction target: how long the
/// performance model said a component should have taken over the whole run
/// vs. what the timers measured (the paper's Fig. 2 validation, tracked on
/// every run instead of only in benches).
struct ModelAccuracy {
  double predicted_seconds = 0.0;
  double measured_seconds = 0.0;
  /// measured/predicted, safe_rate-guarded (1.0 = model exact, > 1 = slower
  /// than predicted, 0 = no prediction available).
  double ratio = 0.0;
};

/// Resilience accounting of one run (the "resilience" report section):
/// how often the run checkpointed, rolled back, shrank dt or absorbed an
/// injected fault, and whether it was restored from disk. All-zero when the
/// resilience layer never acted.
struct ResilienceStats {
  std::uint64_t checkpoints = 0;       ///< in-memory snapshot captures
  std::uint64_t checkpoint_files = 0;  ///< on-disk manifests written
  long long last_checkpoint_step = 0;
  std::uint64_t rollbacks = 0;         ///< health-driven recoveries
  std::uint64_t dt_shrinks = 0;
  std::uint64_t faults_injected = 0;   ///< FaultPlan activations
  bool restarted = false;              ///< restored from disk at startup
  long long restart_step = 0;          ///< step the restore resumed at
  double dt_current = 0.0;             ///< dt after any shrinks
};

/// Communication-hiding accounting of one run (the "overlap" report
/// section): phase timings of the split step and the
/// netmodel-derived hidden-communication estimate. All-zero with
/// enabled == false when the driver ran the synchronous exchange.
struct OverlapStats {
  bool enabled = false;
  double pack_seconds = 0.0;      ///< begin(): pack + post (exposed)
  double wait_seconds = 0.0;      ///< finish(): wait + unpack + later axes
  double interior_seconds = 0.0;  ///< interior compute (hides the wait)
  double frontier_seconds = 0.0;  ///< frontier-shell compute (exposed)
  long long interior_cells = 0;   ///< per-step local interior cells
  long long frontier_cells = 0;   ///< per-step local frontier-shell cells
  /// Communication time the netmodel says was hidden behind interior
  /// compute: min(interior_seconds, predicted comm seconds).
  double hidden_seconds = 0.0;
  /// hidden_seconds / predicted comm seconds, clamped to [0, 1].
  double hidden_fraction = 0.0;
};

/// Execution-resources accounting of one run (the "threading" section):
/// pool geometry, worker placement policy and the temporal-blocking
/// decision. Always serialized, so consumers can read how a run used the
/// node even for single-threaded runs (the all-default shape).
struct ThreadingStats {
  int threads = 1;
  std::string pin_policy = support::enum_name(support::PinPolicy::None);
  std::string dispatch = support::enum_name(support::Dispatch::Static);
  bool first_touch = false;         ///< arrays placed by the pinned pool
  /// Topology as visible to the process (after the affinity mask).
  int cpus = 0;
  int cores = 0;
  int packages = 0;
  int numa_nodes = 0;
  /// Temporal-blocking (wavefront) decision.
  bool blocking_enabled = false;
  long long blocking_tile_rows = 0;
  long long blocking_lookahead = 0;
  int fused_stages = 0;          ///< kernels in the fused chain (0 = unfused)
  long long fused_substeps = 0;  ///< substeps that actually ran fused
  std::string blocking_reason;   ///< sizing rationale / why disabled
  /// Modeled memory traffic per cell update over the chain (bytes).
  double bytes_per_update_unfused = 0.0;
  double bytes_per_update_fused = 0.0;
};

/// One row of the autotuner's prior-vs-measured ranking: a candidate
/// configuration with the ECM-model prediction that ordered it and the
/// short-run measurement that judged it.
struct TuningRankEntry {
  std::string config;            ///< canonical candidate label
  double predicted_mlups = 0.0;  ///< ECM/layer-condition prior
  double measured_mlups = 0.0;   ///< short measured run (ground truth)
};

/// Autotuning policy of a run (perf::autotune + app/tuning.hpp):
///   Off    — use the options exactly as given (the seed behaviour).
///   Cached — apply the persisted per-(model, machine) winner when the
///            tuning cache has one; run a full measured search (and persist
///            it) only on a miss.
///   Full   — always run the measured search and persist the winner.
enum class TuneMode { Off, Cached, Full };
constexpr support::EnumNames<TuneMode, 3> enum_names(TuneMode) {
  return {"tune mode", {{TuneMode::Off, "off"},
                        {TuneMode::Cached, "cached"},
                        {TuneMode::Full, "full"}}};
}

/// Measured-autotuning decision of one run (the "tuning" section):
/// whether the winning configuration came from the per-machine tuning cache
/// or a fresh measured search, what the search cost, and how the analytic
/// prior ranked against reality. enabled == false (tune = off, the default)
/// omits the section.
struct TuningStats {
  bool enabled = false;
  std::string mode;            ///< a TuneMode spelling other than "off"
  bool cache_hit = false;      ///< winner came from the persisted cache
  std::string cache_key;       ///< SHA-256 over (model hash, machine sig)
  std::string machine;         ///< machine signature the key embeds
  int candidates = 0;          ///< configurations enumerated
  int measured_runs = 0;       ///< short runs executed (0 on a cache hit)
  double search_seconds = 0.0; ///< wall time of the measured search
  double baseline_mlups = 0.0; ///< the spec's own configuration, measured
  double best_mlups = 0.0;     ///< the winner, measured
  std::string best_config;     ///< canonical label of the winner
  std::vector<TuningRankEntry> ranking;  ///< measured candidates, search order

  /// The "tuning" section (also the serve daemon's "tuned" event).
  Json to_json() const;
};

/// The rungs of ModelCompiler's degradation chain, in the order a JIT
/// request tries them: vector (JIT at the resolved SIMD width, only when
/// it is above 1), scalar (JIT at width 1), then the IR interpreter, which
/// cannot fail.
enum class BackendTier { Vector, Scalar, Interpreter };
constexpr support::EnumNames<BackendTier, 3> enum_names(BackendTier) {
  return {"backend tier", {{BackendTier::Vector, "vector"},
                           {BackendTier::Scalar, "scalar"},
                           {BackendTier::Interpreter, "interpreter"}}};
}

/// Per-stage timings and op counts of one ModelCompiler::compile() (paper
/// Table 1 / "generation vs compile time" discussion).
struct CompileReport {
  std::string name = "compile";
  /// Pipeline stages: "discretize", "ir_build" (CSE, hoisting and
  /// reciprocal folding), "schedule", "emit", "jit" (external compiler).
  std::map<std::string, TimerStat> stage_timers;
  /// Normalized per-cell FLOPs summed over kernels, before (raw stencil
  /// RHS) and after (optimized IR body) CSE/hoisting.
  long long ops_per_cell_pre = 0;
  long long ops_per_cell_post = 0;
  /// SIMD width (doubles per lane vector) the C backend emitted with; 1 for
  /// scalar code and the interpreter backend.
  int vector_width = 1;
  /// Per-cell FLOPs of the code the tier runs (a face-once kernel's
  /// passes in place of its recompute body) after widening: packable ops
  /// amortize over the vector width, lane-serial calls (libm
  /// transcendentals) do not.
  double ops_per_cell_widened = 0.0;
  std::vector<std::string> kernel_names;  ///< IR names, execution order
  /// The BackendTier that actually executes, spelled by its table.
  std::string backend_tier = support::enum_name(BackendTier::Interpreter);
  /// First failure that forced a downgrade (empty when the requested
  /// backend compiled cleanly).
  std::string fallback_reason;
  /// External-compiler invocations that failed before the surviving tier.
  int fallback_attempts = 0;
  /// Kernel-cache provenance ("cache" section). cache_used is false
  /// when no cache was configured; the section is emitted only when true.
  bool cache_used = false;
  bool cache_hit = false;        ///< this compile was served from the cache
  std::string cache_key;         ///< SHA-256 content address (64 hex chars)
  std::uint64_t cache_hits = 0;  ///< process-wide counters after this call
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_bytes = 0;  ///< resident cached shared-object bytes

  void add_stage(const std::string& stage, double seconds);
  /// Symbolic-pipeline time: every stage except the external compiler.
  double generation_seconds() const;
  /// External ("jit") compiler time; 0.0 for the interpreter backend.
  double compile_seconds() const;

  Json to_json() const;
  /// Strict decode of a compile report; throws pfc::Error
  /// "report: <path>: <msg>".
  static CompileReport from_json(const Json& j);
};

/// Cumulative signals of one rank's part of a simulation run. Returned by
/// Simulation::run(); totals cover the simulation's whole lifetime, not
/// just the last run() call.
struct RunReport {
  std::string name = "run";
  /// Steps this driver executed, re-run steps after a rollback included:
  /// the work cell_updates counts. Simulation::step_count() is the
  /// position; resilience.restart_step says where a restarted run resumed.
  long long steps = 0;
  long long cells_per_step = 0;     ///< interior cells of one lattice update
  std::uint64_t cell_updates = 0;   ///< Heun's two substeps count as one
  /// By kernel IR name; one interval per block, kernel and step.
  std::map<std::string, TimerStat> kernel_timers;
  double kernel_seconds_total = 0.0;
  double exchange_seconds = 0.0;    ///< exposed ghost-exchange time
  std::uint64_t exchange_bytes = 0; ///< bytes sent to remote ranks, total
  int num_blocks = 1;
  /// max/mean of per-block kernel seconds (1.0 = perfectly balanced; 0 if
  /// nothing ran yet).
  double block_imbalance = 0.0;

  /// Model-vs-measured drift by target ("kernel/<name>", "exchange");
  /// filled by the drivers via perf::fill_model_accuracy. Empty when no
  /// kernel ran yet.
  std::map<std::string, ModelAccuracy> model_accuracy;
  /// In-situ health findings (all-zero when monitoring is disabled).
  HealthStats health;
  /// Policy the run's health monitor applied (serialized with health).
  HealthPolicy health_policy = HealthPolicy::Warn;
  /// Checkpoint/rollback/restart accounting ("resilience" section).
  ResilienceStats resilience;
  /// Communication-hiding accounting ("overlap" section; serialized
  /// only when enabled).
  OverlapStats overlap;
  /// Execution-resources accounting ("threading" section).
  ThreadingStats threading;
  /// Measured-autotuning decision ("tuning" section; serialized only
  /// when enabled).
  TuningStats tuning;
  /// The compile report of the kernels that ran, when the producer embeds
  /// it ("compile" section; quickstart does).
  std::optional<CompileReport> compile;
  /// Worst measured/predicted ratio distance from 1.0 across all targets
  /// with a prediction (0.0 when model_accuracy is empty).
  double worst_model_drift() const;

  /// Million lattice-cell updates per second over kernel time only — the
  /// paper's MLUP/s metric. Guarded: 0.0 before any step ran.
  double mlups() const;
  /// Seconds accumulated by one kernel (0.0 if it never ran).
  double kernel_seconds(const std::string& kernel_name) const;
  /// Exchange bandwidth in bytes/s (0.0 when no block has a remote neighbour).
  double exchange_bytes_per_second() const;

  Json to_json() const;
  /// Strict decode of a run report; throws pfc::Error
  /// "report: <path>: <msg>".
  static RunReport from_json(const Json& j);
};

/// A bench harness's report: the six core sections, free-form paths.
struct BenchReport {
  std::string name = "bench";
  std::map<std::string, TimerStat> timers;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> derived;

  Json to_json() const;
  static BenchReport from_json(const Json& j);
};

const FieldList<CompileReport>& json_fields(JsonTag<CompileReport>);
const FieldList<RunReport>& json_fields(JsonTag<RunReport>);
const FieldList<BenchReport>& json_fields(JsonTag<BenchReport>);

/// Writes `j` to `path` with a trailing newline; throws pfc::Error on I/O
/// failure.
void write_json(const std::string& path, const Json& j);

/// Writes raw text to `path`; throws pfc::Error on I/O failure. (The trace
/// exporter uses this for compact one-line JSON dumps.)
void write_text(const std::string& path, const std::string& text);

}  // namespace pfc::obs
