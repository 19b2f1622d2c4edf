// Shared pieces of the pfc benchmark: the span recorder that times calls
// into the library from outside, order statistics, the result record every
// workload fills, and the layer probes that more than one workload runs.
//
// Every number here is taken around a *public* call of a pfc module; nothing
// inside src/ is instrumented.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include <optional>

#include "pfc/app/compiler.hpp"
#include "pfc/app/simulation.hpp"
#include "pfc/app/jobspec.hpp"
#include "pfc/obs/json.hpp"
#include "pfc/resilience/checkpoint.hpp"

namespace pb {

using pfc::obs::Json;

/// Seconds on the steady clock.
double now_s();

/// splitmix64: the one generator every seeded input is drawn from.
std::uint64_t mix64(std::uint64_t x);
/// Uniform integer in [0, n) from stream `stream` of `seed`.
long long draw(std::uint64_t seed, std::uint64_t stream, long long n);

// --- spans -------------------------------------------------------------------

/// One timed call: name, start/end (steady seconds), the enclosing span and
/// the run or job it belongs to.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  long long run_id = 0;
};

/// In-memory span recorder. Disabled recorders keep nothing, so untraced
/// runs pay one branch per call site. Not thread-safe: each thread that
/// records owns its own recorder and merge() joins them at the end.
class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int begin(const std::string& name, long long run_id = 0);
  void end(int id);
  /// Records an already-measured interval as a child of the open span.
  void add(const std::string& name, double start, double end,
           long long run_id = 0);
  void merge(const Tracer& other);

  const std::vector<Span>& spans() const { return spans_; }
  /// Span duration minus the union of its direct children's intervals.
  double self_seconds(int id) const;
  Json to_json() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null or disabled tracer records nothing.
class Scope {
 public:
  Scope(Tracer* t, const std::string& name, long long run_id = 0)
      : t_(t != nullptr && t->enabled() ? t : nullptr),
        id_(t_ != nullptr ? t_->begin(name, run_id) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int id_;
};


// --- statistics ----------------------------------------------------------------

double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// A tail percentile (nearest rank) with the number of samples above it.
/// Each workload's percentile is fixed in spec.json so that every run of it
/// reports the same rank.
struct Tail {
  int percentile = 0;
  double value = 0.0;
  long long samples = 0;
  long long beyond = 0;
};
Tail tail(std::vector<double> v, int percentile);
Json tail_info(const Tail& t);

// --- result -------------------------------------------------------------------

/// What one invocation reports. `metrics` holds name -> {value, unit};
/// `info` carries the host signature and the choices behind each number;
/// `tracer` holds a traced run's spans.
struct Result {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  Json metrics = Json::object();
  Json info = Json::object();
  Tracer tracer;
  std::vector<std::string> failures;

  void metric(const std::string& name, double value, const std::string& unit);
  /// Calls `fn` `reps` times, each call a span `name`; median seconds.
  double time(const std::string& name, int reps,
              const std::function<void()>& fn);
  void fail(const std::string& why);
  /// Counts one attempted run or job; `ok` false counts it as failed.
  void attempt(bool ok, const std::string& why = "");
};

/// Command-line view shared by every workload.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spec_path;      ///< perfbench/spec.json (references, budgets)
  bool corrupt_checksum = false;  ///< test hook: verification must fail
};

/// The workload's entry in spec.json and typed reads of its members; a
/// missing or mistyped member throws.
const Json& workload_spec(const Json& spec, const std::string& name);
double num_at(const Json& obj, const std::string& key);
long long int_at(const Json& obj, const std::string& key);
std::array<long long, 3> triple_at(const Json& obj, const std::string& key);
/// The percentile spec.json fixes for `metric` (step_ms_tail) of the
/// workload entry `ws`.
int tail_percentile(const Json& ws, const std::string& metric);

// --- host ---------------------------------------------------------------------

/// nproc, cache sizes, compiler, native SIMD width, machine signature.
Json host_signature();
/// Peak resident set of this process, MiB.
double peak_rss_mb();

// --- verification helpers -------------------------------------------------------

/// Phase statistics of a φ array checked against spec.json references.
/// Appends the observed values to `observed`; returns "" when within
/// tolerance, else what was off.
std::string check_reference(const pfc::Array& phi, int liquid_phase,
                            int front_axis, const Json& reference,
                            Json* observed);
/// Health scan of φ (and µ when non-null); "" when clean.
std::string health_scan(const std::vector<const pfc::Array*>& phi,
                        const std::vector<const pfc::Array*>& mu);
std::string hex64(std::uint64_t v);

// --- layer probes ---------------------------------------------------------------

/// The front half of the pipeline timed stage by stage from outside:
/// derive (sym/continuum), lower (fd/ir), emit (backend), then the kernel
/// cache both ways. `cache_dir` must be empty on entry.
struct FrontEnd {
  pfc::app::GrandChemModel model;
  std::vector<pfc::ir::Kernel> kernels;
  std::string source;
  double derive_s = 0, lower_s = 0, emit_s = 0, jit_s = 0, cache_load_s = 0;
  bool jit_was_miss = false;
  bool load_was_hit = false;
};
FrontEnd probe_front_end(const pfc::app::GrandChemParams& params,
                         const std::string& cache_dir, Tracer* tr);
/// The FrontEnd's rows: sym.derive_s, ir.*, backend.emit_s, source_kb,
/// jit_s and cache_load_s.
void front_end_rows(const FrontEnd& fe, Result& r);

/// obs.result_json_ms: app::JobResult::to_json().dump() of a run's result.
void result_json_row(long long steps, const pfc::obs::RunReport& run,
                     const pfc::obs::CompileReport& compile, Result& r);

/// resilience.checkpoint_ms / _mb: resilience::write_checkpoint of
/// `arrays` into a scratch directory (median of three writes).
void checkpoint_rows(const std::vector<pfc::resilience::CheckpointArray>& arrays,
                     long long step, int rank, Result& r);

/// Arrays of one block with the model's fields, ghost 1.
struct BlockArrays {
  pfc::Array phi_src, phi_dst, mu_src, mu_dst;
};
BlockArrays make_block(const pfc::app::GrandChemModel& m,
                       const std::array<long long, 3>& n,
                       pfc::ThreadPool* first_touch);

/// One block of a workload's arrays and its global offset.
struct BlockRef {
  BlockArrays* arrays = nullptr;
  std::array<long long, 3> offset{0, 0, 0};
};

/// Per-kernel rows: measured sweep (ms_p50, MLUP/s) summed over `blocks` of
/// extent `n`, single-thread rate, the ECM figure for the same cells,
/// threads and width, and computed traffic per update. Also
/// support.scaling_eff. `ms` receives each kernel's median milliseconds.
void kernel_rows(const pfc::app::CompiledModel& cm,
                 const pfc::app::GrandChemModel& m,
                 const std::vector<BlockRef>& blocks,
                 const std::array<long long, 3>& n, int threads, int reps,
                 int reps_t1, Result& r, std::map<std::string, double>* ms);

/// backend.interior_ms / backend.frontier_ms: every kernel over the
/// interior box and the width-1 frontier slabs of each block.
void overlap_rows(const pfc::app::CompiledModel& cm,
                  const pfc::app::GrandChemModel& m,
                  const std::vector<BlockRef>& blocks,
                  const std::array<long long, 3>& n, int threads, Result& r,
                  double* total_ms);

/// mpi.rank_skew_ms and app.block_imbalance of a single-rank workload:
/// every kernel over the static slabs of `threads` pinned pool threads,
/// each thread timing its own slab. The pool's join is the one barrier of
/// such a step, so the skew is the fastest thread's wait for the slowest
/// and the imbalance the slowest thread's busy time over the mean.
void thread_balance_rows(const pfc::app::CompiledModel& cm,
                         const pfc::app::GrandChemModel& m, BlockArrays& b,
                         const std::array<long long, 3>& n, int threads,
                         int reps, Result& r);

/// Every layer row measurable on a stepped single-block Simulation: the
/// state moves into probe arrays (allocation timed, the simulation is
/// released first), then kernels at `threads` and at 1 thread, the slab
/// balance of the threads, overlap sub-boxes, boundary fill, health scan,
/// result JSON, checkpoint write, pool launch and the single-rank exchange.
/// `step_p50_ms` is the measured Simulation::run(1) median that
/// app.step_self_ms subtracts children from.
void single_block_layers(std::optional<pfc::app::Simulation>& sim,
                         const pfc::app::GrandChemModel& model, int threads,
                         double step_p50_ms, long long steps, Result& r);

/// Op counts of the lowered kernels, summed per lattice update.
void opcount_rows(const std::vector<pfc::ir::Kernel>& ks, Result& r);

/// Empty-body parallel_for launch cost, microseconds.
double pool_launch_us(int threads);

/// In-process JobServer probe: a few tiny jobs submitted over its Unix
/// socket, timed at the client; fills the serve.* rows.
void serve_probe(const std::string& dir, Result& r);

/// Repeated tune=full searches on the job spec of spec.json's
/// `tuner_probe` record (preset, cells, steps, threads, repeats); fills
/// the perf.* rows.
void tuner_probe(const Json& spec, const std::string& dir, Result& r);

/// Ghost exchange of both fields on a forest with the given geometry,
/// timed per rank; fills grid.exchange_* rows.
void exchange_rows(const pfc::app::GrandChemModel& m,
                   const std::array<long long, 3>& cells,
                   const std::array<int, 3>& blocks, int ranks, int reps,
                   Result& r);

/// What one job of a compute workload saw: its set-up, its wall (set-up,
/// job_steps steps and the result), each step, the φ:µ checksums and the
/// statistics at check_step, and why it failed ("" when every check passed).
struct JobRun {
  std::string why;
  double setup = 0.0, wall = 0.0, init_s = 0.0;
  std::vector<double> step_s;
  std::string check;
  Json observed = Json::object();
};

/// The untraced schedule of a compute workload and its end-to-end rows.
/// `job(true)` runs one job from an empty kernel cache up to check_step,
/// `job(false)` a whole job that finds its kernels on disk. The run starts
/// with `cold_jobs` cold jobs (spec.json), whose set-ups give setup_s, then
/// runs warm jobs until at least `min_warm_jobs` ran and --seconds of their
/// steps were measured; the warm walls give solve_s and their steps the
/// step metrics. Every job must reproduce the first job's check_step
/// checksums.
void compute_runs(const Args& a, const Json& ws, long long cells,
                  const std::function<JobRun(bool cold)>& job, Result& r);

// --- workloads ----------------------------------------------------------------

Result run_eutectic(const Args& a, const Json& spec);
Result run_dendrite(const Args& a, const Json& spec);

/// The generated inputs of one workload and seed, for the determinism test.
Json describe_eutectic(const Json& spec, std::uint64_t seed);
Json describe_dendrite(const Json& spec, std::uint64_t seed);

}  // namespace pb
