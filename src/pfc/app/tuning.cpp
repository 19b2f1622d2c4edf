#include "pfc/app/tuning.hpp"

#include <algorithm>

#include "pfc/backend/c_emitter.hpp"
#include "pfc/backend/jit.hpp"
#include "pfc/backend/kernel_cache.hpp"
#include "pfc/perf/drift.hpp"
#include "pfc/support/sha256.hpp"

namespace pfc::app {

namespace {

/// Fixed search budget (measured runs, baseline included) — part of the
/// determinism contract, so it is a constant rather than an option.
constexpr int kTuneBudget = 8;
/// Measurement geometry: the job's own cells capped per axis, stepped a
/// handful of times. Small enough that a full search costs seconds, large
/// enough that the vector/blocking knobs still move the needle.
constexpr long long kMeasureCellCap = 48;
constexpr int kMeasureSteps = 4;

/// Lowers the model to the recompute IR of its two kernels, as
/// ModelCompiler::compile does.
std::vector<ir::Kernel> lower_model(const GrandChemModel& model,
                                    const CompileOptions& copts) {
  const std::vector<fd::PdeUpdate> updates{model.phi_update(),
                                           model.mu_update()};
  std::vector<ir::Kernel> out;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    std::optional<FieldPtr> flux;
    std::vector<ir::Kernel> ks = ModelCompiler::lower(
        updates[i], ModelCompiler::discretization(model.params(), i, copts),
        copts, &flux);
    for (auto& k : ks) out.push_back(std::move(k));
  }
  return out;
}

}  // namespace

std::string tuning_cache_dir(const CompileOptions& c) {
  if (!c.cache_dir.empty()) return c.cache_dir;
  return backend::kernel_cache_config_from_env().directory;
}

std::string tuning_model_hash(const GrandChemModel& model,
                              const SimulationOptions& opts) {
  // Canonical form: full kernels emitted as scalar C — independent of every
  // knob the tuner searches, sensitive to everything that changes the
  // numerics (model, dt, dx, CSE/hoisting/fast-math, clamp).
  CompileOptions canonical = opts.compile;
  canonical.vector_width = 1;
  canonical.streaming_stores = false;
  const std::vector<ir::Kernel> kernels = lower_model(model, canonical);
  backend::CEmitOptions eo;
  eo.fast_math = canonical.fast_math;
  eo.vector_width = 1;
  std::string text;
  bool first = true;
  for (const ir::Kernel& k : kernels) {
    eo.include_preamble = first;
    first = false;
    text += backend::emit_c(k, eo);
  }
  text += "\ncells=" + std::to_string(opts.cells[0]) + "x" +
          std::to_string(opts.cells[1]) + "x" + std::to_string(opts.cells[2]);
  text += "\nthreads=" + std::to_string(opts.threads);
  return support::sha256_hex(text);
}

void apply_tune_candidate(const perf::TuneCandidate& c,
                          SimulationOptions& opts) {
  opts.compile.vector_width = c.vector_width;
  opts.compile.streaming_stores = c.streaming_stores;
  opts.dispatch = support::parse_enum<Dispatch>(c.dispatch);
  opts.blocking = support::parse_enum<BlockingMode>(c.blocking);
  opts.blocking_tile_rows =
      opts.blocking == BlockingMode::Fixed ? c.blocking_tile_rows : 0;
  opts.pin = support::parse_enum<support::PinPolicy>(c.pin);
}

perf::TuneCandidate candidate_from_options(const SimulationOptions& opts) {
  perf::TuneCandidate c;
  if (opts.compile.backend == Backend::Interpreter) {
    c.vector_width = 1;
  } else if (opts.compile.vector_width > 0) {
    c.vector_width = opts.compile.vector_width;
  } else {
    c.vector_width = backend::probe_native_vector_width();
  }
  c.streaming_stores = opts.compile.streaming_stores && c.vector_width > 1;
  c.dispatch = support::enum_name(opts.dispatch);
  c.blocking = support::enum_name(opts.blocking);
  c.blocking_tile_rows =
      opts.blocking == BlockingMode::Fixed ? opts.blocking_tile_rows : 0;
  c.pin = support::enum_name(opts.pin);
  return c;
}

obs::TuningStats autotune_apply(const GrandChemModel& model,
                                SimulationOptions& opts) {
  obs::TuningStats stats;
  if (opts.compile.tune == TuneMode::Off) return stats;
  stats.enabled = true;
  stats.mode = support::enum_name(opts.compile.tune);

  const support::Topology topo = support::Topology::detect();
  stats.machine = perf::machine_signature(topo, opts.machine);
  const std::string key =
      perf::tune_cache_key(tuning_model_hash(model, opts), stats.machine);
  stats.cache_key = key;
  const std::string dir = tuning_cache_dir(opts.compile);

  if (opts.compile.tune == TuneMode::Cached) {
    if (const auto hit = perf::load_tuned(dir, key)) {
      // Warm cache: the persisted winner applies with zero measured runs.
      stats.cache_hit = true;
      stats.best_config = hit->best.label();
      stats.best_mlups = hit->best_mlups;
      stats.baseline_mlups = hit->baseline_mlups;
      apply_tune_candidate(hit->best, opts);
      return stats;
    }
  }

  perf::TuneOptions to;
  to.budget = kTuneBudget;
  to.multi_threaded = opts.threads > 1;
  to.baseline = candidate_from_options(opts);
  // The interpreter tier is scalar; the JIT tiers emit up to the host's
  // native width.
  to.max_vector_width = opts.compile.backend == Backend::Interpreter
                            ? 1
                            : backend::probe_native_vector_width();

  // ECM prior: the kernels are lowered once and priced as their recompute
  // IR, including those that run face-once. Driver placement knobs
  // (dispatch/pin/blocking) are invisible to the analytic model, so
  // candidates differing only there tie and keep enumeration order.
  const std::vector<ir::Kernel> kernels = lower_model(model, opts.compile);
  std::vector<const ir::Kernel*> chain;
  for (const ir::Kernel& k : kernels) chain.push_back(&k);
  const int cores = std::max(1, std::min(opts.threads, opts.machine.cores));
  const perf::PriorFn prior = [&](const perf::TuneCandidate& c) {
    return perf::predicted_chain_mlups(chain, opts.cells, opts.machine,
                                       cores, c.vector_width);
  };

  // Ground truth: a short Simulation on a capped version of the job's own
  // domain, scored by the paper's MLUPS metric over kernel time. A
  // candidate that fails to build scores 0 and simply loses.
  const perf::MeasureFn measure = [&](const perf::TuneCandidate& c) {
    SimulationOptions mo = opts;
    mo.compile.tune = TuneMode::Off;
    mo.trace = {};
    mo.health = {};
    mo.resilience = {};
    for (std::size_t d = 0; d < 3; ++d) {
      mo.cells[d] = std::min(mo.cells[d], kMeasureCellCap);
    }
    apply_tune_candidate(c, mo);
    try {
      Simulation sim(model, mo);
      sim.init_phi([](long long, long long, long long, int comp) {
        return comp == 0 ? 1.0 : 0.0;
      });
      sim.init_mu([](long long, long long, long long, int) { return 0.0; });
      return sim.run(kMeasureSteps).mlups();
    } catch (const Error&) {
      return 0.0;
    }
  };

  const perf::TuneResult r = perf::tune(to, prior, measure);
  stats.candidates = r.candidates;
  stats.measured_runs = r.measured_runs;
  stats.search_seconds = r.search_seconds;
  stats.baseline_mlups = r.baseline_mlups;
  stats.best_mlups = r.best_mlups;
  stats.best_config = r.best.label();
  for (const perf::TuneMeasurement& m : r.ranking) {
    if (!m.measured) continue;
    stats.ranking.push_back(obs::TuningRankEntry{
        m.config.label(), m.predicted_mlups, m.measured_mlups});
  }
  apply_tune_candidate(r.best, opts);
  if (!dir.empty()) {
    perf::store_tuned(dir, key,
                      perf::TuneCacheEntry{r.best, r.best_mlups,
                                           r.baseline_mlups, r.measured_runs,
                                           r.search_seconds});
  }
  return stats;
}

}  // namespace pfc::app
