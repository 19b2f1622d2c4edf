#include "pfc/obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "pfc/obs/json_fields.hpp"
#include "pfc/support/assert.hpp"

namespace pfc::obs {

double safe_rate(double numerator, double denominator) {
  if (!(denominator > 0.0) || !std::isfinite(denominator) ||
      !std::isfinite(numerator)) {
    return 0.0;
  }
  return numerator / denominator;
}

double RunReport::mlups() const {
  return safe_rate(double(cell_updates), kernel_seconds_total) / 1e6;
}

double RunReport::kernel_seconds(const std::string& kernel_name) const {
  const auto it = kernel_timers.find(kernel_name);
  return it == kernel_timers.end() ? 0.0 : it->second.seconds;
}

double RunReport::exchange_bytes_per_second() const {
  return safe_rate(double(exchange_bytes), exchange_seconds);
}

double RunReport::worst_model_drift() const {
  double worst = 0.0;
  for (const auto& [target, a] : model_accuracy) {
    if (a.predicted_seconds <= 0.0) continue;
    worst = std::max(worst, std::abs(a.ratio - 1.0));
  }
  return worst;
}

void CompileReport::add_stage(const std::string& stage, double seconds) {
  stage_timers[stage].add(seconds);
}

double CompileReport::generation_seconds() const {
  double s = 0.0;
  for (const auto& [stage, t] : stage_timers) {
    if (stage != "jit") s += t.seconds;
  }
  return s;
}

double CompileReport::compile_seconds() const {
  const auto it = stage_timers.find("jit");
  return it == stage_timers.end() ? 0.0 : it->second.seconds;
}

// --- field lists ---------------------------------------------------------------

namespace {

/// A report is what the program wrote: every key it always writes must be
/// present, and every number in it is >= 0.
const JsonFormat kReportFormat{"report", /*complete=*/true,
                               /*nonnegative=*/true};

const std::string kStage = "stage/";
const std::string kKernel = "kernel/";
const std::string kExchange = "exchange";

/// A report's "timers", written from the map `all` builds; `take` files
/// each entry back into S, or says why it cannot. Read after the
/// counters.
template <typename S>
JsonField<S> timer_map(std::map<std::string, TimerStat> (*all)(const S&),
                       std::string (*take)(const std::string&,
                                           const TimerStat&, S&)) {
  JsonField<S> f;
  f.key = "timers";
  f.write = [all](const S& s) -> std::optional<Json> {
    return encode(all(s));
  };
  f.read = [take](const Json& j, S& s, const JsonPath& path) {
    std::map<std::string, TimerStat> timers;
    decode(j, timers, path);
    for (const auto& [k, t] : timers) {
      if (const std::string msg = take(k, t, s); !msg.empty()) {
        path.key(k).fail(msg);
      }
    }
  };
  f.deferred = true;
  return f;
}

}  // namespace

const FieldList<TimerStat>& json_fields(JsonTag<TimerStat>) {
  using S = TimerStat;
  static const FieldList<S> f = {field("seconds", &S::seconds),
                                 field("count", &S::count)};
  return f;
}

const FieldList<ModelAccuracy>& json_fields(JsonTag<ModelAccuracy>) {
  using S = ModelAccuracy;
  static const FieldList<S> f = {
      field("predicted_seconds", &S::predicted_seconds),
      field("measured_seconds", &S::measured_seconds),
      field("ratio", &S::ratio)};
  return f;
}

const FieldList<ResilienceStats>& json_fields(JsonTag<ResilienceStats>) {
  using S = ResilienceStats;
  static const FieldList<S> f = {
      field("checkpoints", &S::checkpoints),
      field("checkpoint_files", &S::checkpoint_files),
      field("last_checkpoint_step", &S::last_checkpoint_step),
      field("rollbacks", &S::rollbacks),
      field("dt_shrinks", &S::dt_shrinks),
      field("faults_injected", &S::faults_injected),
      field("restarted", &S::restarted),
      field("restart_step", &S::restart_step),
      field("dt_current", &S::dt_current)};
  return f;
}

const FieldList<OverlapStats>& json_fields(JsonTag<OverlapStats>) {
  using S = OverlapStats;
  static const FieldList<S> f = {
      field("enabled", &S::enabled),
      field("pack_seconds", &S::pack_seconds),
      field("wait_seconds", &S::wait_seconds),
      field("interior_seconds", &S::interior_seconds),
      field("frontier_seconds", &S::frontier_seconds),
      field("interior_cells", &S::interior_cells),
      field("frontier_cells", &S::frontier_cells),
      field("hidden_seconds", &S::hidden_seconds),
      field("hidden_fraction", &S::hidden_fraction, between(0, 1))};
  return f;
}

const FieldList<ThreadingStats>& json_fields(JsonTag<ThreadingStats>) {
  using S = ThreadingStats;
  static const FieldList<S> f = {
      field("threads", &S::threads),
      field("pin_policy", &S::pin_policy, spelled<support::PinPolicy>()),
      field("dispatch", &S::dispatch, spelled<support::Dispatch>()),
      field("first_touch", &S::first_touch),
      field("cpus", &S::cpus),
      field("cores", &S::cores),
      field("packages", &S::packages),
      field("numa_nodes", &S::numa_nodes),
      group<S>("blocking",
               {field("enabled", &S::blocking_enabled),
                field("tile_rows", &S::blocking_tile_rows),
                field("lookahead", &S::blocking_lookahead),
                field("fused_stages", &S::fused_stages),
                field("fused_substeps", &S::fused_substeps),
                field("reason", &S::blocking_reason),
                field("bytes_per_update_unfused",
                      &S::bytes_per_update_unfused),
                field("bytes_per_update_fused", &S::bytes_per_update_fused),
                rule(+[](const S& s) {
                  return s.blocking_enabled && s.blocking_tile_rows < 1
                             ? std::string("an enabled plan needs a tile "
                                           "of >= 1 rows")
                             : std::string();
                })})};
  return f;
}

const FieldList<TuningRankEntry>& json_fields(JsonTag<TuningRankEntry>) {
  using S = TuningRankEntry;
  static const FieldList<S> f = {
      field("config", &S::config, non_empty()),
      field("predicted_mlups", &S::predicted_mlups),
      field("measured_mlups", &S::measured_mlups)};
  return f;
}

const FieldList<TuningStats>& json_fields(JsonTag<TuningStats>) {
  using S = TuningStats;
  static const FieldList<S> f = {
      field("enabled", &S::enabled),
      field("mode", &S::mode,
            [](const Json& v) {
              return support::find_enum<TuneMode>(v.str()).value_or(
                         TuneMode::Off) == TuneMode::Off
                         ? std::string("must be a tune mode other than ") +
                               support::enum_name(TuneMode::Off)
                         : std::string();
            }),
      field("cache_hit", &S::cache_hit),
      field("cache_key", &S::cache_key, hex_digits(64)),
      field("machine", &S::machine, non_empty()),
      field("candidates", &S::candidates),
      field("measured_runs", &S::measured_runs),
      field("search_seconds", &S::search_seconds),
      field("baseline_mlups", &S::baseline_mlups),
      field("best_mlups", &S::best_mlups),
      field("best_config", &S::best_config, non_empty()),
      field("ranking", &S::ranking),
      // The search contract: a cache hit measures nothing, a fresh search
      // measures at least the baseline, and the baseline is measured first
      // and keeps ties, so the winner is never slower than it.
      rule(+[](const S& s) -> std::string {
        if (!s.enabled) return "";
        if (s.cache_hit && s.measured_runs != 0) {
          return "a cache hit must report 0 measured runs";
        }
        if (!s.cache_hit && s.measured_runs < 1) {
          return "a fresh search must report >= 1 measured runs";
        }
        if (s.best_mlups < s.baseline_mlups) {
          return "the winner measured below the baseline";
        }
        return "";
      })};
  return f;
}

const FieldList<CompileReport>& json_fields(JsonTag<CompileReport>) {
  using S = CompileReport;
  static const FieldList<S> f = {
      constant<S>("schema", kReportSchema),
      constant<S>("kind", support::enum_name(ReportKind::Compile)),
      field("name", &S::name, non_empty()),
      timer_map<S>(
          +[](const S& s) {
            std::map<std::string, TimerStat> all;
            for (const auto& [k, t] : s.stage_timers) all[kStage + k] = t;
            return all;
          },
          +[](const std::string& k, const TimerStat& t, S& s) {
            if (k.rfind(kStage, 0) != 0) return std::string("unknown key");
            s.stage_timers[k.substr(kStage.size())] = t;
            return std::string();
          }),
      group<S>("counters",
               {computed("num_kernels", +[](const S& s) {
                  return std::uint64_t(s.kernel_names.size());
                }),
                field("ops_per_cell_post", &S::ops_per_cell_post),
                field("ops_per_cell_pre", &S::ops_per_cell_pre),
                field("vector_width", &S::vector_width,
                      one_of({1, 2, 4, 8}))}),
      group<S>("derived",
               {computed("compile_seconds",
                         +[](const S& s) { return s.compile_seconds(); }),
                computed("generation_seconds",
                         +[](const S& s) { return s.generation_seconds(); }),
                field("ops_per_cell_widened", &S::ops_per_cell_widened)}),
      field("kernels", &S::kernel_names),
      field("backend_tier", &S::backend_tier, spelled<BackendTier>()),
      field("fallback_reason", &S::fallback_reason),
      field("fallback_attempts", &S::fallback_attempts),
      group<S>("cache",
               {field("hit", &S::cache_hit),
                field("key", &S::cache_key, hex_digits(64)),
                field("hits", &S::cache_hits),
                field("misses", &S::cache_misses),
                field("evictions", &S::cache_evictions),
                field("bytes", &S::cache_bytes),
                // a hit implies the process saw at least one acquire of
                // this key
                rule(+[](const S& s) {
                  return s.cache_used && s.cache_hit && s.cache_hits < 1
                             ? std::string("a hit needs hits >= 1")
                             : std::string();
                })},
               &S::cache_used)};
  return f;
}

const FieldList<RunReport>& json_fields(JsonTag<RunReport>) {
  using S = RunReport;
  static const FieldList<S> f = {
      constant<S>("schema", kReportSchema),
      constant<S>("kind", support::enum_name(ReportKind::Run)),
      field("name", &S::name, non_empty()),
      // the exchange timer counts one interval per step
      timer_map<S>(
          +[](const S& s) {
            std::map<std::string, TimerStat> all;
            for (const auto& [k, t] : s.kernel_timers) all[kKernel + k] = t;
            if (s.exchange_seconds > 0.0) {
              all[kExchange] = {s.exchange_seconds, std::uint64_t(s.steps)};
            }
            return all;
          },
          +[](const std::string& k, const TimerStat& t, S& s) {
            if (k.rfind(kKernel, 0) == 0) {
              s.kernel_timers[k.substr(kKernel.size())] = t;
            } else if (k != kExchange) {
              return std::string("unknown key");
            } else if (t.seconds > 0.0 && t.count == std::uint64_t(s.steps)) {
              s.exchange_seconds = t.seconds;
            } else {
              return "is written only for a positive time over one interval "
                     "per step (" + std::to_string(s.steps) + ")";
            }
            return std::string();
          }),
      group<S>("counters",
               {field("cell_updates", &S::cell_updates),
                field("exchange_bytes", &S::exchange_bytes),
                field("steps", &S::steps)}),
      group<S>("derived",
               {field("block_imbalance", &S::block_imbalance),
                field("cells_per_step", &S::cells_per_step),
                computed("exchange_bytes_per_second", +[](const S& s) {
                  return s.exchange_bytes_per_second();
                }),
                field("kernel_seconds_total", &S::kernel_seconds_total),
                computed("mlups", +[](const S& s) { return s.mlups(); }),
                field("num_blocks", &S::num_blocks),
                computed("worst_model_drift", +[](const S& s) {
                  return s.worst_model_drift();
                })}),
      field_if("model_accuracy", &S::model_accuracy,
               +[](const S& s) { return !s.model_accuracy.empty(); },
               "a kernel ran"),
      group<S>("health",
               [] {
                 FieldList<S> h = lift(&S::health, fields_of<HealthStats>());
                 h.push_back(field("policy", &S::health_policy));
                 return h;
               }()),
      field("resilience", &S::resilience),
      field_if("overlap", &S::overlap,
               +[](const S& s) { return s.overlap.enabled; },
               "overlap is enabled"),
      field("threading", &S::threading),
      field_if("tuning", &S::tuning,
               +[](const S& s) { return s.tuning.enabled; },
               "tuning is enabled"),
      field("compile", &S::compile),
      rule(+[](const S& s) {
        return std::uint64_t(s.steps * s.cells_per_step) != s.cell_updates
                   ? std::to_string(s.cell_updates) +
                         " cell updates are not steps x cells per step (" +
                         std::to_string(s.steps) + " x " +
                         std::to_string(s.cells_per_step) + ")"
                   : std::string();
      }),
      rule(+[](const S& s) {
        const long long cells =
            s.overlap.interior_cells + s.overlap.frontier_cells;
        return s.overlap.enabled && s.cells_per_step > 0 &&
                       cells != s.cells_per_step
                   ? "interior and frontier cells (" + std::to_string(cells) +
                         ") do not tile the " +
                         std::to_string(s.cells_per_step) +
                         " cells of a step"
                   : std::string();
      })};
  return f;
}

const FieldList<BenchReport>& json_fields(JsonTag<BenchReport>) {
  using S = BenchReport;
  static const FieldList<S> f = {
      constant<S>("schema", kReportSchema),
      constant<S>("kind", support::enum_name(ReportKind::Bench)),
      field("name", &S::name, non_empty()),
      field("timers", &S::timers),
      field("counters", &S::counters),
      field("derived", &S::derived)};
  return f;
}

Json TuningStats::to_json() const { return obs::to_json(*this); }
Json RunReport::to_json() const { return obs::to_json(*this); }
RunReport RunReport::from_json(const Json& j) {
  return obs::from_json<RunReport>(j, kReportFormat);
}
Json CompileReport::to_json() const { return obs::to_json(*this); }
CompileReport CompileReport::from_json(const Json& j) {
  return obs::from_json<CompileReport>(j, kReportFormat);
}
Json BenchReport::to_json() const { return obs::to_json(*this); }
BenchReport BenchReport::from_json(const Json& j) {
  return obs::from_json<BenchReport>(j, kReportFormat);
}


void write_json(const std::string& path, const Json& j) {
  write_text(path, j.dump(2) + "\n");
}

void write_text(const std::string& path, const std::string& text) {
  // Atomic publish: a reader either sees the previous complete file or the
  // new complete file, never a torn write (rename(2) is atomic within a
  // filesystem, and the tmp file lives next to its target).
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  PFC_REQUIRE(f != nullptr, "obs::write_text: cannot open " + tmp);
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != text.size() || !flushed) {
    std::remove(tmp.c_str());
    throw Error("obs::write_text: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("obs::write_text: cannot rename " + tmp + " to " + path);
  }
}

}  // namespace pfc::obs
