#include "pfc/perf/autotune.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "pfc/obs/json_fields.hpp"
#include "pfc/obs/report.hpp"
#include "pfc/support/assert.hpp"
#include "pfc/support/sha256.hpp"
#include "pfc/support/timer.hpp"

namespace fs = std::filesystem;

namespace pfc::perf {

using Json = obs::Json;

namespace {

/// One cache file: the entry under its content address.
struct TuneFile {
  std::string key;
  TuneCacheEntry entry;
};

const obs::FieldList<TuneFile>& json_fields(obs::JsonTag<TuneFile>) {
  using S = TuneFile;
  static const obs::FieldList<S> f = [] {
    obs::FieldList<S> l = {obs::constant<S>("schema", kTuneCacheSchema),
                           obs::field("key", &S::key)};
    for (auto& e : obs::lift(&S::entry, obs::fields_of<TuneCacheEntry>())) {
      l.push_back(std::move(e));
    }
    return l;
  }();
  return f;
}

/// Every key of an entry is required; a decode error is a stale entry.
const obs::JsonFormat kTuneFormat{"tune-cache", /*complete=*/true};

}  // namespace

std::string TuneCandidate::label() const {
  std::ostringstream s;
  s << "w=" << vector_width << " nt=" << (streaming_stores ? 1 : 0)
    << " dispatch=" << dispatch
    << " blocking=" << blocking << " tile=" << blocking_tile_rows
    << " pin=" << pin;
  return s.str();
}

const obs::FieldList<TuneCandidate>& json_fields(
    obs::JsonTag<TuneCandidate>) {
  using S = TuneCandidate;
  using obs::field;
  static const obs::FieldList<S> f = {
      field("vector_width", &S::vector_width, obs::one_of({1, 2, 4, 8})),
      field("streaming_stores", &S::streaming_stores),
      field("dispatch", &S::dispatch, obs::spelled<support::Dispatch>()),
      field("blocking", &S::blocking, obs::spelled<support::BlockingMode>()),
      field("blocking_tile_rows", &S::blocking_tile_rows, obs::at_least(0)),
      field("pin", &S::pin, obs::spelled<support::PinPolicy>())};
  return f;
}

const obs::FieldList<TuneCacheEntry>& json_fields(
    obs::JsonTag<TuneCacheEntry>) {
  using S = TuneCacheEntry;
  using obs::field;
  static const obs::FieldList<S> f = {
      field("best", &S::best),
      field("best_mlups", &S::best_mlups),
      field("baseline_mlups", &S::baseline_mlups),
      field("measured_runs", &S::measured_runs),
      field("search_seconds", &S::search_seconds)};
  return f;
}

std::vector<TuneCandidate> enumerate_candidates(const TuneOptions& o) {
  // Fixed nested loops, innermost varying fastest — the order (and thereby
  // every prior tie-break) is a pure function of TuneOptions.
  const std::vector<int> widths = [&] {
    std::vector<int> ws;
    for (int w = 1; w <= o.max_vector_width; w *= 2) ws.push_back(w);
    return ws;
  }();
  using support::BlockingMode;
  using support::Dispatch;
  using support::PinPolicy;
  const std::vector<Dispatch> dispatches =
      o.multi_threaded ? std::vector{Dispatch::Static, Dispatch::Dynamic}
                       : std::vector{Dispatch::Static};
  const std::vector<PinPolicy> pins =
      o.multi_threaded
          ? std::vector{PinPolicy::None, PinPolicy::Compact, PinPolicy::Scatter}
          : std::vector{PinPolicy::None};
  // One fixed tile height: the Auto mode already sizes tiles from the
  // blocking model, Fixed probes whether a small constant beats it.
  constexpr long long kFixedTileRows = 16;

  std::vector<TuneCandidate> out;
  for (const int w : widths) {
    for (const bool nt : {false, true}) {
      if (nt && w == 1) continue;  // scalar loops ignore streaming stores
      for (const BlockingMode blocking :
           {BlockingMode::Off, BlockingMode::Auto, BlockingMode::Fixed}) {
        for (const Dispatch dispatch : dispatches) {
          for (const PinPolicy pin : pins) {
            TuneCandidate c;
            c.vector_width = w;
            c.streaming_stores = nt;
            c.dispatch = support::enum_name(dispatch);
            c.blocking = support::enum_name(blocking);
            c.blocking_tile_rows =
                blocking == BlockingMode::Fixed ? kFixedTileRows : 0;
            c.pin = support::enum_name(pin);
            out.push_back(std::move(c));
          }
        }
      }
    }
  }
  return out;
}

TuneResult tune(const TuneOptions& o, const PriorFn& prior,
                const MeasureFn& measure) {
  PFC_REQUIRE(o.budget >= 1, "autotune: budget must be >= 1");
  Timer wall;

  std::vector<TuneCandidate> cands = enumerate_candidates(o);
  // The baseline is always position 0: measured first, wins exact ties.
  std::vector<TuneMeasurement> order;
  order.reserve(cands.size() + 1);
  order.push_back(TuneMeasurement{o.baseline, prior(o.baseline), 0.0, false});
  std::vector<TuneMeasurement> rest;
  rest.reserve(cands.size());
  for (const TuneCandidate& c : cands) {
    if (c == o.baseline) continue;
    rest.push_back(TuneMeasurement{c, prior(c), 0.0, false});
  }
  // stable_sort keeps enumeration order within equal priors — the only
  // tie-break, so the search order is reproducible run to run.
  std::stable_sort(rest.begin(), rest.end(),
                   [](const TuneMeasurement& a, const TuneMeasurement& b) {
                     return a.predicted_mlups > b.predicted_mlups;
                   });
  order.insert(order.end(), rest.begin(), rest.end());

  TuneResult r;
  r.candidates = int(order.size());
  std::size_t best_idx = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (int(r.measured_runs) >= o.budget) break;
    order[i].measured_mlups = measure(order[i].config);
    order[i].measured = true;
    ++r.measured_runs;
    // strict >: the earlier measurement (ultimately the baseline) keeps
    // exact ties.
    if (order[i].measured_mlups > order[best_idx].measured_mlups) {
      best_idx = i;
    }
  }
  r.baseline_mlups = order[0].measured_mlups;
  r.best = order[best_idx].config;
  r.best_mlups = order[best_idx].measured_mlups;
  r.ranking = std::move(order);
  r.search_seconds = wall.seconds();
  return r;
}

std::string machine_signature(const support::Topology& t,
                              const MachineModel& m) {
  std::ostringstream s;
  s << "cpus=" << t.cpus.size() << ";cores=" << t.cores
    << ";packages=" << t.packages << ";nodes=" << t.nodes
    << ";model=" << m.name << ";freq_ghz=" << m.freq_ghz
    << ";model_cores=" << m.cores << ";simd=" << m.simd_doubles
    << ";mem_bw=" << m.mem_bw_gbytes;
  return s.str();
}

std::string tune_cache_key(const std::string& model_hash,
                           const std::string& machine_sig) {
  return support::sha256_hex(model_hash + "\n" + machine_sig + "\n" +
                             kTuneCacheSchema);
}

std::string tune_cache_path(const std::string& dir, const std::string& key) {
  return (fs::path(dir) / ("tune-" + key + ".json")).string();
}

std::optional<TuneCacheEntry> load_tuned(const std::string& dir,
                                         const std::string& key) {
  if (dir.empty()) return std::nullopt;
  std::ifstream in(tune_cache_path(dir, key));
  if (!in) return std::nullopt;
  std::stringstream buf;
  buf << in.rdbuf();
  std::string err;
  const Json j = Json::parse(buf.str(), &err);
  if (!err.empty()) return std::nullopt;
  try {
    const TuneFile f = obs::from_json<TuneFile>(j, kTuneFormat);
    // an entry whose content does not match its address is stale
    if (f.key != key) return std::nullopt;
    return f.entry;
  } catch (const Error&) {
    return std::nullopt;  // corrupt or stale: costs a re-tune, nothing else
  }
}

void store_tuned(const std::string& dir, const std::string& key,
                 const TuneCacheEntry& entry) {
  PFC_REQUIRE(!dir.empty(), "store_tuned: empty cache directory");
  std::error_code ec;
  fs::create_directories(dir, ec);
  PFC_REQUIRE(!ec, "store_tuned: cannot create " + dir + ": " + ec.message());
  obs::write_json(tune_cache_path(dir, key), obs::to_json(TuneFile{key, entry}));
}

}  // namespace pfc::perf
