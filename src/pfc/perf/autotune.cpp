#include "pfc/perf/autotune.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "pfc/obs/report.hpp"
#include "pfc/support/assert.hpp"
#include "pfc/support/sha256.hpp"
#include "pfc/support/timer.hpp"

namespace fs = std::filesystem;

namespace pfc::perf {

using Json = obs::Json;

namespace {

bool valid_width(int w) { return w == 1 || w == 2 || w == 4 || w == 8; }

bool one_of(const std::string& v, std::initializer_list<const char*> opts) {
  for (const char* o : opts) {
    if (v == o) return true;
  }
  return false;
}

const Json* require_key(const Json& j, const std::string& key,
                        const std::string& where) {
  const Json* v = j.find(key);
  PFC_REQUIRE(v != nullptr, where + ": missing key \"" + key + "\"");
  return v;
}

bool require_bool(const Json& j, const std::string& key,
                  const std::string& where) {
  const Json* v = require_key(j, key, where);
  PFC_REQUIRE(v->kind() == Json::Kind::Bool,
              where + ": " + key + " must be a bool");
  return v->boolean();
}

}  // namespace

std::string TuneCandidate::label() const {
  std::ostringstream s;
  s << "split=" << (split ? 1 : 0) << " w=" << vector_width
    << " nt=" << (streaming_stores ? 1 : 0) << " dispatch=" << dispatch
    << " blocking=" << blocking << " tile=" << blocking_tile_rows
    << " pin=" << pin;
  return s.str();
}

Json TuneCandidate::to_json() const {
  return Json::object()
      .set("split", Json(split))
      .set("vector_width", Json(double(vector_width)))
      .set("streaming_stores", Json(streaming_stores))
      .set("dispatch", Json(dispatch))
      .set("blocking", Json(blocking))
      .set("blocking_tile_rows", Json(double(blocking_tile_rows)))
      .set("pin", Json(pin));
}

TuneCandidate TuneCandidate::from_json(const Json& j,
                                       const std::string& where) {
  PFC_REQUIRE(j.is_object(), where + ": expected an object");
  for (const auto& [key, value] : j.items()) {
    (void)value;
    PFC_REQUIRE(one_of(key, {"split", "vector_width", "streaming_stores",
                             "dispatch", "blocking", "blocking_tile_rows",
                             "pin"}),
                where + ": unknown key \"" + key + "\"");
  }
  TuneCandidate c;
  c.split = require_bool(j, "split", where);
  c.vector_width = obs::json_integer<int>(
      *require_key(j, "vector_width", where), where + ": vector_width");
  PFC_REQUIRE(valid_width(c.vector_width),
              where + ": vector_width must be 1, 2, 4 or 8");
  c.streaming_stores = require_bool(j, "streaming_stores", where);
  c.dispatch = require_key(j, "dispatch", where)->str();
  PFC_REQUIRE(one_of(c.dispatch, {"static", "dynamic"}),
              where + ": dispatch must be \"static\" or \"dynamic\"");
  c.blocking = require_key(j, "blocking", where)->str();
  PFC_REQUIRE(one_of(c.blocking, {"off", "auto", "fixed"}),
              where + ": blocking must be \"off\", \"auto\" or \"fixed\"");
  c.blocking_tile_rows = obs::json_integer<long long>(
      *require_key(j, "blocking_tile_rows", where),
      where + ": blocking_tile_rows");
  PFC_REQUIRE(c.blocking_tile_rows >= 0,
              where + ": blocking_tile_rows must be non-negative");
  c.pin = require_key(j, "pin", where)->str();
  PFC_REQUIRE(one_of(c.pin, {"none", "compact", "scatter"}),
              where + ": pin must be \"none\", \"compact\" or \"scatter\"");
  return c;
}

std::vector<TuneCandidate> enumerate_candidates(const TuneOptions& o) {
  // Fixed nested loops, innermost varying fastest — the order (and thereby
  // every prior tie-break) is a pure function of TuneOptions.
  const std::vector<int> widths = [&] {
    std::vector<int> ws;
    for (int w = 1; w <= o.max_vector_width; w *= 2) ws.push_back(w);
    return ws;
  }();
  const std::vector<std::string> dispatches =
      o.multi_threaded ? std::vector<std::string>{"static", "dynamic"}
                       : std::vector<std::string>{"static"};
  const std::vector<std::string> pins =
      o.multi_threaded ? std::vector<std::string>{"none", "compact", "scatter"}
                       : std::vector<std::string>{"none"};
  // One fixed tile height: the Auto mode already sizes tiles from the
  // blocking model, Fixed probes whether a small constant beats it.
  constexpr long long kFixedTileRows = 16;

  std::vector<TuneCandidate> out;
  for (const bool split : {false, true}) {
    for (const int w : widths) {
      for (const bool nt : {false, true}) {
        if (nt && w == 1) continue;  // scalar loops ignore streaming stores
        for (const char* blocking : {"off", "auto", "fixed"}) {
          for (const std::string& dispatch : dispatches) {
            for (const std::string& pin : pins) {
              TuneCandidate c;
              c.split = split;
              c.vector_width = w;
              c.streaming_stores = nt;
              c.dispatch = dispatch;
              c.blocking = blocking;
              c.blocking_tile_rows =
                  std::string(blocking) == "fixed" ? kFixedTileRows : 0;
              c.pin = pin;
              out.push_back(std::move(c));
            }
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
  if (!err.empty() || !j.is_object()) return std::nullopt;
  const Json* schema = j.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->str() != kTuneCacheSchema) {
    return std::nullopt;  // stale revision: re-tune rather than trust it
  }
  const Json* keyj = j.find("key");
  if (keyj == nullptr || !keyj->is_string() || keyj->str() != key) {
    return std::nullopt;  // entry content does not match its address
  }
  try {
    TuneCacheEntry e;
    const Json* best = j.find("best");
    if (best == nullptr) return std::nullopt;
    e.best = TuneCandidate::from_json(*best, "tune-cache best");
    const Json* bm = j.find("best_mlups");
    const Json* bl = j.find("baseline_mlups");
    const Json* mr = j.find("measured_runs");
    const Json* ss = j.find("search_seconds");
    if (bm == nullptr || !bm->is_number() || bl == nullptr ||
        !bl->is_number() || mr == nullptr || ss == nullptr ||
        !ss->is_number()) {
      return std::nullopt;
    }
    e.best_mlups = bm->number();
    e.baseline_mlups = bl->number();
    e.measured_runs = obs::json_integer<int>(*mr, "tune-cache measured_runs");
    e.search_seconds = ss->number();
    return e;
  } catch (const Error&) {
    return std::nullopt;  // corrupt entry: costs a re-tune, nothing else
  }
}

void store_tuned(const std::string& dir, const std::string& key,
                 const TuneCacheEntry& entry) {
  PFC_REQUIRE(!dir.empty(), "store_tuned: empty cache directory");
  std::error_code ec;
  fs::create_directories(dir, ec);
  PFC_REQUIRE(!ec, "store_tuned: cannot create " + dir + ": " + ec.message());
  const Json j = Json::object()
                     .set("schema", Json(kTuneCacheSchema))
                     .set("key", Json(key))
                     .set("best", entry.best.to_json())
                     .set("best_mlups", Json(entry.best_mlups))
                     .set("baseline_mlups", Json(entry.baseline_mlups))
                     .set("measured_runs", Json(double(entry.measured_runs)))
                     .set("search_seconds", Json(entry.search_seconds));
  obs::write_json(tune_cache_path(dir, key), j);
}

}  // namespace pfc::perf
