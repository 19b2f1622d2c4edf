// Autotuner tests (DESIGN.md §13): candidate codec strictness, deterministic
// enumeration, the baseline-keeps-ties search contract, tuning-cache key
// stability, store/load round-trip, the corruption/staleness fallback and a
// seeded fuzz of the cache decoder —
// plus the app-level glue (candidate <-> SimulationOptions mapping, the
// knob-independent model hash) and the ctest-chained cache-hit pair
// (PFC_TEST_TUNE_DIR): a warm search populates the cache, the second tune of
// the same preset performs zero measured runs.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "pfc/app/params.hpp"
#include "pfc/app/simulation.hpp"
#include "pfc/app/tuning.hpp"
#include "pfc/obs/json.hpp"
#include "pfc/obs/json_fields.hpp"
#include "pfc/obs/report.hpp"
#include "pfc/perf/autotune.hpp"
#include "pfc/support/assert.hpp"
#include "pfc/support/topology.hpp"

#include "../json_mutator.hpp"

namespace pfc::perf {
namespace {

namespace fs = std::filesystem;

/// Fresh directory under /tmp, removed on destruction.
struct TempDir {
  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "pfc_tune_XXXXXX").string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char* made = ::mkdtemp(buf.data());
    PFC_REQUIRE(made != nullptr, "mkdtemp failed in test");
    path = made;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

bool is_lower_hex(const std::string& s) {
  for (char c : s) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

TuneCandidate rich_candidate() {
  TuneCandidate c;
  c.vector_width = 4;
  c.streaming_stores = true;
  c.dispatch = "dynamic";
  c.blocking = "fixed";
  c.blocking_tile_rows = 16;
  c.pin = "compact";
  return c;
}

/// Candidate members that the integer and bool rules refuse: a string or
/// a number for a bool, a fraction for an integer, and an integer a double
/// holds but a long long cannot.
std::vector<std::pair<std::string, obs::Json>> malformed_candidate_values() {
  return {{"streaming_stores", obs::Json("yes")},
          {"streaming_stores", obs::Json(1.0)},
          {"vector_width", obs::Json(4.5)},
          {"blocking_tile_rows", obs::Json(16.9)},
          {"blocking_tile_rows", obs::Json(1e300)}};
}

/// The candidate's strict decode, as a tuning-cache entry reads it.
TuneCandidate decode_candidate(const obs::Json& j) {
  static const obs::JsonFormat format{"test", /*complete=*/true};
  return obs::from_json<TuneCandidate>(j, format);
}

TEST(TuneCandidateCodec, RoundTripsAndRejectsMalformedInput) {
  const TuneCandidate c = rich_candidate();
  const TuneCandidate d = decode_candidate(obs::to_json(c));
  EXPECT_TRUE(c == d);
  EXPECT_EQ(c.label(), d.label());

  obs::Json unknown = obs::to_json(c);
  unknown.set("bogus", obs::Json(1.0));
  EXPECT_THROW(decode_candidate(unknown), Error);

  obs::Json bad_width = obs::to_json(c);
  bad_width.set("vector_width", obs::Json(3.0));
  EXPECT_THROW(decode_candidate(bad_width), Error);

  obs::Json bad_dispatch = obs::to_json(c);
  bad_dispatch.set("dispatch", obs::Json(std::string("sideways")));
  EXPECT_THROW(decode_candidate(bad_dispatch), Error);

  for (const auto& [key, value] : malformed_candidate_values()) {
    obs::Json bad = obs::to_json(c);
    bad.set(key, value);
    EXPECT_THROW(decode_candidate(bad), Error)
        << key << " = " << value.dump(-1);
  }
}

TEST(TuneSearch, EnumerationIsDeterministicAndPrunesSingleThreadKnobs) {
  TuneOptions o;
  o.max_vector_width = 8;
  o.multi_threaded = false;
  const std::vector<TuneCandidate> a = enumerate_candidates(o);
  const std::vector<TuneCandidate> b = enumerate_candidates(o);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label(), b[i].label()) << "index " << i;
  }
  for (const TuneCandidate& c : a) {
    // Driver placement cannot matter without a pool — collapsed.
    EXPECT_EQ(c.dispatch, "static");
    EXPECT_EQ(c.pin, "none");
    EXPECT_TRUE(c.vector_width == 1 || c.vector_width == 2 ||
                c.vector_width == 4 || c.vector_width == 8);
    if (c.vector_width == 1) {
      EXPECT_FALSE(c.streaming_stores);
    }
    if (c.blocking == "fixed") {
      EXPECT_GT(c.blocking_tile_rows, 0);
    } else {
      EXPECT_EQ(c.blocking_tile_rows, 0);
    }
  }
  // 7 width/streaming pairs × 3 blocking modes.
  EXPECT_EQ(a.size(), 21u);
  // The multi-threaded space is a strict superset: dispatch and pin open
  // up, 2 × 3 per single-thread candidate.
  TuneOptions mt = o;
  mt.multi_threaded = true;
  const std::vector<TuneCandidate> m = enumerate_candidates(mt);
  EXPECT_EQ(m.size(), 126u);
  bool saw_dynamic = false;
  for (const TuneCandidate& c : m) saw_dynamic |= c.dispatch == "dynamic";
  EXPECT_TRUE(saw_dynamic);
}

TEST(TuneSearch, BaselineIsMeasuredFirstAndKeepsExactTies) {
  TuneOptions o;
  o.budget = 5;
  o.max_vector_width = 4;
  o.multi_threaded = false;
  int calls = 0;
  const TuneResult r = tune(
      o, [](const TuneCandidate&) { return 1.0; },
      [&](const TuneCandidate&) {
        ++calls;
        return 2.5;
      });
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(r.measured_runs, 5);
  ASSERT_FALSE(r.ranking.empty());
  // Position 0 is always the caller's own configuration...
  EXPECT_TRUE(r.ranking[0].config == o.baseline);
  EXPECT_TRUE(r.ranking[0].measured);
  // ...and an exact tie resolves toward it: tuned is never slower than the
  // default by construction.
  EXPECT_TRUE(r.best == o.baseline);
  EXPECT_EQ(r.best_mlups, 2.5);
  EXPECT_EQ(r.baseline_mlups, 2.5);
}

TEST(TuneSearch, StrictlyFasterCandidateReplacesBaseline) {
  TuneOptions o;
  o.budget = 6;  // of the 9 candidates up to width 2
  o.max_vector_width = 2;
  o.multi_threaded = false;
  const TuneResult r = tune(
      o, [](const TuneCandidate&) { return 0.0; },
      [](const TuneCandidate& c) { return c.vector_width > 1 ? 4.0 : 1.0; });
  EXPECT_GT(r.best.vector_width, 1);
  EXPECT_EQ(r.best_mlups, 4.0);
  EXPECT_EQ(r.baseline_mlups, 1.0);
  EXPECT_GE(r.best_mlups, r.baseline_mlups);
  EXPECT_EQ(r.measured_runs, 6);
  EXPECT_GT(r.candidates, r.measured_runs);  // budget truncated the space
}

TEST(TuneSearch, PriorOrdersMeasurementsAfterTheBaseline) {
  TuneOptions o;
  o.budget = 3;
  o.max_vector_width = 2;
  o.multi_threaded = false;
  std::vector<int> measured_widths;
  tune(
      o, [](const TuneCandidate& c) { return double(c.vector_width); },
      [&](const TuneCandidate& c) {
        measured_widths.push_back(c.vector_width);
        return 1.0;
      });
  ASSERT_EQ(measured_widths.size(), 3u);
  EXPECT_EQ(measured_widths[0], 1);  // the baseline itself
  // Highest-prior candidates (width 2) fill the remaining budget.
  EXPECT_EQ(measured_widths[1], 2);
  EXPECT_EQ(measured_widths[2], 2);
}

TEST(TuneCache, KeyIsStableAndContentAddressed) {
  const std::string a = tune_cache_key("model-a", "machine-a");
  EXPECT_EQ(a, tune_cache_key("model-a", "machine-a"));
  EXPECT_EQ(a.size(), 64u);
  EXPECT_TRUE(is_lower_hex(a));
  EXPECT_NE(a, tune_cache_key("model-b", "machine-a"));
  EXPECT_NE(a, tune_cache_key("model-a", "machine-b"));
  EXPECT_EQ(tune_cache_path("/some/dir", a), "/some/dir/tune-" + a + ".json");

  const support::Topology topo = support::Topology::detect();
  const MachineModel m;
  EXPECT_EQ(machine_signature(topo, m), machine_signature(topo, m));
  EXPECT_NE(machine_signature(topo, m).find("cores="), std::string::npos);
}

TEST(TuneCache, StoreThenLoadRoundTrips) {
  TempDir dir;
  const std::string key = tune_cache_key("model", "machine");
  TuneCacheEntry e;
  e.best = rich_candidate();
  e.best_mlups = 123.5;
  e.baseline_mlups = 88.25;
  e.measured_runs = 8;
  e.search_seconds = 1.5;
  store_tuned(dir.path, key, e);

  const auto back = load_tuned(dir.path, key);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->best == e.best);
  EXPECT_EQ(back->best_mlups, e.best_mlups);
  EXPECT_EQ(back->baseline_mlups, e.baseline_mlups);
  EXPECT_EQ(back->measured_runs, e.measured_runs);
  EXPECT_EQ(back->search_seconds, e.search_seconds);
}

TEST(TuneCache, CorruptStaleOrMismatchedEntriesMissToFullSearch) {
  TempDir dir;
  const std::string key = tune_cache_key("model", "machine");
  // Missing file: plain miss.
  EXPECT_FALSE(load_tuned(dir.path, key).has_value());

  // Truncated garbage: parse failure is a miss, not an error.
  {
    std::ofstream out(tune_cache_path(dir.path, key));
    out << "{ \"schema\": \"pfc-tu";
  }
  EXPECT_FALSE(load_tuned(dir.path, key).has_value());

  // A well-formed entry under the wrong key (machine changed, file copied
  // over): the embedded key mismatch makes it stale.
  TuneCacheEntry e;
  e.best = rich_candidate();
  e.best_mlups = 10.0;
  store_tuned(dir.path, key, e);
  const std::string other = tune_cache_key("model", "other-machine");
  fs::copy_file(tune_cache_path(dir.path, key),
                tune_cache_path(dir.path, other),
                fs::copy_options::overwrite_existing);
  EXPECT_FALSE(load_tuned(dir.path, other).has_value());
  ASSERT_TRUE(load_tuned(dir.path, key).has_value());  // original still fine

  // A schema from the future (or a foreign tool) is stale too.
  {
    std::string text;
    {
      std::ifstream in(tune_cache_path(dir.path, key));
      text.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    }
    std::string::size_type at = text.find("pfc-tune-v2");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, std::string("pfc-tune-v2").size(), "pfc-tune-v9");
    std::ofstream out(tune_cache_path(dir.path, key));
    out << text;
  }
  EXPECT_FALSE(load_tuned(dir.path, key).has_value());

  // A candidate member outside the integer or bool rule: a miss, not a
  // truncated or wrapped value.
  for (const auto& [member, value] : malformed_candidate_values()) {
    store_tuned(dir.path, key, e);
    obs::Json best = obs::to_json(e.best);
    best.set(member, value);
    obs::Json j = obs::Json::parse(read_text(tune_cache_path(dir.path, key)));
    j.set("best", best);
    obs::write_json(tune_cache_path(dir.path, key), j);
    EXPECT_FALSE(load_tuned(dir.path, key).has_value())
        << member << " = " << value.dump(-1);
  }
}

// Seeded mutation fuzzing of the tuning-cache decoder (load_tuned, the
// path every cache file from disk takes), with the jobspec fuzzer's
// mutator over a stored entry. Every mutant must load as a miss, or as an
// entry that survives store_tuned -> load_tuned unchanged (ctest
// autotune_cache_fuzz).
TEST(TuneCacheFuzz, MutantsMissOrRoundTrip) {
  TempDir dir, again;
  const std::string key = tune_cache_key("model", "machine");
  const std::string path = tune_cache_path(dir.path, key);
  TuneCacheEntry e;
  e.best = rich_candidate();
  e.best_mlups = 123.5;
  e.baseline_mlups = 88.25;
  e.measured_runs = 8;
  e.search_seconds = 1.5;
  store_tuned(dir.path, key, e);
  const std::string stored = read_text(path);
  ASSERT_TRUE(load_tuned(dir.path, key).has_value());

  constexpr int kMutants = 20000;
  fuzz::Rng rng(0x74756e652d763121ull);
  int loaded = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string text = fuzz::mutate(stored, rng);
    {
      std::ofstream out(path, std::ios::trunc);
      out << text;
    }
    const std::optional<TuneCacheEntry> got = load_tuned(dir.path, key);
    if (!got) continue;
    ++loaded;
    store_tuned(again.path, key, *got);
    const std::optional<TuneCacheEntry> back = load_tuned(again.path, key);
    ASSERT_TRUE(back.has_value())
        << "mutant " << i << " loaded, but its re-stored entry misses:\n"
        << text;
    ASSERT_TRUE(back->best == got->best) << "mutant " << i << ":\n" << text;
    ASSERT_EQ(back->best_mlups, got->best_mlups) << "mutant " << i;
    ASSERT_EQ(back->baseline_mlups, got->baseline_mlups) << "mutant " << i;
    ASSERT_EQ(back->measured_runs, got->measured_runs) << "mutant " << i;
    ASSERT_EQ(back->search_seconds, got->search_seconds) << "mutant " << i;
  }
  std::printf("autotune_cache_fuzz: %d mutants, %d loaded, %d missed\n",
              kMutants, loaded, kMutants - loaded);
  // Most mutants break the entry; enough must load for the round-trip
  // check to mean something.
  EXPECT_GT(loaded, kMutants / 50);
}

TEST(AppTuning, CandidateAndOptionsRoundTrip) {
  const TuneCandidate c = rich_candidate();
  app::SimulationOptions opts;
  app::apply_tune_candidate(c, opts);
  EXPECT_TRUE(app::candidate_from_options(opts) == c);
  EXPECT_TRUE(opts.compile.streaming_stores);
  EXPECT_EQ(opts.compile.vector_width, 4);
  EXPECT_EQ(opts.blocking_tile_rows, 16);
}

TEST(AppTuning, ModelHashExcludesTunedKnobsButSeesTheProblem) {
  app::GrandChemParams params = app::make_p1(2);
  app::GrandChemModel model(params);
  app::SimulationOptions a;
  a.cells = {24, 24, 1};
  const std::string ha = app::tuning_model_hash(model, a);
  EXPECT_EQ(ha.size(), 64u);
  EXPECT_TRUE(is_lower_hex(ha));

  // Every knob the tuner searches maps to the same key...
  app::SimulationOptions b = a;
  app::apply_tune_candidate(rich_candidate(), b);
  EXPECT_EQ(ha, app::tuning_model_hash(model, b));

  // ...while a different problem (domain extents) re-keys.
  app::SimulationOptions c = a;
  c.cells = {48, 24, 1};
  EXPECT_NE(ha, app::tuning_model_hash(model, c));
}

TEST(AppTuning, TuneModeOffIsANoOp) {
  app::GrandChemParams params = app::make_p1(2);
  app::GrandChemModel model(params);
  app::SimulationOptions opts;
  opts.cells = {16, 16, 1};
  opts.compile.tune = app::TuneMode::Off;
  const obs::TuningStats stats = app::autotune_apply(model, opts);
  EXPECT_FALSE(stats.enabled);
  EXPECT_EQ(stats.measured_runs, 0);
}

/// ctest-chained pair (see tests/CMakeLists.txt): the fixture setup runs a
/// full measured search into PFC_TEST_TUNE_DIR; the dependent test re-tunes
/// the identical preset in "cached" mode and must perform zero measured
/// runs. Skipped when run outside the fixture (no env var).
app::SimulationOptions chain_preset(const char* dir) {
  app::SimulationOptions o;
  o.cells = {24, 24, 1};
  o.compile.cache_dir = dir;
  return o;
}

TEST(TuneCacheChain, WarmSearchPopulatesCache) {
  const char* dir = std::getenv("PFC_TEST_TUNE_DIR");
  if (dir == nullptr || *dir == '\0') {
    GTEST_SKIP() << "PFC_TEST_TUNE_DIR not set (ctest fixture only)";
  }
  app::GrandChemParams params = app::make_p1(2);
  app::GrandChemModel model(params);
  app::SimulationOptions opts = chain_preset(dir);
  opts.compile.tune = app::TuneMode::Full;
  const obs::TuningStats stats = app::autotune_apply(model, opts);
  EXPECT_TRUE(stats.enabled);
  EXPECT_EQ(stats.mode, "full");
  EXPECT_FALSE(stats.cache_hit);
  EXPECT_GE(stats.measured_runs, 1);
  EXPECT_GE(stats.best_mlups, stats.baseline_mlups);
  // The winner persisted beside the kernel cache.
  const std::string path = perf::tune_cache_path(dir, stats.cache_key);
  EXPECT_TRUE(fs::exists(path)) << path;
}

TEST(TuneCacheChain, SecondTuneZeroMeasuredRuns) {
  const char* dir = std::getenv("PFC_TEST_TUNE_DIR");
  if (dir == nullptr || *dir == '\0') {
    GTEST_SKIP() << "PFC_TEST_TUNE_DIR not set (ctest fixture only)";
  }
  app::GrandChemParams params = app::make_p1(2);
  app::GrandChemModel model(params);
  app::SimulationOptions opts = chain_preset(dir);
  opts.compile.tune = app::TuneMode::Cached;
  const obs::TuningStats stats = app::autotune_apply(model, opts);
  EXPECT_TRUE(stats.enabled);
  EXPECT_EQ(stats.mode, "cached");
  EXPECT_TRUE(stats.cache_hit);
  EXPECT_EQ(stats.measured_runs, 0);
  EXPECT_FALSE(stats.best_config.empty());
  EXPECT_GE(stats.best_mlups, stats.baseline_mlups);
}

}  // namespace
}  // namespace pfc::perf
