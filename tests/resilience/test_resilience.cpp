// End-to-end tests of pfc::resilience: deterministic checkpoint/restart
// (bitwise, including the Philox fluctuation stream), health-driven
// rollback recovery, the JIT degradation chain and the fault-injection
// machinery that makes all of it testable.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "pfc/app/analysis.hpp"
#include "pfc/app/jobspec.hpp"
#include "pfc/app/params.hpp"
#include "pfc/app/simulation.hpp"
#include "pfc/backend/jit.hpp"
#include "pfc/field/array.hpp"
#include "pfc/field/field.hpp"
#include "pfc/obs/json.hpp"
#include "pfc/obs/report.hpp"
#include "pfc/resilience/checkpoint.hpp"
#include "pfc/resilience/resilience.hpp"
#include "pfc/support/assert.hpp"

#include "../json_mutator.hpp"

namespace pfc {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& tag) {
    std::string tmpl =
        (fs::temp_directory_path() / ("pfc_" + tag + "_XXXXXX")).string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char* got = mkdtemp(buf.data());
    if (got != nullptr) path = got;
  }
  ~TempDir() {
    if (!path.empty()) {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  }
  std::string path;
};

/// Scoped setenv/unsetenv so one test's env never leaks into another.
struct EnvVar {
  EnvVar(const char* name, const char* value) : name_(name) {
    setenv(name, value, 1);
  }
  ~EnvVar() { unsetenv(name_); }
  const char* name_;
};

app::GrandChemModel noisy_model(std::uint64_t rng_seed = 42) {
  app::GrandChemParams p = app::make_p2(2);
  p.dt = 0.005;
  p.rng_seed = rng_seed;
  // keep the side-branching noise on: the whole point is that the Philox
  // stream survives a restart bitwise
  EXPECT_GT(p.noise_amplitude, 0.0);
  return app::GrandChemModel(p);
}

app::SimulationOptions noisy_opts(int vector_width) {
  app::SimulationOptions o;
  o.cells = {32, 32, 1};
  o.boundary = grid::BoundaryKind::ZeroGradient;
  // the default compile line has no FMA contraction, so scalar and vector
  // code stay bitwise comparable, and so do the pre- and post-restart
  // halves of a split run
  o.compile.vector_width = vector_width;
  o.with_health(obs::HealthOptions{}.enable().every(5));
  return o;
}

void init_seed(app::Simulation& sim, double eps) {
  sim.init_phi([&](long long x, long long y, long long, int c) {
    const double d =
        std::sqrt(double((x - 16) * (x - 16) + y * y)) - 6.0;
    const double seed = app::interface_profile(d, 2.5 * eps);
    if (c == 0) return 1.0 - seed;
    return c == 1 ? seed : 0.0;
  });
  sim.init_mu([](long long, long long, long long, int) { return 0.0; });
}

/// A noise-enabled run split by checkpoint/restart must match the
/// uninterrupted run bitwise: state, step counter and accumulated time.
void check_bitwise_split_run(int vector_width, std::uint64_t rng_seed = 42) {
  TempDir dir("ckpt");
  ASSERT_FALSE(dir.path.empty());
  const app::GrandChemModel model = noisy_model(rng_seed);
  const double eps = model.params().epsilon;

  app::Simulation whole(model, noisy_opts(vector_width));
  init_seed(whole, eps);
  whole.run(20);

  {
    app::SimulationOptions o = noisy_opts(vector_width);
    o.with_resilience(resilience::ResilienceOptions{}.every(10)
                          .with_directory(dir.path));
    app::Simulation first(model, o);
    init_seed(first, eps);
    first.run(10);
    EXPECT_EQ(first.resilience_stats().checkpoint_files, 1u);
  }
  ASSERT_TRUE(fs::exists(resilience::manifest_path(dir.path)));

  app::SimulationOptions o = noisy_opts(vector_width);
  o.with_resilience(resilience::ResilienceOptions{}.with_restart(dir.path));
  app::Simulation second(model, o);  // no init: state comes from disk
  EXPECT_EQ(second.step_count(), 10);
  EXPECT_TRUE(second.resilience_stats().restarted);
  second.run(10);

  EXPECT_EQ(second.step_count(), whole.step_count());
  EXPECT_EQ(second.time(), whole.time());
  EXPECT_EQ(Array::max_abs_diff(second.phi(), whole.phi()), 0.0);
  EXPECT_EQ(Array::max_abs_diff(second.mu(), whole.mu()), 0.0);
}

TEST(CheckpointRestart, BitwiseWithNoiseScalar) {
  check_bitwise_split_run(1);
}

TEST(CheckpointRestart, BitwiseWithNoiseVector) {
  check_bitwise_split_run(4);
  // A seed above 2^53 (bit 63 set) survives the manifest exactly, so the
  // restarted run passes the seed check and replays the same noise.
  check_bitwise_split_run(4, 0xd1b54a32d192ed03ull);
}

// The manifest stores the seed as a hex string. A manifest that holds it
// as a JSON number still reads when the number is an exact integer, and
// is rejected when a double cannot hold it.
TEST(CheckpointRestart, SeedRoundTripsExactly) {
  TempDir dir("seed");
  ASSERT_FALSE(dir.path.empty());
  const FieldPtr f = Field::create("a", 2, 1);
  Array a(f, {4, 2, 1}, 1);
  resilience::CheckpointMeta meta;
  meta.dt = 0.25;
  meta.rng_seed = 0xd1b54a32d192ed03ull;
  meta.layout = "test";
  resilience::write_checkpoint(dir.path, meta, {{"a", &a}});
  EXPECT_EQ(resilience::read_checkpoint(dir.path, {{"a", &a}}).rng_seed,
            0xd1b54a32d192ed03ull);

  const std::string path = resilience::manifest_path(dir.path);
  const auto rewrite_seed = [&](const obs::Json& seed) {
    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    obs::Json j = obs::Json::parse(text);
    j.set("rng_seed", seed);
    obs::write_json(path, j);
  };
  rewrite_seed(obs::Json(9007199254740991.0));
  EXPECT_EQ(resilience::read_checkpoint(dir.path, {{"a", &a}}).rng_seed,
            9007199254740991ull);
  for (const double bad : {9007199254740992.0, 1e19, -1.0}) {
    rewrite_seed(obs::Json(bad));
    EXPECT_THROW(resilience::read_checkpoint(dir.path, {{"a", &a}}), Error)
        << bad;
  }
  rewrite_seed(obs::Json("0xd1b54a32d192ed0"));
  EXPECT_THROW(resilience::read_checkpoint(dir.path, {{"a", &a}}), Error);
}

// Manifest integers follow the jobspec's rule (obs::json_integer): a step
// a double cannot hold exactly, a negative or a fractional count is
// refused with an error that names the key's path, never cast.
TEST(CheckpointRestart, ManifestRefusesIntegersOutsideTheRule) {
  TempDir dir("ints");
  ASSERT_FALSE(dir.path.empty());
  const FieldPtr f = Field::create("a", 2, 1);
  Array a(f, {4, 2, 1}, 1);
  resilience::CheckpointMeta meta;
  meta.step = 3;
  meta.dt = 0.25;
  meta.layout = "test";
  resilience::write_checkpoint(dir.path, meta, {{"a", &a}});
  const std::string path = resilience::manifest_path(dir.path);
  std::string clean;
  {
    std::ifstream in(path);
    clean.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const struct {
    const char* from;
    const char* to;
    const char* key;
  } cases[] = {{"\"step\": 3", "\"step\": 1e300", ": step: "},
               {"\"count\": 8", "\"count\": -1", ": arrays[0].count: "},
               {"\"count\": 8", "\"count\": 2.5", ": arrays[0].count: "}};
  for (const auto& c : cases) {
    std::string text = clean;
    const auto at = text.find(c.from);
    ASSERT_NE(at, std::string::npos) << c.from << " in\n" << clean;
    text.replace(at, std::string(c.from).size(), c.to);
    obs::write_text(path, text);
    try {
      resilience::read_checkpoint(dir.path, {{"a", &a}});
      ADD_FAILURE() << c.to << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(c.key), std::string::npos)
          << e.what();
    }
  }
}

TEST(CheckpointRestart, RejectsTruncatedState) {
  TempDir dir("trunc");
  ASSERT_FALSE(dir.path.empty());
  const app::GrandChemModel model = noisy_model();
  {
    app::SimulationOptions o = noisy_opts(1);
    resilience::FaultPlan faults;
    faults.truncate_checkpoint = true;
    o.with_resilience(resilience::ResilienceOptions{}.every(5)
                          .with_directory(dir.path)
                          .with_faults(faults));
    app::Simulation sim(model, o);
    init_seed(sim, model.params().epsilon);
    sim.run(5);
    EXPECT_GE(sim.resilience_stats().faults_injected, 1u);
  }
  app::SimulationOptions o = noisy_opts(1);
  o.with_resilience(resilience::ResilienceOptions{}.with_restart(dir.path));
  EXPECT_THROW(app::Simulation(model, o), Error)
      << "a truncated state file must be rejected, not half-restored";
}

TEST(CheckpointRestart, RejectsLayoutMismatch) {
  TempDir dir("layout");
  ASSERT_FALSE(dir.path.empty());
  const app::GrandChemModel model = noisy_model();
  {
    app::SimulationOptions o = noisy_opts(1);
    o.with_resilience(resilience::ResilienceOptions{}.every(5)
                          .with_directory(dir.path));
    app::Simulation sim(model, o);
    init_seed(sim, model.params().epsilon);
    sim.run(5);
  }
  app::SimulationOptions o = noisy_opts(1);
  o.cells = {48, 48, 1};  // not the geometry the checkpoint came from
  o.with_resilience(resilience::ResilienceOptions{}.with_restart(dir.path));
  EXPECT_THROW(app::Simulation(model, o), Error);
}

TEST(CheckpointRestart, ChecksumCatchesBitFlip) {
  TempDir dir("sum");
  ASSERT_FALSE(dir.path.empty());
  const FieldPtr f = Field::create("a", 2, 2);
  Array a(f, {8, 4, 1}, 2);
  for (long long y = 0; y < 4; ++y) {
    for (long long x = 0; x < 8; ++x) {
      a.at(x, y, 0, 0) = double(x + 10 * y);
      a.at(x, y, 0, 1) = -double(x);
    }
  }
  resilience::CheckpointMeta meta;
  meta.step = 3;
  meta.time = 0.75;
  meta.dt = 0.25;
  meta.layout = "test";
  resilience::write_checkpoint(dir.path, meta, {{"a", &a}});

  // round-trips clean as written
  Array b(f, {8, 4, 1}, 2);
  const auto back =
      resilience::read_checkpoint(dir.path, {{"a", &b}}, "test");
  EXPECT_EQ(back.step, 3);
  EXPECT_EQ(back.time, 0.75);
  EXPECT_EQ(Array::max_abs_diff(a, b), 0.0);

  // flip one byte of the state file: the manifest checksum must catch it
  std::FILE* fp = std::fopen((dir.path + "/state.bin").c_str(), "r+b");
  ASSERT_NE(fp, nullptr);
  std::fseek(fp, 17, SEEK_SET);
  const int c = std::fgetc(fp);
  std::fseek(fp, 17, SEEK_SET);
  std::fputc(c ^ 0x40, fp);
  std::fclose(fp);
  EXPECT_THROW(resilience::read_checkpoint(dir.path, {{"a", &b}}, "test"),
               Error);
}

// A v1 manifest's digests are byte-wise FNV-1a, which no build computes any
// more: the manifest is refused by its tag, naming both, before any digest
// could call its state corrupt.
TEST(CheckpointRestart, RefusesAVersionOneManifestByItsTag) {
  TempDir dir("v1");
  ASSERT_FALSE(dir.path.empty());
  const FieldPtr f = Field::create("a", 2, 1);
  Array a(f, {4, 2, 1}, 1);
  resilience::CheckpointMeta meta;
  meta.dt = 0.25;
  meta.layout = "test";
  resilience::write_checkpoint(dir.path, meta, {{"a", &a}});
  const std::string path = resilience::manifest_path(dir.path);
  obs::Json j;
  {
    std::ifstream in(path);
    j = obs::Json::parse(std::string(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>()));
  }
  EXPECT_EQ(j.find("schema")->str(), "pfc-checkpoint-v2");
  j.set("schema", obs::Json("pfc-checkpoint-v1"));
  obs::write_json(path, j);
  try {
    resilience::read_checkpoint(dir.path, {{"a", &a}});
    ADD_FAILURE() << "a v1 manifest was accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("pfc-checkpoint-v1"), std::string::npos) << what;
    EXPECT_NE(what.find("pfc-checkpoint-v2"), std::string::npos) << what;
    EXPECT_EQ(what.find("corrupt"), std::string::npos) << what;
  }
}

// A run split by a restart reports the steps it ran, not the position it
// reached: the counters, the exchange timer and the model's exchange
// price all cover the same steps.
TEST(CheckpointRestart, ReportCountsOnlyStepsItRan) {
  TempDir dir("steps");
  ASSERT_FALSE(dir.path.empty());
  const app::GrandChemModel model = noisy_model();
  app::SimulationOptions o = noisy_opts(1);
  o.boundary = grid::BoundaryKind::Periodic;
  {
    app::SimulationOptions first = o;
    first.with_resilience(resilience::ResilienceOptions{}.every(10)
                              .with_directory(dir.path));
    app::Simulation sim(model, first);
    init_seed(sim, model.params().epsilon);
    sim.run(10);
  }
  o.with_resilience(resilience::ResilienceOptions{}.with_restart(dir.path));
  app::Simulation second(model, o);
  const obs::RunReport rep = second.run(8);
  EXPECT_EQ(second.step_count(), 18);
  EXPECT_EQ(rep.resilience.restart_step, 10);
  EXPECT_EQ(rep.steps, 8);
  EXPECT_EQ(std::uint64_t(rep.steps * rep.cells_per_step), rep.cell_updates);
  const obs::Json j = rep.to_json();
  const obs::Json* exchange = j.find("timers")->find("exchange");
  ASSERT_NE(exchange, nullptr);
  EXPECT_EQ(exchange->find("count")->number(), double(rep.steps));
}

/// The interior of `a`, component-major.
std::vector<double> interior(const Array& a) {
  std::vector<double> v(std::size_t(a.interior_count()));
  a.copy_interior_out(v.data());
  return v;
}

/// A two-array checkpoint with a seed above 2^53, written to `dir`.
struct FuzzCheckpoint {
  explicit FuzzCheckpoint(const std::string& dir)
      : f2(Field::create("a", 2, 2)),
        f1(Field::create("b", 2, 1)),
        a(f2, {5, 3, 1}, 1),
        b(f1, {4, 4, 1}, 2) {
    for (long long y = 0; y < 4; ++y) {
      for (long long x = 0; x < 5; ++x) {
        if (y < 3) {
          a.at(x, y, 0, 0) = 0.1 * double(x) - double(y);
          a.at(x, y, 0, 1) = 1.0 / double(1 + x + y);
        }
        if (x < 4) b.at(x, y, 0, 0) = double(x * y) - 2.5;
      }
    }
    resilience::CheckpointMeta meta;
    meta.step = 40;
    meta.time = 0.2;
    meta.dt = 0.005;
    meta.rng_seed = 0xd1b54a32d192ed03ull;
    meta.layout = "fuzz";
    resilience::write_checkpoint(dir, meta, {{"a", &a}, {"b", &b}});
  }
  FieldPtr f2, f1;
  Array a, b;
};

/// The error reading the checkpoint in `dir` throws ("" when it restores).
std::string restore_error(const std::string& dir, Array& a, Array& b) {
  try {
    resilience::read_checkpoint(dir, {{"a", &a}, {"b", &b}});
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// Seeded mutation fuzzing of the manifest decoder (read_checkpoint, the
// path every restart takes) with the shared mutator: every mutant is
// refused with pfc::Error or restores both arrays bitwise (ctest
// checkpoint_manifest_fuzz).
TEST(CheckpointManifestFuzz, MutantsRefusedOrRestoreBitwise) {
  TempDir dir("mfuzz");
  ASSERT_FALSE(dir.path.empty());
  const FuzzCheckpoint ck(dir.path);
  const std::string path = resilience::manifest_path(dir.path);
  std::string stored;
  {
    std::ifstream in(path);
    stored.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  }
  const std::vector<double> want_a = interior(ck.a), want_b = interior(ck.b);
  Array a(ck.f2, {5, 3, 1}, 1), b(ck.f1, {4, 4, 1}, 2);
  ASSERT_EQ(restore_error(dir.path, a, b), "");

  constexpr int kMutants = 20000;
  fuzz::Rng rng(0x6d616e6966657374ull);
  int restored = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string text = fuzz::mutate(stored, rng);
    {
      std::ofstream out(path, std::ios::trunc);
      out << text;
    }
    a.fill(-7.0);
    b.fill(-7.0);
    if (!restore_error(dir.path, a, b).empty()) continue;
    ++restored;
    ASSERT_TRUE(interior(a) == want_a) << "mutant " << i << ":\n" << text;
    ASSERT_TRUE(interior(b) == want_b) << "mutant " << i << ":\n" << text;
  }
  std::printf("checkpoint_manifest_fuzz: %d mutants, %d restored, %d "
              "refused\n",
              kMutants, restored, kMutants - restored);
  // Most mutants break the manifest; enough must restore for the bitwise
  // check to mean something.
  EXPECT_GT(restored, kMutants / 50);
}

// A mistyped time, dt or layout is refused by its path, never read as a
// default.
TEST(CheckpointManifestFuzz, MistypedKeysRefusedByPath) {
  TempDir dir("mtype");
  ASSERT_FALSE(dir.path.empty());
  const FuzzCheckpoint ck(dir.path);
  const std::string path = resilience::manifest_path(dir.path);
  const obs::Json clean = [&] {
    std::ifstream in(path);
    return obs::Json::parse(std::string(std::istreambuf_iterator<char>(in),
                                        std::istreambuf_iterator<char>()));
  }();
  const struct {
    const char* key;
    obs::Json value;
    const char* error;
  } cases[] = {{"dt", obs::Json("fast"), ": dt: expected a number"},
               {"time", obs::Json("0.2"), ": time: expected a number"},
               {"layout", obs::Json(3.0), ": layout: expected a string"}};
  Array a(ck.f2, {5, 3, 1}, 1), b(ck.f1, {4, 4, 1}, 2);
  for (const auto& c : cases) {
    obs::Json j = clean;
    j.set(c.key, c.value);
    obs::write_json(path, j);
    const std::string err = restore_error(dir.path, a, b);
    EXPECT_NE(err.find(c.error), std::string::npos)
        << c.key << ": \"" << err << "\"";
  }
}

TEST(Snapshot, RoundTripAndGuards) {
  Array a(Field::create("s", 2, 1), {6, 3, 1}, 1);
  for (long long y = 0; y < 3; ++y) {
    for (long long x = 0; x < 6; ++x) a.at(x, y, 0, 0) = double(x * y + x);
  }
  resilience::Snapshot snap;
  EXPECT_FALSE(snap.valid());
  EXPECT_THROW(snap.restore({&a}), Error);
  snap.capture({7, 1.5, 0.1}, {&a});
  EXPECT_TRUE(snap.valid());
  a.at(2, 1, 0, 0) = 999.0;
  snap.restore({&a});
  EXPECT_EQ(a.at(2, 1, 0, 0), 4.0);  // x*y + x at (2,1)
  EXPECT_EQ(snap.meta().step, 7);
}

TEST(JitFallback, DegradesToScalar) {
  const app::GrandChemModel model = noisy_model();
  app::SimulationOptions o = noisy_opts(4);
  resilience::FaultPlan faults;
  faults.fail_jit_attempts = 1;  // width-4 attempt dies, scalar survives
  o.with_resilience(resilience::ResilienceOptions{}.with_faults(faults));
  app::Simulation sim(model, o);
  const obs::CompileReport& cr = sim.compiled().compile_report();
  EXPECT_EQ(cr.backend_tier, "scalar");
  EXPECT_EQ(cr.vector_width, 1);
  EXPECT_EQ(cr.fallback_attempts, 1);
  EXPECT_EQ(cr.fallback_reason, "injected jit fault");
}

// A run degraded to the scalar tier keeps the vector tier's bits: the
// default compile line has no FMA contraction, so the scalar and vector
// bodies run the same IEEE operations on every cell, noise included.
TEST(JitFallback, ScalarTierMatchesVectorBitwise) {
  const app::GrandChemModel model = noisy_model();
  struct Result {
    std::string tier;
    std::uint64_t phi = 0, mu = 0;
  };
  const auto run = [&](int failed_jit_attempts) {
    app::SimulationOptions o = noisy_opts(8);
    resilience::FaultPlan faults;
    faults.fail_jit_attempts = failed_jit_attempts;
    o.with_resilience(resilience::ResilienceOptions{}.with_faults(faults));
    app::Simulation sim(model, o);
    init_seed(sim, model.params().epsilon);
    sim.run(20);
    return Result{sim.compiled().compile_report().backend_tier,
                  app::interior_checksum(sim.phi()),
                  app::interior_checksum(sim.mu())};
  };
  const Result vector = run(0);
  const Result scalar = run(1);
  EXPECT_EQ(vector.tier, "vector");
  EXPECT_EQ(scalar.tier, "scalar");
  EXPECT_EQ(scalar.phi, vector.phi) << "phi checksum moved with the tier";
  EXPECT_EQ(scalar.mu, vector.mu) << "mu checksum moved with the tier";
}

TEST(JitFallback, DegradesToInterpreterAndStillRuns) {
  const app::GrandChemModel model = noisy_model();
  app::SimulationOptions o = noisy_opts(4);
  resilience::FaultPlan faults;
  faults.fail_jit_attempts = 1 << 20;  // every attempt dies
  o.with_resilience(resilience::ResilienceOptions{}.with_faults(faults));
  app::Simulation sim(model, o);
  const obs::CompileReport& cr = sim.compiled().compile_report();
  EXPECT_EQ(cr.backend_tier, "interpreter");
  EXPECT_EQ(cr.fallback_attempts, 2);
  init_seed(sim, model.params().epsilon);
  sim.run(3);  // the degraded run still steps and stays finite
  EXPECT_LT(app::phase_statistics(sim.phi()).simplex_violation, 1e-6);
}

/// Number of entries in `dir`.
int entries_in(const std::string& dir) {
  int n = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    (void)e;
    ++n;
  }
  return n;
}

TEST(JitFallback, NoTempLeakOnRealCompilerError) {
  TempDir scratch("jitscratch");
  ASSERT_FALSE(scratch.path.empty());
  EnvVar env("PFC_JIT_TMPDIR", scratch.path.c_str());
  const app::GrandChemModel model = noisy_model();
  app::SimulationOptions o = noisy_opts(1);
  // a genuinely failing external compile (unknown flag), not an injected one
  o.compile.jit_extra_flags = "-fthis-flag-does-not-exist";
  app::Simulation sim(model, o);
  const obs::CompileReport& cr = sim.compiled().compile_report();
  EXPECT_EQ(cr.backend_tier, "interpreter");
  EXPECT_EQ(cr.fallback_attempts, 1);  // a width-1 request skips vector
  EXPECT_FALSE(cr.fallback_reason.empty());
  EXPECT_NE(cr.fallback_reason, "injected jit fault");
  // the failed attempts must have cleaned up their pfc_jit_* scratch dirs
  EXPECT_EQ(entries_in(scratch.path), 0)
      << "JIT scratch directories leaked in " << scratch.path;
}

// The model compiles as one unit per kernel (phi-full, mu-full). An
// injected failing compiler fails the vector attempt's units; the scalar
// tier takes over, and only its live library's scratch directory remains
// until the simulation goes away.
TEST(JitFallback, MultiUnitInjectedFaultDegradesWithoutLeak) {
  TempDir scratch("jitunits");
  ASSERT_FALSE(scratch.path.empty());
  EnvVar env("PFC_JIT_TMPDIR", scratch.path.c_str());
  const app::GrandChemModel model = noisy_model();
  app::SimulationOptions o = noisy_opts(4);
  resilience::FaultPlan faults;
  faults.fail_jit_attempts = 1;
  o.with_resilience(resilience::ResilienceOptions{}.with_faults(faults));
  {
    app::Simulation sim(model, o);
    const obs::CompileReport& cr = sim.compiled().compile_report();
    EXPECT_EQ(cr.kernel_names.size(), 2u);
    EXPECT_EQ(cr.backend_tier, "scalar");
    EXPECT_EQ(cr.fallback_reason, "injected jit fault");
    init_seed(sim, model.params().epsilon);
    sim.run(3);
    EXPECT_LT(app::phase_statistics(sim.phi()).simplex_violation, 1e-6);
    EXPECT_EQ(entries_in(scratch.path), 1);
  }
  EXPECT_EQ(entries_in(scratch.path), 0);
}

// A real error in the last unit only: the flag turns the entry point of
// mu-full's cell pass (both full kernels run face-once, three passes each)
// into a GCC error pragma, so every other unit compiles and that one
// fails. Both JIT tiers fail on that unit, name it in the reason, leave no
// scratch, and the interpreter runs the job.
TEST(JitFallback, SecondUnitErrorDegradesToInterpreter) {
  TempDir scratch("jitunit2");
  ASSERT_FALSE(scratch.path.empty());
  EnvVar env("PFC_JIT_TMPDIR", scratch.path.c_str());
  const app::GrandChemModel model = noisy_model();
  app::SimulationOptions o = noisy_opts(4);
  o.compile.jit_extra_flags +=
      R"( '-Dmu_split_main=_Pragma("GCC error \"mu unit broken\"") mu_split_main')";
  app::Simulation sim(model, o);
  const obs::CompileReport& cr = sim.compiled().compile_report();
  EXPECT_EQ(cr.backend_tier, "interpreter");
  EXPECT_EQ(cr.fallback_attempts, 2);
  EXPECT_NE(cr.fallback_reason.find("unit 6 of 6"), std::string::npos)
      << cr.fallback_reason;
  EXPECT_NE(sim.compiled().generated_source().find("mu_split_main"),
            std::string::npos);
  init_seed(sim, model.params().epsilon);
  sim.run(3);
  EXPECT_LT(app::phase_statistics(sim.phi()).simplex_violation, 1e-6);
  EXPECT_EQ(entries_in(scratch.path), 0);
}

TEST(JitFallback, StrictVectorWidthEnv) {
  {
    EnvVar env("PFC_VECTOR_WIDTH", "banana");
    EXPECT_THROW(backend::probe_native_vector_width(), Error);
  }
  {
    EnvVar env("PFC_VECTOR_WIDTH", "16");
    EXPECT_THROW(backend::probe_native_vector_width(), Error);
  }
  {
    EnvVar env("PFC_VECTOR_WIDTH", "2");
    EXPECT_EQ(backend::probe_native_vector_width(), 2);
  }
}

TEST(FaultInject, ParseGrammar) {
  const auto p =
      resilience::FaultPlan::parse("nan@12:3,4,5; jit=2 ;truncate");
  EXPECT_EQ(p.nan_step, 12);
  EXPECT_EQ(p.nan_cell[0], 3);
  EXPECT_EQ(p.nan_cell[1], 4);
  EXPECT_EQ(p.nan_cell[2], 5);
  EXPECT_EQ(p.fail_jit_attempts, 2);
  EXPECT_TRUE(p.truncate_checkpoint);
  EXPECT_TRUE(p.any());

  const auto bare = resilience::FaultPlan::parse("nan@7");
  EXPECT_EQ(bare.nan_step, 7);
  EXPECT_EQ(bare.nan_cell[0], 0);
  EXPECT_FALSE(resilience::FaultPlan::parse("").any());

  EXPECT_THROW(resilience::FaultPlan::parse("bogus"), Error);
  EXPECT_THROW(resilience::FaultPlan::parse("nan@"), Error);
  EXPECT_THROW(resilience::FaultPlan::parse("nan@3:1,2"), Error);
  EXPECT_THROW(resilience::FaultPlan::parse("jit=x"), Error);
}

TEST(FaultInject, EnvOverridesOptions) {
  resilience::ResilienceOptions opts;
  opts.faults.nan_step = 99;
  {
    EnvVar env("PFC_FAULT", "nan@3");
    EXPECT_EQ(resilience::effective_faults(opts).nan_step, 3);
  }
  EXPECT_EQ(resilience::effective_faults(opts).nan_step, 99);
}

TEST(FaultInject, NanRecoversViaRollback) {
  const app::GrandChemModel model = noisy_model();
  app::SimulationOptions o = noisy_opts(1);
  o.with_health(obs::HealthOptions{}.enable().every(1).with_policy(
      obs::HealthPolicy::Recover));
  resilience::FaultPlan faults;
  faults.nan_step = 7;
  faults.nan_cell = {5, 5, 0};
  o.with_resilience(resilience::ResilienceOptions{}.every(5)
                        .with_faults(faults));
  app::Simulation sim(model, o);
  init_seed(sim, model.params().epsilon);
  const obs::RunReport rep = sim.run(20);  // net steps, despite the rollback
  EXPECT_EQ(sim.step_count(), 20);
  // the report counts the work: steps 6 and 7 ran twice
  EXPECT_EQ(rep.steps, 22);
  EXPECT_EQ(rep.cell_updates, std::uint64_t(rep.steps * 32 * 32));
  EXPECT_EQ(rep.resilience.rollbacks, 1u);
  EXPECT_EQ(rep.resilience.faults_injected, 1u);
  // the final state must be clean: the injected NaN was rolled away
  EXPECT_LT(app::phase_statistics(sim.phi()).simplex_violation, 1e-6);
  for (long long y = 0; y < 32; ++y) {
    for (long long x = 0; x < 32; ++x) {
      ASSERT_TRUE(std::isfinite(sim.phi().at(x, y, 0, 0)));
    }
  }
}

TEST(FaultInject, DtShrinkAppliedAndReported) {
  const app::GrandChemModel model = noisy_model();
  const double dt0 = model.params().dt;
  app::SimulationOptions o = noisy_opts(1);
  o.with_health(obs::HealthOptions{}.enable().every(1).with_policy(
      obs::HealthPolicy::Recover));
  resilience::FaultPlan faults;
  faults.nan_step = 3;
  o.with_resilience(resilience::ResilienceOptions{}.every(2)
                        .with_dt_shrink(0.5)
                        .with_faults(faults));
  app::Simulation sim(model, o);
  init_seed(sim, model.params().epsilon);
  const obs::RunReport rep = sim.run(6);
  EXPECT_EQ(sim.dt(), 0.5 * dt0);
  EXPECT_EQ(rep.resilience.dt_shrinks, 1u);
  EXPECT_EQ(rep.resilience.dt_current, 0.5 * dt0);
  EXPECT_EQ(sim.step_count(), 6);
}

TEST(FaultInject, GivesUpAfterMaxRetries) {
  const app::GrandChemModel model = noisy_model();
  app::SimulationOptions o = noisy_opts(1);
  o.with_health(obs::HealthOptions{}.enable().every(1).with_policy(
      obs::HealthPolicy::Recover));
  resilience::FaultPlan faults;
  faults.nan_step = 2;
  o.with_resilience(resilience::ResilienceOptions{}.with_max_retries(0)
                        .with_faults(faults));
  app::Simulation sim(model, o);
  init_seed(sim, model.params().epsilon);
  EXPECT_THROW(sim.run(5), Error);
}

TEST(Distributed, CheckpointRestartSerialMultiBlock) {
  TempDir dir("dist");
  ASSERT_FALSE(dir.path.empty());
  const app::GrandChemModel model = noisy_model();
  const auto base = app::SimulationOptions{}
                        .with_cells(32, 32)
                        .with_blocks(2, 2)
                        .with_boundary(grid::BoundaryKind::ZeroGradient)
                        .with_health(obs::HealthOptions{}.enable().every(5));
  const auto init = [&](app::Simulation& sim) {
    sim.init(
        [&](long long x, long long y, long long, int c) {
          const double d =
              std::sqrt(double((x - 16) * (x - 16) + y * y)) - 6.0;
          const double s =
              app::interface_profile(d, 2.5 * model.params().epsilon);
          if (c == 0) return 1.0 - s;
          return c == 1 ? s : 0.0;
        },
        [](long long, long long, long long, int) { return 0.0; });
  };

  app::Simulation whole(model, base, nullptr);
  init(whole);
  whole.run(20);

  {
    auto o = base;
    o.with_resilience(resilience::ResilienceOptions{}.every(10)
                          .with_directory(dir.path));
    app::Simulation first(model, o, nullptr);
    init(first);
    first.run(10);
    EXPECT_EQ(first.resilience_stats().checkpoint_files, 1u);
  }

  auto o = base;
  o.with_resilience(resilience::ResilienceOptions{}.with_restart(dir.path));
  app::Simulation second(model, o, nullptr);
  EXPECT_EQ(second.step_count(), 10);
  second.run(10);

  const std::vector<double> pw = whole.gather_phi();
  const std::vector<double> ps = second.gather_phi();
  ASSERT_EQ(pw.size(), ps.size());
  for (std::size_t i = 0; i < pw.size(); ++i) {
    ASSERT_EQ(pw[i], ps[i]) << "mismatch at flat index " << i;
  }
}

TEST(Distributed, NanRecoversViaRollback) {
  const app::GrandChemModel model = noisy_model();
  auto o = app::SimulationOptions{}
               .with_cells(32, 32)
               .with_blocks(2, 2)
               .with_boundary(grid::BoundaryKind::ZeroGradient)
               .with_health(obs::HealthOptions{}.enable().every(1).with_policy(
                   obs::HealthPolicy::Recover));
  resilience::FaultPlan faults;
  faults.nan_step = 4;
  faults.nan_cell = {20, 20, 0};  // lives in one specific block
  o.with_resilience(resilience::ResilienceOptions{}.every(3)
                        .with_faults(faults));
  app::Simulation sim(model, o, nullptr);
  sim.init(
      [&](long long x, long long y, long long, int c) {
        const double d =
            std::sqrt(double((x - 16) * (x - 16) + y * y)) - 6.0;
        const double s =
            app::interface_profile(d, 2.5 * model.params().epsilon);
        if (c == 0) return 1.0 - s;
        return c == 1 ? s : 0.0;
      },
      [](long long, long long, long long, int) { return 0.0; });
  sim.run(10);
  EXPECT_EQ(sim.step_count(), 10);
  EXPECT_EQ(sim.resilience_stats().rollbacks, 1u);
  for (const double v : sim.gather_phi()) ASSERT_TRUE(std::isfinite(v));
}

}  // namespace
}  // namespace pfc
