// Options JSON round-trips (the serve daemon's lossless-config contract)
// and the pfc-jobspec-v2 schema: strict decoding, validation, and the
// deterministic run_job engine.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "pfc/app/jobspec.hpp"
#include "pfc/app/options_json.hpp"
#include "pfc/app/simulation.hpp"
#include "pfc/obs/json.hpp"

namespace pfc::app {
namespace {

using obs::Json;

/// Field-for-field equality via the lossless JSON form: to_json writes
/// every member, so equal JSON means equal options.
void expect_roundtrip(const SimulationOptions& opts) {
  const Json j = options_to_json(opts);
  const auto back = options_from_json<SimulationOptions>(j, "opts");
  EXPECT_TRUE(j == options_to_json(back)) << j.dump(2);
}

/// The error a strict decode of `j` throws ("" when it decodes).
std::string decode_error(const Json& j) {
  try {
    options_from_json<SimulationOptions>(j, "opts");
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(OptionsJson, DefaultsRoundTrip) {
  expect_roundtrip(SimulationOptions{});
  expect_roundtrip(SimulationOptions{}.with_blocks(2, 2));
}

// The exact presets the examples construct (quickstart single, quickstart
// --overlap, distributed_demo) survive to_json -> from_json unchanged.
TEST(OptionsJson, ExamplePresetsRoundTrip) {
  auto health = obs::HealthOptions{}.enable().every(100);

  auto quickstart = SimulationOptions{}.with_cells(128, 128).with_health(health);
  quickstart.threads = 4;
  quickstart.with_trace(obs::TraceOptions{}.enable().with_path("trace.json"));
  quickstart.with_resilience(resilience::ResilienceOptions{}.every(50).with_directory(
      "quickstart_ckpt"));
  expect_roundtrip(quickstart);

  auto overlap = SimulationOptions{}
                     .with_cells(128, 128)
                     .with_blocks(2, 2)
                     .with_overlap(OverlapMode::InteriorFrontier)
                     .with_threads(4)
                     .with_health(health);
  expect_roundtrip(overlap);

  auto demo = SimulationOptions{}
                  .with_cells(96, 96)
                  .with_blocks(2, 2)
                  .with_health(obs::HealthOptions{}.enable().with_policy(
                      obs::HealthPolicy::Throw))
                  .with_overlap(OverlapMode::InteriorFrontier)
                  .with_threads(2);
  expect_roundtrip(demo);
}

TEST(OptionsJson, EveryFieldSurvives) {
  SimulationOptions opts;
  opts.cells = {48, 32, 4};
  opts.boundary = grid::BoundaryKind::ZeroGradient;
  opts.threads = 3;
  opts.time_scheme = TimeScheme::Heun;
  opts.compile.backend = Backend::Interpreter;
  opts.compile.fast_math = true;
  opts.compile.cse = false;
  opts.compile.hoist_invariants = false;
  opts.compile.clamp_phi = false;
  opts.compile.schedule = true;
  opts.compile.schedule_beam_width = 7;
  opts.compile.vector_width = 8;
  opts.compile.streaming_stores = true;
  opts.compile.jit_extra_flags = "-ffp-contract=off";
  opts.compile.cache_dir = "/tmp/pfc_cache";
  opts.compile.cache_max_bytes = 1234567;
  opts.compile.tune = TuneMode::Cached;
  opts.pin = support::PinPolicy::Scatter;
  opts.first_touch = false;
  opts.dispatch = Dispatch::Dynamic;
  opts.blocking = BlockingMode::Fixed;
  opts.blocking_tile_rows = 6;
  opts.trace.enabled = true;
  opts.trace.sample_every = 5;
  opts.trace.max_events = 999;
  opts.trace.path = "t.json";
  opts.health.enabled = true;
  opts.health.every_n_steps = 7;
  opts.health.policy = obs::HealthPolicy::Recover;
  opts.health.phase_sum_tol = 1e-7;
  opts.machine = perf::MachineModel::by_name("zen2");
  opts.machine.cores = 48;
  opts.resilience.checkpoint_every = 11;
  opts.resilience.directory = "ckpt";
  opts.resilience.restart_from = "ckpt_old";
  opts.resilience.max_retries = 5;
  opts.resilience.dt_shrink = 0.5;
  opts.resilience.faults.nan_step = 13;
  opts.resilience.faults.nan_cell = {1, 2, 3};
  opts.resilience.faults.fail_jit_attempts = 1;
  opts.resilience.faults.truncate_checkpoint = true;
  expect_roundtrip(opts);

  SimulationOptions dopts;
  dopts.cells = {96, 96, 1};
  dopts.blocks_per_dim = {4, 2, 1};
  dopts.overlap = OverlapMode::InteriorFrontier;
  dopts.threads = 2;
  dopts.compile.fast_math = true;
  expect_roundtrip(dopts);
}

TEST(OptionsJson, MachinePresetStringAccepted) {
  Json j = options_to_json(SimulationOptions{});
  j.set("machine", Json("zen2"));
  const auto back = options_from_json<SimulationOptions>(j, "opts");
  EXPECT_EQ(back.machine.name, perf::MachineModel::by_name("zen2").name);
}

/// `j` with `value` at the dotted `path` ("compile.bogus"); an object on
/// the way that `j` lacks is created.
Json with(Json j, const std::string& path, const Json& value) {
  const std::size_t dot = path.find('.');
  if (dot == std::string::npos) return j.set(path, value);
  const std::string head = path.substr(0, dot);
  const Json* inner = j.find(head);
  return j.set(head, with(inner ? *inner : Json::object(),
                          path.substr(dot + 1), value));
}

TEST(OptionsJson, RetiredSplitKeysDecodeAndAreNotWritten) {
  // Specs written while the whole-block flux path existed carry
  // compile.split_phi/split_mu; they still decode, and nothing writes them.
  Json j = options_to_json(SimulationOptions{});
  j = with(j, "compile.split_phi", Json(true));
  j = with(j, "compile.split_mu", Json(false));
  const auto back = options_from_json<SimulationOptions>(j, "opts");
  const Json again = options_to_json(back);
  EXPECT_EQ(again.find("compile")->find("split_phi"), nullptr);
  EXPECT_EQ(again.find("compile")->find("split_mu"), nullptr);
  EXPECT_TRUE(again == options_to_json(SimulationOptions{})) << again.dump(2);

  const JobSpec spec = JobSpec::parse(R"({
    "schema": "pfc-jobspec-v2", "name": "old", "steps": 2,
    "simulation": {"cells": [8, 8, 1],
                   "compile": {"split_phi": true, "split_mu": true}}})");
  const std::string text = spec.to_json().dump(-1);
  EXPECT_EQ(text.find("split_phi"), std::string::npos) << text;
  EXPECT_EQ(text.find("split_mu"), std::string::npos) << text;
}

TEST(OptionsJson, UnknownKeyNamesThePath) {
  const Json def = options_to_json(SimulationOptions{});
  // compile.fail_jit_attempts is the driver's copy of the fault plan's
  // (resilience.faults.fail_jit_attempts, PFC_FAULT), so not a key
  for (const char* path : {"bogus_knob", "compile.bogus",
                           "resilience.faults.bogus",
                           "compile.fail_jit_attempts"}) {
    const std::string err = decode_error(with(def, path, Json(1.0)));
    EXPECT_NE(err.find(std::string("opts.") + path + ": unknown key"),
              std::string::npos)
        << path << ": " << err;
  }
  // machine.caches[0].bogus: an array element is a path step too
  Json caches = *def.find("machine")->find("caches");
  ASSERT_FALSE(caches.elements().empty());
  Json first = caches.elements()[0];
  first.set("bogus", Json(1.0));
  Json patched = Json::array().push(first);
  for (std::size_t i = 1; i < caches.elements().size(); ++i) {
    patched.push(caches.elements()[i]);
  }
  const std::string err = decode_error(with(def, "machine.caches", patched));
  EXPECT_NE(err.find("opts.machine.caches[0].bogus: unknown key"),
            std::string::npos)
      << err;
}

TEST(OptionsJson, TypeMismatchNamesThePath) {
  const std::string err = decode_error(
      with(options_to_json(SimulationOptions{}), "threads", Json("four")));
  EXPECT_NE(err.find("opts.threads: expected a number"), std::string::npos)
      << err;
}

TEST(OptionsJson, BadEnumRejected) {
  const std::string err =
      decode_error(with(options_to_json(SimulationOptions{}),
                        "compile.backend", Json("fortran")));
  EXPECT_NE(err.find("opts.compile.backend: unknown backend \"fortran\" "
                     "(valid: jit, interpreter)"),
            std::string::npos)
      << err;
}

TEST(JobSpec, RoundTripsLosslessly) {
  JobSpec spec;
  spec.name = "roundtrip";
  spec.steps = 42;
  spec.model.preset = "p1";
  spec.model.dims = 3;
  spec.model.dt = 0.005;
  spec.model.rng_seed = 7;  // epsilon/noise left unset: absence round-trips
  spec.initial.kind = "uniform";
  spec.initial.solid_phase = 0;
  spec.simulation.threads = 2;
  spec.simulation.blocks_per_dim = {2, 2, 1};

  const Json j = spec.to_json();
  const JobSpec back = JobSpec::from_json(j);
  EXPECT_TRUE(j == back.to_json()) << j.dump(2);
  EXPECT_TRUE(back.model.dt.has_value());
  EXPECT_FALSE(back.model.epsilon.has_value());
}

TEST(JobSpec, RequiresSchemaTag) {
  Json j = JobSpec{}.to_json();
  j.set("schema", Json("pfc-jobspec-v0"));
  EXPECT_THROW(JobSpec::from_json(j), Error);
  EXPECT_THROW(JobSpec::parse("{}"), Error);
  EXPECT_THROW(JobSpec::parse("not json"), Error);
}

TEST(JobSpec, ValidateRejectsBadValues) {
  {
    JobSpec s;
    s.model.preset = "unknown_model";
    EXPECT_THROW(s.validate(), Error);
  }
  {
    JobSpec s;
    s.simulation.threads = 0;
    EXPECT_THROW(s.validate(), Error);
  }
  {
    JobSpec s;
    s.model.dt = -0.5;
    EXPECT_THROW(s.validate(), Error);
  }
  {
    JobSpec s;
    s.initial.radius_fraction = 0.9;
    EXPECT_THROW(s.validate(), Error);
  }
}

/// A default spec's JSON text with the JSON text `literal` at the dotted
/// `path` ("simulation.compile.vector_width").
std::string spec_with(const std::string& path, const std::string& literal) {
  const std::string mark = "\"@literal@\"";
  std::string text =
      with(JobSpec{}.to_json(), path, Json("@literal@")).dump(-1);
  return text.replace(text.find(mark), mark.size(), literal);
}

/// The error JobSpec::parse throws on `text` ("" when it parses).
std::string parse_error(const std::string& text) {
  try {
    JobSpec::parse(text);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// Every integer field and array element is integral, below 2^53 in
// magnitude and inside its member's type, or refused by its path: a
// double cannot hold 9007199254740993 (it would arrive as 2^53), 1e19
// overflows, 4294967297 would wrap an int to 1 and 48.7 would truncate.
TEST(JobSpec, RejectsIntegersADoubleCannotHold) {
  const struct {
    const char* path;
    const char* literal;
    const char* names;  ///< the path the error must name
  } inputs[] = {
      {"model.overrides.rng_seed", "1e19", "model.overrides.rng_seed"},
      {"model.overrides.rng_seed", "-1e19", "model.overrides.rng_seed"},
      {"model.overrides.rng_seed", "9007199254740993",
       "model.overrides.rng_seed"},
      {"model.overrides.rng_seed", "-1", "model.overrides.rng_seed"},
      {"simulation.threads", "1e19", "simulation.threads"},
      {"simulation.threads", "-1e19", "simulation.threads"},
      {"simulation.threads", "9007199254740993", "simulation.threads"},
      {"simulation.threads", "4294967297", "simulation.threads"},
      {"simulation.compile.vector_width", "4294967300",
       "simulation.compile.vector_width"},
      {"simulation.cells", "[48.7, 48, 1]", "simulation.cells[0]"},
      {"simulation.cells", "[48, 1e19, 1]", "simulation.cells[1]"},
      {"simulation.blocks_per_dim", "[1, 1, 4294967297]",
       "simulation.blocks_per_dim[2]"},
      {"simulation.resilience.faults.nan_cell", "[0, 0.5, 0]",
       "simulation.resilience.faults.nan_cell[1]"},
      {"simulation.compile.cache_max_bytes", "-1",
       "simulation.compile.cache_max_bytes"},
      {"steps", "4294967297", "steps"}};
  for (const auto& in : inputs) {
    const std::string err = parse_error(spec_with(in.path, in.literal));
    EXPECT_NE(err.find(std::string("jobspec.") + in.names + ": "),
              std::string::npos)
        << in.path << " = " << in.literal << ": \"" << err << "\"";
  }
  const JobSpec ok = JobSpec::parse(
      spec_with("model.overrides.rng_seed", "9007199254740991"));
  EXPECT_EQ(*ok.model.rng_seed, 9007199254740991u);
}

// v2 has one "simulation" section: a v1 tag, its "mode" and its
// "distributed" section are refused by path, and so is autotuning a
// forest (the tuner measures one block).
TEST(JobSpec, RefusesV1KeysAndTunedForests) {
  const Json def = JobSpec{}.to_json();
  const struct {
    Json spec;
    const char* names;
  } inputs[] = {
      {with(def, "schema", Json("pfc-jobspec-v1")), "jobspec.schema: "},
      {with(def, "mode", Json("single")), "jobspec.mode: unknown key"},
      {with(def, "distributed", Json::object()),
       "jobspec.distributed: unknown key"},
      {with(with(def, "simulation.compile.tune", Json("full")),
            "simulation.blocks_per_dim",
            Json::array().push(Json(2)).push(Json(2)).push(Json(1))),
       "simulation.compile.tune: "}};
  for (const auto& in : inputs) {
    const std::string err = parse_error(in.spec.dump(-1));
    EXPECT_NE(err.find(in.names), std::string::npos)
        << in.names << ": \"" << err << "\"";
  }

  // A spec built in code meets the tune rule in validate(), which run_job
  // calls before it tunes or compiles anything.
  JobSpec forest;
  forest.simulation.blocks_per_dim = {2, 2, 1};
  forest.simulation.compile.tune = TuneMode::Full;
  EXPECT_THROW(run_job(forest), Error);
  forest.simulation.compile.tune = TuneMode::Off;
  EXPECT_NO_THROW(forest.validate());
}

TEST(JobSpec, MakeParamsAppliesOverrides) {
  JobSpec spec;
  spec.model.preset = "two_phase";
  spec.model.dims = 2;
  spec.model.dt = 0.004;
  spec.model.epsilon = 3.0;
  spec.model.rng_seed = 99;
  const GrandChemParams p = spec.make_params();
  EXPECT_EQ(p.dims, 2);
  EXPECT_DOUBLE_EQ(p.dt, 0.004);
  EXPECT_DOUBLE_EQ(p.epsilon, 3.0);
  EXPECT_EQ(p.rng_seed, 99u);

  JobSpec bad = spec;
  bad.initial.solid_phase = 99;  // >= p.phases
  EXPECT_THROW(bad.make_params(), Error);
}

TEST(JobSpec, RunJobIsDeterministic) {
  JobSpec spec;
  spec.name = "det";
  spec.steps = 2;
  spec.simulation.cells = {16, 16, 1};
  spec.simulation.compile.backend = Backend::Interpreter;

  const JobResult a = run_job(spec);
  const JobResult b = run_job(spec);
  EXPECT_EQ(a.steps, 2);
  EXPECT_EQ(a.run.steps, 2);
  EXPECT_NE(a.phi_checksum, 0u);
  EXPECT_EQ(a.phi_checksum, b.phi_checksum);
  EXPECT_EQ(a.mu_checksum, b.mu_checksum);

  const Json j = a.to_json();
  ASSERT_NE(j.find("phi_fnv1a64"), nullptr);
  EXPECT_EQ(j.find("phi_fnv1a64")->str().size(), 16u);
}

TEST(JobSpec, BlockLayoutsGatherTheSameFields) {
  // One spec, run at blocks_per_dim {1,1,1} and {2,2,1}: the gathered φ and
  // µ hash to the same checksums.
  JobSpec spec;
  spec.name = "layouts";
  spec.model.preset = "p2";
  spec.steps = 10;
  spec.simulation.cells = {64, 64, 1};
  spec.simulation.compile.cache_dir =
      ::testing::TempDir() + "pfc_jobspec_layouts_cache";

  const JobResult one = run_job(spec);
  spec.simulation.blocks_per_dim = {2, 2, 1};
  const JobResult forest = run_job(spec);
  EXPECT_EQ(one.run.num_blocks, 1);
  EXPECT_EQ(forest.run.num_blocks, 4);
  EXPECT_NE(one.mu_checksum, 0u);
  EXPECT_EQ(one.phi_checksum, forest.phi_checksum);
  EXPECT_EQ(one.mu_checksum, forest.mu_checksum);
  std::filesystem::remove_all(spec.simulation.compile.cache_dir);
}

}  // namespace
}  // namespace pfc::app
