// Options JSON round-trips (the serve daemon's lossless-config contract)
// and the pfc-jobspec-v1 schema: strict decoding, validation, and the
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
  const Json j = simulation_options_to_json(opts);
  const SimulationOptions back = simulation_options_from_json(j, "opts");
  EXPECT_TRUE(j == simulation_options_to_json(back)) << j.dump(2);
}

TEST(OptionsJson, DefaultsRoundTrip) {
  expect_roundtrip(SimulationOptions{});
  expect_roundtrip(JobSpec{}.distributed);
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
  opts.compile.split_phi = true;
  opts.compile.split_mu = true;
  opts.compile.fast_math = true;
  opts.compile.cse = false;
  opts.compile.hoist_invariants = false;
  opts.compile.clamp_phi = false;
  opts.compile.schedule = true;
  opts.compile.schedule_beam_width = 7;
  opts.compile.vector_width = 8;
  opts.compile.streaming_stores = true;
  opts.compile.jit_extra_flags = "-ffp-contract=off";
  opts.compile.fail_jit_attempts = 2;
  opts.compile.cache_dir = "/tmp/pfc_cache";
  opts.compile.cache_max_bytes = 1234567;
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
  Json j = simulation_options_to_json(SimulationOptions{});
  j.set("machine", Json("zen2"));
  const SimulationOptions back = simulation_options_from_json(j, "opts");
  EXPECT_EQ(back.machine.name, perf::MachineModel::by_name("zen2").name);
}

TEST(OptionsJson, UnknownKeyNamesThePath) {
  Json j = simulation_options_to_json(SimulationOptions{});
  j.set("bogus_knob", Json(1.0));
  try {
    simulation_options_from_json(j, "opts");
    FAIL() << "unknown key must be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bogus_knob"), std::string::npos)
        << e.what();
  }
}

TEST(OptionsJson, TypeMismatchNamesThePath) {
  Json j = simulation_options_to_json(SimulationOptions{});
  j.set("threads", Json("four"));
  try {
    simulation_options_from_json(j, "opts");
    FAIL() << "type mismatch must be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("threads"), std::string::npos)
        << e.what();
  }
}

TEST(OptionsJson, BadEnumRejected) {
  Json j = compile_options_to_json(CompileOptions{});
  j.set("backend", Json("fortran"));
  EXPECT_THROW(compile_options_from_json(j, "compile"), Error);
}

TEST(JobSpec, RoundTripsLosslessly) {
  JobSpec spec;
  spec.name = "roundtrip";
  spec.steps = 42;
  spec.mode = "distributed";
  spec.model.preset = "p1";
  spec.model.dims = 3;
  spec.model.dt = 0.005;
  spec.model.rng_seed = 7;  // epsilon/noise left unset: absence round-trips
  spec.initial.kind = "uniform";
  spec.initial.solid_phase = 0;
  spec.distributed.threads = 2;

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
    s.mode = "mpi";
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

/// A default spec's JSON text with `key` set to the number `literal`, at
/// the top level or in the object at `section` ("" = top level; the
/// model's overrides are "model.overrides").
std::string spec_with(const std::string& section, const std::string& key,
                      const std::string& literal) {
  Json inner = Json::object().set(key, Json(12345.0));
  Json j = JobSpec{}.to_json();
  if (section == "model.overrides") {
    Json model = *j.find("model");
    model.set("overrides", inner);
    j.set("model", model);
  } else {
    j.set(section, inner);
  }
  std::string text = j.dump(-1);
  const std::size_t at = text.find("12345");
  return text.replace(at, text.find_first_of(",}", at) - at, literal);
}

// Integers beyond 2^53 are rejected by field name: a double cannot hold
// them, so 9007199254740993 would arrive as 2^53 and 1e19 would overflow.
TEST(JobSpec, RejectsIntegersADoubleCannotHold) {
  const struct {
    const char* section;
    const char* key;
  } fields[] = {{"model.overrides", "rng_seed"}, {"simulation", "threads"}};
  for (const auto& f : fields) {
    for (const char* literal : {"1e19", "-1e19", "9007199254740993"}) {
      try {
        JobSpec::parse(spec_with(f.section, f.key, literal));
        ADD_FAILURE() << f.key << " = " << literal << " must be rejected";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(f.key), std::string::npos)
            << e.what();
      }
    }
  }
  const JobSpec ok =
      JobSpec::parse(spec_with("model.overrides", "rng_seed",
                               "9007199254740991"));
  EXPECT_EQ(*ok.model.rng_seed, 9007199254740991u);
}

// Each section accepts its own mode's keys only: the block layout and
// overlap belong to "distributed", the time scheme and the threading and
// blocking knobs to "simulation". A forest in "simulation" would otherwise
// run, and be autotuned, as a one-block job.
TEST(JobSpec, SectionsKeepTheirOwnKeys) {
  const struct {
    const char* section;
    const char* key;
    const char* literal;
  } fields[] = {{"simulation", "blocks_per_dim", "[2,2,1]"},
                {"simulation", "overlap", "\"interior_frontier\""},
                {"distributed", "time_scheme", "\"heun\""},
                {"distributed", "pin", "\"compact\""},
                {"distributed", "first_touch", "false"},
                {"distributed", "dispatch", "\"dynamic\""},
                {"distributed", "blocking", "\"auto\""},
                {"distributed", "blocking_tile_rows", "4"}};
  const Json defaults = JobSpec{}.to_json();
  for (const auto& f : fields) {
    const std::string path = std::string(f.section) + "." + f.key;
    EXPECT_EQ(defaults.find(f.section)->find(f.key), nullptr) << path;
    try {
      JobSpec::parse(spec_with(f.section, f.key, f.literal));
      ADD_FAILURE() << path << " must be rejected";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
  }
  EXPECT_NE(defaults.find("distributed")->find("blocks_per_dim"), nullptr);
  EXPECT_NE(defaults.find("simulation")->find("dispatch"), nullptr);

  // A spec built in code meets the same rule in validate(), which run_job
  // calls before it tunes or compiles anything.
  JobSpec forest;
  forest.simulation.blocks_per_dim = {2, 2, 1};
  EXPECT_THROW(run_job(forest), Error);
  JobSpec heun;
  heun.distributed.time_scheme = TimeScheme::Heun;
  EXPECT_THROW(heun.validate(), Error);
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

TEST(JobSpec, DistributedModeGathersTheSameFields) {
  // One spec, run as one block and as a 2x2 forest: the gathered φ and µ
  // hash to the same checksums.
  JobSpec spec;
  spec.name = "modes";
  spec.model.preset = "p2";
  spec.steps = 10;
  spec.simulation.cells = {64, 64, 1};
  spec.simulation.compile.cache_dir =
      ::testing::TempDir() + "pfc_jobspec_modes_cache";
  spec.distributed = spec.simulation;
  spec.distributed.blocks_per_dim = {2, 2, 1};

  const JobResult single = run_job(spec);
  spec.mode = "distributed";
  const JobResult dist = run_job(spec);
  EXPECT_EQ(dist.run.num_blocks, 4);
  EXPECT_NE(single.mu_checksum, 0u);
  EXPECT_EQ(single.phi_checksum, dist.phi_checksum);
  EXPECT_EQ(single.mu_checksum, dist.mu_checksum);
  std::filesystem::remove_all(spec.simulation.compile.cache_dir);
}

}  // namespace
}  // namespace pfc::app
