// Observability subsystem: counter determinism under the thread pool,
// guarded rates, JSON round-trips, and the driver/compiler reporting
// contract (RunReport kernel names == CompiledModel kernel IR names).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "pfc/app/jobspec.hpp"
#include "pfc/app/params.hpp"
#include "pfc/app/simulation.hpp"
#include "pfc/obs/metrics.hpp"
#include "pfc/obs/report.hpp"
#include "pfc/support/thread_pool.hpp"

namespace pfc::obs {
namespace {

TEST(ObsRegistryTest, CounterDeterministicAcrossThreads) {
  Counter c;
  ThreadPool pool(4);
  const std::int64_t n = 100000;
  pool.parallel_for(0, n, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) c.add(2);
  });
  pool.run_on_all([&](int) { c.add(1); });
  EXPECT_EQ(c.value(), std::uint64_t(2 * n) + std::uint64_t(pool.num_threads()));
}

TEST(ObsRegistryTest, SafeRateGuardsEmptyDenominators) {
  EXPECT_EQ(safe_rate(5.0, 0.0), 0.0);
  EXPECT_EQ(safe_rate(5.0, -1.0), 0.0);
  EXPECT_EQ(safe_rate(5.0, std::nan("")), 0.0);
  EXPECT_DOUBLE_EQ(safe_rate(6.0, 2.0), 3.0);
  RunReport empty;
  EXPECT_EQ(empty.mlups(), 0.0);
  EXPECT_EQ(empty.exchange_bytes_per_second(), 0.0);
}

TEST(ObsRegistryTest, SafeRateGuardsNonFiniteOperands) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(safe_rate(inf, 2.0), 0.0);
  EXPECT_EQ(safe_rate(std::nan(""), 2.0), 0.0);
  EXPECT_EQ(safe_rate(5.0, inf), 0.0);
  EXPECT_EQ(safe_rate(0.0, 0.0), 0.0);
  EXPECT_EQ(safe_rate(5.0, std::numeric_limits<double>::denorm_min() * 0.0),
            0.0);
  // signed numerators pass through: rates may legitimately be deltas
  EXPECT_DOUBLE_EQ(safe_rate(-6.0, 2.0), -3.0);
}

TEST(ObsJsonTest, RoundTripPreservesStructure) {
  Json j = Json::object()
               .set("schema", Json(kReportSchema))
               .set("pi", Json(3.141592653589793))
               .set("count", Json(std::uint64_t(42)))
               .set("flag", Json(true))
               .set("text", Json("line\n\"quoted\"\ttab"))
               .set("arr", Json::array().push(Json(1)).push(
                               Json::object().set("k", Json(2.5))));
  std::string err;
  const Json back = Json::parse(j.dump(2), &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_TRUE(back == j);
  // compact form round-trips too
  const Json back2 = Json::parse(j.dump(-1), &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_TRUE(back2 == j);
}

TEST(ObsJsonTest, ParseRejectsMalformedInput) {
  std::string err;
  Json::parse("{\"a\": }", &err);
  EXPECT_FALSE(err.empty());
  Json::parse("[1, 2", &err);
  EXPECT_FALSE(err.empty());
  Json::parse("{} trailing", &err);
  EXPECT_FALSE(err.empty());
  // The parser recurses once per level: past the depth cap (256) nesting
  // is an error, not a stack overflow; 256 levels still parse.
  Json::parse(std::string(100000, '['), &err);
  EXPECT_NE(err.find("nesting deeper than 256"), std::string::npos) << err;
  const std::string deep = std::string(256, '[') + std::string(256, ']');
  Json::parse(deep, &err);
  EXPECT_TRUE(err.empty()) << err;
  Json::parse("{\"a\":" + deep + "}", &err);  // 257 levels
  EXPECT_NE(err.find("nesting deeper than 256"), std::string::npos) << err;
}

TEST(ObsJsonTest, UnicodeEscapesDecodeToUtf8) {
  std::string err;
  const Json e_acute = Json::parse("\"caf\\u00e9\"", &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(e_acute.str(), "caf\xC3\xA9");
  // a surrogate pair is one code point, four bytes of UTF-8
  const Json grin = Json::parse("\"\\ud83d\\ude00\"", &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(grin.str(), "\xF0\x9F\x98\x80");
  // the escaped and the raw spelling are one string, and it writes raw
  EXPECT_EQ(Json::parse("\"caf\xC3\xA9\"", &err).str(), e_acute.str());
  EXPECT_EQ(e_acute.dump(-1), "\"caf\xC3\xA9\"");
  // lone surrogates, high or low, and a high one paired with a non-low
  for (const char* bad : {"\"\\ud800\"", "\"\\ud800x\"", "\"\\udc00\"",
                          "\"\\ud800\\u0041\""}) {
    Json::parse(bad, &err);
    EXPECT_NE(err.find("bad \\u escape"), std::string::npos) << bad;
  }
  // distinct names stay distinct quota keys after decoding
  const auto spec_for = [](const std::string& tenant_literal) {
    Json j = app::JobSpec{}.to_json();
    j.set("tenant", Json("@tenant@"));
    std::string text = j.dump(-1);
    const std::string mark = "\"@tenant@\"";
    return text.replace(text.find(mark), mark.size(), tenant_literal);
  };
  const app::JobSpec escaped = app::JobSpec::parse(spec_for("\"caf\\u00e9\""));
  const app::JobSpec ascii = app::JobSpec::parse(spec_for("\"caf?\""));
  EXPECT_EQ(escaped.tenant, "caf\xC3\xA9");
  EXPECT_NE(escaped.tenant, ascii.tenant);
}

TEST(ObsReportTest, RunReportJsonHasSharedSchema) {
  RunReport r;
  r.name = "test";
  r.steps = 3;
  r.cells_per_step = 100;
  r.cell_updates = 300;
  r.kernel_timers["phi_full"] = {0.25, 3};
  r.kernel_seconds_total = 0.25;
  const Json j = r.to_json();
  ASSERT_NE(j.find("schema"), nullptr);
  EXPECT_EQ(j.find("schema")->str(), kReportSchema);
  EXPECT_EQ(j.find("kind")->str(), "run");
  ASSERT_NE(j.find("timers"), nullptr);
  ASSERT_NE(j.find("timers")->find("kernel/phi_full"), nullptr);
  ASSERT_NE(j.find("counters"), nullptr);
  EXPECT_EQ(j.find("counters")->find("cell_updates")->number(), 300.0);
  ASSERT_NE(j.find("derived"), nullptr);
  EXPECT_NEAR(j.find("derived")->find("mlups")->number(), 300.0 / 0.25 / 1e6,
              1e-12);
}

app::SimulationOptions interp_opts() {
  app::SimulationOptions o;
  o.with_cells(24, 24);
  o.compile.backend = app::Backend::Interpreter;
  return o;
}

void init_disk(app::Simulation& sim) {
  sim.init_phi([](long long x, long long y, long long, int c) {
    const double d =
        std::sqrt(double((x - 12) * (x - 12) + (y - 12) * (y - 12))) - 6.0;
    const double s = app::interface_profile(d, 4.0);
    return c == 1 ? s : 1.0 - s;
  });
  sim.init_mu([](long long, long long, long long, int) { return 0.0; });
}

TEST(ObsReportTest, RunReportKernelNamesMatchCompiledKernelIrNames) {
  app::GrandChemModel model(app::make_two_phase(2));
  app::Simulation sim(model, interp_opts());
  init_disk(sim);
  const RunReport rep = sim.run(2);

  std::vector<std::string> ir_names;
  for (const auto& ck : sim.compiled().phi_kernels) {
    ir_names.push_back(ck.ir.name);
  }
  for (const auto& ck : sim.compiled().mu_kernels) {
    ir_names.push_back(ck.ir.name);
  }
  ASSERT_EQ(rep.kernel_timers.size(), ir_names.size());
  for (const auto& name : ir_names) {
    EXPECT_TRUE(rep.kernel_timers.count(name))
        << "missing kernel timer '" << name << "'";
    EXPECT_EQ(rep.kernel_timers.at(name).count, 2u) << name;
  }
  // and the compile report advertises the same names
  const auto& cr_names = sim.compiled().compile_report().kernel_names;
  ASSERT_EQ(cr_names.size(), ir_names.size());
  for (std::size_t i = 0; i < ir_names.size(); ++i) {
    EXPECT_EQ(cr_names[i], ir_names[i]);
  }
}

TEST(ObsReportTest, HeunSubstepsCountAsOneLatticeUpdate) {
  app::GrandChemModel model(app::make_two_phase(2));
  app::SimulationOptions o = interp_opts();
  o.time_scheme = app::TimeScheme::Heun;
  app::Simulation sim(model, o);
  init_disk(sim);
  const RunReport rep = sim.run(3);
  EXPECT_EQ(rep.cell_updates, 3u * 24u * 24u)
      << "Heun's two substeps must count as one update";
  // ...while every kernel really ran twice per step
  for (const auto& [name, t] : rep.kernel_timers) {
    EXPECT_EQ(t.count, 6u) << name;
  }
}

TEST(ObsReportTest, RunZeroStepsYieldsZeroedReport) {
  app::GrandChemModel model(app::make_two_phase(2));
  app::Simulation sim(model, interp_opts());
  init_disk(sim);
  const RunReport rep = sim.run(0);
  EXPECT_EQ(rep.steps, 0);
  EXPECT_EQ(rep.cell_updates, 0u);
  EXPECT_EQ(rep.mlups(), 0.0);
  EXPECT_EQ(rep.kernel_seconds_total, 0.0);
  EXPECT_EQ(rep.block_imbalance, 0.0);
  EXPECT_TRUE(rep.kernel_timers.empty());
  EXPECT_TRUE(rep.model_accuracy.empty());
  EXPECT_EQ(rep.worst_model_drift(), 0.0);
  EXPECT_EQ(rep.health.checks, 0);
  // the empty report still serializes to the full v2 schema
  const Json j = rep.to_json();
  EXPECT_EQ(j.find("schema")->str(), kReportSchema);
  ASSERT_NE(j.find("health"), nullptr);
  EXPECT_EQ(j.find("health")->find("checks")->number(), 0.0);
}

TEST(ObsReportTest, ModelAccuracyCoversEveryGeneratedKernel) {
  app::GrandChemModel model(app::make_two_phase(2));
  app::Simulation sim(model, interp_opts());
  init_disk(sim);
  const RunReport rep = sim.run(2);
  for (const auto& [name, t] : rep.kernel_timers) {
    const auto it = rep.model_accuracy.find("kernel/" + name);
    ASSERT_NE(it, rep.model_accuracy.end())
        << "no model_accuracy entry for kernel " << name;
    EXPECT_TRUE(std::isfinite(it->second.ratio)) << name;
    EXPECT_GE(it->second.ratio, 0.0) << name;
    EXPECT_GE(it->second.predicted_seconds, 0.0) << name;
    EXPECT_DOUBLE_EQ(it->second.measured_seconds, t.seconds) << name;
  }
  EXPECT_TRUE(std::isfinite(rep.worst_model_drift()));
  // the section survives the JSON round trip
  const Json j = rep.to_json();
  ASSERT_NE(j.find("model_accuracy"), nullptr);
  EXPECT_EQ(j.find("model_accuracy")->items().size(),
            rep.model_accuracy.size());
  ASSERT_NE(j.find("derived")->find("worst_model_drift"), nullptr);
}

TEST(ObsReportTest, CumulativeAcrossBursts) {
  app::GrandChemModel model(app::make_two_phase(2));
  app::Simulation sim(model, interp_opts());
  init_disk(sim);
  const RunReport r1 = sim.run(2);
  const RunReport r2 = sim.run(3);
  EXPECT_EQ(r1.steps, 2);
  EXPECT_EQ(r2.steps, 5);
  EXPECT_GE(r2.kernel_seconds_total, r1.kernel_seconds_total);
  EXPECT_EQ(r2.cell_updates, 5u * 24u * 24u);
}


// --- strict decode (ctest report_decode_strict) ------------------------------

/// A run report with every member away from its default: overlap and
/// tuning on, two model_accuracy targets, a restart, an embedded compile
/// report.
RunReport full_run_report() {
  RunReport r;
  r.name = "full";
  r.steps = 40;
  r.cells_per_step = 4096;
  r.cell_updates = 40 * 4096;
  r.kernel_timers["phi-full"] = {0.75, 160};
  r.kernel_timers["mu-full"] = {0.3333333333333333, 160};
  r.kernel_seconds_total = 0.75 + 0.3333333333333333;
  r.exchange_seconds = 0.0625;
  r.exchange_bytes = 123456;
  r.num_blocks = 4;
  r.block_imbalance = 1.0625;
  r.model_accuracy["kernel/phi-full"] = {0.5, 0.75, 1.5};
  r.model_accuracy["exchange"] = {0.03125, 0.0625, 2.0};
  r.health = {7, 1, 2, 3, 4, 0.125, 1.5e-9};
  r.health_policy = HealthPolicy::Recover;
  r.resilience = {3, 2, 40, 1, 1, 1, true, 20, 0.0025};
  r.overlap = {true, 0.01, 0.02, 0.5, 0.25, 3584, 512, 0.015, 0.75};
  r.threading.threads = 2;
  r.threading.pin_policy = "compact";
  r.threading.dispatch = "dynamic";
  r.threading.first_touch = true;
  r.threading.cpus = 4;
  r.threading.cores = 4;
  r.threading.packages = 1;
  r.threading.numa_nodes = 2;
  r.threading.blocking_enabled = true;
  r.threading.blocking_tile_rows = 16;
  r.threading.blocking_lookahead = 2;
  r.threading.fused_stages = 2;
  r.threading.fused_substeps = 40;
  r.threading.blocking_reason = "tile fits L2";
  r.threading.bytes_per_update_unfused = 96.0;
  r.threading.bytes_per_update_fused = 48.5;
  r.tuning.enabled = true;
  r.tuning.mode = "full";
  r.tuning.cache_key = std::string(64, 'a');
  r.tuning.machine = "cpus=4;cores=4";
  r.tuning.candidates = 24;
  r.tuning.measured_runs = 8;
  r.tuning.search_seconds = 3.25;
  r.tuning.baseline_mlups = 10.5;
  r.tuning.best_mlups = 12.25;
  r.tuning.best_config = "w=4 nt=0";
  r.tuning.ranking = {{"w=1 nt=0", 9.0, 10.5}, {"w=4 nt=0", 11.0, 12.25}};
  return r;
}

/// A compile report served from the kernel cache after one fallback.
CompileReport full_compile_report() {
  CompileReport c;
  c.name = "full-compile";
  c.add_stage("discretize", 0.125);
  c.add_stage("emit", 0.0625);
  c.add_stage("jit", 1.5);
  c.ops_per_cell_pre = 4000;
  c.ops_per_cell_post = 900;
  c.vector_width = 4;
  c.ops_per_cell_widened = 312.5;
  c.kernel_names = {"phi-full", "mu-full"};
  c.backend_tier = support::enum_name(BackendTier::Scalar);
  c.fallback_reason = "unit 1 of 2: injected failure";
  c.fallback_attempts = 1;
  c.cache_used = true;
  c.cache_hit = true;
  c.cache_key = std::string(64, 'b');
  c.cache_hits = 3;
  c.cache_misses = 1;
  c.cache_evictions = 2;
  c.cache_bytes = 65536;
  return c;
}

// Every member is written, so JSON equality after decode is member
// equality; the members whose JSON form is not a plain copy (the timers,
// the cache flag, the embedded report) are compared directly too.
TEST(ObsReportTest, EveryFieldSurvivesDecode) {
  RunReport r = full_run_report();
  r.compile = full_compile_report();
  const Json j = r.to_json();
  const RunReport back = RunReport::from_json(j);
  EXPECT_TRUE(back.to_json() == j) << j.dump(2);
  EXPECT_EQ(back.steps, r.steps);
  EXPECT_EQ(back.exchange_seconds, r.exchange_seconds);
  ASSERT_EQ(back.kernel_timers.size(), 2u);
  EXPECT_EQ(back.kernel_timers.at("mu-full").seconds,
            r.kernel_timers.at("mu-full").seconds);
  EXPECT_EQ(back.kernel_timers.at("phi-full").count, 160u);
  EXPECT_EQ(back.health_policy, HealthPolicy::Recover);
  EXPECT_EQ(back.health.conservation_drift, r.health.conservation_drift);
  EXPECT_TRUE(back.resilience.restarted);
  EXPECT_EQ(back.resilience.restart_step, 20);
  EXPECT_TRUE(back.overlap.enabled);
  EXPECT_EQ(back.overlap.frontier_cells, 512);
  EXPECT_EQ(back.threading.blocking_tile_rows, 16);
  EXPECT_EQ(back.tuning.ranking.size(), 2u);
  EXPECT_EQ(back.model_accuracy.at("exchange").ratio, 2.0);
  ASSERT_TRUE(back.compile.has_value());
  EXPECT_TRUE(back.compile->cache_used);
  EXPECT_EQ(back.compile->cache_evictions, 2u);

  const CompileReport c = full_compile_report();
  const Json cj = c.to_json();
  const CompileReport cback = CompileReport::from_json(cj);
  EXPECT_TRUE(cback.to_json() == cj) << cj.dump(2);
  EXPECT_EQ(cback.stage_timers.size(), 3u);
  EXPECT_EQ(cback.compile_seconds(), 1.5);
  EXPECT_EQ(cback.kernel_names, c.kernel_names);
  EXPECT_EQ(cback.fallback_attempts, 1);
  EXPECT_TRUE(cback.cache_used);
  EXPECT_TRUE(cback.cache_hit);

  // sections the writer leaves out stay out
  const RunReport plain = RunReport::from_json(RunReport{}.to_json());
  EXPECT_FALSE(plain.overlap.enabled);
  EXPECT_FALSE(plain.tuning.enabled);
  EXPECT_FALSE(plain.compile.has_value());
  EXPECT_FALSE(CompileReport::from_json(CompileReport{}.to_json()).cache_used);
}

/// `j` with `path` ("a.b") set to `v`, or removed when `v` is null.
Json with(Json j, const std::string& path, const Json& v) {
  const auto dot = path.find('.');
  const std::string head = path.substr(0, dot);
  if (dot != std::string::npos) {
    return j.set(head, with(*j.find(head), path.substr(dot + 1), v));
  }
  if (v.kind() != Json::Kind::Null) return j.set(head, v);
  Json out = Json::object();
  for (const auto& [k, e] : j.items()) {
    if (k != head) out.set(k, e);
  }
  return out;
}

TEST(ObsReportTest, DecodeRefusesWhatTheEmitterNeverWrites) {
  RunReport full = full_run_report();
  full.compile = full_compile_report();
  const Json run = full.to_json();
  const Json compile = full_compile_report().to_json();
  const struct {
    Json doc;
    bool is_run;
    const char* error;
  } cases[] = {
      {with(run, "bogus", Json(1.0)), true, "report: bogus: unknown key"},
      {with(run, "threading", Json()), true, "report: threading: missing"},
      {with(run, "counters.steps", Json("40")), true,
       "report: counters.steps: expected a number"},
      {with(run, "counters.cell_updates", Json(-1.0)), true,
       "report: counters.cell_updates: "},
      {with(run, "resilience.restart_step", Json(-1.0)), true,
       "report: resilience.restart_step: must be >= 0"},
      {with(run, "overlap.hidden_fraction", Json(1.5)), true,
       "report: overlap.hidden_fraction: must be in [0, 1]"},
      {with(compile, "backend_tier", Json("gpu")), false,
       "report: backend_tier: unknown backend tier \"gpu\""},
      {with(run, "overlap.interior_cells", Json(3000.0)), true,
       "report: interior and frontier cells (3512) do not tile the 4096 "
       "cells of a step"},
      {with(run, "derived.mlups", Json(3.0)), true,
       "report: derived.mlups: 3 disagrees with the other fields"},
      {with(compile, "kernels", Json("phi-full")), false,
       "report: kernels: expected an array"},
      {with(run, "compile.kernels", Json(2.0)), true,
       "report: compile.kernels: expected an array"},
  };
  for (const auto& c : cases) {
    std::string err;
    try {
      if (c.is_run) {
        (void)RunReport::from_json(c.doc);
      } else {
        (void)CompileReport::from_json(c.doc);
      }
    } catch (const Error& e) {
      err = e.what();
    }
    EXPECT_NE(err.find(c.error), std::string::npos)
        << "want \"" << c.error << "\", got \"" << err << "\"";
  }
}

}  // namespace
}  // namespace pfc::obs
