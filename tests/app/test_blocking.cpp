// Temporal-blocking (wavefront) and static-dispatch equivalence tests
// (DESIGN.md §11). The fused φ/µ schedule and the statically-owned slab
// launches must reproduce the reference step order bitwise — same compiled
// kernels, same ghost values, same Philox noise streams — across boundary
// kinds, time schemes, models and SIMD widths.
#include <gtest/gtest.h>

#include <cmath>

#include "pfc/app/params.hpp"
#include "pfc/app/simulation.hpp"

namespace pfc::app {
namespace {

void init_disk(Simulation& sim, double cx, double cy, double r) {
  sim.init_phi([&](long long x, long long y, long long, int c) {
    const double d =
        std::sqrt((x - cx) * (x - cx) + (y - cy) * (y - cy)) - r;
    const double solid = interface_profile(d, 6.0);
    if (c == 0) return 1.0 - solid;
    return c == 1 ? solid : 0.0;
  });
  sim.init_mu([](long long x, long long, long long, int) {
    return 0.01 * std::sin(0.3 * double(x));
  });
}

/// Runs the same problem with and without the fused wavefront schedule and
/// demands bitwise-identical φ and µ trajectories.
void expect_fused_bitwise(const GrandChemParams& params,
                          SimulationOptions base, long long tile_rows,
                          int steps) {
  GrandChemModel model(params);
  SimulationOptions unfused = base;
  unfused.blocking = BlockingMode::Off;
  SimulationOptions fused = base;
  fused.blocking = BlockingMode::Fixed;
  fused.blocking_tile_rows = tile_rows;

  Simulation ref(model, unfused), wf(model, fused);
  ASSERT_FALSE(ref.blocking_active());
  ASSERT_TRUE(wf.blocking_active())
      << "wavefront schedule did not activate: "
      << wf.blocking_plan().reason;
  for (Simulation* s : {&ref, &wf}) init_disk(*s, 20, 16, 9);
  ref.run(steps);
  wf.run(steps);
  EXPECT_DOUBLE_EQ(Array::max_abs_diff(ref.phi(), wf.phi()), 0.0);
  EXPECT_DOUBLE_EQ(Array::max_abs_diff(ref.mu(), wf.mu()), 0.0);
  EXPECT_GT(wf.report().threading.fused_substeps, 0);
  EXPECT_EQ(ref.report().threading.fused_substeps, 0);
}

SimulationOptions base_2d(int threads) {
  SimulationOptions o;
  o.cells = {40, 32, 1};
  o.threads = threads;
  o.dispatch = Dispatch::Static;
  return o;
}

TEST(BlockingBitwise, TwoPhasePeriodicSerial) {
  expect_fused_bitwise(make_two_phase(2), base_2d(1), 4, 12);
}

TEST(BlockingBitwise, TwoPhasePeriodicThreaded) {
  expect_fused_bitwise(make_two_phase(2), base_2d(2), 4, 12);
}

TEST(BlockingBitwise, TwoPhaseZeroGradient) {
  SimulationOptions o = base_2d(2);
  o.boundary = grid::BoundaryKind::ZeroGradient;
  expect_fused_bitwise(make_two_phase(2), o, 4, 12);
}

TEST(BlockingBitwise, P1Heun) {
  SimulationOptions o = base_2d(2);
  o.time_scheme = TimeScheme::Heun;
  GrandChemParams p = make_p1(2);
  p.dt = 0.005;
  expect_fused_bitwise(p, o, 8, 8);
}

TEST(BlockingBitwise, PhiloxNoiseStreamsSurviveFusion) {
  // P2 carries multiplicative Philox noise: counter-based streams keyed on
  // (cell, step), so the re-anchored tile launches must reproduce them.
  GrandChemParams p = make_p2(2);
  p.dt = 0.002;
  ASSERT_GT(p.noise_amplitude, 0.0) << "test needs the noisy preset";
  SimulationOptions o = base_2d(2);
  o.boundary = grid::BoundaryKind::ZeroGradient;
  expect_fused_bitwise(p, o, 4, 6);
}

TEST(BlockingBitwise, VectorWidths) {
  for (int width : {1, 4, 8}) {
    SimulationOptions o = base_2d(2);
    o.compile.vector_width = width;
    expect_fused_bitwise(make_two_phase(2), o, 4, 8);
  }
}

TEST(ThreadedStaticBitwise, PinnedStaticMatchesSerial) {
  // Static slab ownership + compact pinning + first-touch placement must
  // not perturb a single bit relative to the serial reference.
  GrandChemParams p = make_two_phase(2);
  GrandChemModel m(p);
  SimulationOptions serial;
  serial.cells = {40, 40, 1};
  serial.threads = 1;
  SimulationOptions par = serial;
  par.threads = 4;
  par.pin = support::PinPolicy::Compact;
  par.dispatch = Dispatch::Static;
  par.first_touch = true;
  Simulation s1(m, serial), s4(m, par);
  for (Simulation* s : {&s1, &s4}) init_disk(*s, 20, 20, 10);
  s1.run(15);
  s4.run(15);
  EXPECT_DOUBLE_EQ(Array::max_abs_diff(s1.phi(), s4.phi()), 0.0);
  EXPECT_DOUBLE_EQ(Array::max_abs_diff(s1.mu(), s4.mu()), 0.0);
}

TEST(ThreadedStaticBitwise, DynamicAndStaticDispatchAgree) {
  GrandChemParams p = make_two_phase(2);
  GrandChemModel m(p);
  SimulationOptions dyn;
  dyn.cells = {40, 32, 1};
  dyn.threads = 3;
  dyn.dispatch = Dispatch::Dynamic;
  SimulationOptions stat = dyn;
  stat.dispatch = Dispatch::Static;
  Simulation sd(m, dyn), ss(m, stat);
  for (Simulation* s : {&sd, &ss}) init_disk(*s, 20, 16, 9);
  sd.run(10);
  ss.run(10);
  EXPECT_DOUBLE_EQ(Array::max_abs_diff(sd.phi(), ss.phi()), 0.0);
}

TEST(BlockingPlanTest, OffModeCarriesReason) {
  GrandChemModel m(make_two_phase(2));
  SimulationOptions o;
  o.cells = {32, 32, 1};
  Simulation sim(m, o);
  EXPECT_FALSE(sim.blocking_active());
  EXPECT_FALSE(sim.blocking_plan().reason.empty());
}

TEST(BlockingPlanTest, ThinSlabsDisableFusion) {
  // 8 workers over 16 rows: each slab is thinner than the wavefront
  // prologue needs, so the schedule must fall back with a reason.
  GrandChemModel m(make_two_phase(2));
  SimulationOptions o;
  o.cells = {32, 16, 1};
  o.threads = 8;
  o.dispatch = Dispatch::Static;
  o.blocking = BlockingMode::Fixed;
  o.blocking_tile_rows = 2;
  Simulation sim(m, o);
  EXPECT_FALSE(sim.blocking_active());
  EXPECT_FALSE(sim.blocking_plan().reason.empty());
}

TEST(BlockingPlanTest, ReportThreadingSectionReflectsRun) {
  GrandChemModel m(make_two_phase(2));
  SimulationOptions o;
  o.cells = {40, 32, 1};
  o.threads = 2;
  o.dispatch = Dispatch::Static;
  o.blocking = BlockingMode::Fixed;
  o.blocking_tile_rows = 4;
  Simulation sim(m, o);
  init_disk(sim, 20, 16, 9);
  sim.run(4);
  const obs::ThreadingStats& t = sim.report().threading;
  EXPECT_EQ(t.threads, 2);
  EXPECT_EQ(t.dispatch, "static");
  EXPECT_GE(t.cpus, 1);
  if (sim.blocking_active()) {
    EXPECT_TRUE(t.blocking_enabled);
    EXPECT_EQ(t.blocking_tile_rows, 4);
    EXPECT_GT(t.fused_substeps, 0);
    EXPECT_GT(t.bytes_per_update_fused, 0.0);
  }
  // JSON export carries the section (schema v6)
  const obs::Json j = sim.report().to_json();
  EXPECT_NE(j.find("threading"), nullptr);
}

}  // namespace
}  // namespace pfc::app
