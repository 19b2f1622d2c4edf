// Physics-level integration tests of the full pipeline: run real models and
// verify conservation laws and interface dynamics.
#include <gtest/gtest.h>

#include <cmath>

#include "pfc/app/analysis.hpp"
#include "pfc/app/params.hpp"
#include "pfc/app/simulation.hpp"

namespace pfc::app {
namespace {

SimulationOptions small_2d(long long nx, long long ny,
                           Backend backend = Backend::Jit) {
  SimulationOptions o;
  o.cells = {nx, ny, 1};
  o.compile.backend = backend;
  return o;
}

void init_circle(Simulation& sim, double cx, double cy, double r,
                 double eps) {
  // equilibrium obstacle-potential profile width is ~pi^2 eps / 4
  const double width = 2.5 * eps;
  sim.init_phi([&](long long x, long long y, long long, int c) {
    const double d =
        std::sqrt((x - cx) * (x - cx) + (y - cy) * (y - cy)) - r;
    const double solid = interface_profile(d, width);
    return c == 1 ? solid : 1.0 - solid;
  });
  sim.init_mu([](long long, long long, long long, int) { return 0.0; });
}

TEST(SimulationPhysicsTest, GibbsSimplexPreserved) {
  GrandChemParams p = make_two_phase(2);
  GrandChemModel m(p);
  Simulation sim(m, small_2d(48, 48));
  init_circle(sim, 24, 24, 12, p.epsilon);
  sim.run(100);
  const PhaseStats s = phase_statistics(sim.phi());
  EXPECT_LT(s.simplex_violation, 1e-9)
      << "Lagrange multiplier + clamp must keep sum phi = 1";
}

TEST(SimulationPhysicsTest, ShrinkingCircleMeanCurvature) {
  // Mean-curvature flow: area of a shrinking disk decreases linearly in
  // time, dA/dt = -2 pi M_int (independent of radius).
  GrandChemParams p = make_two_phase(2);
  GrandChemModel m(p);
  Simulation sim(m, small_2d(96, 96));
  init_circle(sim, 48, 48, 30, p.epsilon);
  sim.run(150);  // relax the profile toward equilibrium before measuring

  const double a0 = phase_statistics(sim.phi()).fractions[1] * 96 * 96;
  sim.run(300);
  const double a1 = phase_statistics(sim.phi()).fractions[1] * 96 * 96;
  sim.run(300);
  const double a2 = phase_statistics(sim.phi()).fractions[1] * 96 * 96;

  EXPECT_LT(a1, a0) << "disk must shrink under curvature flow";
  EXPECT_LT(a2, a1);
  // linear area decrease: the two decrements agree to ~15 %
  const double d1 = a0 - a1, d2 = a1 - a2;
  EXPECT_NEAR(d2 / d1, 1.0, 0.15)
      << "dA/dt should be radius-independent (d1=" << d1 << ", d2=" << d2
      << ")";
}

TEST(SimulationPhysicsTest, PlanarInterfaceStationaryWithoutDriving) {
  // with symmetric fits a flat interface has no curvature and no driving
  // force: it must not move
  GrandChemParams p = make_two_phase(2);
  GrandChemModel m(p);
  Simulation sim(m, small_2d(64, 32));
  sim.init_phi([&](long long x, long long, long long, int c) {
    const double solid =
        interface_profile(double(x) - 32.0, 2.5 * p.epsilon);
    return c == 1 ? solid : 1.0 - solid;
  });
  sim.init_mu([](long long, long long, long long, int) { return 0.0; });
  const double f0 = phase_statistics(sim.phi()).fractions[1];
  sim.run(200);  // any residual motion here is profile relaxation
  const double f1 = phase_statistics(sim.phi()).fractions[1];
  sim.run(200);
  const double f2 = phase_statistics(sim.phi()).fractions[1];
  EXPECT_NEAR(f0, f1, 0.03) << "flat interface moved more than ~2 cells";
  EXPECT_NEAR(f1, f2, 2e-3) << "flat interface keeps drifting";
}

TEST(SimulationPhysicsTest, MassConservationWithPeriodicBoundary) {
  // total concentration integral changes only through the non-divergence
  // source terms; with a *stationary* phi (two_phase flat profile) and
  // periodic boundaries the mu equation is a pure conservation law.
  GrandChemParams p = make_two_phase(2);
  GrandChemModel m(p);
  Simulation sim(m, small_2d(48, 48));
  sim.init_phi([&](long long, long long, long long, int c) {
    return c == 0 ? 1.0 : 0.0;  // uniform liquid: no interface motion
  });
  sim.init_mu([](long long x, long long y, long long, int) {
    return 0.1 * std::sin(2.0 * M_PI * x / 48.0) *
           std::cos(2.0 * M_PI * y / 48.0);
  });
  const auto c0 = total_concentration(m, sim.phi(), sim.mu(), sim.time());
  sim.run(100);
  const auto c1 = total_concentration(m, sim.phi(), sim.mu(), sim.time());
  ASSERT_EQ(c0.size(), c1.size());
  EXPECT_NEAR(c0[0], c1[0], 1e-8 * std::max(1.0, std::abs(c0[0])));
  // and the mu field must have diffused toward uniformity
  double max_mu = 0;
  for (long long y = 0; y < 48; ++y) {
    for (long long x = 0; x < 48; ++x) {
      max_mu = std::max(max_mu, std::abs(sim.mu().at(x, y, 0)));
    }
  }
  EXPECT_LT(max_mu, 0.1);
}

TEST(SimulationPhysicsTest, JitAndInterpreterTrajectoriesAgree) {
  GrandChemParams p = make_two_phase(2);
  GrandChemModel m(p);
  Simulation sim_jit(m, small_2d(32, 32, Backend::Jit));
  Simulation sim_int(m, small_2d(32, 32, Backend::Interpreter));
  for (Simulation* s : {&sim_jit, &sim_int}) {
    init_circle(*s, 16, 16, 8, p.epsilon);
  }
  sim_jit.run(25);
  sim_int.run(25);
  EXPECT_LT(Array::max_abs_diff(sim_jit.phi(), sim_int.phi()), 1e-9);
  EXPECT_LT(Array::max_abs_diff(sim_jit.mu(), sim_int.mu()), 1e-9);
}

TEST(SimulationPhysicsTest, ThreadedTrajectoryMatchesSerial) {
  GrandChemParams p = make_two_phase(2);
  GrandChemModel m(p);
  SimulationOptions serial = small_2d(40, 40);
  SimulationOptions par = small_2d(40, 40);
  par.threads = 4;
  Simulation s1(m, serial), s4(m, par);
  for (Simulation* s : {&s1, &s4}) init_circle(*s, 20, 20, 10, p.epsilon);
  s1.run(15);
  s4.run(15);
  EXPECT_DOUBLE_EQ(Array::max_abs_diff(s1.phi(), s4.phi()), 0.0);
}

TEST(SimulationPhysicsTest, P1DirectionalSolidificationAdvances) {
  // small 2D P1 run: solid grows upward against the pulled gradient
  GrandChemParams p = make_p1(2);
  p.dt = 0.005;
  GrandChemModel m(p);
  SimulationOptions o = small_2d(32, 96);
  o.boundary = grid::BoundaryKind::ZeroGradient;
  Simulation sim(m, o);
  // three solid lamellae at the bottom, melt above
  sim.init_phi([&](long long x, long long y, long long, int c) {
    const double front = interface_profile(double(y) - 12.0, 2.5 * p.epsilon);
    if (c == 0) return 1.0 - front;
    const int lamella = 1 + int((x * 3) / 32) % 3;
    return c == lamella ? front : 0.0;
  });
  sim.init_mu([](long long, long long, long long, int) { return 0.0; });

  const long long front0 = front_position(sim.phi(), 0, 1);
  sim.run(400);
  const long long front1 = front_position(sim.phi(), 0, 1);
  const PhaseStats s = phase_statistics(sim.phi());
  EXPECT_LT(s.simplex_violation, 1e-6);
  EXPECT_GE(front1, front0) << "solid front must not retreat";
  // all three solid phases still alive
  for (int c = 1; c <= 3; ++c) {
    EXPECT_GT(s.fractions[std::size_t(c)], 0.005)
        << "phase " << c << " vanished";
  }
  // nothing blew up
  for (long long y = 0; y < 96; ++y) {
    for (long long x = 0; x < 32; ++x) {
      ASSERT_TRUE(std::isfinite(sim.mu().at(x, y, 0, 0)));
      ASSERT_TRUE(std::isfinite(sim.phi().at(x, y, 0, 0)));
    }
  }
}

TEST(SimulationPhysicsTest, P2DendriteTipGrows) {
  GrandChemParams p = make_p2(2);
  p.dt = 0.005;
  p.noise_amplitude = 0.0;  // deterministic for the test
  GrandChemModel m(p);
  SimulationOptions o = small_2d(48, 64);
  o.boundary = grid::BoundaryKind::ZeroGradient;
  Simulation sim(m, o);
  sim.init_phi([&](long long x, long long y, long long, int c) {
    const double d =
        std::sqrt(double((x - 24) * (x - 24) + y * y)) - 8.0;
    const double seed = interface_profile(d, 2.5 * p.epsilon);
    if (c == 0) return 1.0 - seed;
    return c == 1 ? seed : 0.0;
  });
  sim.init_mu([](long long, long long, long long, int) { return 0.0; });
  const double solid0 = phase_statistics(sim.phi()).fractions[1];
  sim.run(300);
  const double solid1 = phase_statistics(sim.phi()).fractions[1];
  EXPECT_GT(solid1, solid0) << "undercooled seed must grow";
  EXPECT_LT(phase_statistics(sim.phi()).simplex_violation, 1e-6);
}

TEST(SimulationTest, MlupsAccounting) {
  GrandChemParams p = make_two_phase(2);
  GrandChemModel m(p);
  Simulation sim(m, small_2d(32, 32));
  init_circle(sim, 16, 16, 8, p.epsilon);
  // guarded before any step and for run(0)
  EXPECT_EQ(sim.report().mlups(), 0.0);
  EXPECT_EQ(sim.run(0).mlups(), 0.0);
  const obs::RunReport rep = sim.run(5);
  EXPECT_GT(rep.mlups(), 0.0);
  EXPECT_EQ(rep.steps, 5);
  EXPECT_EQ(rep.cell_updates, 5u * 32u * 32u);
  EXPECT_FALSE(rep.kernel_timers.empty());
  EXPECT_EQ(sim.step_count(), 5);
  EXPECT_NEAR(sim.time(), 5 * p.dt, 1e-12);

  // the report is the single source of kernel timings
  for (const auto& [name, t] : rep.kernel_timers) {
    EXPECT_GE(t.seconds, 0.0) << name;
    EXPECT_GT(t.count, 0u) << name;
  }
}

}  // namespace
}  // namespace pfc::app
