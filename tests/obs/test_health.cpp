// In-situ physics health monitoring: scan semantics over raw arrays, the
// Ignore/Warn/Throw policy contract, and the driver integration — an
// injected NaN must be caught by a monitored run under every policy.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "pfc/app/params.hpp"
#include "pfc/app/simulation.hpp"
#include "pfc/field/array.hpp"
#include "pfc/obs/health.hpp"

namespace pfc::obs {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// 4x4 two-phase block whose cells all hold (a, b) — Σφ = a + b.
Array make_phi(double a, double b) {
  Array arr(Field::create("phi", 2, 2), {4, 4, 1}, 1);
  for (long long y = 0; y < 4; ++y) {
    for (long long x = 0; x < 4; ++x) {
      arr.at(x, y, 0, 0) = a;
      arr.at(x, y, 0, 1) = b;
    }
  }
  return arr;
}

Array make_mu(double v) {
  Array arr(Field::create("mu", 2, 1), {4, 4, 1}, 1);
  for (long long y = 0; y < 4; ++y) {
    for (long long x = 0; x < 4; ++x) arr.at(x, y, 0, 0) = v;
  }
  return arr;
}

TEST(HealthPolicyTest, NamesRoundTripAndRejectUnknown) {
  for (const HealthPolicy p :
       {HealthPolicy::Ignore, HealthPolicy::Warn, HealthPolicy::Throw}) {
    EXPECT_EQ(support::parse_enum<HealthPolicy>(support::enum_name(p)), p);
  }
  EXPECT_THROW(support::parse_enum<HealthPolicy>("panic"), Error);
}

TEST(HealthMonitorTest, DisabledMonitorIsNoOp) {
  HealthMonitor mon(HealthOptions{});
  EXPECT_FALSE(mon.enabled());
  EXPECT_FALSE(mon.due(1));
  const Array phi = make_phi(kNaN, 0.5);
  mon.scan_block(phi, nullptr);
  mon.finish_scan(1);
  EXPECT_EQ(mon.stats().checks, 0);
}

TEST(HealthMonitorTest, DueRespectsScanPeriod) {
  HealthMonitor mon(HealthOptions{}.enable().every(3));
  EXPECT_FALSE(mon.due(0)) << "scans run after completed steps only";
  EXPECT_FALSE(mon.due(2));
  EXPECT_TRUE(mon.due(3));
  EXPECT_TRUE(mon.due(6));
  EXPECT_THROW(HealthMonitor(HealthOptions{}.enable().every(0)), Error);
}

TEST(HealthMonitorTest, CleanStatePassesAllChecks) {
  HealthMonitor mon(HealthOptions{}.enable());
  const Array phi = make_phi(0.25, 0.75);
  const Array mu = make_mu(0.1);
  mon.scan_block(phi, &mu);
  mon.finish_scan(1);
  const HealthStats& s = mon.stats();
  EXPECT_EQ(s.checks, 1);
  EXPECT_EQ(s.total_violations(), 0u);
  EXPECT_LT(s.max_phase_sum_error, 1e-12);
  EXPECT_LT(s.conservation_drift, 1e-12);
}

TEST(HealthMonitorTest, CountsEachViolationKind) {
  HealthMonitor mon(HealthOptions{}.enable());
  Array phi = make_phi(0.25, 0.75);
  phi.at(0, 0, 0, 0) = kNaN;   // non-finite
  phi.at(1, 0, 0, 0) = 1.2;    // outside [0,1] and breaks Σφ = 1
  Array mu = make_mu(0.0);
  mu.at(2, 2, 0, 0) = 1e9;     // beyond mu_limit
  mon.scan_block(phi, &mu);
  mon.finish_scan(1);
  const HealthStats& s = mon.stats();
  EXPECT_EQ(s.nonfinite_values, 1u);
  EXPECT_EQ(s.simplex_violations, 1u);
  EXPECT_EQ(s.phase_sum_violations, 1u);
  EXPECT_EQ(s.mu_blowups, 1u);
  EXPECT_EQ(s.total_violations(), 4u);
  EXPECT_NEAR(s.max_phase_sum_error, 0.95, 1e-12);
}

TEST(HealthMonitorTest, ConservationDriftTracksAveragePhaseSum) {
  HealthOptions o = HealthOptions{}.enable();
  o.phase_sum_tol = 0.1;  // per-cell check stays quiet
  HealthMonitor mon(o);
  const Array phi = make_phi(0.5, 0.51);  // every cell sums to 1.01
  mon.scan_block(phi, nullptr);
  mon.finish_scan(1);
  EXPECT_EQ(mon.stats().phase_sum_violations, 0u);
  EXPECT_NEAR(mon.stats().conservation_drift, 0.01, 1e-12);
}

TEST(HealthMonitorTest, MultiBlockScanAggregatesBeforePolicy) {
  HealthMonitor mon(HealthOptions{}.enable().with_policy(
      HealthPolicy::Throw));
  Array bad = make_phi(0.25, 0.75);
  bad.at(0, 0, 0, 1) = kNaN;
  const Array good = make_phi(0.5, 0.5);
  mon.scan_block(good, nullptr);
  mon.scan_block(bad, nullptr);
  EXPECT_THROW(mon.finish_scan(1), Error)
      << "violations from any block fail the joint scan";
  EXPECT_EQ(mon.stats().nonfinite_values, 1u);
}

/// The Array::at() scan the monitor's row-pointer scan must reproduce bit
/// for bit: same cells, same per-cell component order, same accumulation.
HealthStats reference_scan(const HealthOptions& o,
                           const std::vector<std::pair<const Array*,
                                                       const Array*>>& blocks) {
  HealthStats st;
  std::uint64_t nonfinite = 0, phase_sum = 0, simplex = 0, mu_blowups = 0;
  std::uint64_t cells = 0;
  double phase_total = 0.0;
  const double lo = -o.simplex_tol, hi = 1.0 + o.simplex_tol;
  for (const auto& [phi, mu] : blocks) {
    const auto& n = phi->size();
    for (long long z = 0; z < n[2]; ++z) {
      for (long long y = 0; y < n[1]; ++y) {
        for (long long x = 0; x < n[0]; ++x) {
          double sum = 0.0;
          bool finite = true;
          for (int c = 0; c < phi->components(); ++c) {
            const double v = phi->at(x, y, z, c);
            if (!std::isfinite(v)) {
              ++nonfinite;
              finite = false;
              continue;
            }
            if (v < lo || v > hi) ++simplex;
            sum += v;
          }
          if (finite) {
            const double err = std::abs(sum - 1.0);
            if (err > o.phase_sum_tol) ++phase_sum;
            st.max_phase_sum_error = std::max(st.max_phase_sum_error, err);
            phase_total += sum;
          }
          ++cells;
        }
      }
    }
    if (mu == nullptr) continue;
    const auto& m = mu->size();
    for (int c = 0; c < mu->components(); ++c) {
      for (long long z = 0; z < m[2]; ++z) {
        for (long long y = 0; y < m[1]; ++y) {
          for (long long x = 0; x < m[0]; ++x) {
            const double v = mu->at(x, y, z, c);
            if (!std::isfinite(v)) {
              ++nonfinite;
            } else if (std::abs(v) > o.mu_limit) {
              ++mu_blowups;
            }
          }
        }
      }
    }
  }
  st.checks = 1;
  st.nonfinite_values = nonfinite;
  st.phase_sum_violations = phase_sum;
  st.simplex_violations = simplex;
  st.mu_blowups = mu_blowups;
  st.conservation_drift = std::abs(phase_total / double(cells) - 1.0);
  return st;
}

TEST(HealthMonitorTest, RowScanMatchesAtReferenceBitwise) {
  // Padded 3-D arrays (13-cell x lines, two ghost layers) whose ghosts and
  // padding hold NaN: only interior cells may be read. Three φ components
  // whose sums carry rounding noise, plus one cell of each violation kind.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::array<std::int64_t, 3> n{13, 5, 3};
  Array phi(Field::create("phi", 3, 3), n, 2);
  Array mu(Field::create("mu", 3, 2), n, 1);
  phi.fill(kNaN);
  mu.fill(kNaN);
  for (long long z = 0; z < n[2]; ++z) {
    for (long long y = 0; y < n[1]; ++y) {
      for (long long x = 0; x < n[0]; ++x) {
        const double a = 0.3 + 0.1 * std::sin(0.7 * double(x + 3 * y + 5 * z));
        const double b = 0.2 + 0.05 * std::cos(1.3 * double(x * y + z));
        phi.at(x, y, z, 0) = a;
        phi.at(x, y, z, 1) = b;
        phi.at(x, y, z, 2) = 1.0 - a - b + 1e-8 * double((x + y + z) % 3);
        mu.at(x, y, z, 0) = 0.1 * double(x - y);
        mu.at(x, y, z, 1) = -0.05 * double(z + 1);
      }
    }
  }
  phi.at(0, 0, 0, 1) = kNaN;
  phi.at(12, 4, 2, 2) = kInf;
  phi.at(3, 1, 1, 0) = -0.2;  // below the simplex, breaks Σφ = 1
  phi.at(7, 2, 0, 2) = 1.3;   // above the simplex
  phi.at(5, 3, 2, 1) += 1e-3;  // phase sum only
  mu.at(1, 1, 1, 0) = -kInf;
  mu.at(2, 4, 0, 1) = kNaN;
  mu.at(11, 0, 2, 0) = 50.0;  // beyond mu_limit

  HealthOptions o = HealthOptions{}.enable().with_mu_limit(10.0);
  o.phase_sum_tol = 1e-9;
  HealthMonitor mon(o);
  mon.scan_block(phi, &mu);
  mon.scan_block(phi, nullptr);
  mon.finish_scan(1);
  const HealthStats ref = reference_scan(o, {{&phi, &mu}, {&phi, nullptr}});
  const HealthStats& s = mon.stats();
  ASSERT_GT(ref.phase_sum_violations, 2u) << "rounding noise must register";
  EXPECT_EQ(s.checks, ref.checks);
  EXPECT_EQ(s.nonfinite_values, ref.nonfinite_values);
  EXPECT_EQ(s.phase_sum_violations, ref.phase_sum_violations);
  EXPECT_EQ(s.simplex_violations, ref.simplex_violations);
  EXPECT_EQ(s.mu_blowups, ref.mu_blowups);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(s.max_phase_sum_error),
            std::bit_cast<std::uint64_t>(ref.max_phase_sum_error));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(s.conservation_drift),
            std::bit_cast<std::uint64_t>(ref.conservation_drift));
}

TEST(HealthMonitorTest, PolicyControlsReaction) {
  Array phi = make_phi(0.25, 0.75);
  phi.at(1, 1, 0, 0) = kNaN;
  {
    HealthMonitor mon(
        HealthOptions{}.enable().with_policy(HealthPolicy::Ignore));
    mon.scan_block(phi, nullptr);
    EXPECT_NO_THROW(mon.finish_scan(1));
    EXPECT_EQ(mon.stats().nonfinite_values, 1u);
  }
  {
    HealthMonitor mon(
        HealthOptions{}.enable().with_policy(HealthPolicy::Warn));
    mon.scan_block(phi, nullptr);
    EXPECT_NO_THROW(mon.finish_scan(1)) << "warn must not abort the run";
  }
  {
    HealthMonitor mon(
        HealthOptions{}.enable().with_policy(HealthPolicy::Throw));
    mon.scan_block(phi, nullptr);
    EXPECT_THROW(mon.finish_scan(1), Error);
  }
}

// --- driver integration: a NaN planted in µ must reach the monitor -------

app::SimulationOptions monitored_opts(HealthPolicy policy) {
  app::SimulationOptions o;
  o.with_cells(16, 16);
  o.compile.backend = app::Backend::Interpreter;
  o.with_health(HealthOptions{}.enable().with_policy(policy));
  return o;
}

void init_fields(app::Simulation& sim, bool poison_mu) {
  sim.init_phi([](long long x, long long, long long, int c) {
    const double s = x < 8 ? 1.0 : 0.0;
    return c == 0 ? s : 1.0 - s;
  });
  sim.init_mu([poison_mu](long long x, long long y, long long, int) {
    return (poison_mu && x == 5 && y == 5) ? kNaN : 0.0;
  });
}

TEST(HealthSimulationTest, CleanRunReportsHealthyState) {
  app::GrandChemModel model(app::make_two_phase(2));
  app::Simulation sim(model, monitored_opts(HealthPolicy::Throw));
  init_fields(sim, false);
  const RunReport rep = sim.run(3);
  EXPECT_EQ(rep.health.checks, 3);
  EXPECT_EQ(rep.health.total_violations(), 0u);
  EXPECT_EQ(rep.health_policy, HealthPolicy::Throw);
  const Json j = rep.to_json();
  ASSERT_NE(j.find("health"), nullptr);
  EXPECT_EQ(j.find("health")->find("policy")->str(), "throw");
}

TEST(HealthSimulationTest, InjectedNanHonorsAllThreePolicies) {
  app::GrandChemModel model(app::make_two_phase(2));
  {
    app::Simulation sim(model, monitored_opts(HealthPolicy::Throw));
    init_fields(sim, true);
    EXPECT_THROW(sim.run(1), Error);
    EXPECT_GT(sim.health().stats().nonfinite_values, 0u);
  }
  {
    app::Simulation sim(model, monitored_opts(HealthPolicy::Warn));
    init_fields(sim, true);
    RunReport rep;
    EXPECT_NO_THROW(rep = sim.run(1));
    EXPECT_GT(rep.health.nonfinite_values, 0u);
  }
  {
    app::Simulation sim(model, monitored_opts(HealthPolicy::Ignore));
    init_fields(sim, true);
    RunReport rep;
    EXPECT_NO_THROW(rep = sim.run(1));
    EXPECT_GT(rep.health.nonfinite_values, 0u)
        << "ignore still counts, it just does not react";
  }
}

}  // namespace
}  // namespace pfc::obs
