// Distributed-vs-single-block cross-validation: the strongest integration
// test of the runtime — a multi-rank, multi-block run must reproduce the
// single-block trajectory exactly (same kernels, same global coordinates).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>

#include "pfc/app/params.hpp"
#include "pfc/app/simulation.hpp"
#include "pfc/obs/report.hpp"

namespace pfc::app {
namespace {

double phi_init(long long x, long long y, long long, int c) {
  const double d = std::sqrt(double((x - 16) * (x - 16) + (y - 16) * (y - 16)));
  const double solid = interface_profile(d - 8.0, 10.0);
  return c == 1 ? solid : 1.0 - solid;
}

double mu_init(long long x, long long y, long long, int) {
  return 0.01 * std::sin(0.2 * double(x)) * std::cos(0.2 * double(y));
}

std::vector<double> reference_run(const GrandChemModel& model, int steps) {
  SimulationOptions o;
  o.cells = {32, 32, 1};
  Simulation sim(model, o);
  sim.init_phi(&phi_init);
  sim.init_mu(&mu_init);
  sim.run(steps);
  std::vector<double> out;
  for (int c = 0; c < sim.phi().components(); ++c) {
    for (long long y = 0; y < 32; ++y) {
      for (long long x = 0; x < 32; ++x) {
        out.push_back(sim.phi().at(x, y, 0, c));
      }
    }
  }
  return out;
}

/// Index of the first element where `a` and `b` differ in any bit, or -1
/// when they are bitwise equal (sizes included).
long long first_bit_difference(const std::vector<double>& a,
                               const std::vector<double>& b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) return (long long)i;
  }
  return -1;
}

TEST(DistributedTest, SerialMultiBlockMatchesSingleBlock) {
  GrandChemModel model(make_two_phase(2));
  const auto ref = reference_run(model, 10);

  SimulationOptions o;
  o.cells = {32, 32, 1};
  o.blocks_per_dim = {2, 2, 1};
  Simulation dist(model, o, nullptr);
  dist.init(&phi_init, &mu_init);
  dist.run(10);
  const auto got = dist.gather_phi();  // layout (x + 32(y + 32 z), c)
  EXPECT_EQ(first_bit_difference(got, ref), -1);
}

TEST(DistributedTest, TwoRanksMatchSingleBlock) {
  GrandChemModel model(make_two_phase(2));
  const auto ref = reference_run(model, 8);

  mpi::run(2, [&](mpi::Comm& comm) {
    SimulationOptions o;
    o.cells = {32, 32, 1};
    o.blocks_per_dim = {2, 2, 1};
    Simulation dist(model, o, &comm);
    EXPECT_EQ(dist.num_local_blocks(), 2);
    dist.init(&phi_init, &mu_init);
    dist.run(8);
    EXPECT_EQ(first_bit_difference(dist.gather_phi(), ref), -1)
        << "rank " << comm.rank();
  });
}

TEST(DistributedTest, FourRanksConserveSimplexGlobally) {
  GrandChemModel model(make_two_phase(2));
  mpi::run(4, [&](mpi::Comm& comm) {
    SimulationOptions o;
    o.cells = {32, 32, 1};
    o.blocks_per_dim = {4, 2, 1};
    Simulation dist(model, o, &comm);
    dist.init(&phi_init, &mu_init);
    const obs::RunReport rep = dist.run(12);
    const double s0 = comm.allreduce_sum(dist.local_phi_sum(0));
    const double s1 = comm.allreduce_sum(dist.local_phi_sum(1));
    EXPECT_NEAR(s0 + s1, 32.0 * 32.0, 1e-8);
    // the report carries the communication volume of this rank, and the
    // network model prices it
    EXPECT_GT(rep.exchange_bytes, 0u);
    ASSERT_TRUE(rep.model_accuracy.count("exchange"));
    EXPECT_GT(rep.model_accuracy.at("exchange").predicted_seconds, 0.0);
    EXPECT_EQ(rep.steps, 12);
    EXPECT_GT(rep.mlups(), 0.0);
    EXPECT_GE(rep.block_imbalance, 1.0);
  });
}

TEST(DistributedTest, RunZeroStepsYieldsZeroedReport) {
  GrandChemModel model(make_two_phase(2));
  SimulationOptions o;
  o.cells = {32, 32, 1};
  o.blocks_per_dim = {2, 2, 1};
  o.compile.backend = Backend::Interpreter;
  Simulation dist(model, o, nullptr);
  dist.init(&phi_init, &mu_init);
  const obs::RunReport rep = dist.run(0);
  EXPECT_EQ(rep.steps, 0);
  EXPECT_EQ(rep.cell_updates, 0u);
  EXPECT_EQ(rep.mlups(), 0.0);
  EXPECT_EQ(rep.kernel_seconds_total, 0.0);
  EXPECT_EQ(rep.block_imbalance, 0.0);
  EXPECT_TRUE(rep.kernel_timers.empty());
  EXPECT_EQ(rep.health.checks, 0);
  EXPECT_EQ(rep.num_blocks, 4);
  // init's ghost exchange is not a timed step: no drift entries yet
  EXPECT_EQ(rep.model_accuracy.count("exchange"), 0u);
}

TEST(DistributedTest, TracedHealthMonitoredMultiBlockRun) {
  GrandChemModel model(make_two_phase(2));
  SimulationOptions o;
  o.cells = {32, 32, 1};
  o.blocks_per_dim = {2, 2, 1};
  o.compile.backend = Backend::Interpreter;
  o.with_trace(obs::TraceOptions{}.enable().with_path(
      ::testing::TempDir() + "pfc_test_dist_trace.json"));
  o.with_health(obs::HealthOptions{}.enable());
  Simulation dist(model, o, nullptr);
  dist.init(&phi_init, &mu_init);
  const obs::RunReport rep = dist.run(3);

  EXPECT_EQ(rep.health.checks, 3);
  EXPECT_EQ(rep.health.total_violations(), 0u);
  for (const auto& [name, t] : rep.kernel_timers) {
    ASSERT_TRUE(rep.model_accuracy.count("kernel/" + name)) << name;
  }
  // a forest with no communicator copies its ghosts within the rank and
  // sends no byte, so the network model has nothing to predict
  EXPECT_GT(rep.exchange_seconds, 0.0);
  EXPECT_EQ(rep.exchange_bytes, 0u);
  EXPECT_EQ(rep.model_accuracy.count("exchange"), 0u);

  // per-block kernel spans and exchange spans land in the timeline
  std::set<double> blocks;
  std::size_t exchange_spans = 0;
  const obs::Json doc = dist.tracer().to_chrome_json();
  for (const obs::Json& e : doc.find("traceEvents")->elements()) {
    const std::string& cat = e.find("cat")->str();
    const obs::Json* args = e.find("args");
    if (cat == "kernel" && args != nullptr && args->find("block")) {
      blocks.insert(args->find("block")->number());
    }
    if (cat == "ghost") ++exchange_spans;
  }
  EXPECT_EQ(blocks.size(), 4u) << "every block must tag its kernel spans";
  EXPECT_EQ(exchange_spans, 6u) << "two exchanges per step";
  std::remove(
      (::testing::TempDir() + "pfc_test_dist_trace.json").c_str());
}

// --- one checksum across execution layouts ----------------------------------

constexpr long long kLayoutNx = 128, kLayoutNy = 64;

/// P2 seed disk of radius 20 centred on x = 0 (distance measured across the
/// periodic seam), so it straddles the x faces and the two boundary kinds
/// give different trajectories.
double seam_disk(long long x, long long y, long long, int c) {
  const double dx = double(std::min(x, kLayoutNx - x));
  const double dy = double(y - kLayoutNy / 2);
  const double solid = interface_profile(std::sqrt(dx * dx + dy * dy) - 20.0,
                                         10.0);
  if (c == 1) return solid;
  return c == 0 ? 1.0 - solid : 0.0;
}

double zero_mu(long long, long long, long long, int) { return 0.0; }

/// One execution layout of the same problem: a forest of `blocks` over
/// `ranks` ranks (one rank runs with comm == nullptr).
struct Layout {
  std::array<int, 3> blocks{1, 1, 1};
  int ranks = 1;
  int threads = 1;
  Dispatch dispatch = Dispatch::Static;
  BlockingMode blocking = BlockingMode::Off;
  OverlapMode overlap = OverlapMode::Off;
  TimeScheme scheme = TimeScheme::Euler;

  std::string label(grid::BoundaryKind b) const {
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "%dx%d blocks, %d ranks, %d threads, %s dispatch, "
                  "blocking %s, overlap %s, %s, %s",
                  blocks[0], blocks[1], ranks, threads,
                  dispatch == Dispatch::Static ? "static" : "dynamic",
                  blocking == BlockingMode::Off ? "off" : "auto",
                  overlap == OverlapMode::Off ? "off" : "on",
                  scheme == TimeScheme::Euler ? "euler" : "heun",
                  b == grid::BoundaryKind::Periodic ? "periodic"
                                                    : "zero-gradient");
    return buf;
  }
};

constexpr int kLayoutSteps = 20;

/// Gathered φ then µ of one rank.
using Fields = std::array<std::vector<double>, 2>;

/// Runs `l` and returns every rank's gathered fields.
std::vector<Fields> run_layout(const GrandChemModel& model, const Layout& l,
                               grid::BoundaryKind boundary,
                               const std::string& cache_dir) {
  SimulationOptions o;
  o.cells = {kLayoutNx, kLayoutNy, 1};
  o.boundary = boundary;
  o.compile.cache_dir = cache_dir;
  o.blocks_per_dim = l.blocks;
  o.threads = l.threads;
  o.dispatch = l.dispatch;
  o.blocking = l.blocking;
  o.overlap = l.overlap;
  o.time_scheme = l.scheme;
  std::vector<Fields> out(std::size_t(l.ranks));
  const auto body = [&](mpi::Comm* comm) {
    Simulation sim(model, o, comm);
    sim.init(&seam_disk, &zero_mu);
    sim.run(kLayoutSteps);
    out[std::size_t(comm != nullptr ? comm->rank() : 0)] = {
        sim.gather_phi(), sim.gather_mu()};
  };
  if (l.ranks == 1) {
    body(nullptr);
  } else {
    mpi::run(l.ranks, [&](mpi::Comm& comm) { body(&comm); });
  }
  return out;
}

TEST(DriverLayouts, OneChecksum) {
  const GrandChemParams p = make_p2(2);
  ASSERT_GT(p.noise_amplitude, 0.0) << "the rows must carry Philox noise";
  const GrandChemModel model(p);
  // One kernel cache for every row: the model is JIT-compiled once.
  const std::string cache = ::testing::TempDir() + "pfc_driver_layouts_cache";

  std::vector<Layout> rows;
  for (int threads : {1, 2, 3}) {
    for (Dispatch d : {Dispatch::Static, Dispatch::Dynamic}) {
      for (BlockingMode b : {BlockingMode::Off, BlockingMode::Auto}) {
        Layout l;
        l.threads = threads;
        l.dispatch = d;
        l.blocking = b;
        rows.push_back(l);
      }
    }
  }
  for (const std::array<int, 3> blocks : {std::array<int, 3>{1, 1, 1},
                                          std::array<int, 3>{2, 2, 1},
                                          std::array<int, 3>{2, 1, 1},
                                          std::array<int, 3>{4, 1, 1}}) {
    for (int ranks : {1, 2}) {
      for (OverlapMode ov : {OverlapMode::Off, OverlapMode::InteriorFrontier}) {
        Layout l;
        l.blocks = blocks;
        l.ranks = ranks;
        l.overlap = ov;
        rows.push_back(l);
      }
    }
  }
  {
    Layout l;  // a threaded pool sweeping every block of a forest
    l.blocks = {2, 2, 1};
    l.threads = 2;
    rows.push_back(l);
  }
  for (int threads : {1, 2}) {
    for (BlockingMode b : {BlockingMode::Off, BlockingMode::Auto}) {
      Layout l;
      l.threads = threads;
      l.blocking = b;
      l.scheme = TimeScheme::Heun;
      rows.push_back(l);
    }
  }
  for (int ranks : {1, 2}) {
    Layout l;
    l.blocks = {2, 2, 1};
    l.ranks = ranks;
    l.scheme = TimeScheme::Heun;
    rows.push_back(l);
  }

  std::vector<std::vector<double>> euler_refs;
  for (grid::BoundaryKind boundary :
       {grid::BoundaryKind::Periodic, grid::BoundaryKind::ZeroGradient}) {
    // The reference of each time scheme: one block, one thread.
    std::map<TimeScheme, Fields> ref;
    for (TimeScheme s : {TimeScheme::Euler, TimeScheme::Heun}) {
      Layout l;
      l.scheme = s;
      ref[s] = run_layout(model, l, boundary, cache).front();
    }
    EXPECT_EQ(ref[TimeScheme::Euler][0].size(),
              std::size_t(3 * kLayoutNx * kLayoutNy));
    euler_refs.push_back(ref[TimeScheme::Euler][0]);
    for (const Layout& l : rows) {
      const auto got = run_layout(model, l, boundary, cache);
      for (std::size_t r = 0; r < got.size(); ++r) {
        for (int f : {0, 1}) {
          EXPECT_EQ(first_bit_difference(got[r][std::size_t(f)],
                                         ref[l.scheme][std::size_t(f)]),
                    -1)
              << (f == 0 ? "phi, " : "mu, ") << l.label(boundary)
              << ", rank " << r;
        }
      }
    }
  }
  EXPECT_NE(first_bit_difference(euler_refs[0], euler_refs[1]), -1)
      << "the seed must feel the boundary within the run";
  std::filesystem::remove_all(cache);
}

}  // namespace
}  // namespace pfc::app
