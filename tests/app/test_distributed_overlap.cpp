// Communication-hiding cross-validation: OverlapMode::InteriorFrontier
// (remote-face frontier first, nonblocking exchange, interior while
// messages fly) must reproduce the synchronous OverlapMode::Off trajectory
// bit-for-bit — fields, health scans and noise streams — on multi-rank,
// multi-block, split-kernel, threaded and wall-bounded configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "pfc/app/params.hpp"
#include "pfc/app/simulation.hpp"
#include "pfc/obs/report.hpp"
#include "pfc/obs/trace.hpp"

namespace pfc::app {
namespace {

double phi_init(long long x, long long y, long long, int c) {
  const double d = std::sqrt(double((x - 16) * (x - 16) + (y - 16) * (y - 16)));
  const double solid = interface_profile(d - 8.0, 10.0);
  return c == 1 ? solid : 1.0 - solid;
}

/// Three-phase seed of radius 20 centred on (64, 32), so its interface
/// crosses the x = 64 face between two 64-wide blocks.
double p2_phi_init(long long x, long long y, long long, int c) {
  const double d = std::sqrt(double((x - 64) * (x - 64) + (y - 32) * (y - 32)));
  const double solid = interface_profile(d - 20.0, 10.0);
  if (c == 1) return solid;
  return c == 0 ? 1.0 - solid : 0.0;
}

double mu_init(long long x, long long y, long long, int) {
  return 0.01 * std::sin(0.2 * double(x)) * std::cos(0.2 * double(y));
}

struct RunResult {
  std::vector<double> phi;
  obs::RunReport report;
  obs::HealthStats health;
  int vector_width = 1;  ///< SIMD width of the compiled kernels
};

RunResult run_mode(const GrandChemModel& model, SimulationOptions o,
                   OverlapMode mode, mpi::Comm* comm, int steps,
                   double (*phi0)(long long, long long, long long,
                                  int) = &phi_init) {
  o.with_overlap(mode);
  Simulation dist(model, o, comm);
  dist.init(phi0, &mu_init);
  RunResult r;
  r.report = dist.run(steps);
  r.phi = dist.gather_phi();
  r.health = dist.health().stats();
  r.vector_width = dist.compiled().compile_report().vector_width;
  return r;
}

void expect_bitwise_equal(const RunResult& off, const RunResult& on) {
  ASSERT_EQ(off.phi.size(), on.phi.size());
  double max_err = 0;
  for (std::size_t i = 0; i < off.phi.size(); ++i) {
    max_err = std::max(max_err, std::abs(off.phi[i] - on.phi[i]));
  }
  EXPECT_EQ(max_err, 0.0) << "overlap must be bitwise-identical";
  EXPECT_EQ(off.health.checks, on.health.checks);
  EXPECT_EQ(off.health.total_violations(), on.health.total_violations());
  EXPECT_EQ(off.health.max_phase_sum_error, on.health.max_phase_sum_error);
  EXPECT_EQ(off.health.conservation_drift, on.health.conservation_drift);
}

TEST(DistributedOverlapTest, SerialMultiBlockBitwise) {
  GrandChemModel model(make_two_phase(2));
  SimulationOptions o;
  o.cells = {32, 32, 1};
  o.blocks_per_dim = {2, 2, 1};
  o.with_health(obs::HealthOptions{}.enable());
  const RunResult off = run_mode(model, o, OverlapMode::Off, nullptr, 10);
  const RunResult on =
      run_mode(model, o, OverlapMode::InteriorFrontier, nullptr, 10);
  expect_bitwise_equal(off, on);

  // the report's overlap block is filled only in overlap mode
  EXPECT_FALSE(off.report.overlap.enabled);
  EXPECT_TRUE(on.report.overlap.enabled);
  EXPECT_GT(on.report.overlap.interior_seconds, 0.0);
  EXPECT_GE(on.report.overlap.hidden_fraction, 0.0);
  EXPECT_LE(on.report.overlap.hidden_fraction, 1.0);
  // interior + frontier tile this rank's per-step dst lattice exactly
  const long long block_cells = 16 * 16;
  EXPECT_EQ(on.report.overlap.interior_cells + on.report.overlap.frontier_cells,
            4 * block_cells);
  EXPECT_GT(on.report.overlap.interior_cells, 0);
  // a serial forest has no remote face, so every cell is interior
  EXPECT_EQ(on.report.overlap.frontier_cells, 0);
  EXPECT_EQ(on.report.overlap.interior_cells, 4 * block_cells);
  // both modes exchange the same ghost volume
  EXPECT_EQ(off.report.exchange_bytes, on.report.exchange_bytes);
}

TEST(DistributedOverlapTest, FourRanksBitwise) {
  GrandChemModel model(make_two_phase(2));
  SimulationOptions o;
  o.cells = {32, 32, 1};
  o.blocks_per_dim = {4, 2, 1};  // two blocks per rank: remote + local copies
  o.with_health(obs::HealthOptions{}.enable());
  mpi::run(4, [&](mpi::Comm& comm) {
    const RunResult off = run_mode(model, o, OverlapMode::Off, &comm, 10);
    const RunResult on =
        run_mode(model, o, OverlapMode::InteriorFrontier, &comm, 10);
    expect_bitwise_equal(off, on);
    EXPECT_EQ(off.report.exchange_bytes, on.report.exchange_bytes)
        << "rank " << comm.rank();
    EXPECT_TRUE(on.report.overlap.enabled);
  });
}

TEST(DistributedOverlapTest, SplitKernelsFourRanksBitwise) {
  // split staggered pipelines widen the flux kernel's frontier slab; the
  // width derivation from read-offset ranges must keep this bitwise too
  GrandChemModel model(make_two_phase(2));
  SimulationOptions o;
  o.cells = {32, 32, 1};
  o.blocks_per_dim = {2, 2, 1};
  o.compile.split_phi = true;
  o.compile.split_mu = true;
  mpi::run(4, [&](mpi::Comm& comm) {
    const RunResult off = run_mode(model, o, OverlapMode::Off, &comm, 10);
    const RunResult on =
        run_mode(model, o, OverlapMode::InteriorFrontier, &comm, 10);
    expect_bitwise_equal(off, on);
  });
}

TEST(DistributedOverlapTest, ThreadedInteriorBitwise) {
  GrandChemModel model(make_two_phase(2));
  SimulationOptions o;
  o.cells = {32, 32, 1};
  o.blocks_per_dim = {2, 2, 1};
  o.with_threads(4);
  mpi::run(2, [&](mpi::Comm& comm) {
    const RunResult off = run_mode(model, o, OverlapMode::Off, &comm, 10);
    const RunResult on =
        run_mode(model, o, OverlapMode::InteriorFrontier, &comm, 10);
    expect_bitwise_equal(off, on);
  });
}

TEST(DistributedOverlapTest, MixedLocalRemoteBitwise) {
  // Zero-gradient walls on 4x2 blocks over two ranks: each rank holds
  // blocks with a remote x face, a local x face and a domain wall, so the
  // frontier slabs, the deferred local copies and the deferred boundary
  // fills all run in one step, with split kernels and a threaded interior.
  GrandChemModel model(make_two_phase(2));
  SimulationOptions o;
  o.cells = {32, 32, 1};
  o.blocks_per_dim = {4, 2, 1};
  o.with_boundary(grid::BoundaryKind::ZeroGradient);
  o.compile.split_phi = true;
  o.compile.split_mu = true;
  o.with_threads(2);
  o.with_health(obs::HealthOptions{}.enable());
  mpi::run(2, [&](mpi::Comm& comm) {
    const RunResult off = run_mode(model, o, OverlapMode::Off, &comm, 10);
    const RunResult on =
        run_mode(model, o, OverlapMode::InteriorFrontier, &comm, 10);
    expect_bitwise_equal(off, on);
    EXPECT_EQ(off.report.exchange_bytes, on.report.exchange_bytes);

    // the frontier is a slab one vector wide (the ghost layer rounded up
    // to the SIMD width) on every remote x face of this rank's blocks,
    // clipped to the block, on the dst lattice
    const grid::BlockForest forest(o.cells, o.blocks_per_dim, comm.size(),
                                   /*dims=*/2, o.boundary);
    const long long v = on.vector_width;
    long long remote_face_cells = 0, rank_cells = 0;
    for (const grid::Block* b : forest.blocks_of_rank(comm.rank())) {
      rank_cells += b->size[0] * b->size[1] * b->size[2];
      long long faces = 0;
      for (int side : {-1, +1}) {
        const grid::Block* nb = forest.neighbor(*b, 0, side);
        if (nb != nullptr && nb->owner != comm.rank()) ++faces;
      }
      remote_face_cells +=
          std::min(b->size[0], v * faces) * b->size[1] * b->size[2];
    }
    EXPECT_GT(remote_face_cells, 0);
    EXPECT_EQ(on.report.overlap.frontier_cells, remote_face_cells)
        << "rank " << comm.rank();
    EXPECT_EQ(on.report.overlap.interior_cells,
              rank_cells - remote_face_cells);
  });
}

TEST(DistributedOverlapTest, P2NoiseRemoteXBitwise) {
  // P2 with noise on two ranks of 64-wide blocks, both x faces remote. The
  // synchronous step sweeps each full row from the aligned x = 0; the
  // overlapped step sweeps two vector-wide x slabs apart and an interior
  // that starts on the next vector boundary, so every sweep runs its rows
  // as whole vectors. (JitFallback.ScalarTierMatchesVectorBitwise and the
  // sub-range tests pin the scalar and peel bodies to the vector body.)
  const GrandChemParams p = make_p2(2);
  ASSERT_GT(p.noise_amplitude, 0.0);
  GrandChemModel model(p);
  SimulationOptions o;
  o.cells = {128, 64, 1};
  o.blocks_per_dim = {2, 1, 1};
  mpi::run(2, [&](mpi::Comm& comm) {
    const RunResult off =
        run_mode(model, o, OverlapMode::Off, &comm, 40, &p2_phi_init);
    const RunResult on = run_mode(model, o, OverlapMode::InteriorFrontier,
                                  &comm, 40, &p2_phi_init);
    expect_bitwise_equal(off, on);
    // the frontier is the two vector-wide x slabs of this rank's block
    EXPECT_EQ(on.report.overlap.frontier_cells, 2 * on.vector_width * 64);
  });
}

TEST(DistributedOverlapTest, OverlapTimersAndTraceSpans) {
  GrandChemModel model(make_two_phase(2));
  SimulationOptions o;
  o.cells = {32, 32, 1};
  o.blocks_per_dim = {4, 2, 1};  // every block has one remote x face
  o.with_overlap(OverlapMode::InteriorFrontier);
  const std::string path =
      ::testing::TempDir() + "pfc_test_overlap_trace.json";
  o.with_trace(obs::TraceOptions{}.enable().with_path(path));
  mpi::run(2, [&](mpi::Comm& comm) {
    Simulation dist(model, o, &comm);
    dist.init(&phi_init, &mu_init);
    const obs::RunReport rep = dist.run(3);

    // phase timers land in the overlap report block
    EXPECT_GT(rep.overlap.pack_seconds, 0.0);
    EXPECT_GT(rep.overlap.wait_seconds, 0.0);
    EXPECT_GT(rep.overlap.interior_seconds, 0.0);
    EXPECT_GT(rep.overlap.frontier_seconds, 0.0);
    // exchange accounting matches the synchronous path's structure: the
    // remote x faces move wire bytes, and the phase time lands in the
    // exchange timer
    EXPECT_GT(rep.exchange_bytes, 0u);
    EXPECT_GT(rep.exchange_seconds, 0.0);
    // per-kernel timers still carry one launch per block/kernel/step so the
    // drift layer's count x cells accounting stays valid
    for (const auto& [name, t] : rep.kernel_timers) {
      EXPECT_EQ(t.count, 3 * 4) << name;  // steps x local blocks
    }

    // the four overlap phases appear as spans in the timeline
    int frontier = 0, interior = 0, pack = 0, wait = 0;
    const obs::Json doc = dist.tracer().to_chrome_json();
    for (const obs::Json& e : doc.find("traceEvents")->elements()) {
      const obs::Json* name = e.find("name");
      if (name == nullptr) continue;
      if (name->str() == "kernel.frontier") ++frontier;
      if (name->str() == "kernel.interior") ++interior;
      if (name->str() == "exchange.pack") ++pack;
      if (name->str() == "exchange.wait") ++wait;
    }
    EXPECT_EQ(frontier, 6);  // two groups x three steps
    EXPECT_EQ(interior, 6);
    EXPECT_EQ(pack, 6);
    EXPECT_EQ(wait, 6);
    std::remove(obs::rank_trace_path(path, comm.rank()).c_str());
  });
}

}  // namespace
}  // namespace pfc::app
