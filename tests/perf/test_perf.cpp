// Performance-model tests: cache simulator invariants, layer conditions vs
// simulation, ECM structure, GPU register model, network model shapes.
#include <gtest/gtest.h>

#include <cmath>

#include "pfc/app/compiler.hpp"
#include "pfc/app/params.hpp"
#include "pfc/fd/discretize.hpp"
#include "pfc/perf/cachesim.hpp"
#include "pfc/perf/ecm.hpp"
#include "pfc/perf/gpu_model.hpp"
#include "pfc/perf/netmodel.hpp"

namespace pfc::perf {
namespace {

using sym::Expr;
using sym::num;

ir::Kernel diffusion_kernel_3d() {
  auto src = Field::create("pd_src", 3, 1);
  auto dst = Field::create("pd_dst", 3, 1);
  fd::PdeUpdate pde;
  pde.name = "pd";
  pde.src = src;
  pde.dst = dst;
  Expr lap = num(0);
  for (int d = 0; d < 3; ++d) {
    lap = lap + sym::diff_op(sym::diff_op(sym::at(src), d), d);
  }
  pde.rhs = {0.1 * lap};
  fd::DiscretizeOptions o;
  o.dims = 3;
  return ir::build_kernel(fd::discretize(pde, o).kernels[0]);
}

std::vector<ir::Kernel> p1_kernels(bool split_mu) {
  app::GrandChemModel m(app::make_p1(3));
  const app::CompileOptions co;
  fd::DiscretizeOptions dopts;
  dopts.dims = 3;
  dopts.split_staggered = split_mu;
  std::optional<FieldPtr> flux;
  return app::ModelCompiler::lower(m.mu_update(), dopts, co, &flux);
}

TEST(CacheSimTest, ColdMissesThenHits) {
  CacheSim sim({{1024, 2, 64}});
  sim.access(0);
  sim.access(8);   // same line
  sim.access(64);  // next line
  EXPECT_EQ(sim.hits()[0], 1);
  EXPECT_EQ(sim.memory_accesses(), 2);
}

TEST(CacheSimTest, LruEviction) {
  // 2-way, 2 sets of 64B lines -> lines 0 and 2 map to set 0
  CacheSim sim({{256, 2, 64}});
  sim.access(0);        // line 0 -> set 0
  sim.access(128);      // line 2 -> set 0
  sim.access(256);      // line 4 -> set 0, evicts line 0 (LRU)
  sim.access(0);        // miss again
  EXPECT_EQ(sim.hits()[0], 0);
  EXPECT_EQ(sim.memory_accesses(), 4);
  sim.access(0);  // now hits
  EXPECT_EQ(sim.hits()[0], 1);
}

TEST(CacheSimTest, SecondLevelCatchesL1Evictions) {
  CacheSim sim({{128, 2, 64}, {4096, 8, 64}});
  // touch 4 distinct lines (L1 holds 2), then re-touch: L2 must hit
  for (int r = 0; r < 2; ++r) {
    for (std::uint64_t a = 0; a < 4; ++a) sim.access(a * 64);
  }
  EXPECT_EQ(sim.memory_accesses(), 4);  // only compulsory
  EXPECT_GT(sim.hits()[1], 0);
}

TEST(StreamAnalysisTest, DiffusionStencil) {
  const auto k = diffusion_kernel_3d();
  const StreamInfo s = analyze_streams(k);
  // 7-point stencil: (y,z) offsets {0,0},{±1,0},{0,±1} -> 5 streams
  EXPECT_EQ(s.total_read_streams, 5);
  EXPECT_EQ(s.per_layer_streams, 3);  // z in {-1, 0, 1}
  EXPECT_EQ(s.compulsory_streams, 1);
  EXPECT_EQ(s.store_streams, 1);
}

TEST(LayerConditionTest, TrafficDropsWithLcSatisfied) {
  const auto k = diffusion_kernel_3d();
  const MachineModel m = MachineModel::skylake_sp();
  // small block: 3D LC holds everywhere -> compulsory traffic only
  auto small = layer_condition_traffic(k, {16, 16, 16}, m);
  // huge block: 3D LC fails in L1/L2
  auto large = layer_condition_traffic(k, {400, 400, 400}, m);
  ASSERT_EQ(small.bytes_per_update.size(), large.bytes_per_update.size());
  EXPECT_LT(small.bytes_per_update[1], large.bytes_per_update[1]);
  EXPECT_GT(small.max_block_for_3d_lc, 16);
}

TEST(LayerConditionTest, BlockSizingMatchesPaperMethod) {
  // paper: mu-full needs 232 N^2 bytes; 1 MB L2 -> N < 67. Our P1 mu-full
  // has a similar structure: the derived block bound must land in the same
  // few-dozen-cells regime.
  auto kernels = p1_kernels(false);
  const MachineModel m = MachineModel::skylake_sp();
  auto tp = layer_condition_traffic(kernels[0], {60, 60, 60}, m);
  EXPECT_GT(tp.max_block_for_3d_lc, 20);
  EXPECT_LT(tp.max_block_for_3d_lc, 200);
}

TEST(LayerConditionTest, AgreesWithCacheSimulatorOnMemoryTraffic) {
  const auto k = diffusion_kernel_3d();
  MachineModel m = MachineModel::skylake_sp();
  const std::array<long long, 3> block{48, 48, 8};
  const auto lc = layer_condition_traffic(k, block, m).bytes_per_update;
  const auto sim = simulate_kernel_traffic(k, block, m);
  ASSERT_EQ(lc.size(), sim.size());
  // memory-boundary traffic must agree within a factor ~2 (the sim sees
  // real conflict misses, the LC is an idealized bound)
  EXPECT_GT(sim.back(), 0.3 * lc.back());
  EXPECT_LT(sim.back(), 3.0 * lc.back());
}

TEST(EcmTest, SplitVsFullScalingShapes) {
  // the paper's Fig 2 (left): mu-split saturates memory bandwidth (per-core
  // performance decays), mu-full is compute bound (flat per-core scaling)
  const MachineModel m = MachineModel::skylake_sp();
  auto full = ecm_predict(p1_kernels(false)[0], {60, 60, 60}, m);
  auto split_kernels = p1_kernels(true);
  // evaluate the consumer kernel of the split chain (the data-bound one):
  // the staggered passes, one per axis, come first
  auto split = ecm_predict(split_kernels.back(), {60, 60, 60}, m);

  EXPECT_GT(full.t_comp, split.t_comp)
      << "full kernel recomputes fluxes -> more in-core work";
  const int sat_full = full.saturation_cores(m);
  const int sat_split = split.saturation_cores(m);
  EXPECT_GT(sat_full, sat_split)
      << "split kernel must saturate bandwidth with fewer cores";
  EXPECT_LE(sat_split, 2 * m.cores);

  // per-core MLUP/s of the full kernel stays ~flat over the socket
  const double f1 = full.mlups(m, 1);
  const double f24 = full.mlups(m, m.cores) / m.cores;
  EXPECT_NEAR(f24 / f1, 1.0, 0.25);
}

TEST(EcmTest, PredictionPositiveAndFinite) {
  const MachineModel m = MachineModel::skylake_sp();
  for (bool split : {false, true}) {
    for (const auto& k : p1_kernels(split)) {
      auto p = ecm_predict(k, {60, 60, 60}, m);
      EXPECT_GT(p.t_comp, 0);
      EXPECT_GT(p.mlups(m, 1), 0);
      EXPECT_GT(p.mlups(m, 24), p.mlups(m, 1));
    }
  }
}

TEST(GpuModelTest, TransformationLadder) {
  // Fig 2 (right): none spills; sched alone eliminates spilling (~+50%);
  // sched+dupl+fence drops below 128 registers and doubles occupancy.
  auto kernels = p1_kernels(false);
  const GpuModel gpu = GpuModel::p100();
  const double cells = 400.0 * 400 * 400;

  const auto none = evaluate_gpu_kernel(kernels[0], {}, gpu, cells);
  GpuTransformConfig sched;
  sched.schedule = true;
  const auto s = evaluate_gpu_kernel(kernels[0], sched, gpu, cells);
  GpuTransformConfig all;
  all.schedule = all.remat = all.fences = true;
  const auto a = evaluate_gpu_kernel(kernels[0], all, gpu, cells);

  EXPECT_TRUE(none.spills) << "untransformed mu-full must spill (regs="
                           << none.nvcc_registers << ")";
  EXPECT_LT(s.nvcc_registers, 256);
  EXPECT_FALSE(s.spills);
  EXPECT_LT(s.runtime_ms, none.runtime_ms);
  EXPECT_LE(a.nvcc_registers, s.nvcc_registers);
  EXPECT_LT(a.runtime_ms, none.runtime_ms);
  EXPECT_GT(a.occupancy, none.occupancy);
}

TEST(GpuModelTest, GreedyVsWideBeam) {
  auto kernels = p1_kernels(false);
  const GpuModel gpu = GpuModel::p100();
  GpuTransformConfig greedy;
  greedy.schedule = true;
  greedy.beam_width = 1;
  GpuTransformConfig wide = greedy;
  wide.beam_width = 20;
  const auto g = evaluate_gpu_kernel(kernels[0], greedy, gpu, 1e6);
  const auto w = evaluate_gpu_kernel(kernels[0], wide, gpu, 1e6);
  EXPECT_LE(w.analysis_live, g.analysis_live);
}

TEST(GpuModelTest, FastMathSpeedsUpDivisionHeavyKernel) {
  // paper §6.2: approximations give 25-35 % on the mu kernels
  auto kernels = p1_kernels(false);
  const GpuModel gpu = GpuModel::p100();
  GpuTransformConfig base;
  base.schedule = true;
  GpuTransformConfig fast = base;
  fast.fast_math = true;
  const auto b = evaluate_gpu_kernel(kernels[0], base, gpu, 1e7);
  const auto f = evaluate_gpu_kernel(kernels[0], fast, gpu, 1e7);
  const double speedup = b.runtime_ms / f.runtime_ms;
  EXPECT_GT(speedup, 1.08);
  EXPECT_LT(speedup, 2.0);
}

TEST(NetModelTest, Table2Ordering) {
  // no-overlap/no-gpudirect < no-overlap/gpudirect < overlap/no-gpudirect
  // < overlap/gpudirect (395 < 403 < 422 < 440 in the paper)
  const NetworkModel net;
  const std::array<long long, 3> block{400, 400, 400};
  const double cells = 400.0 * 400 * 400;
  const double compute_s = cells / (440e6);  // kernel-only rate
  const double bytes = ghost_bytes_per_step(block, 4, 2);
  const int msgs = messages_per_step(3);

  const auto mlups = [&](bool ov, bool gd) {
    return cells / step_time(compute_s, bytes, msgs, {ov, gd}, net) / 1e6;
  };
  const double m00 = mlups(false, false);
  const double m01 = mlups(false, true);
  const double m10 = mlups(true, false);
  const double m11 = mlups(true, true);
  EXPECT_LT(m00, m01);
  EXPECT_LT(m01, m10);
  EXPECT_LT(m10, m11);
  // overall spread in the paper is ~11 % (395 -> 440)
  EXPECT_GT(m11 / m00, 1.03);
  EXPECT_LT(m11 / m00, 1.4);
}

TEST(NetModelTest, WeakScalingNearlyFlat) {
  const NetworkModel net;
  const std::array<long long, 3> block{60, 60, 60};
  const double cells = 60.0 * 60 * 60;
  const double compute_s = cells / 6e6;  // ~6 MLUP/s per core
  const double bytes = ghost_bytes_per_step(block, 4, 2);
  const double r1 = scaled_mlups_per_rank(cells, compute_s, bytes, 12, 16,
                                          {true, false}, net);
  const double r2 = scaled_mlups_per_rank(cells, compute_s, bytes, 12,
                                          300000, {true, false}, net);
  EXPECT_GT(r2 / r1, 0.9) << "weak scaling must stay near-perfect";
}

TEST(NetModelTest, StrongScalingRollsOff) {
  const NetworkModel net;
  // fixed 512x256x256 domain split over ranks
  const double total_cells = 512.0 * 256 * 256;
  const auto per_rank = [&](int ranks) {
    const double c = total_cells / ranks;
    const double edge = std::cbrt(c);
    const std::array<long long, 3> block{(long long)edge, (long long)edge,
                                         (long long)edge};
    const double compute_s = c / 6e6;
    const double bytes = ghost_bytes_per_step(block, 4, 2);
    return scaled_mlups_per_rank(c, compute_s, bytes, 12, ranks,
                                 {true, false}, net);
  };
  const double eff48 = per_rank(48);
  const double eff150k = per_rank(150000);
  EXPECT_LT(eff150k, eff48) << "per-core efficiency must drop when blocks "
                               "shrink to a few cells";
  EXPECT_GT(eff150k, 0.1 * eff48) << "but total throughput still grows";
}

}  // namespace
}  // namespace pfc::perf
