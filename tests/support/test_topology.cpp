// Topology probe + slab-plan tests (DESIGN.md §11). A fake sysfs tree makes
// the probe deterministic on any machine: two packages, two NUMA nodes,
// two cores per package, one SMT sibling per core (8 logical cpus).
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "pfc/support/assert.hpp"
#include "pfc/support/thread_pool.hpp"
#include "pfc/support/topology.hpp"

namespace pfc::support {
namespace {

namespace fs = std::filesystem;

void write_file(const fs::path& path, const std::string& text) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path);
  out << text;
}

/// Builds the fake machine:
///   package 0 = node 0: cpu0 (core 0), cpu1 (core 1), smt cpu4, cpu5
///   package 1 = node 1: cpu2 (core 0), cpu3 (core 1), smt cpu6, cpu7
class FakeSysfs : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("pfc_fake_sysfs_" + std::to_string(::getpid()));
    fs::remove_all(root_);
    const fs::path cpu = root_ / "devices/system/cpu";
    write_file(cpu / "online", "0-7\n");
    const int package[8] = {0, 0, 1, 1, 0, 0, 1, 1};
    const int core[8] = {0, 1, 0, 1, 0, 1, 0, 1};
    for (int c = 0; c < 8; ++c) {
      const fs::path base = cpu / ("cpu" + std::to_string(c)) / "topology";
      write_file(base / "physical_package_id",
                 std::to_string(package[c]) + "\n");
      write_file(base / "core_id", std::to_string(core[c]) + "\n");
    }
    write_file(root_ / "devices/system/node/node0/cpulist", "0-1,4-5\n");
    write_file(root_ / "devices/system/node/node1/cpulist", "2-3,6-7\n");
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
};

TEST_F(FakeSysfs, DetectCountsPackagesNodesCoresAndSmt) {
  const Topology t = Topology::detect(root_.string(), false);
  ASSERT_EQ(t.cpus.size(), 8u);
  EXPECT_EQ(t.packages, 2);
  EXPECT_EQ(t.nodes, 2);
  EXPECT_EQ(t.cores, 4);
  // cpus are sorted by logical id; the first hyperthread of each (package,
  // core) pair is physical, the second is flagged smt.
  for (int c = 0; c < 8; ++c) {
    EXPECT_EQ(t.cpus[std::size_t(c)].cpu, c);
    EXPECT_EQ(t.cpus[std::size_t(c)].smt, c >= 4) << "cpu " << c;
  }
  EXPECT_EQ(t.cpus[2].package, 1);
  EXPECT_EQ(t.cpus[2].node, 1);
  EXPECT_EQ(t.cpus[5].node, 0);
}

TEST_F(FakeSysfs, L2SizeFromTheFirstCpusCacheLevelTwo) {
  // No cache entries: the 1 MiB default. Then cpu0 gets an L1d, an L1i
  // and a unified L2; the L2 line is the one read.
  EXPECT_EQ(Topology::detect(root_.string(), false).l2_bytes, 1 << 20);
  const fs::path cache = root_ / "devices/system/cpu/cpu0/cache";
  const char* entries[3][3] = {{"1", "Data", "48K"},
                               {"1", "Instruction", "32K"},
                               {"2", "Unified", "2048K"}};
  for (int i = 0; i < 3; ++i) {
    const fs::path idx = cache / ("index" + std::to_string(i));
    write_file(idx / "level", std::string(entries[i][0]) + "\n");
    write_file(idx / "type", std::string(entries[i][1]) + "\n");
    write_file(idx / "size", std::string(entries[i][2]) + "\n");
  }
  EXPECT_EQ(Topology::detect(root_.string(), false).l2_bytes, 2048 << 10);
}

TEST_F(FakeSysfs, CompactOrderFillsPackagePhysicalFirst) {
  const Topology t = Topology::detect(root_.string(), false);
  // package-major over physical cores, SMT siblings only afterwards
  EXPECT_EQ(t.pin_order(PinPolicy::Compact),
            (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST_F(FakeSysfs, ScatterOrderRoundRobinsNumaNodes) {
  const Topology t = Topology::detect(root_.string(), false);
  // alternate nodes so two workers already engage both memory controllers
  EXPECT_EQ(t.pin_order(PinPolicy::Scatter),
            (std::vector<int>{0, 2, 1, 3, 4, 6, 5, 7}));
}

TEST_F(FakeSysfs, NoneOrderIsEmpty) {
  const Topology t = Topology::detect(root_.string(), false);
  EXPECT_TRUE(t.pin_order(PinPolicy::None).empty());
}

TEST(TopologyTest, MissingTreeDegradesToFlatTopology) {
  const Topology t = Topology::detect("/nonexistent/sysfs/root", false);
  EXPECT_GE(t.cpus.size(), 1u);
  EXPECT_GE(t.packages, 1);
  EXPECT_GE(t.nodes, 1);
  EXPECT_GE(t.cores, 1);
}

TEST(TopologyTest, DetectRespectingAffinityNeverExceedsAllowedCpus) {
  const Topology t = Topology::detect();
  EXPECT_GE(allowed_cpu_count(), 1);
  EXPECT_LE(int(t.cpus.size()),
            std::max(allowed_cpu_count(),
                     int(std::thread::hardware_concurrency())));
}

TEST(TopologyTest, PinPolicyNamesRoundTrip) {
  for (PinPolicy p :
       {PinPolicy::None, PinPolicy::Compact, PinPolicy::Scatter}) {
    EXPECT_EQ(parse_pin_policy(enum_name(p)), p);
  }
  EXPECT_THROW(parse_pin_policy("wat"), Error);
}

TEST(TopologyTest, HardwareThreadsWithinAffinityMask) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
  EXPECT_LE(ThreadPool::hardware_threads(), allowed_cpu_count());
}

TEST(SlabPlanTest, EvenSplitMatchesCeilDivision) {
  const SlabPlan p = SlabPlan::make(0, 100, 4);
  EXPECT_EQ(p.chunk, 25);
  for (int w = 0; w < 4; ++w) {
    const auto [lo, hi] = p.slab(w, 0, 100);
    EXPECT_EQ(lo, 25 * w);
    EXPECT_EQ(hi, 25 * (w + 1));
  }
}

TEST(SlabPlanTest, AlignedChunksCoverDisjointly) {
  const SlabPlan p = SlabPlan::make(0, 100, 3, 8);
  EXPECT_EQ(p.chunk, 40);  // ceil(100/3)=34, rounded up to 8
  std::int64_t expect_lo = 0;
  for (int w = 0; w < 3; ++w) {
    const auto [lo, hi] = p.slab(w, 0, 100);
    if (lo >= hi) continue;  // worker with no rows
    EXPECT_EQ(lo, expect_lo);
    if (w < 2) EXPECT_EQ(lo % 8, 0);
    expect_lo = hi;
  }
  EXPECT_EQ(expect_lo, 100);
}

TEST(SlabPlanTest, ThinRangeLeavesTrailingWorkersEmpty) {
  const SlabPlan p = SlabPlan::make(0, 10, 4, 8);
  EXPECT_EQ(p.chunk, 8);
  EXPECT_EQ(p.slab(0, 0, 10), (std::pair<std::int64_t, std::int64_t>{0, 8}));
  EXPECT_EQ(p.slab(1, 0, 10), (std::pair<std::int64_t, std::int64_t>{8, 10}));
  for (int w : {2, 3}) {
    const auto [lo, hi] = p.slab(w, 0, 10);
    EXPECT_GE(lo, hi) << "worker " << w << " should be empty";
  }
}

TEST(SlabPlanTest, EdgeWorkersAbsorbGhostExtendedLimits) {
  // A ghost-extended launch box [-2, 103) must still tile disjointly:
  // worker 0 reaches down to lo_limit, the last worker up to hi_limit.
  const SlabPlan p = SlabPlan::make(0, 100, 4);
  EXPECT_EQ(p.slab(0, -2, 103).first, -2);
  EXPECT_EQ(p.slab(3, -2, 103).second, 103);
  std::int64_t expect_lo = -2;
  for (int w = 0; w < 4; ++w) {
    const auto [lo, hi] = p.slab(w, -2, 103);
    EXPECT_EQ(lo, expect_lo);
    expect_lo = hi;
  }
  EXPECT_EQ(expect_lo, 103);
}

TEST(SlabPlanTest, PinnedPoolReportsWorkerCpus) {
  // Pinning on the real machine: every worker gets a cpu from the detected
  // order (or the pool quietly degrades to unpinned on exotic hosts).
  ThreadPool pool(ThreadPoolOptions{2, PinPolicy::Compact});
  if (pool.pin_policy() == PinPolicy::Compact) {
    EXPECT_GE(pool.worker_cpu(0), 0);
    EXPECT_GE(pool.worker_cpu(1), 0);
  } else {
    EXPECT_EQ(pool.worker_cpu(0), -1);
  }
}

}  // namespace
}  // namespace pfc::support
