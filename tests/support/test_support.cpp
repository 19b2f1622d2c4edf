// Support-layer tests: thread pool semantics, aligned allocation, error
// plumbing, analysis utilities, CSV output.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "pfc/app/analysis.hpp"
#include "pfc/app/params.hpp"
#include "pfc/app/simulation.hpp"
#include "pfc/grid/vtk.hpp"
#include "pfc/support/aligned.hpp"
#include "pfc/support/assert.hpp"
#include "pfc/support/thread_pool.hpp"

namespace pfc {
namespace {

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  pool.parallel_for(0, 1000, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      touched[std::size_t(i)].fetch_add(1);
    }
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, EmptyAndSingleRanges) {
  ThreadPool pool(3);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> count{0};
  pool.parallel_for(0, 1, [&](std::int64_t lo, std::int64_t hi) {
    count += int(hi - lo);
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, RunOnAllUsesDistinctIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> seen(4);
  pool.run_on_all([&](int idx) { seen[std::size_t(idx)].fetch_add(1); });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossManyRounds) {
  ThreadPool pool(3);
  std::atomic<long> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(0, 100, [&](std::int64_t lo, std::int64_t hi) {
      total += hi - lo;
    });
  }
  EXPECT_EQ(total.load(), 5000);
}

// A throw on any member reaches the caller once, and only after every
// other member has returned (they read the caller's frame); the pool keeps
// working afterwards.
TEST(ThreadPoolTest, ThrowOnAnyWorkerIsRethrownAfterJoin) {
  ThreadPool pool(3);
  for (const int thrower : {0, 2}) {
    std::atomic<int> finished{0};
    int caught = 0;
    try {
      pool.run_on_all([&](int idx) {
        if (idx == thrower) {
          throw std::runtime_error("worker " + std::to_string(idx));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        finished.fetch_add(1);
      });
    } catch (const std::runtime_error& e) {
      ++caught;
      EXPECT_EQ(std::string(e.what()), "worker " + std::to_string(thrower));
      EXPECT_EQ(finished.load(), 2) << "rethrown before the others returned";
    }
    EXPECT_EQ(caught, 1) << "thrower " << thrower;
  }
  // every member throws: still one exception
  int caught = 0;
  try {
    pool.run_on_all([](int idx) { throw idx; });
  } catch (int) {
    ++caught;
  }
  EXPECT_EQ(caught, 1);

  std::vector<std::atomic<int>> seen(3);
  pool.run_on_all([&](int idx) { seen[std::size_t(idx)].fetch_add(1); });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(AlignedTest, AllocationAligned) {
  for (std::size_t n : {1u, 7u, 64u, 1000u}) {
    auto p = make_aligned<double>(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p.get()) % 64, 0u);
  }
  EXPECT_EQ(round_up(0, 8), 0u);
  EXPECT_EQ(round_up(1, 8), 8u);
  EXPECT_EQ(round_up(8, 8), 8u);
  EXPECT_EQ(round_up(9, 8), 16u);
}

TEST(AssertTest, MacrosThrowPfcError) {
  EXPECT_THROW(PFC_REQUIRE(false, "nope"), Error);
  try {
    PFC_ASSERT(1 == 2, "math broke");
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    return;
  }
  FAIL() << "PFC_ASSERT did not throw";
}

TEST(AnalysisTest, PhaseStatisticsKnownField) {
  auto f = Field::create("ph", 2, 2);
  Array a(f, {4, 4, 1}, 1);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      const double v = x < 2 ? 1.0 : 0.0;
      a.at(x, y, 0, 0) = v;
      a.at(x, y, 0, 1) = 1.0 - v;
    }
  }
  const app::PhaseStats s = app::phase_statistics(a);
  EXPECT_DOUBLE_EQ(s.fractions[0], 0.5);
  EXPECT_DOUBLE_EQ(s.fractions[1], 0.5);
  EXPECT_DOUBLE_EQ(s.interface_fraction, 0.0);
  EXPECT_DOUBLE_EQ(s.simplex_violation, 0.0);
}

TEST(AnalysisTest, FrontPosition) {
  auto f = Field::create("fr", 2, 2);
  Array a(f, {4, 8, 1}, 1);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 4; ++x) {
      a.at(x, y, 0, 0) = y < 5 ? 0.0 : 1.0;  // liquid above y = 4
      a.at(x, y, 0, 1) = y < 5 ? 1.0 : 0.0;
    }
  }
  EXPECT_EQ(app::front_position(a, 0, 1), 4);
  a.fill_component(0, 1.0);
  EXPECT_EQ(app::front_position(a, 0, 1), -1);  // fully liquid
}

TEST(AnalysisTest, InterfaceMeasureOfFlatInterface) {
  auto f = Field::create("im", 2, 1);
  Array a(f, {16, 8, 1}, 1);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 16; ++x) {
      a.at(x, y, 0) = app::interface_profile(double(x) - 8.0, 6.0);
    }
  }
  // one interface crossing the 8-cell height: measure ~ 8 * dx
  const double m = app::interface_measure(a, 1.0, 2);
  EXPECT_NEAR(m, 8.0, 1.0);
}

TEST(CsvTest, HeaderOnceRowsAppended) {
  const std::string path = "/tmp/pfc_test_csv.csv";
  std::remove(path.c_str());
  grid::append_csv(path, {"a", "b"}, {1.0, 2.0});
  grid::append_csv(path, {"a", "b"}, {3.0, 4.0});
  std::ifstream in(path);
  std::string l1, l2, l3;
  std::getline(in, l1);
  std::getline(in, l2);
  std::getline(in, l3);
  EXPECT_EQ(l1, "a,b");
  EXPECT_EQ(l2, "1,2");
  EXPECT_EQ(l3, "3,4");
  std::remove(path.c_str());
}

TEST(CsvTest, MismatchedRowRejected) {
  EXPECT_THROW(grid::append_csv("/tmp/pfc_x.csv", {"a"}, {1.0, 2.0}), Error);
}

TEST(ProfileTest, InterfaceProfileProperties) {
  EXPECT_DOUBLE_EQ(app::interface_profile(-10.0, 4.0), 1.0);
  EXPECT_DOUBLE_EQ(app::interface_profile(10.0, 4.0), 0.0);
  EXPECT_DOUBLE_EQ(app::interface_profile(0.0, 4.0), 0.5);
  // monotone decreasing
  double prev = 1.0;
  for (double d = -3.0; d <= 3.0; d += 0.25) {
    const double v = app::interface_profile(d, 4.0);
    EXPECT_LE(v, prev + 1e-15);
    prev = v;
  }
}

}  // namespace
}  // namespace pfc
