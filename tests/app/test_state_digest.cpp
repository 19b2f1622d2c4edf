// Whole-state passes outside the kernels.
//
// InitOnPool (ctest init_on_pool_bitwise): the pool's workers evaluate the
// initial condition on the rows of their static slabs, and every interior
// cell of φ and µ is bit for bit what one thread writes, on one block and
// on a forest, under either dispatch.
//
// StateDigest (ctest state_digest): resilience::fnv1a64, the word digest
// with a murmur3 premix, chained over rows in place equals the one-shot
// digest of the copied interior, sees two sign flips and two flips of bit
// 62, and refuses a partial word.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "pfc/app/jobspec.hpp"
#include "pfc/app/params.hpp"
#include "pfc/app/simulation.hpp"
#include "pfc/resilience/checkpoint.hpp"
#include "pfc/support/assert.hpp"

namespace pfc::app {
namespace {

/// The two gathered fields hold the same bits.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// A disk (sphere in 3-D) of phase 1 in the liquid, every other phase a
/// smooth function of the position, so each cell's value is distinct.
double phi_cell(long long x, long long y, long long z, int c) {
  const double d =
      std::sqrt(double((x - 10) * (x - 10) + (y - 11) * (y - 11) +
                       (z - 9) * (z - 9))) -
      6.0;
  const double solid = interface_profile(d, 4.0);
  if (c == 0) return 1.0 - solid;
  if (c == 1) return solid;
  return 1e-3 * std::sin(0.3 * double(x) + 0.7 * double(y) + double(z + c));
}

double mu_cell(long long x, long long y, long long z, int c) {
  return 0.01 * std::cos(0.2 * double(x) - 0.5 * double(y) + 0.3 * double(z)) +
         1e-4 * c;
}

/// The threads that evaluated a CellFn.
struct ThreadLog {
  std::mutex mutex;
  std::set<std::thread::id> ids;
  void note() {
    std::lock_guard lock(mutex);
    ids.insert(std::this_thread::get_id());
  }
};

SimulationOptions options(const std::array<long long, 3>& cells,
                          const std::array<int, 3>& blocks, int threads,
                          Dispatch dispatch) {
  SimulationOptions o;
  o.cells = cells;
  o.blocks_per_dim = blocks;
  o.threads = threads;
  o.dispatch = dispatch;
  // init does not depend on the tier; skip the JIT
  o.compile.backend = Backend::Interpreter;
  return o;
}

TEST(InitOnPool, EveryCellMatchesOneThread) {
  GrandChemParams p2 = make_p2(2);
  ASSERT_GT(p2.noise_amplitude, 0.0);
  const struct {
    const char* label;
    GrandChemParams params;
    std::array<long long, 3> cells;
  } cases[] = {{"P1 3-D", make_p1(3), {20, 20, 24}},
               {"P2 2-D with noise", p2, {48, 48, 1}}};
  for (const auto& k : cases) {
    const GrandChemModel model(k.params);
    for (const std::array<int, 3> blocks :
         {std::array{1, 1, 1}, std::array{2, 2, 1}}) {
      const std::string where = std::string(k.label) + ", " +
                                std::to_string(blocks[0] * blocks[1]) +
                                " block(s)";
      Simulation ref(model, options(k.cells, blocks, 1, Dispatch::Static));
      ref.init(&phi_cell, &mu_cell);
      for (const Dispatch dispatch : {Dispatch::Static, Dispatch::Dynamic}) {
        Simulation sim(model, options(k.cells, blocks, 3, dispatch));
        ThreadLog log;
        sim.init(
            [&](long long x, long long y, long long z, int c) {
              log.note();
              return phi_cell(x, y, z, c);
            },
            &mu_cell);
        EXPECT_GT(log.ids.size(), 1u)
            << where << ": the initial condition ran on one thread";
        EXPECT_TRUE(same_bits(sim.gather_phi(), ref.gather_phi()))
            << where << ", " << support::enum_name(dispatch) << ": phi";
        EXPECT_TRUE(same_bits(sim.gather_mu(), ref.gather_mu()))
            << where << ", " << support::enum_name(dispatch) << ": mu";
      }
    }
  }
}

TEST(InitOnPool, ThrowFromOneCellReachesTheCaller) {
  const GrandChemModel model(make_p2(2));
  for (const int threads : {1, 3}) {
    Simulation sim(
        model, options({48, 48, 1}, {1, 1, 1}, threads, Dispatch::Static));
    // the last worker's slab
    EXPECT_THROW(sim.init_phi([](long long x, long long y, long long, int) {
      if (x == 7 && y == 40) throw Error("bad cell");
      return 0.5;
    }),
                 Error)
        << threads << " thread(s)";
  }
}

// --- the digest --------------------------------------------------------------

/// A 3-component 13 x 5 x 3 array (x rows padded to 16 + ghosts) holding
/// distinct, mostly nonzero values.
Array sample_array() {
  Array a(Field::create("s", 3, 3), {13, 5, 3}, 1);
  for (int c = 0; c < 3; ++c) {
    for (long long z = 0; z < 3; ++z) {
      for (long long y = 0; y < 5; ++y) {
        for (long long x = 0; x < 13; ++x) {
          a.at(x, y, z, c) = std::sin(1.0 + double(x + 13 * (y + 5 * z)) +
                                      0.1 * c);
        }
      }
    }
  }
  return a;
}

std::uint64_t one_shot(const Array& a) {
  std::vector<double> buf(std::size_t(a.interior_count()));
  a.copy_interior_out(buf.data());
  return resilience::fnv1a64(buf.data(), buf.size() * sizeof(double));
}

/// `a` with `bit` of cells (3, 1, 0, 0) and (8, 4, 2, 2) flipped.
Array with_flips(int bit) {
  Array a = sample_array();
  for (double* cell : {&a.at(3, 1, 0, 0), &a.at(8, 4, 2, 2)}) {
    *cell = std::bit_cast<double>(std::bit_cast<std::uint64_t>(*cell) ^
                                  (std::uint64_t(1) << bit));
  }
  return a;
}

TEST(StateDigest, RowChainEqualsOneShotOverTheCopy) {
  const Array a = sample_array();
  EXPECT_EQ(interior_checksum(a), one_shot(a));
  // chaining two halves equals hashing the whole
  std::vector<double> buf(std::size_t(a.interior_count()));
  a.copy_interior_out(buf.data());
  const std::size_t half = buf.size() / 2 * sizeof(double);
  const std::uint64_t h = resilience::fnv1a64(buf.data(), half);
  EXPECT_EQ(resilience::fnv1a64(buf.data() + buf.size() / 2,
                                buf.size() * sizeof(double) - half, h),
            one_shot(a));
  EXPECT_EQ(resilience::fnv1a64(buf.data(), 0), resilience::kFnvOffsetBasis);
}

// Plain word-wise FNV-1a ((h ^ w) * prime) lets the two sign flips cancel:
// bit 63 passes through xor and an odd multiplier unchanged. The premix
// spreads each flip over the whole word.
TEST(StateDigest, TwoSignFlipsChangeTheDigest) {
  const std::uint64_t clean = interior_checksum(sample_array());
  EXPECT_NE(interior_checksum(with_flips(63)), clean);
}

TEST(StateDigest, TwoFlipsOfBit62ChangeTheDigest) {
  const std::uint64_t clean = interior_checksum(sample_array());
  EXPECT_NE(interior_checksum(with_flips(62)), clean);
}

TEST(StateDigest, RefusesAPartialWord) {
  const double v[2] = {1.0, 2.0};
  EXPECT_NO_THROW(resilience::fnv1a64(v, 16));
  EXPECT_THROW(resilience::fnv1a64(v, 12), Error);
  EXPECT_THROW(resilience::fnv1a64(v, 1), Error);
}

}  // namespace
}  // namespace pfc::app
