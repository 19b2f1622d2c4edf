// Golden checksums (ctest golden_checksums): the φ/µ state digests
// (resilience::fnv1a64, DESIGN.md §7) of two tiny runs through
// app::run_job, pinned so that the reference cannot drift silently. Each
// spec runs on one thread from the default initial state, with the JIT at
// widths 1 and 8; both widths give one checksum. A change that moves these
// bits on purpose updates the table and says so.
//
// The interpreter is not pinned: it still rounds P1 φ differently from the
// JIT tiers.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "pfc/app/jobspec.hpp"

namespace pfc::app {
namespace {

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

struct Golden {
  const char* label;
  const char* preset;
  int dims;
  std::array<long long, 3> cells;
  long long steps;
  const char* phi;
  const char* mu;
};

TEST(GoldenChecksums, P1AndP2AtWidthsOneAndEight) {
  const Golden rows[] = {
      {"P1 3-D", "p1", 3, {16, 16, 16}, 3, "c266165c95b153ff",
       "5bd99682560d34c5"},
      {"P2 2-D with Philox noise", "p2", 2, {64, 64, 1}, 5,
       "c6c8e3259e968a3b", "0feb3ea1e17b6e49"}};
  for (const Golden& g : rows) {
    for (const int width : {1, 8}) {
      JobSpec spec;
      spec.name = "golden";
      spec.model.preset = g.preset;
      spec.model.dims = g.dims;
      spec.steps = g.steps;
      spec.simulation.cells = g.cells;
      spec.simulation.threads = 1;
      spec.simulation.compile.backend = Backend::Jit;
      spec.simulation.compile.vector_width = width;
      const JobResult r = run_job(spec);
      EXPECT_EQ(hex(r.phi_checksum), g.phi) << g.label << ", width " << width;
      EXPECT_EQ(hex(r.mu_checksum), g.mu) << g.label << ", width " << width;
    }
  }
}

}  // namespace
}  // namespace pfc::app
