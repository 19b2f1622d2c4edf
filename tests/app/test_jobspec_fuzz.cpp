// Seeded mutation fuzzing of the jobspec decoder (JobSpec::parse, the path
// every spec from the wire or from disk takes), with the shared mutator of
// json_mutator.hpp over the default spec and examples/jobspec_disk.json.
// Every mutant must either be refused with a pfc::Error, or decode,
// validate and re-emit the same JSON after from_json(to_json(spec)). A
// fixed seed and count keep it deterministic and a few seconds long (ctest
// jobspec_fuzz).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "pfc/app/jobspec.hpp"
#include "pfc/obs/json.hpp"

#include "../json_mutator.hpp"

namespace pfc::app {
namespace {

using obs::Json;

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(JobSpecFuzz, MutantsAreRefusedOrRoundTrip) {
  const std::string example =
      read_text(std::string(PFC_SOURCE_DIR) + "/examples/jobspec_disk.json");
  ASSERT_NO_THROW(JobSpec::parse(example));
  const std::vector<std::string> corpus = {JobSpec{}.to_json().dump(2),
                                           example};

  constexpr int kMutants = 30000;
  fuzz::Rng rng(0x6a6f627370656331ull);
  int decoded = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string text =
        fuzz::mutate(corpus[std::size_t(i) % corpus.size()], rng);
    JobSpec spec;
    try {
      spec = JobSpec::parse(text);
    } catch (const Error&) {
      continue;  // refused by path (any other exception fails the test)
    }
    ++decoded;
    const Json once = spec.to_json();
    try {
      const JobSpec back = JobSpec::from_json(once);
      back.validate();
      ASSERT_TRUE(once == back.to_json()) << "mutant " << i << ":\n" << text;
    } catch (const Error& e) {
      FAIL() << "mutant " << i << " decoded, but its re-emitted JSON is "
             << "refused: " << e.what() << "\n" << text;
    }
  }
  std::printf("jobspec_fuzz: %d mutants, %d decoded, %d refused\n", kMutants,
              decoded, kMutants - decoded);
  // Most mutants break the document; enough must decode for the
  // round-trip check to mean something.
  EXPECT_GT(decoded, kMutants / 20);
}

}  // namespace
}  // namespace pfc::app
