// Seeded mutation fuzzing of the jobspec decoder (JobSpec::parse, the path
// every spec from the wire or from disk takes). A self-contained mutator
// flips, deletes and duplicates bytes and lines (a duplicated line of the
// indented corpus is a duplicated key), truncates, nests deeply and swaps
// numbers for values at the edge of the integer rule, over the default
// spec and examples/jobspec_disk.json. Every mutant must either be refused
// with a pfc::Error, or decode, validate and re-emit the same JSON after
// from_json(to_json(spec)). A fixed seed and count keep it deterministic
// and a few seconds long (ctest jobspec_fuzz).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "pfc/app/jobspec.hpp"
#include "pfc/obs/json.hpp"

namespace pfc::app {
namespace {

using obs::Json;

/// splitmix64: a few lines, and the same stream on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n) (n > 0).
  std::size_t below(std::size_t n) { return std::size_t(next() % n); }

 private:
  std::uint64_t s_;
};

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string l; std::getline(in, l);) lines.push_back(l);
  return lines;
}

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

/// [begin, end) of every number literal in `text`.
std::vector<std::pair<std::size_t, std::size_t>> numbers_in(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  const auto is_num = [](char c) {
    return (c >= '0' && c <= '9') || c == '-' || c == '.' || c == 'e' ||
           c == 'E' || c == '+';
  };
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '"' && (i == 0 || text[i - 1] != '\\')) {
      in_string = !in_string;
    }
    if (in_string || !((text[i] >= '0' && text[i] <= '9') || text[i] == '-')) {
      continue;
    }
    std::size_t j = i;
    while (j < text.size() && is_num(text[j])) ++j;
    spans.emplace_back(i, j);
    i = j - 1;
  }
  return spans;
}

std::string mutate(std::string text, Rng& rng) {
  static const char* kEdgeNumbers[] = {"1e19", "-1", "4294967297", "0.5",
                                       "0",    "-0", "9007199254740993",
                                       "1e308", "4294967300"};
  static const std::string kBytes = "{}[]\":,.-+0123456789eEtrufalsn \n\\";
  const std::size_t ops = 1 + rng.below(2);
  for (std::size_t op = 0; op < ops && !text.empty(); ++op) {
    const std::size_t at = rng.below(text.size());
    switch (rng.below(8)) {
      case 0:  // flip a byte, to JSON punctuation or to any byte
        text[at] = rng.below(4) == 0 ? char(rng.below(256))
                                     : kBytes[rng.below(kBytes.size())];
        break;
      case 1:  // delete a run of bytes
        text.erase(at, 1 + rng.below(16));
        break;
      case 2:  // duplicate a run of bytes
        text.insert(at, text.substr(at, 1 + rng.below(32)));
        break;
      case 3:  // truncate
        text.resize(at);
        break;
      case 4: {  // nest deeply, balanced or not
        const std::size_t depth = rng.below(2) == 0 ? 300 : 5000;
        const std::string open(depth, '['), close(depth, ']');
        text.insert(at, rng.below(2) == 0 ? open + "1" + close : open);
        break;
      }
      case 5: {  // a number at the edge of the integer rule
        const auto spans = numbers_in(text);
        if (spans.empty()) break;
        const auto [b, e] = spans[rng.below(spans.size())];
        text.replace(b, e - b,
                     kEdgeNumbers[rng.below(std::size(kEdgeNumbers))]);
        break;
      }
      case 6: {  // duplicate a line: one member per line, so a second key
        std::vector<std::string> lines = lines_of(text);
        const std::string line = lines[rng.below(lines.size())];
        lines.insert(lines.begin() + std::ptrdiff_t(rng.below(lines.size())),
                     line);
        text = joined(lines);
        break;
      }
      default: {  // delete a line: a missing key, or a broken document
        std::vector<std::string> lines = lines_of(text);
        lines.erase(lines.begin() + std::ptrdiff_t(rng.below(lines.size())));
        text = joined(lines);
        break;
      }
    }
  }
  return text;
}

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
  Rng rng(0x6a6f627370656331ull);
  int decoded = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string text =
        mutate(corpus[std::size_t(i) % corpus.size()], rng);
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
