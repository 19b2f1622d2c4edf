// A seeded, self-contained mutator for fuzzing the decoders of JSON that
// arrives from the wire or from disk. It flips, deletes and duplicates
// bytes and lines (a duplicated line of an indented document is a
// duplicated key), truncates, nests deeply and swaps numbers for values at
// the edge of the integer rule. A seed gives the same mutants on every
// platform, so a fuzz test with a fixed seed and count is deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace pfc::fuzz {

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

inline std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string l; std::getline(in, l);) lines.push_back(l);
  return lines;
}

inline std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

/// [begin, end) of every number literal in `text`.
inline std::vector<std::pair<std::size_t, std::size_t>> numbers_in(
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

inline std::string mutate(std::string text, Rng& rng) {
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

}  // namespace pfc::fuzz
