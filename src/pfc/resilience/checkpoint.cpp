#include "pfc/resilience/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "pfc/field/array.hpp"
#include "pfc/obs/json_fields.hpp"
#include "pfc/obs/report.hpp"
#include "pfc/support/assert.hpp"

namespace pfc::resilience {

namespace fs = std::filesystem;
using obs::field;
using obs::lift;

namespace {

std::string rank_file(const std::string& stem, const std::string& ext,
                      int rank) {
  if (rank < 0) return stem + ext;
  return stem + ".rank" + std::to_string(rank) + ext;
}

std::string state_name(int rank) { return rank_file("state", ".bin", rank); }

struct FileCloser {
  std::FILE* f;
  ~FileCloser() {
    if (f != nullptr) std::fclose(f);
  }
};

/// murmur3's 64-bit finalizer: a bijection that spreads every input bit
/// over the whole word.
std::uint64_t fmix64(std::uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdull;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ull;
  k ^= k >> 33;
  return k;
}

}  // namespace

const obs::FieldList<ManifestArray>& json_fields(
    obs::JsonTag<ManifestArray>) {
  using S = ManifestArray;
  static const obs::FieldList<S> f = {
      field("name", &S::name),
      field("components", &S::components),
      field("size", &S::size),
      field("offset", &S::offset),
      field("count", &S::count),
      obs::hex64("fnv1a64", &S::fnv1a64, "0x")};
  return f;
}

const obs::FieldList<Manifest>& json_fields(obs::JsonTag<Manifest>) {
  using S = Manifest;
  using M = CheckpointMeta;
  static const obs::FieldList<S> f = {
      obs::constant<S>("schema", kCheckpointSchema),
      lift(&S::meta, field("step", &M::step)),
      lift(&S::meta, field("time", &M::time)),
      lift(&S::meta, field("dt", &M::dt, obs::positive())),
      // The seed is hex like the checksums: a JSON number is a double and
      // rounds a seed above 2^53. Older manifests wrote a number, exact
      // only below 2^53.
      lift(&S::meta,
           obs::hex64("rng_seed", &M::rng_seed, "0x", /*number_too=*/true)),
      lift(&S::meta, field("layout", &M::layout, obs::non_empty())),
      field("data_file", &S::data_file, obs::non_empty()),
      field("arrays", &S::arrays),
      // written by older builds, never read
      obs::retired<S>("counters"),
      [] {
        obs::JsonField<S> h = lift(&S::meta, field("health", &M::health));
        h.presence = obs::Presence::Optional;  // manifests from before it
        return h;
      }(),
      // The arrays tile the state file in order, and the running total
      // stays below 2^53, so the byte size cannot wrap.
      obs::rule(+[](const S& s) -> std::string {
        if (s.arrays.empty()) return "the array index is empty";
        std::uint64_t end = 0;
        for (std::size_t i = 0; i < s.arrays.size(); ++i) {
          if (s.arrays[i].offset != end) {
            return "array " + std::to_string(i) + " starts at " +
                   std::to_string(s.arrays[i].offset) +
                   ", not where the one before it ends (" +
                   std::to_string(end) + "): offsets are not contiguous";
          }
          end += s.arrays[i].count;
          if (end >= (std::uint64_t(1) << 53)) {
            return "element counts add up to 2^53 or more";
          }
        }
        return "";
      })};
  return f;
}

// FNV-1a's byte chain costs ~4 cycles per byte and has no exact parallel
// form; one round per word is 8x fewer. Both steps of a round are
// bijections, so changing any one word changes the digest, and the premix
// keeps two flips of one bit (say two signs) from cancelling, as they do
// under an odd multiplier alone.
std::uint64_t fnv1a64(const void* data, std::size_t bytes, std::uint64_t h) {
  PFC_REQUIRE(bytes % sizeof(std::uint64_t) == 0,
              "fnv1a64: " + std::to_string(bytes) +
                  " bytes are not whole 64-bit words");
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; i += sizeof(std::uint64_t)) {
    std::uint64_t w;
    std::memcpy(&w, p + i, sizeof w);
    h = (h ^ fmix64(w)) * 1099511628211ull;
  }
  return h;
}

std::string manifest_path(const std::string& dir, int rank) {
  return dir + "/" + rank_file("manifest", ".json", rank);
}

void write_checkpoint(const std::string& dir, const CheckpointMeta& meta,
                      const std::vector<CheckpointArray>& arrays, int rank,
                      bool truncate_fault) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  PFC_REQUIRE(!ec, "checkpoint: cannot create directory " + dir);

  const std::string data_path = dir + "/" + state_name(rank);
  const std::string tmp_path = data_path + ".tmp";

  Manifest m{meta, state_name(rank), {}};
  std::uint64_t total_doubles = 0;
  {
    std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
    PFC_REQUIRE(f != nullptr, "checkpoint: cannot open " + tmp_path);
    FileCloser closer{f};
    std::vector<double> buf;
    for (const auto& a : arrays) {
      PFC_REQUIRE(a.array != nullptr, "checkpoint: null array " + a.name);
      const std::int64_t count = a.array->interior_count();
      buf.resize(std::size_t(count));
      a.array->copy_interior_out(buf.data());
      const std::size_t bytes = std::size_t(count) * sizeof(double);
      PFC_REQUIRE(std::fwrite(buf.data(), 1, bytes, f) == bytes,
                  "checkpoint: short write to " + tmp_path);
      const auto& n = a.array->size();
      m.arrays.push_back({a.name, a.array->components(), {n[0], n[1], n[2]},
                          total_doubles, std::uint64_t(count),
                          fnv1a64(buf.data(), bytes)});
      total_doubles += std::uint64_t(count);
    }
  }
  if (truncate_fault) {
    // deliberately corrupt the state file so reader validation is testable
    fs::resize_file(tmp_path, total_doubles * sizeof(double) / 2, ec);
  }
  fs::rename(tmp_path, data_path, ec);
  PFC_REQUIRE(!ec, "checkpoint: cannot rename " + tmp_path);

  // written last, atomically: a readable manifest implies a complete state
  obs::write_json(manifest_path(dir, rank), obs::to_json(m));
}

Manifest read_manifest(const std::string& path) {
  std::string text;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    PFC_REQUIRE(f != nullptr, "checkpoint: no manifest at " + path);
    FileCloser closer{f};
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  }
  std::string err;
  const obs::Json j = obs::Json::parse(text, &err);
  PFC_REQUIRE(err.empty(),
              "checkpoint: manifest parse error in " + path + ": " + err);
  const obs::JsonFormat format{"checkpoint manifest " + path,
                               /*complete=*/true, /*nonnegative=*/true};
  const Manifest m = obs::from_json<Manifest>(j, format);

  // The state file sits next to the manifest and holds exactly the indexed
  // doubles.
  const std::string data_path =
      (fs::path(path).parent_path() / m.data_file).string();
  std::error_code ec;
  const std::uintmax_t fsize = fs::file_size(data_path, ec);
  PFC_REQUIRE(!ec, "checkpoint: missing state file " + data_path);
  const std::uint64_t want =
      (m.arrays.back().offset + m.arrays.back().count) * sizeof(double);
  PFC_REQUIRE(fsize == want,
              "checkpoint: state file " + data_path +
                  " is truncated or corrupt (" + std::to_string(fsize) +
                  " bytes, manifest expects " + std::to_string(want) + ")");
  return m;
}

CheckpointMeta read_checkpoint(const std::string& dir,
                               const std::vector<RestoreArray>& arrays,
                               const std::string& expect_layout, int rank) {
  const Manifest m = read_manifest(manifest_path(dir, rank));
  PFC_REQUIRE(expect_layout.empty() || m.meta.layout == expect_layout,
              "checkpoint: layout mismatch — checkpoint is \"" +
                  m.meta.layout + "\", this run is \"" + expect_layout +
                  '"');
  const std::string data_path = dir + "/" + m.data_file;
  std::FILE* f = std::fopen(data_path.c_str(), "rb");
  PFC_REQUIRE(f != nullptr, "checkpoint: missing state file " + data_path);
  FileCloser closer{f};

  // validate everything before touching any array: a bad checkpoint is
  // rejected whole, never half-applied
  std::vector<std::vector<double>> staged(arrays.size());
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    const RestoreArray& ra = arrays[i];
    PFC_REQUIRE(ra.array != nullptr, "checkpoint: null array " + ra.name);
    const auto entry =
        std::find_if(m.arrays.begin(), m.arrays.end(),
                     [&](const ManifestArray& e) { return e.name == ra.name; });
    PFC_REQUIRE(entry != m.arrays.end(),
                "checkpoint: manifest has no array \"" + ra.name + '"');
    const auto& n = ra.array->size();
    const bool shape_ok = entry->components == ra.array->components() &&
                          entry->size[0] == n[0] && entry->size[1] == n[1] &&
                          entry->size[2] == n[2];
    PFC_REQUIRE(shape_ok, "checkpoint: shape mismatch for \"" + ra.name +
                    "\" (checkpoint and run were configured differently)");
    PFC_REQUIRE(std::int64_t(entry->count) == ra.array->interior_count(),
                "checkpoint: element count mismatch for \"" + ra.name + '"');
    staged[i].resize(std::size_t(entry->count));
    std::fseek(f, long(entry->offset * sizeof(double)), SEEK_SET);
    const std::size_t bytes = std::size_t(entry->count) * sizeof(double);
    PFC_REQUIRE(std::fread(staged[i].data(), 1, bytes, f) == bytes,
                "checkpoint: short read from " + data_path);
    PFC_REQUIRE(fnv1a64(staged[i].data(), bytes) == entry->fnv1a64,
                "checkpoint: checksum mismatch for \"" + ra.name + "\" in " +
                    data_path + " — refusing to restore corrupt state");
  }
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    arrays[i].array->copy_interior_in(staged[i].data());
  }
  return m.meta;
}

void Snapshot::capture(const Meta& meta,
                       const std::vector<const Array*>& arrays) {
  bufs_.resize(arrays.size());
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    bufs_[i].resize(std::size_t(arrays[i]->interior_count()));
    arrays[i]->copy_interior_out(bufs_[i].data());
  }
  meta_ = meta;
  valid_ = true;
}

void Snapshot::restore(const std::vector<Array*>& arrays) const {
  PFC_REQUIRE(valid_, "snapshot: restore before any capture");
  PFC_REQUIRE(arrays.size() == bufs_.size(),
              "snapshot: array list changed since capture");
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    PFC_REQUIRE(std::size_t(arrays[i]->interior_count()) == bufs_[i].size(),
                "snapshot: array shape changed since capture");
    arrays[i]->copy_interior_in(bufs_[i].data());
  }
}

}  // namespace pfc::resilience
