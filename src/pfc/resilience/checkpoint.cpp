#include "pfc/resilience/checkpoint.hpp"

#include <cinttypes>
#include <cstdio>
#include <filesystem>

#include "pfc/field/array.hpp"
#include "pfc/obs/json.hpp"
#include "pfc/obs/report.hpp"
#include "pfc/support/assert.hpp"

namespace pfc::resilience {

namespace fs = std::filesystem;

namespace {

std::string rank_file(const std::string& stem, const std::string& ext,
                      int rank) {
  if (rank < 0) return stem + ext;
  return stem + ".rank" + std::to_string(rank) + ext;
}

std::string state_name(int rank) { return rank_file("state", ".bin", rank); }

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

std::uint64_t parse_hex64(const std::string& s, const std::string& where) {
  PFC_REQUIRE(s.rfind("0x", 0) == 0 && s.size() == 18,
              "checkpoint: malformed hex value in " + where);
  std::uint64_t v = 0;
  for (std::size_t i = 2; i < s.size(); ++i) {
    const char c = s[i];
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') d = c - 'A' + 10;
    else throw Error("pfc checkpoint: malformed hex value in " + where);
    v = (v << 4) | std::uint64_t(d);
  }
  return v;
}

const obs::Json& need(const obs::Json& j, const std::string& key,
                      const std::string& where) {
  const obs::Json* v = j.find(key);
  PFC_REQUIRE(v != nullptr,
              "checkpoint manifest: missing \"" + key + "\" in " + where);
  return *v;
}

struct FileCloser {
  std::FILE* f;
  ~FileCloser() {
    if (f != nullptr) std::fclose(f);
  }
};

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
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

  obs::Json entries = obs::Json::array();
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
      const std::uint64_t sum = fnv1a64(buf.data(), bytes);
      PFC_REQUIRE(std::fwrite(buf.data(), 1, bytes, f) == bytes,
                  "checkpoint: short write to " + tmp_path);
      const auto& n = a.array->size();
      entries.push(obs::Json::object()
                       .set("name", obs::Json(a.name))
                       .set("components", obs::Json(a.array->components()))
                       .set("size", obs::Json::array()
                                        .push(obs::Json((long long)n[0]))
                                        .push(obs::Json((long long)n[1]))
                                        .push(obs::Json((long long)n[2])))
                       .set("offset", obs::Json(total_doubles))
                       .set("count", obs::Json(std::uint64_t(count)))
                       .set("fnv1a64", obs::Json(hex64(sum))));
      total_doubles += std::uint64_t(count);
    }
  }
  if (truncate_fault) {
    // deliberately corrupt the state file so reader validation is testable
    fs::resize_file(tmp_path, total_doubles * sizeof(double) / 2, ec);
  }
  fs::rename(tmp_path, data_path, ec);
  PFC_REQUIRE(!ec, "checkpoint: cannot rename " + tmp_path);

  obs::Json counters = obs::Json::object();
  for (const auto& [k, v] : meta.counters) counters.set(k, obs::Json(v));
  obs::Json manifest =
      obs::Json::object()
          .set("schema", obs::Json(kCheckpointSchema))
          .set("step", obs::Json(meta.step))
          .set("time", obs::Json(meta.time))
          .set("dt", obs::Json(meta.dt))
          .set("rng_seed", obs::Json(hex64(meta.rng_seed)))
          .set("layout", obs::Json(meta.layout))
          .set("data_file", obs::Json(state_name(rank)))
          .set("arrays", std::move(entries))
          .set("counters", std::move(counters))
          .set("health", meta.health.to_json());
  // written last, atomically: a readable manifest implies a complete state
  obs::write_json(manifest_path(dir, rank), manifest);
}

CheckpointMeta read_checkpoint(const std::string& dir,
                               const std::vector<RestoreArray>& arrays,
                               const std::string& expect_layout, int rank) {
  const std::string mpath = manifest_path(dir, rank);
  std::string text;
  {
    std::FILE* f = std::fopen(mpath.c_str(), "rb");
    PFC_REQUIRE(f != nullptr, "checkpoint: no manifest at " + mpath);
    FileCloser closer{f};
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  }
  std::string err;
  const obs::Json j = obs::Json::parse(text, &err);
  PFC_REQUIRE(err.empty(), "checkpoint: manifest parse error in " + mpath +
                               ": " + err);
  PFC_REQUIRE(need(j, "schema", mpath).str() == kCheckpointSchema,
              "checkpoint: unsupported schema in " + mpath + " (expected " +
                  kCheckpointSchema + ")");

  CheckpointMeta meta;
  meta.step = (long long)need(j, "step", mpath).number();
  meta.time = need(j, "time", mpath).number();
  meta.dt = need(j, "dt", mpath).number();
  // The seed is a hex string like the checksums: a JSON number is a double
  // and rounds a seed above 2^53. Older manifests wrote a number, exact
  // only below 2^53.
  const obs::Json& seed = need(j, "rng_seed", mpath);
  if (seed.is_string()) {
    meta.rng_seed = parse_hex64(seed.str(), "rng_seed of " + mpath);
  } else {
    PFC_REQUIRE(seed.is_number() && seed.number() >= 0.0 &&
                    seed.number() < 9007199254740992.0,
                "checkpoint: rng_seed in " + mpath +
                    " is not a hex string or an integer below 2^53");
    meta.rng_seed = (std::uint64_t)seed.number();
  }
  meta.layout = need(j, "layout", mpath).str();
  PFC_REQUIRE(expect_layout.empty() || meta.layout == expect_layout,
              "checkpoint: layout mismatch — checkpoint is \"" +
                  meta.layout + "\", this run is \"" + expect_layout + '"');
  if (const obs::Json* c = j.find("counters"); c != nullptr) {
    for (const auto& [k, v] : c->items()) {
      meta.counters[k] = (std::uint64_t)v.number();
    }
  }
  if (const obs::Json* h = j.find("health"); h != nullptr) {
    meta.health = obs::HealthStats::from_json(*h);
  }

  const obs::Json& entries = need(j, "arrays", mpath);
  PFC_REQUIRE(entries.is_array(), "checkpoint: \"arrays\" must be an array");
  std::uint64_t total_doubles = 0;
  for (const auto& e : entries.elements()) {
    total_doubles += (std::uint64_t)need(e, "count", mpath).number();
  }

  const std::string data_path =
      dir + "/" + need(j, "data_file", mpath).str();
  std::FILE* f = std::fopen(data_path.c_str(), "rb");
  PFC_REQUIRE(f != nullptr, "checkpoint: missing state file " + data_path);
  FileCloser closer{f};
  std::fseek(f, 0, SEEK_END);
  const long fsize = std::ftell(f);
  PFC_REQUIRE(std::uint64_t(fsize) == total_doubles * sizeof(double),
              "checkpoint: state file " + data_path +
                  " is truncated or corrupt (" + std::to_string(fsize) +
                  " bytes, manifest expects " +
                  std::to_string(total_doubles * sizeof(double)) + ")");

  // validate everything before touching any array: a bad checkpoint is
  // rejected whole, never half-applied
  std::vector<std::vector<double>> staged(arrays.size());
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    const RestoreArray& ra = arrays[i];
    PFC_REQUIRE(ra.array != nullptr, "checkpoint: null array " + ra.name);
    const obs::Json* entry = nullptr;
    for (const auto& e : entries.elements()) {
      if (need(e, "name", mpath).str() == ra.name) {
        entry = &e;
        break;
      }
    }
    PFC_REQUIRE(entry != nullptr,
                "checkpoint: manifest has no array \"" + ra.name + '"');
    const auto& size = need(*entry, "size", mpath);
    const auto& n = ra.array->size();
    const bool shape_ok =
        (int)need(*entry, "components", mpath).number() ==
            ra.array->components() &&
        size.is_array() && size.elements().size() == 3 &&
        (std::int64_t)size.elements()[0].number() == n[0] &&
        (std::int64_t)size.elements()[1].number() == n[1] &&
        (std::int64_t)size.elements()[2].number() == n[2];
    PFC_REQUIRE(shape_ok, "checkpoint: shape mismatch for \"" + ra.name +
                              "\" (checkpoint and run were configured "
                              "differently)");
    const std::uint64_t offset =
        (std::uint64_t)need(*entry, "offset", mpath).number();
    const std::uint64_t count =
        (std::uint64_t)need(*entry, "count", mpath).number();
    PFC_REQUIRE(std::int64_t(count) == ra.array->interior_count(),
                "checkpoint: element count mismatch for \"" + ra.name + '"');
    staged[i].resize(std::size_t(count));
    std::fseek(f, long(offset * sizeof(double)), SEEK_SET);
    const std::size_t bytes = std::size_t(count) * sizeof(double);
    PFC_REQUIRE(std::fread(staged[i].data(), 1, bytes, f) == bytes,
                "checkpoint: short read from " + data_path);
    const std::uint64_t sum = fnv1a64(staged[i].data(), bytes);
    const std::uint64_t want =
        parse_hex64(need(*entry, "fnv1a64", mpath).str(),
                    "fnv1a64 of " + ra.name);
    PFC_REQUIRE(sum == want, "checkpoint: checksum mismatch for \"" +
                                 ra.name + "\" in " + data_path +
                                 " — refusing to restore corrupt state");
  }
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    arrays[i].array->copy_interior_in(staged[i].data());
  }
  return meta;
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
