// Deterministic checkpoint/restart (the tentpole of pfc::resilience).
//
// On-disk format: a directory holding one binary state file (the interior
// cells of every registered array, concatenated as raw doubles) plus a JSON
// manifest recording the schema version, step/time/dt/seed, a driver layout
// signature, the accumulated health findings, and per-array shapes, offsets
// and state digests (fnv1a64 below, DESIGN.md §7), declared once as a field
// list (obs/json_fields.hpp) that write_checkpoint and read_manifest walk. Both
// files are written atomically (tmp + rename, the same helper every JSON
// artifact uses), and the manifest is written last — a readable manifest
// therefore implies a complete state file. waLBerla's block-structured
// checkpointing works the same way; unlike monolithic frameworks, restart
// here is bitwise: raw double bytes round-trip exactly, and the Philox
// noise stream is keyed on (cell, step), so a restored step counter replays
// the identical fluctuations.
//
// Multi-rank runs write one manifest/state pair per rank
// ("manifest.rank<r>.json" / "state.rank<r>.bin"); runs without a
// communicator use rank −1 ("manifest.json" / "state.bin").
//
// Snapshot is the in-memory equivalent used for health-driven rollback:
// capture() copies interiors into private buffers, restore() copies them
// back (the caller refreshes ghosts).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "pfc/obs/health.hpp"

namespace pfc {
class Array;  // field/array.hpp
}

namespace pfc::resilience {

/// v2: the array digests are fnv1a64's word digest; v1 manifests carried a
/// byte-wise FNV-1a and are refused by their tag.
inline constexpr const char* kCheckpointSchema = "pfc-checkpoint-v2";

/// Everything a restart needs besides the field data.
struct CheckpointMeta {
  long long step = 0;
  double time = 0.0;
  double dt = 0.0;               ///< current dt (may differ after shrinks)
  std::uint64_t rng_seed = 0;    ///< Philox key — fluctuation stream id
  std::string layout;            ///< driver signature; must match on restore
  obs::HealthStats health;       ///< accumulated in-situ findings
};

/// One array in the manifest: shape, place in the state file (doubles)
/// and the checksum of those bytes.
struct ManifestArray {
  std::string name;
  int components = 0;
  std::array<long long, 3> size{0, 0, 0};
  std::uint64_t offset = 0;
  std::uint64_t count = 0;
  std::uint64_t fnv1a64 = 0;
};

/// A manifest: the meta, the state file next to it and its index.
struct Manifest {
  CheckpointMeta meta;
  std::string data_file;
  std::vector<ManifestArray> arrays;
};

/// One named array to serialize ("phi", "mu/block3", ...).
struct CheckpointArray {
  std::string name;
  const Array* array;
};
struct RestoreArray {
  std::string name;
  Array* array;
};

const obs::FieldList<ManifestArray>& json_fields(obs::JsonTag<ManifestArray>);
const obs::FieldList<Manifest>& json_fields(obs::JsonTag<Manifest>);

/// "manifest.json" (rank < 0) or "manifest.rank<r>.json" inside `dir`.
std::string manifest_path(const std::string& dir, int rank = -1);

/// Writes state + manifest atomically into `dir` (created if missing).
/// `truncate_fault` deliberately truncates the state file after writing —
/// fault injection for reader-validation tests.
void write_checkpoint(const std::string& dir, const CheckpointMeta& meta,
                      const std::vector<CheckpointArray>& arrays,
                      int rank = -1, bool truncate_fault = false);

/// Strict decode of the manifest at `path` (typed keys, integers under
/// obs::json_integer's rule, numbers >= 0, dt > 0, a non-empty layout,
/// contiguous offsets totalling below 2^53) and a state file of exactly the
/// indexed size; throws pfc::Error naming the manifest and the key's path.
Manifest read_manifest(const std::string& path);

/// Restores every array in `arrays` from the checkpoint in `dir`: the
/// manifest passes read_manifest, the layout signature matches (when
/// `expect_layout` is non-empty), every shape and checksum match. Throws
/// pfc::Error on any mismatch; a corrupt checkpoint is never half-applied
/// (arrays are written after all validation). Ghosts are the caller's job.
CheckpointMeta read_checkpoint(const std::string& dir,
                               const std::vector<RestoreArray>& arrays,
                               const std::string& expect_layout = "",
                               int rank = -1);

/// FNV-1a 64's offset basis: where every digest chain starts.
inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;

/// The state digest (DESIGN.md §7) of the manifest's arrays and of a job's
/// φ/µ: FNV-1a 64's basis and prime over 64-bit words, each premixed by
/// murmur3's finalizer, h = (h ⊕ fmix64(w)) · 0x100000001b3. `bytes` must
/// be a multiple of 8. Passing a digest as `h` continues its chain, so
/// hashing rows one after another equals hashing their concatenation.
std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                      std::uint64_t h = kFnvOffsetBasis);

/// In-memory rollback target for health-driven recovery.
class Snapshot {
 public:
  struct Meta {
    long long step = 0;
    double time = 0.0;
    double dt = 0.0;
  };

  bool valid() const { return valid_; }
  const Meta& meta() const { return meta_; }

  /// Copies the interiors of `arrays` (fixed order, same list every time).
  void capture(const Meta& meta, const std::vector<const Array*>& arrays);
  /// Copies the captured interiors back; array list must match capture().
  void restore(const std::vector<Array*>& arrays) const;

 private:
  bool valid_ = false;
  Meta meta_;
  std::vector<std::vector<double>> bufs_;
};

}  // namespace pfc::resilience
