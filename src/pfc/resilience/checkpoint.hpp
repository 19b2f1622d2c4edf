// Deterministic checkpoint/restart (the tentpole of pfc::resilience).
//
// On-disk format: a directory holding one binary state file (the interior
// cells of every registered array, concatenated as raw doubles) plus a JSON
// manifest recording the schema version, step/time/dt/seed, a driver layout
// signature, and per-array shapes, offsets and FNV-1a 64 checksums. Both
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

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pfc/obs/health.hpp"

namespace pfc {
class Array;  // field/array.hpp
}

namespace pfc::resilience {

inline constexpr const char* kCheckpointSchema = "pfc-checkpoint-v1";

/// Everything a restart needs besides the field data.
struct CheckpointMeta {
  long long step = 0;
  double time = 0.0;
  double dt = 0.0;               ///< current dt (may differ after shrinks)
  std::uint64_t rng_seed = 0;    ///< Philox key — fluctuation stream id
  std::string layout;            ///< driver signature; must match on restore
  obs::HealthStats health;       ///< accumulated in-situ findings
  std::map<std::string, std::uint64_t> counters;  ///< obs counters to carry
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

/// "manifest.json" (rank < 0) or "manifest.rank<r>.json" inside `dir`.
std::string manifest_path(const std::string& dir, int rank = -1);

/// Writes state + manifest atomically into `dir` (created if missing).
/// `truncate_fault` deliberately truncates the state file after writing —
/// fault injection for reader-validation tests.
void write_checkpoint(const std::string& dir, const CheckpointMeta& meta,
                      const std::vector<CheckpointArray>& arrays,
                      int rank = -1, bool truncate_fault = false);

/// Restores every array in `arrays` from the checkpoint in `dir`. Validates
/// the manifest schema, the layout signature (when `expect_layout` is
/// non-empty), per-array shapes, the state-file size and every checksum;
/// throws pfc::Error on any mismatch (truncated or corrupt checkpoints are
/// rejected, never half-applied: arrays are only written after all
/// validation passed). Ghost layers are the caller's job.
CheckpointMeta read_checkpoint(const std::string& dir,
                               const std::vector<RestoreArray>& arrays,
                               const std::string& expect_layout = "",
                               int rank = -1);

/// FNV-1a 64 over raw bytes (the manifest's per-array checksum).
std::uint64_t fnv1a64(const void* data, std::size_t bytes);

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
