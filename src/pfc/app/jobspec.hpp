// pfc-jobspec-v2: the canonical, validated description of one simulation
// job — what the serve daemon accepts over the wire, what quickstart's
// --jobspec flag loads, and what tools/report_check --jobspec validates.
//
// A spec names a model *preset* (the symbolic GrandChemParams cannot round-
// trip through JSON — PairTable/Anisotropy carry expression trees) plus a
// small set of scalar overrides, an initial condition, a step count, and
// the one driver's options (app/options_json.hpp, lossless). Parsing is
// strict: unknown keys, type mismatches and out-of-range values throw a
// pfc::Error naming the JSON path, so a typo fails at submit time rather
// than silently running defaults.
//
//   {
//     "schema": "pfc-jobspec-v2",
//     "name": "shrinking-disk",
//     "model": { "preset": "two_phase", "dims": 2,
//                "overrides": { "dt": 0.01 } },
//     "initial": { "kind": "disk", "radius_fraction": 0.3125 },
//     "steps": 100,
//     "simulation": { "cells": [64, 64, 1], "blocks_per_dim": [2, 2, 1],
//                     "threads": 2, ... }
//   }
#pragma once

#include <optional>

#include "pfc/app/options_json.hpp"
#include "pfc/app/progress.hpp"
#include "pfc/obs/report.hpp"

namespace pfc::app {

inline constexpr const char* kJobSpecSchema = "pfc-jobspec-v2";

/// Model selection: a named preset (app/params.hpp) plus scalar overrides.
struct JobModelSpec {
  std::string preset = "two_phase";  ///< "two_phase" | "p1" | "p2"
  int dims = 2;
  std::optional<double> dt;
  std::optional<double> epsilon;
  std::optional<double> noise_amplitude;
  std::optional<std::uint64_t> rng_seed;
};

/// Initial condition. "disk": phase `solid_phase` fills a centered disk of
/// radius radius_fraction * min(cells), smooth interface_profile ramp of
/// width interface_width_eps * epsilon; the liquid phase gets the
/// complement, other phases 0. "uniform": every cell is pure `solid_phase`.
/// µ starts at 0 either way.
struct JobInitialSpec {
  std::string kind = "disk";  ///< "disk" | "uniform"
  double radius_fraction = 0.3125;
  double interface_width_eps = 2.5;
  int solid_phase = 1;
};

struct JobSpec {
  std::string name = "job";
  JobModelSpec model;
  JobInitialSpec initial;
  long long steps = 100;
  /// Steps between progress samples when a sink is attached (run_job's
  /// `progress` argument). 0 = caller default (the daemon picks ~steps/8).
  long long progress_every = 0;
  /// Accounting/quota identity of the submitter. The serve daemon keys
  /// its per-tenant admission limits and the pfc_tenant_inflight gauge on
  /// this; a spec that doesn't care inherits "default".
  std::string tenant = "default";
  /// Wall-clock budget measured from submit. 0 = none. A job past its
  /// deadline (queued or running) terminates with a "deadline_exceeded"
  /// event — running jobs stop cooperatively within one step cadence.
  double deadline_seconds = 0.0;
  /// The driver options: one block by default; `blocks_per_dim` makes the
  /// run a block forest. validate() refuses autotuning on a forest (the
  /// tuner measures one block).
  SimulationOptions simulation;

  /// Strict decode; throws pfc::Error naming the failing path.
  static JobSpec from_json(const obs::Json& j,
                           const std::string& where = "jobspec");
  /// Parses JSON text, decodes and validate()s.
  static JobSpec parse(const std::string& text);
  /// Writes every field (the canonical form two specs are diffed by).
  obs::Json to_json() const;
  /// Every field's range check (what decoding runs per key) plus the
  /// cross-field rule above; throws pfc::Error naming the path.
  void validate() const;

  /// Resolves the preset and applies the overrides.
  GrandChemParams make_params() const;
};

/// What one completed job reports back: the run + compile reports and the
/// state digests (resilience::fnv1a64, DESIGN.md §7) of the gathered global
/// φ/µ interiors (component, z, y, x order — interior_checksum's order, so
/// a one-block run hashes the same words), so two runs of the same spec on
/// any block layout can be compared bitwise without shipping field data.
/// The JSON keys keep their names, "phi_fnv1a64" and "mu_fnv1a64".
struct JobResult {
  std::string name;
  long long steps = 0;
  obs::RunReport run;
  obs::CompileReport compile;
  std::uint64_t phi_checksum = 0;
  std::uint64_t mu_checksum = 0;

  obs::Json to_json() const;
};
/// The checksums are written as 16 hex digits.
const obs::FieldList<JobResult>& json_fields(obs::JsonTag<JobResult>);

/// Runs one job start-to-finish in the calling thread (the serve workers
/// and quickstart --jobspec both land here). When `progress` is
/// non-null the driver samples its step loop every
/// `spec.progress_every > 0 ? spec.progress_every : max(1, steps / 8)`
/// steps and invokes the sink on the stepping thread (see progress.hpp).
/// When `cancel` is non-null the run stops cooperatively (one step
/// cadence) once the token fires, raising JobCancelled (cancel.hpp).
JobResult run_job(const JobSpec& spec, const ProgressSink& progress = nullptr,
                  const CancelToken* cancel = nullptr);

/// The state digest (resilience::fnv1a64) of the interior cells of `a` in
/// (c, z, y, x) order, hashed row by row in place: equal to fnv1a64 over
/// copy_interior_out's buffer, without the copy. A one-block JobResult's
/// checksums are this digest of φ and µ.
std::uint64_t interior_checksum(const Array& a);

}  // namespace pfc::app
