// pfc::resilience — surviving failures at scale (DESIGN.md §7).
//
// The paper's headline runs occupy entire machines for hours; at that scale
// node failure, compiler breakage and physics blow-ups are the expected
// case, not the exception. This subsystem makes a run survivable end to
// end:
//
//   * deterministic checkpoint/restart (checkpoint.hpp): binary snapshots
//     of the full simulation state with a checksummed JSON manifest,
//     written atomically; restart continues bitwise-identically, including
//     the Philox fluctuation stream (counter-based RNG — position, not
//     state, so rolling the step counter back replays the same noise);
//   * health-driven recovery: HealthPolicy::Recover rolls the run back to
//     the last good snapshot when an in-situ check fires, optionally
//     shrinking dt for a bounded number of retries;
//   * compile-path degradation: a JIT failure retries down
//     vector → scalar → interpreter instead of killing the run
//     (app/compiler.cpp);
//   * deterministic fault injection (FaultPlan) so every recovery path is
//     exercised by ctest rather than trusted on faith.
#pragma once

#include <array>
#include <string>

namespace pfc::resilience {

/// Deterministic fault injection, driven by options or the PFC_FAULT env
/// var. Every fault fires at a precisely defined point so the recovery
/// machinery can be tested reproducibly.
struct FaultPlan {
  /// Inject one quiet NaN into φ (component 0, cell nan_cell) right after
  /// this step completes; −1 disables. Fires once per driver.
  long long nan_step = -1;
  std::array<long long, 3> nan_cell{0, 0, 0};
  /// Force the first N external-compiler invocations to fail (exercises
  /// the vector → scalar → interpreter fallback chain).
  int fail_jit_attempts = 0;
  /// Truncate checkpoint state files after writing them, so reader-side
  /// validation (size + checksums) is exercised.
  bool truncate_checkpoint = false;

  bool any() const {
    return nan_step >= 0 || fail_jit_attempts > 0 || truncate_checkpoint;
  }

  /// Parses a ';'-separated spec: "nan@<step>[:x,y,z]", "jit[=N]" (N
  /// defaults to all attempts), "truncate". Throws pfc::Error naming the
  /// accepted grammar on anything else.
  static FaultPlan parse(const std::string& spec);
  /// The PFC_FAULT env spec, or an empty plan when unset.
  static FaultPlan from_env();
};

/// Driver-level resilience knobs (lives on app::SimulationOptions).
struct ResilienceOptions {
  /// Capture a rollback snapshot every N completed steps (0 = only the
  /// baseline snapshot HealthPolicy::Recover captures before stepping).
  int checkpoint_every = 0;
  /// Directory for on-disk checkpoints (manifest + state files); empty
  /// keeps snapshots in memory only.
  std::string directory;
  /// Restore from this checkpoint directory at driver construction; the
  /// caller should then skip its init_*() calls.
  std::string restart_from;
  /// Rollbacks allowed before a persistent violation escalates to throw.
  int max_retries = 3;
  /// dt multiplier applied on every rollback (< 1 shrinks; 1 retries with
  /// the same step size — right when faults are transient).
  double dt_shrink = 1.0;
  FaultPlan faults;

  ResilienceOptions& every(int n) {
    checkpoint_every = n;
    return *this;
  }
  ResilienceOptions& with_directory(const std::string& dir) {
    directory = dir;
    return *this;
  }
  ResilienceOptions& with_restart(const std::string& dir) {
    restart_from = dir;
    return *this;
  }
  ResilienceOptions& with_max_retries(int n) {
    max_retries = n;
    return *this;
  }
  ResilienceOptions& with_dt_shrink(double f) {
    dt_shrink = f;
    return *this;
  }
  ResilienceOptions& with_faults(const FaultPlan& f) {
    faults = f;
    return *this;
  }
};

/// The plan a driver should execute: PFC_FAULT overrides the options' plan
/// when set (so ctest can inject faults into unmodified binaries).
FaultPlan effective_faults(const ResilienceOptions& opts);

}  // namespace pfc::resilience
