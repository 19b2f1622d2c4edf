// In-situ physics health monitoring: periodic scans of the φ/µ state that
// answer "is the simulation still producing physically meaningful numbers"
// while it runs (the conservation/validation checks SymPhas builds into its
// generated solvers; waLBerla production runs do the same with per-block
// sanity sweeps).
//
// Checks per scan:
//   * non-finite values (NaN/Inf) in φ and µ,
//   * the phase-sum invariant Σ_α φ_α ≈ 1 per cell (Gibbs simplex),
//   * obstacle-potential bound violations: φ outside [−tol, 1+tol],
//   * µ blow-up: |µ| beyond a configurable limit,
//   * conservation drift of the integrated phase sum (Σ_cells Σ_α φ_α must
//     stay at exactly one per cell whatever the dynamics do).
//
// Violations accumulate in HealthStats, surface in RunReport, and are
// acted on per HealthPolicy: production runs degrade gracefully (warn)
// instead of silently producing garbage, CI turns the screw to throw.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "pfc/obs/json.hpp"
#include "pfc/support/enum_names.hpp"

namespace pfc {
class Array;  // field/array.hpp — scanned, never mutated
}

namespace pfc::obs {

/// What to do when a scan finds violations. Recover tells the driver's
/// resilience layer to roll back to the last good checkpoint (bounded
/// retries, optional dt shrink) instead of warning or aborting.
enum class HealthPolicy { Ignore, Warn, Throw, Recover };
constexpr support::EnumNames<HealthPolicy, 4> enum_names(HealthPolicy) {
  return {"health policy", {{HealthPolicy::Ignore, "ignore"},
                            {HealthPolicy::Warn, "warn"},
                            {HealthPolicy::Throw, "throw"},
                            {HealthPolicy::Recover, "recover"}}};
}

/// Driver-level health knobs (lives on app::SimulationOptions).
struct HealthOptions {
  bool enabled = false;
  int every_n_steps = 1;  ///< scan after every N-th completed step
  HealthPolicy policy = HealthPolicy::Warn;
  double phase_sum_tol = 1e-6;  ///< |Σφ − 1| allowed per cell
  double simplex_tol = 1e-9;    ///< φ may stray this far outside [0, 1]
  double mu_limit = 1e6;        ///< |µ| beyond this counts as blow-up

  HealthOptions& enable(bool on = true) {
    enabled = on;
    return *this;
  }
  HealthOptions& every(int n) {
    every_n_steps = n;
    return *this;
  }
  HealthOptions& with_policy(HealthPolicy p) {
    policy = p;
    return *this;
  }
  HealthOptions& with_mu_limit(double m) {
    mu_limit = m;
    return *this;
  }
};

/// Cumulative findings of all scans (a RunReport section).
struct HealthStats {
  long long checks = 0;  ///< completed scans
  std::uint64_t nonfinite_values = 0;
  std::uint64_t phase_sum_violations = 0;  ///< cells with |Σφ−1| > tol
  std::uint64_t simplex_violations = 0;    ///< φ values outside [−tol,1+tol]
  std::uint64_t mu_blowups = 0;            ///< µ values beyond mu_limit
  double max_phase_sum_error = 0.0;        ///< worst |Σφ − 1| ever seen
  /// Worst |⟨Σφ⟩ − 1| of the cell-averaged phase sum (integrated
  /// conservation drift; cancellation-insensitive systematic drift).
  double conservation_drift = 0.0;

  std::uint64_t total_violations() const {
    return nonfinite_values + phase_sum_violations + simplex_violations +
           mu_blowups;
  }
  /// The run report's "health" section and the checkpoint manifest's
  /// (a restart resumes the accumulated accounting).
  Json to_json() const;
};

const FieldList<HealthStats>& json_fields(JsonTag<HealthStats>);

/// Scans fields on the steps its options select and applies the policy.
/// One monitor per driver; multi-block drivers feed every block into the
/// same scan before finishing it.
class HealthMonitor {
 public:
  explicit HealthMonitor(const HealthOptions& opts);

  const HealthOptions& options() const { return opts_; }
  bool enabled() const { return opts_.enabled; }
  /// True when a scan is due after completing `step`.
  bool due(long long step) const {
    return opts_.enabled && step > 0 &&
           step % std::max(1, opts_.every_n_steps) == 0;
  }

  /// Accumulates one block's φ/µ interiors into the current scan.
  /// `mu` may be nullptr (φ-only models/tests).
  void scan_block(const Array& phi, const Array* mu);

  /// Closes the scan opened by scan_block() calls: adds its findings to
  /// the stats, updates drift and applies the policy (Warn/Recover print
  /// one stderr line; Throw raises pfc::Error naming the step and
  /// findings). Returns the number of violations this scan found — under
  /// Recover the driver acts on it (rollback), the monitor itself never
  /// mutates simulation state.
  std::uint64_t finish_scan(long long step);

  const HealthStats& stats() const { return stats_; }
  /// Seeds the cumulative stats (checkpoint restart).
  void restore_stats(const HealthStats& s) { stats_ = s; }

 private:
  HealthOptions opts_;
  HealthStats stats_;
  // current-scan accumulators (reset by finish_scan)
  std::uint64_t scan_nonfinite_ = 0;
  std::uint64_t scan_phase_sum_ = 0;
  std::uint64_t scan_simplex_ = 0;
  std::uint64_t scan_mu_ = 0;
  double scan_phase_total_ = 0.0;
  std::uint64_t scan_cells_ = 0;
};

}  // namespace pfc::obs
