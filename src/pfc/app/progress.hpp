// In-flight progress reporting of a running simulation: the driver
// (Simulation) samples its own step loop every
// `every` steps and hand the sample to a caller-provided ProgressSink.
// The serve daemon threads a sink through app::run_job so each job streams
// periodic "progress" events (step, fraction, live MLUPS, ETA from a
// step-time EWMA, health findings) to its submitter while it runs.
//
// The sink is invoked on the stepping thread — keep it cheap (the daemon's
// sink writes one line to a socket and updates two gauges). Samples are
// only emitted for strictly increasing steps, so a health-driven rollback
// never produces a backwards progress stream.
#pragma once

#include <cstdint>
#include <functional>

#include "pfc/app/cancel.hpp"

namespace pfc::app {

/// One periodic sample of a running simulation.
struct ProgressUpdate {
  long long step = 0;         ///< absolute step index just completed
  long long steps_total = 0;  ///< target step count (0 = unknown)
  double fraction = 0.0;      ///< step / steps_total, 0 when unknown
  /// Live throughput: cells_per_step / EWMA step wall time, in MLUP/s.
  double mlups = 0.0;
  double step_seconds_ewma = 0.0;  ///< smoothed wall time of one step
  /// Remaining steps x EWMA step time (0 when steps_total is unknown).
  double eta_seconds = 0.0;
  std::uint64_t health_violations = 0;  ///< cumulative monitor findings
};

using ProgressSink = std::function<void(const ProgressUpdate&)>;

/// Driver-side configuration (Simulation::set_progress).
struct ProgressOptions {
  ProgressSink sink;          ///< null = progress reporting off
  long long every = 0;        ///< steps between samples (<= 0 = off)
  long long steps_total = 0;  ///< fraction/ETA denominator (0 = unknown)
  /// Cooperative cancellation (cancel.hpp): the run loop checks the token
  /// once per step and raises JobCancelled when it fires — after writing
  /// a final checkpoint if the run configured a checkpoint directory.
  /// Null = not cancellable. Checked even when `sink` is null.
  const CancelToken* cancel = nullptr;
};

/// EWMA smoothing factor for the per-step wall time (weight of the newest
/// step). 0.2 settles in ~10 steps without jittering on one slow step.
inline constexpr double kProgressEwmaAlpha = 0.2;

}  // namespace pfc::app
