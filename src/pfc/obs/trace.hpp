// Trace timelines: a low-overhead span recorder behind the paper's
// "where does a time step go" analyses (kernel vs. ghost exchange vs.
// staggered-flux pass — Fig. 3 / Table 2 discussions).
//
// Design:
//   * recording a span is two steady_clock reads plus an append into a
//     thread-local ring buffer — no locks on the hot path, so the pool
//     workers of the backend can emit per-slab spans concurrently;
//   * buffers are drained only on flush (write()/to_chrome_json()), merged,
//     time-sorted and truncated to `max_events` (newest kept);
//   * output is chrome://tracing / Perfetto-compatible JSON ("traceEvents"
//     array of "X" complete and "i" instant events). pid encodes the rank,
//     tid the recording thread, args carry step / block id.
//
// Drivers own one TraceRecorder each and configure it from TraceOptions
// on SimulationOptions; a default-constructed recorder is disabled and
// every record call is a cheap early-out.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "pfc/obs/json.hpp"

namespace pfc::obs {

/// Driver-level tracing knobs (lives on app::SimulationOptions).
struct TraceOptions {
  bool enabled = false;
  /// Record spans only on steps where step % sample_every == 0 (1 = all).
  int sample_every = 1;
  /// Retained event cap across all threads; oldest events are dropped.
  std::size_t max_events = 1 << 20;
  std::string path = "trace.json";

  TraceOptions& enable(bool on = true) {
    enabled = on;
    return *this;
  }
  TraceOptions& every(int n) {
    sample_every = n;
    return *this;
  }
  TraceOptions& with_max_events(std::size_t n) {
    max_events = n;
    return *this;
  }
  TraceOptions& with_path(std::string p) {
    path = std::move(p);
    return *this;
  }
};

/// One recorded event. ph 'X' = complete span, 'i' = instant.
struct TraceEvent {
  const char* name = "";  ///< static string or interned by the recorder
  const char* cat = "";
  char ph = 'X';
  double ts_us = 0.0;
  double dur_us = 0.0;
  int tid = 0;
  long long step = -1;   ///< simulation step (< 0: not step-scoped)
  int block = -1;        ///< block linear id (< 0: not block-scoped)
  double value = -1.0;   ///< extra payload (args.seconds), < 0 = absent
};

class TraceRecorder {
 public:
  TraceRecorder();
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Applies the options and tags all events with `pid` (the rank).
  void configure(const TraceOptions& opts, int pid = 0);
  const TraceOptions& options() const { return opts_; }

  bool enabled() const { return opts_.enabled; }
  /// True when `step` falls on the sampling grid (step % sample_every == 0).
  bool sampled(long long step) const {
    return opts_.enabled &&
           (opts_.sample_every <= 1 || step % opts_.sample_every == 0);
  }

  /// Microseconds since this recorder's epoch (construction/configure).
  double now_us() const;

  /// Records a complete span. `name`/`cat` must outlive the recorder
  /// (string literals and kernel IR names owned by the model both do) or be
  /// passed through intern().
  void complete(const char* name, const char* cat, double ts_us,
                double dur_us, long long step = -1, int block = -1);
  /// Records an instant event (compile stages, health flags).
  void instant(const char* name, const char* cat, long long step = -1,
               double value = -1.0);

  /// Copies `s` into recorder-owned storage and returns a stable pointer.
  const char* intern(const std::string& s);

  std::uint64_t events_recorded() const;
  std::uint64_t events_dropped() const;

  /// Drains all thread-local buffers into one chrome://tracing document.
  Json to_chrome_json() const;
  /// to_chrome_json() serialized to `path` (no-op when disabled).
  void write(const std::string& path) const;

 private:
  struct Buffer;
  Buffer& local_buffer();

  TraceOptions opts_;
  int pid_ = 0;
  std::uint64_t id_ = 0;  ///< unique per recorder; keys thread-local lookup
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;  ///< guards buffers_/interned_ registration
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::vector<std::unique_ptr<std::string>> interned_;
  std::atomic<std::uint64_t> dropped_{0};
};

/// RAII span: measures its lifetime and records a complete event into the
/// recorder (if any). Pass nullptr to compile the span out of a code path.
class TraceSpan {
 public:
  TraceSpan(TraceRecorder* rec, const char* name, const char* cat,
            long long step = -1, int block = -1)
      : rec_(rec != nullptr && rec->enabled() ? rec : nullptr),
        name_(name),
        cat_(cat),
        step_(step),
        block_(block),
        t0_us_(rec_ != nullptr ? rec_->now_us() : 0.0) {}

  ~TraceSpan() {
    if (rec_ != nullptr) {
      rec_->complete(name_, cat_, t0_us_, rec_->now_us() - t0_us_, step_,
                     block_);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceRecorder* rec_;
  const char* name_;
  const char* cat_;
  long long step_;
  int block_;
  double t0_us_;
};

/// Inserts ".rank<r>" before the extension ("trace.json" ->
/// "trace.rank2.json") so concurrent ranks never clobber one file.
std::string rank_trace_path(const std::string& path, int rank);

}  // namespace pfc::obs
