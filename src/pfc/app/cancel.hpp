// Cooperative cancellation of running simulations. A CancelToken is owned
// by whoever supervises a job (the serve daemon's per-job control record)
// and handed to the driver through ProgressOptions; Simulation::run checks
// it once per step, so a cancelled or expired job stops within one step
// cadence, writes a final checkpoint when the spec configured a checkpoint
// directory, and surfaces as a JobCancelled exception carrying why it
// stopped.
//
// request() is thread-safe and idempotent: the first caller's kind/reason
// win (a client cancel racing a deadline keeps whichever landed first),
// and requested() is a relaxed atomic load cheap enough for a step loop.
#pragma once

#include <atomic>
#include <mutex>
#include <string>
#include <utility>

#include "pfc/support/assert.hpp"

namespace pfc::app {

/// Why a job was asked to stop — drives the terminal event the serve
/// daemon emits ("cancelled" vs "deadline_exceeded" vs a watchdog "error").
enum class CancelKind {
  Client,    ///< explicit {"op":"cancel"} from a client
  Deadline,  ///< jobspec deadline_seconds elapsed
  Watchdog,  ///< no progress heartbeat for the configured window
  Shutdown,  ///< daemon draining on SIGTERM/SIGINT
};

inline const char* cancel_kind_name(CancelKind k) {
  switch (k) {
    case CancelKind::Client: return "client";
    case CancelKind::Deadline: return "deadline";
    case CancelKind::Watchdog: return "watchdog";
    case CancelKind::Shutdown: return "shutdown";
  }
  return "?";
}

class CancelToken {
 public:
  /// First request wins; later requests are ignored. Safe from any thread.
  void request(CancelKind kind, std::string reason) {
    std::lock_guard<std::mutex> lk(mutex_);
    if (requested_.load(std::memory_order_relaxed)) return;
    kind_ = kind;
    reason_ = std::move(reason);
    requested_.store(true, std::memory_order_release);
  }

  bool requested() const {
    return requested_.load(std::memory_order_acquire);
  }

  /// Only meaningful once requested() is true.
  CancelKind kind() const {
    std::lock_guard<std::mutex> lk(mutex_);
    return kind_;
  }
  std::string reason() const {
    std::lock_guard<std::mutex> lk(mutex_);
    return reason_;
  }

 private:
  std::atomic<bool> requested_{false};
  mutable std::mutex mutex_;
  CancelKind kind_ = CancelKind::Client;
  std::string reason_;
};

/// Thrown by the drivers when a CancelToken fires mid-run. Not a failure:
/// callers that supervise jobs catch it to emit the matching terminal
/// state; everyone else sees a descriptive pfc::Error.
class JobCancelled : public Error {
 public:
  JobCancelled(CancelKind kind, const std::string& reason)
      : Error(std::string("job cancelled (") + cancel_kind_name(kind) +
              ")" + (reason.empty() ? "" : ": " + reason)),
        kind_(kind),
        reason_(reason) {}

  CancelKind kind() const { return kind_; }
  const std::string& cancel_reason() const { return reason_; }

 private:
  CancelKind kind_;
  std::string reason_;
};

}  // namespace pfc::app
