// The serve daemon's core (DESIGN.md §9, hardened in §12): accepts
// pfc-jobspec-v2 jobs over a Unix-domain socket and/or TCP, runs them on a
// worker pool, and streams accepted/started/progress/terminal events back
// on the submitting connection. The dispatcher (accept loop) only parses,
// admits and enqueues — every simulation runs on a worker, isolated by a
// per-job try/catch. Identical jobs hitting the same daemon share the
// content-addressed kernel cache (backend::KernelCache).
//
// Robustness layer (§12):
//   * admission control — bounded queue + per-tenant quotas; overload gets
//     an explicit "rejected" event instead of an unbounded queue
//   * deadlines & cancellation — a cooperative CancelToken per job,
//     checked at step granularity; `cancel` op, spec deadline_seconds
//   * watchdog — a monitor thread kills jobs with no progress heartbeat,
//     emits the terminal event itself (the client unblocks even when the
//     worker is truly wedged) and spawns a replacement worker
//   * graceful drain — drain_and_stop() stops accepting, waits out
//     in-flight work, then cancels stragglers with CancelKind::Shutdown
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "pfc/app/cancel.hpp"
#include "pfc/app/jobspec.hpp"
#include "pfc/backend/kernel_cache.hpp"
#include "pfc/obs/metrics.hpp"
#include "pfc/serve/admission.hpp"
#include "pfc/serve/fault.hpp"
#include "pfc/serve/protocol.hpp"
#include "pfc/serve/transport.hpp"
#include "pfc/serve/watchdog.hpp"
#include "pfc/support/thread_pool.hpp"

namespace pfc::serve {

struct ServeOptions {
  std::string socket_path = "pfc_serve.sock";
  /// TCP listener next to the Unix socket: -1 = no TCP, 0 = ephemeral
  /// port (the bound one is in tcp_bound_port() after start()).
  int tcp_port = -1;
  std::string tcp_host;  ///< "" = all interfaces
  /// Concurrent jobs (each job may additionally thread its own sweep via
  /// its spec's threads option).
  int workers = 2;
  /// Admission control: bounded queue + per-tenant quotas (0 = unlimited;
  /// see AdmissionLimits).
  AdmissionLimits admission;
  /// Kill running jobs with no progress heartbeat for this long (seconds;
  /// 0 = watchdog off). Note the heartbeat cadence is the job's progress
  /// cadence — set this comfortably above both the step interval and the
  /// worst cold-compile time, or pre-warm the kernel cache.
  double watchdog_seconds = 0.0;
  /// Monitor thread cadence for deadline + watchdog sweeps.
  double monitor_period_seconds = 0.25;
  /// Per-connection read/write deadline on accepted sockets (seconds;
  /// 0 = none). Bounds how long a slow-loris client can hold the
  /// dispatcher or stall an event stream.
  double io_timeout_seconds = 0.0;
  /// drain_and_stop(): how long in-flight jobs get before they are
  /// cancelled with CancelKind::Shutdown.
  double drain_seconds = 5.0;
  /// Fault-injection plan (tests; see fault.hpp). When empty,
  /// PFC_SERVE_FAULT is consulted at start().
  std::string fault;
  /// Kernel cache every job defaults to (a spec's own compile.cache_dir
  /// wins). Empty directory: per-job env/spec settings decide.
  backend::KernelCacheConfig cache;
  /// Suppress the per-job info-level log records (errors always log).
  bool quiet = false;
  /// Default progress cadence (steps between samples) for specs that
  /// leave progress_every at 0. 0 = run_job's own default (~steps / 8).
  long long progress_every = 0;
};

struct JobStatus {
  long long id = 0;
  std::string name;
  std::string state;   ///< "queued" | "running" | "finished" | "failed" |
                       ///< "cancelled" | "deadline_exceeded"
  std::string error;   ///< message when state == "failed"
  std::string preset;  ///< model preset of the spec
  std::string tenant;  ///< admission identity of the submitter
  double submitted_unix = 0.0;     ///< system clock at accept (unix seconds)
  double queued_seconds = -1.0;    ///< accept → started (-1 while queued)
  double duration_seconds = -1.0;  ///< started → terminal (-1 until then)
  long long step = 0;              ///< last progress sample
  long long steps_total = 0;
  double fraction = 0.0;  ///< live progress in [0, 1] (1 when finished)
  double mlups = 0.0;     ///< live throughput of the last sample
};

class JobServer {
 public:
  explicit JobServer(ServeOptions opts) : opts_(std::move(opts)) {}
  ~JobServer();
  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  /// Binds the socket(s) and launches the dispatcher, worker and monitor
  /// threads. Throws pfc::Error if a socket cannot be created.
  void start();
  /// Blocks until a shutdown request arrives (or stop() is called), then
  /// drains the queue and joins all threads.
  void wait();
  /// Like wait() but gives up after `seconds`; returns true when the
  /// daemon is stopping (what pfc_served's signal loop polls).
  bool wait_for(double seconds);
  /// Initiates shutdown and joins (idempotent; also called by ~JobServer).
  /// Jobs already accepted still run to completion (legacy drain).
  void stop();
  /// Graceful shutdown: stop accepting, give in-flight jobs
  /// opts.drain_seconds to finish, cancel the rest with
  /// CancelKind::Shutdown, flush, join. Queued jobs that never started
  /// get a "cancelled" terminal event.
  void drain_and_stop();

  const ServeOptions& options() const { return opts_; }
  /// The TCP port actually bound (ephemeral port 0 resolves here);
  /// 0 when no TCP listener was requested.
  int tcp_bound_port() const { return tcp_bound_port_; }
  /// Snapshot of every job this daemon has seen, in submission order.
  std::vector<JobStatus> jobs() const;

 private:
  /// The submitter's connection, shared between the owning worker, the
  /// dispatcher (cancel of a queued job) and the monitor (watchdog /
  /// deadline terminal events). All writes go through send() — one mutex,
  /// one write counter (the drop-connection@N fault closes here).
  struct EventStream {
    std::mutex mutex;
    LineChannel channel{-1};
    bool peer_gone = false;
    long long writes = 0;
    long long drop_after = -1;  ///< fault: close after N successful writes

    bool send(const obs::Json& ev);
  };

  /// Everything the monitor and the cancel op need about a live job.
  /// Guarded by JobServer::mutex_ (heartbeat included — updates ride the
  /// existing note_progress lock).
  struct JobControl {
    std::shared_ptr<app::CancelToken> token;
    std::shared_ptr<EventStream> stream;
    std::string tenant;
    std::string name;
    double deadline_seconds = 0.0;  ///< 0 = none; measured from submit
    double submitted_steady = 0.0;  ///< steady_seconds() at accept
    double started_steady = -1.0;   ///< steady_seconds() at start (-1 queued)
    double heartbeat_steady = 0.0;  ///< last progress sample (or start)
    bool running = false;
    bool terminal_sent = false;  ///< exactly-once terminal event guard
    bool watchdog_fired = false; ///< tells the old worker to retire
  };

  struct PendingJob {
    long long id = 0;
    app::JobSpec spec;
    std::chrono::steady_clock::time_point submitted;
  };

  void accept_loop();
  void handle_connection(LineChannel conn);
  void handle_submit(LineChannel conn, const obs::Json& req);
  void handle_tune(LineChannel conn, const obs::Json& req);
  void handle_cancel(LineChannel& conn, const obs::Json& req);
  void worker_loop();
  /// Runs one job; returns false when this worker was watchdog-replaced
  /// and must retire (the replacement keeps the pool at full strength).
  bool run_one(PendingJob job);
  /// Monitor tick: deadline sweep (queued + running) and hung-worker scan.
  void monitor_tick();
  /// Claims the right to emit job `id`'s terminal event. Exactly one
  /// caller (worker, monitor, dispatcher, drain) wins.
  bool try_mark_terminal(long long id);
  /// Removes a job from queue_ by id; returns it (admission not touched).
  bool take_queued(long long id, PendingJob* out);
  void join_all();
  void set_state(long long id, const std::string& state,
                 const std::string& error = "");
  /// Looks up the shared-registry instruments once (start()).
  void register_metrics();
  /// Folds one ProgressUpdate into status_[id] and touches the watchdog
  /// heartbeat (worker threads).
  void note_progress(long long id, const app::ProgressUpdate& u);

  ServeOptions opts_;
  ServeFaultPlan fault_;
  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int tcp_bound_port_ = 0;
  int stop_pipe_[2] = {-1, -1};  ///< self-pipe: stop() unblocks poll()
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  Watchdog monitor_;
  std::unique_ptr<AdmissionControl> admission_;

  mutable std::mutex mutex_;
  std::condition_variable cv_work_;     ///< queue push / quota release / stop
  std::condition_variable cv_stopped_;  ///< wait()
  std::deque<PendingJob> queue_;
  std::map<long long, JobStatus> status_;
  std::map<long long, std::shared_ptr<JobControl>> controls_;
  long long next_id_ = 1;
  bool stopping_ = false;
  bool accepting_ = true;
  bool started_ = false;

  // Shared-registry instruments (obs::MetricsRegistry::shared(); valid for
  // the process lifetime, updated lock-free from dispatcher + workers).
  obs::Counter* m_submitted_ = nullptr;
  obs::Counter* m_finished_ = nullptr;
  obs::Counter* m_degraded_ = nullptr;  ///< finished on a fallback tier
  obs::Counter* m_failed_ = nullptr;
  obs::Counter* m_rejected_ = nullptr;
  obs::Counter* m_cancelled_ = nullptr;
  obs::Counter* m_deadline_ = nullptr;
  obs::Counter* m_watchdog_killed_ = nullptr;
  obs::Gauge* m_queue_depth_ = nullptr;
  obs::Gauge* m_inflight_ = nullptr;
  obs::Histogram* m_duration_ = nullptr;
  obs::Histogram* m_queue_seconds_ = nullptr;
  obs::Gauge* m_busy_seconds_ = nullptr;  ///< counter_double
  obs::Counter* m_threads_clamped_ = nullptr;

  std::mutex join_mutex_;  ///< serializes join_all from wait()/stop()/dtor
};

/// Per-request client knobs (pfc_servectl flags map straight onto these).
struct ClientOptions {
  /// Connect + read/write deadline per operation (seconds; 0 = none).
  double timeout_seconds = 0.0;
  /// Total connect attempts (1 = no retry). Only ConnectError retries —
  /// exponential backoff with deterministic jitter (transport.hpp).
  int retries = 1;
  double backoff_initial_seconds = 0.05;
  double backoff_max_seconds = 2.0;
};

/// Client side of the protocol — what pfc_servectl and the round-trip test
/// drive. One Client may issue many requests (each opens its own
/// connection). `endpoint` uses the transport grammar: a bare path or
/// "unix:path" for the Unix socket, "tcp:HOST:PORT" for TCP.
///
/// Error taxonomy (distinct pfc_servectl exit codes): ConnectError —
/// nothing listening; TimeoutError — listening but too slow;
/// ProtocolError — replied garbage.
class Client {
 public:
  explicit Client(const std::string& endpoint, ClientOptions opts = {});

  /// Throws TransportError/ProtocolError per the taxonomy above.
  obs::Json ping();
  /// Submits a spec and blocks streaming events until the terminal one
  /// ("finished", "error", "rejected", "cancelled" or
  /// "deadline_exceeded"), which is returned. Non-terminal events are
  /// appended to *events when given.
  obs::Json submit(const obs::Json& spec,
                   std::vector<obs::Json>* events = nullptr);
  /// Like submit(), but invokes `on_event` for every non-terminal event
  /// as it arrives (what `pfc_servectl submit --follow` renders live).
  obs::Json submit(const obs::Json& spec,
                   const std::function<void(const obs::Json&)>& on_event);
  /// Requests cancellation of a queued or running job; returns the
  /// daemon's "cancel_ack" (or "error" for an unknown id).
  obs::Json cancel(long long job);
  obs::Json list();
  /// The daemon's pfc-serve-metrics-v1 snapshot ("metrics" event's
  /// "snapshot" member).
  obs::Json metrics();
  /// The daemon's Prometheus text exposition.
  std::string metrics_text();
  /// Asks the daemon to exit; returns its "bye" ack.
  obs::Json shutdown_server();
  /// Pre-warms the tuning cache for a spec: the daemon runs the measured
  /// autotune search (or reports the cached winner) and replies with one
  /// "tuned" event carrying the v7 TuningStats shape. Blocks for the
  /// search duration on a cold cache.
  obs::Json tune(const obs::Json& spec);

  /// True when `ev` ends a submit stream.
  static bool is_terminal_event(const obs::Json& ev);

 private:
  LineChannel open();
  obs::Json request_single(const obs::Json& request);
  Endpoint endpoint_;
  ClientOptions opts_;
};

}  // namespace pfc::serve
