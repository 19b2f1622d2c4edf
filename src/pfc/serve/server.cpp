#include "pfc/serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "pfc/app/tuning.hpp"
#include "pfc/obs/log.hpp"
#include "pfc/support/assert.hpp"

namespace pfc::serve {

using obs::Json;

namespace {

constexpr const char* kLogComponent = "pfc_served";

/// Terminal JobStatus entries beyond this are pruned oldest-first, so a
/// daemon fed by a flood of submits holds bounded state.
constexpr std::size_t kMaxStatusEntries = 1000;

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double unix_now() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// The per-job correlation fields every log record of a job carries.
std::vector<obs::log::Field> job_fields(long long id,
                                        const std::string& name) {
  return {{"correlation_id", Json("job-" + std::to_string(id))},
          {"job", Json(id)},
          {"name", Json(name)}};
}

bool is_terminal_state(const std::string& s) {
  return s == "finished" || s == "failed" || s == "cancelled" ||
         s == "deadline_exceeded";
}

}  // namespace

// --- EventStream -------------------------------------------------------------

bool JobServer::EventStream::send(const Json& ev) {
  std::lock_guard<std::mutex> lock(mutex);
  if (peer_gone || !channel.valid()) return false;
  if (drop_after >= 0 && writes >= drop_after) {
    // Fault injection: the "client" vanishes after N events — close our
    // side so the worker exercises the peer-gone path mid-stream.
    channel = LineChannel(-1);
    peer_gone = true;
    return false;
  }
  if (!channel.write_json(ev)) {
    peer_gone = true;
    return false;
  }
  ++writes;
  return true;
}

// --- lifecycle ---------------------------------------------------------------

JobServer::~JobServer() { stop(); }

void JobServer::register_metrics() {
  auto& m = obs::MetricsRegistry::shared();
  m_submitted_ = &m.counter("pfc_jobs_submitted_total",
                            "Jobs accepted by the daemon");
  m_finished_ = &m.counter("pfc_jobs_finished_total",
                           "Jobs that completed successfully");
  m_degraded_ = &m.counter(
      "pfc_jobs_degraded_total",
      "Finished jobs whose kernels run on a fallback tier after a failed "
      "JIT compile");
  m_failed_ = &m.counter("pfc_jobs_failed_total", "Jobs that failed");
  m_rejected_ = &m.counter(
      "pfc_jobs_rejected_total",
      "Submits shed by admission control (queue full or quota exhausted)");
  m_cancelled_ = &m.counter("pfc_jobs_cancelled_total",
                            "Jobs cancelled by a client or shutdown drain");
  m_deadline_ = &m.counter("pfc_jobs_deadline_exceeded_total",
                           "Jobs terminated by their deadline_seconds");
  m_watchdog_killed_ = &m.counter(
      "pfc_jobs_watchdog_killed_total",
      "Running jobs killed by the hung-worker watchdog (no progress "
      "heartbeat)");
  m_queue_depth_ =
      &m.gauge("pfc_queue_depth", "Jobs accepted but not yet started");
  m_inflight_ = &m.gauge("pfc_jobs_inflight", "Jobs currently running");
  m_duration_ = &m.histogram("pfc_job_duration_seconds",
                             "Wall time from started to terminal event",
                             obs::Histogram::duration_bounds());
  m_queue_seconds_ = &m.histogram("pfc_job_queue_seconds",
                                  "Wall time from accepted to started",
                                  obs::Histogram::duration_bounds());
  m_busy_seconds_ = &m.counter_double(
      "pfc_worker_busy_seconds_total",
      "Cumulative wall seconds workers spent running jobs");
  m_threads_clamped_ = &m.counter(
      "pfc_threads_clamped_total",
      "Jobs whose per-job thread count was clamped to the admission budget");
}

void JobServer::start() {
  PFC_REQUIRE(!started_, "JobServer::start() called twice");
  PFC_REQUIRE(opts_.workers >= 1, "need at least one worker");
  register_metrics();
  fault_ = opts_.fault.empty() ? ServeFaultPlan::from_env()
                               : ServeFaultPlan::parse(opts_.fault);
  admission_ = std::make_unique<AdmissionControl>(opts_.admission);
  admission_->touch("default");

  Endpoint un;
  un.path = opts_.socket_path;
  unix_fd_ = listen_endpoint(un);
  if (opts_.tcp_port >= 0) {
    Endpoint tcp;
    tcp.kind = Endpoint::Kind::Tcp;
    tcp.host = opts_.tcp_host;
    tcp.port = opts_.tcp_port;
    try {
      tcp_fd_ = listen_endpoint(tcp, 16, &tcp_bound_port_);
    } catch (...) {
      ::close(unix_fd_);
      ::unlink(opts_.socket_path.c_str());
      unix_fd_ = -1;
      throw;
    }
  }
  PFC_REQUIRE(::pipe(stop_pipe_) == 0,
              std::string("pipe(): ") + std::strerror(errno));

  started_ = true;
  if (fault_.any() && !opts_.quiet) {
    obs::log::warn(kLogComponent, "fault injection armed",
                   {{"hang_job", Json(fault_.hang_job)},
                    {"delay_ms", Json(fault_.delay_ms)},
                    {"drop_after_writes", Json(fault_.drop_after_writes)},
                    {"partial_write", Json(fault_.partial_write)}});
  }
  workers_.reserve(std::size_t(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  // The monitor runs whenever it has something to watch: deadlines are
  // per-spec, so any daemon needs the sweep; the hung-worker scan arms
  // only when watchdog_seconds > 0.
  monitor_.start(opts_.monitor_period_seconds, [this] { monitor_tick(); });
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void JobServer::wait() {
  {
    std::unique_lock<std::mutex> lk(mutex_);
    cv_stopped_.wait(lk, [this] { return stopping_; });
  }
  join_all();
}

bool JobServer::wait_for(double seconds) {
  std::unique_lock<std::mutex> lk(mutex_);
  return cv_stopped_.wait_for(lk, std::chrono::duration<double>(seconds),
                              [this] { return stopping_; });
}

void JobServer::stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stopping_ = true;
    accepting_ = false;
  }
  cv_work_.notify_all();
  cv_stopped_.notify_all();
  if (stop_pipe_[1] >= 0) {
    const char b = 's';
    (void)!::write(stop_pipe_[1], &b, 1);
  }
  join_all();
}

void JobServer::drain_and_stop() {
  if (!started_) return;
  // 1. Stop accepting: the dispatcher exits, listeners go quiet. Jobs
  //    already admitted keep their connections.
  {
    std::lock_guard<std::mutex> lk(mutex_);
    accepting_ = false;
  }
  if (stop_pipe_[1] >= 0) {
    const char b = 'd';
    (void)!::write(stop_pipe_[1], &b, 1);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (!opts_.quiet) {
    obs::log::info(kLogComponent, "drain started",
                   {{"drain_seconds", Json(opts_.drain_seconds)}});
  }

  // 2. Give in-flight work its budget.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double>(std::max(0.0, opts_.drain_seconds));
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      bool live = !queue_.empty();
      for (const auto& [id, ctrl] : controls_) {
        live = live || (ctrl->running && !ctrl->terminal_sent);
      }
      if (!live) break;
    }
    if (std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // 3. Budget spent: cancel stragglers. Queued jobs get their terminal
  //    event here; running jobs stop at the next step and their worker
  //    emits it.
  std::vector<std::pair<std::shared_ptr<EventStream>, long long>> drop;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    while (!queue_.empty()) {
      PendingJob pj = std::move(queue_.front());
      queue_.pop_front();
      auto it = controls_.find(pj.id);
      if (it == controls_.end() || it->second->terminal_sent) continue;
      it->second->terminal_sent = true;
      JobStatus& st = status_[pj.id];
      st.state = "cancelled";
      st.error = "daemon shutting down";
      drop.emplace_back(it->second->stream, pj.id);
      admission_->on_discard(it->second->tenant);
    }
    m_queue_depth_->set(double(queue_.size()));
    for (auto& [id, ctrl] : controls_) {
      if (ctrl->running && !ctrl->terminal_sent) {
        ctrl->token->request(app::CancelKind::Shutdown,
                             "daemon shutting down");
      }
    }
  }
  for (auto& [stream, id] : drop) {
    m_cancelled_->add(1);
    stream->send(event_cancelled(id, "daemon shutting down"));
  }

  // 4. stop() joins the workers, which finish (or cancel out of) their
  //    current job first — the drain's terminal events all flush.
  stop();
}

void JobServer::join_all() {
  std::lock_guard<std::mutex> jl(join_mutex_);
  if (accept_thread_.joinable()) accept_thread_.join();
  monitor_.stop();
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    workers.swap(workers_);
  }
  for (std::thread& w : workers) {
    if (w.joinable()) w.join();
  }
  {
    std::lock_guard<std::mutex> lk(mutex_);
    controls_.clear();  // closes any surviving submitter connections
  }
  if (unix_fd_ >= 0) {
    ::close(unix_fd_);
    ::unlink(opts_.socket_path.c_str());
    unix_fd_ = -1;
  }
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
  for (int& fd : stop_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

// --- bookkeeping -------------------------------------------------------------

std::vector<JobStatus> JobServer::jobs() const {
  std::lock_guard<std::mutex> lk(mutex_);
  std::vector<JobStatus> out;
  out.reserve(status_.size());
  for (const auto& [id, st] : status_) out.push_back(st);
  return out;
}

void JobServer::set_state(long long id, const std::string& state,
                          const std::string& error) {
  std::lock_guard<std::mutex> lk(mutex_);
  JobStatus& st = status_[id];
  st.state = state;
  if (!error.empty()) st.error = error;
}

void JobServer::note_progress(long long id, const app::ProgressUpdate& u) {
  std::lock_guard<std::mutex> lk(mutex_);
  JobStatus& st = status_[id];
  st.step = u.step;
  st.steps_total = u.steps_total;
  st.fraction = u.fraction;
  st.mlups = u.mlups;
  const auto it = controls_.find(id);
  if (it != controls_.end()) {
    it->second->heartbeat_steady = steady_seconds();
  }
}

bool JobServer::try_mark_terminal(long long id) {
  std::lock_guard<std::mutex> lk(mutex_);
  const auto it = controls_.find(id);
  if (it == controls_.end() || it->second->terminal_sent) return false;
  it->second->terminal_sent = true;
  return true;
}

bool JobServer::take_queued(long long id, PendingJob* out) {
  // Caller holds mutex_.
  const auto it =
      std::find_if(queue_.begin(), queue_.end(),
                   [id](const PendingJob& p) { return p.id == id; });
  if (it == queue_.end()) return false;
  if (out != nullptr) *out = std::move(*it);
  queue_.erase(it);
  m_queue_depth_->set(double(queue_.size()));
  return true;
}

// --- dispatcher --------------------------------------------------------------

void JobServer::accept_loop() {
  for (;;) {
    pollfd fds[3];
    nfds_t nfds = 0;
    fds[nfds++] = {stop_pipe_[0], POLLIN, 0};
    fds[nfds++] = {unix_fd_, POLLIN, 0};
    if (tcp_fd_ >= 0) fds[nfds++] = {tcp_fd_, POLLIN, 0};
    const int rc = ::poll(fds, nfds, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[0].revents & (POLLIN | POLLERR | POLLHUP)) != 0) break;
    {
      std::lock_guard<std::mutex> lk(mutex_);
      if (stopping_ || !accepting_) break;
    }
    for (nfds_t i = 1; i < nfds; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const int fd = ::accept(fds[i].fd, nullptr, nullptr);
      if (fd < 0) continue;
      if (opts_.io_timeout_seconds > 0.0) {
        set_io_timeout(fd, opts_.io_timeout_seconds);
      }
      try {
        handle_connection(LineChannel(fd));
      } catch (const std::exception& e) {
        // A malformed or stalled connection must not take the dispatcher
        // down (TimeoutError here = slow-loris request, dropped).
        obs::log::error(kLogComponent, "connection error",
                        {{"error", Json(e.what())}});
      }
    }
  }
}

void JobServer::handle_connection(LineChannel conn) {
  if (fault_.partial_write) conn.enable_partial_write();
  const Json req = conn.read_json();
  if (req.kind() == Json::Kind::Null) return;  // client connected, said nothing
  if (!req.is_object()) {
    conn.write_json(event_error(-1, "request must be a JSON object"));
    return;
  }
  const Json* op = req.find("op");
  if (op == nullptr || !op->is_string()) {
    conn.write_json(event_error(-1, "request needs a string \"op\""));
    return;
  }

  if (op->str() == "ping") {
    conn.write_json(event_pong());
    return;
  }

  if (op->str() == "list") {
    Json arr = Json::array();
    for (const JobStatus& st : jobs()) {
      Json e = Json::object()
                   .set("job", Json(st.id))
                   .set("name", Json(st.name))
                   .set("state", Json(st.state))
                   .set("preset", Json(st.preset))
                   .set("tenant", Json(st.tenant))
                   .set("submitted_unix", Json(st.submitted_unix))
                   .set("step", Json(st.step))
                   .set("steps_total", Json(st.steps_total))
                   .set("fraction", Json(st.fraction))
                   .set("mlups", Json(st.mlups));
      if (st.queued_seconds >= 0.0) {
        e.set("queued_seconds", Json(st.queued_seconds));
      }
      if (st.duration_seconds >= 0.0) {
        e.set("duration_seconds", Json(st.duration_seconds));
      }
      if (!st.error.empty()) e.set("error", Json(st.error));
      arr.push(std::move(e));
    }
    conn.write_json(
        Json::object().set("event", Json("jobs")).set("jobs", std::move(arr)));
    return;
  }

  if (op->str() == "metrics") {
    conn.write_json(event_metrics(obs::MetricsRegistry::shared().to_json()));
    return;
  }

  if (op->str() == "metrics_text") {
    conn.write_json(
        event_metrics_text(obs::MetricsRegistry::shared().to_prometheus()));
    return;
  }

  if (op->str() == "shutdown") {
    conn.write_json(event_bye());
    {
      std::lock_guard<std::mutex> lk(mutex_);
      stopping_ = true;
      accepting_ = false;
    }
    cv_work_.notify_all();
    cv_stopped_.notify_all();
    if (stop_pipe_[1] >= 0) {
      const char b = 's';
      (void)!::write(stop_pipe_[1], &b, 1);
    }
    return;  // accept_loop exits on the stop pipe
  }

  if (op->str() == "cancel") {
    handle_cancel(conn, req);
    return;
  }

  if (op->str() == "submit") {
    handle_submit(std::move(conn), req);
    return;
  }

  if (op->str() == "tune") {
    handle_tune(std::move(conn), req);
    return;
  }

  conn.write_json(event_error(-1, "unknown op \"" + op->str() + "\""));
}

void JobServer::handle_submit(LineChannel conn, const Json& req) {
  const Json* spec_json = req.find("spec");
  if (spec_json == nullptr) {
    conn.write_json(event_error(-1, "submit needs a \"spec\""));
    return;
  }
  app::JobSpec spec;
  try {
    spec = app::JobSpec::from_json(*spec_json, "spec");
    spec.validate();
  } catch (const Error& e) {
    conn.write_json(event_error(-1, e.what()));
    return;
  }

  // Admission control: shed before any state is allocated — a rejected
  // submit leaves no trace beyond the counter and the event.
  std::string reason;
  if (!admission_->try_admit(spec.tenant, &reason)) {
    m_rejected_->add(1);
    conn.write_json(event_rejected(reason));
    obs::log::warn(kLogComponent, "submit rejected",
                   {{"tenant", Json(spec.tenant)},
                    {"name", Json(spec.name)},
                    {"reason", Json(reason)}});
    return;
  }

  // The daemon's kernel cache is the default; an explicit cache_dir in
  // the spec wins (a job may opt into its own cache or out entirely).
  app::CompileOptions& co = spec.simulation.compile;
  if (!opts_.cache.directory.empty() && co.cache_dir.empty()) {
    co.cache_dir = opts_.cache.directory;
    co.cache_max_bytes = opts_.cache.max_bytes;
  }
  // Daemon-level progress default: a spec that does not pin a cadence
  // samples at the daemon's configured one (run_job still falls back to
  // ~steps/8 when both are 0).
  if (spec.progress_every == 0 && opts_.progress_every > 0) {
    spec.progress_every = opts_.progress_every;
  }

  PendingJob job;
  job.spec = std::move(spec);
  job.submitted = std::chrono::steady_clock::now();
  auto stream = std::make_shared<EventStream>();
  stream->channel = std::move(conn);
  stream->drop_after = fault_.drop_after_writes;
  auto ctrl = std::make_shared<JobControl>();
  ctrl->token = std::make_shared<app::CancelToken>();
  ctrl->stream = stream;
  ctrl->tenant = job.spec.tenant;
  ctrl->name = job.spec.name;
  ctrl->deadline_seconds = job.spec.deadline_seconds;
  ctrl->submitted_steady = steady_seconds();
  ctrl->heartbeat_steady = ctrl->submitted_steady;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    job.id = next_id_++;
    JobStatus st;
    st.id = job.id;
    st.name = job.spec.name;
    st.state = "queued";
    st.preset = job.spec.model.preset;
    st.tenant = job.spec.tenant;
    st.submitted_unix = unix_now();
    st.steps_total = job.spec.steps;
    status_[job.id] = std::move(st);
    controls_[job.id] = ctrl;
    // Bound daemon state: drop the oldest terminal records once past the
    // cap (live jobs are never pruned).
    if (status_.size() > kMaxStatusEntries) {
      for (auto it = status_.begin();
           it != status_.end() && status_.size() > kMaxStatusEntries;) {
        if (is_terminal_state(it->second.state)) {
          controls_.erase(it->first);
          it = status_.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  stream->send(event_accepted(job.id, job.spec.name));
  m_submitted_->add(1);
  if (!opts_.quiet) {
    auto fields = job_fields(job.id, job.spec.name);
    fields.push_back({"preset", Json(job.spec.model.preset)});
    fields.push_back({"tenant", Json(job.spec.tenant)});
    fields.push_back({"steps", Json(job.spec.steps)});
    if (job.spec.deadline_seconds > 0.0) {
      fields.push_back({"deadline_seconds", Json(job.spec.deadline_seconds)});
    }
    obs::log::info(kLogComponent, "job queued", fields);
  }
  {
    std::lock_guard<std::mutex> lk(mutex_);
    queue_.push_back(std::move(job));
    m_queue_depth_->set(double(queue_.size()));
  }
  // notify_all: with per-tenant quota gating, the woken worker is not
  // always one that can start this job.
  cv_work_.notify_all();
}

void JobServer::handle_tune(LineChannel conn, const Json& req) {
  const Json* spec_json = req.find("spec");
  if (spec_json == nullptr) {
    conn.write_json(event_error(-1, "tune needs a \"spec\""));
    return;
  }
  // A pre-warm request with tune left "off" means "run the search":
  // keeping "cached" (hit = instant reply) and "full" as given. The spec
  // is validated with the search on, so a forest is refused here as it
  // would be on submit.
  app::JobSpec spec;
  try {
    spec = app::JobSpec::from_json(*spec_json, "spec");
    if (spec.simulation.compile.tune == app::TuneMode::Off) {
      spec.simulation.compile.tune = app::TuneMode::Full;
    }
    spec.validate();
  } catch (const Error& e) {
    conn.write_json(event_error(-1, e.what()));
    return;
  }
  // Same cache-dir defaulting as submit, so the pre-warmed entry lands
  // where the later job will look for it.
  app::CompileOptions& co = spec.simulation.compile;
  if (!opts_.cache.directory.empty() && co.cache_dir.empty()) {
    co.cache_dir = opts_.cache.directory;
    co.cache_max_bytes = opts_.cache.max_bytes;
  }
  if (!opts_.quiet) {
    obs::log::info(kLogComponent, "tune requested",
                   {{"name", Json(spec.name)},
                    {"preset", Json(spec.model.preset)}});
  }
  // The measured search runs for seconds; a detached thread keeps the
  // dispatcher accepting. Everything is captured by value — no `this` —
  // so daemon teardown cannot race a search still in flight (the thread
  // only touches its own spec copy and its own connection).
  std::thread([spec = std::move(spec), conn = std::move(conn)]() mutable {
    try {
      const app::GrandChemParams params = spec.make_params();
      app::GrandChemModel model(params);
      app::SimulationOptions tuned = spec.simulation;
      const obs::TuningStats stats = app::autotune_apply(model, tuned);
      conn.write_json(Json::object()
                          .set("event", Json("tuned"))
                          .set("name", Json(spec.name))
                          .set("tuning", stats.to_json()));
    } catch (const Error& e) {
      conn.write_json(event_error(-1, e.what()));
    }
  }).detach();
}

void JobServer::handle_cancel(LineChannel& conn, const Json& req) {
  const Json* job = req.find("job");
  if (job == nullptr || !job->is_number()) {
    conn.write_json(event_error(-1, "cancel needs a numeric \"job\""));
    return;
  }
  const long long id = (long long)(job->number());

  std::shared_ptr<EventStream> stream;
  std::string tenant;
  std::string ack_state;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    const auto st = status_.find(id);
    if (st == status_.end()) {
      conn.write_json(
          event_error(id, "unknown job " + std::to_string(id)));
      return;
    }
    const auto it = controls_.find(id);
    if (it == controls_.end() || it->second->terminal_sent) {
      // Already terminal: cancelling a finished job is a no-op ack.
      conn.write_json(event_cancel_ack(id, st->second.state));
      return;
    }
    JobControl& ctrl = *it->second;
    if (!ctrl.running) {
      PendingJob pj;
      if (take_queued(id, &pj)) {
        ctrl.terminal_sent = true;
        st->second.state = "cancelled";
        st->second.error = "cancelled by client";
        stream = ctrl.stream;
        tenant = ctrl.tenant;
        ack_state = "cancelled";
      } else {
        // Between dequeue and the worker's running=true: the token is
        // armed, the worker notices before the first step.
        ctrl.token->request(app::CancelKind::Client, "cancelled by client");
        ack_state = "cancelling";
      }
    } else {
      ctrl.token->request(app::CancelKind::Client, "cancelled by client");
      ack_state = "cancelling";
    }
  }
  if (stream) {
    m_cancelled_->add(1);
    admission_->on_discard(tenant);
    cv_work_.notify_all();
    stream->send(event_cancelled(id, "cancelled by client"));
    if (!opts_.quiet) {
      obs::log::info(kLogComponent, "queued job cancelled",
                     job_fields(id, ""));
    }
  }
  conn.write_json(event_cancel_ack(id, ack_state));
}

// --- monitor -----------------------------------------------------------------

void JobServer::monitor_tick() {
  const double now = steady_seconds();
  struct Kill {
    long long id = 0;
    std::shared_ptr<EventStream> stream;
    std::string tenant;
    std::string name;
    std::string reason;
    double duration = -1.0;
    double queued = -1.0;
    bool watchdog = false;  ///< else: deadline expiry of a queued job
  };
  std::vector<Kill> kills;
  int replacements = 0;

  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (stopping_) return;
    for (auto& [id, ctrl_ptr] : controls_) {
      JobControl& ctrl = *ctrl_ptr;
      if (ctrl.terminal_sent) continue;

      // Deadline sweep (wall budget measured from submit).
      if (ctrl.deadline_seconds > 0.0 &&
          now - ctrl.submitted_steady > ctrl.deadline_seconds) {
        const std::string reason =
            "deadline of " + std::to_string(ctrl.deadline_seconds) +
            " s exceeded";
        if (!ctrl.running) {
          PendingJob pj;
          if (take_queued(id, &pj)) {
            ctrl.terminal_sent = true;
            JobStatus& st = status_[id];
            st.state = "deadline_exceeded";
            st.error = reason;
            Kill k;
            k.id = id;
            k.stream = ctrl.stream;
            k.tenant = ctrl.tenant;
            k.name = ctrl.name;
            k.reason = reason;
            k.queued = now - ctrl.submitted_steady;
            kills.push_back(std::move(k));
          }
        } else {
          // Running: arm the token; the worker stops within one step
          // cadence and emits the terminal event itself.
          ctrl.token->request(app::CancelKind::Deadline, reason);
        }
        continue;
      }

      // Hung-worker watchdog: a running job with a stale heartbeat. The
      // monitor emits the terminal event itself — the client unblocks
      // even when the worker is wedged beyond recovery — and a fresh
      // worker restores the pool to full strength.
      if (opts_.watchdog_seconds > 0.0 && ctrl.running &&
          now - ctrl.heartbeat_steady > opts_.watchdog_seconds) {
        const std::string reason =
            "watchdog: no progress for " +
            std::to_string(opts_.watchdog_seconds) + " s";
        ctrl.terminal_sent = true;
        ctrl.watchdog_fired = true;
        ctrl.token->request(app::CancelKind::Watchdog, reason);
        JobStatus& st = status_[id];
        st.state = "failed";
        st.error = reason;
        st.duration_seconds = now - ctrl.started_steady;
        Kill k;
        k.id = id;
        k.stream = ctrl.stream;
        k.tenant = ctrl.tenant;
        k.name = ctrl.name;
        k.reason = reason;
        k.duration = now - ctrl.started_steady;
        k.queued = ctrl.started_steady - ctrl.submitted_steady;
        k.watchdog = true;
        kills.push_back(std::move(k));
        ++replacements;
        workers_.emplace_back([this] { worker_loop(); });
      }
    }
  }

  for (Kill& k : kills) {
    if (k.watchdog) {
      m_watchdog_killed_->add(1);
      m_failed_->add(1);
      m_inflight_->add(-1);
      if (k.duration >= 0.0) m_duration_->observe(k.duration);
      admission_->on_release(k.tenant);
      k.stream->send(event_error(k.id, k.reason, k.duration, k.queued));
      auto fields = job_fields(k.id, k.name);
      fields.push_back({"duration_seconds", Json(k.duration)});
      fields.push_back({"error", Json(k.reason)});
      obs::log::error(kLogComponent, "watchdog killed job", fields);
    } else {
      m_deadline_->add(1);
      admission_->on_discard(k.tenant);
      k.stream->send(event_deadline_exceeded(k.id, k.reason, -1.0, k.queued));
      auto fields = job_fields(k.id, k.name);
      fields.push_back({"error", Json(k.reason)});
      obs::log::warn(kLogComponent, "queued job past deadline", fields);
    }
  }
  if (!kills.empty()) cv_work_.notify_all();
}

// --- workers -----------------------------------------------------------------

void JobServer::worker_loop() {
  for (;;) {
    PendingJob job;
    {
      std::unique_lock<std::mutex> lk(mutex_);
      for (;;) {
        if (stopping_ && queue_.empty()) return;
        const auto it = std::find_if(
            queue_.begin(), queue_.end(), [this](const PendingJob& p) {
              return admission_->can_start(p.spec.tenant);
            });
        if (it != queue_.end()) {
          job = std::move(*it);
          queue_.erase(it);
          m_queue_depth_->set(double(queue_.size()));
          break;
        }
        cv_work_.wait(lk);
      }
    }
    if (!run_one(std::move(job))) return;
  }
}

bool JobServer::run_one(PendingJob job) {
  const auto started = std::chrono::steady_clock::now();
  const double queued = seconds_between(job.submitted, started);

  std::shared_ptr<JobControl> ctrl;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    const auto it = controls_.find(job.id);
    if (it == controls_.end()) return true;  // pruned under our feet
    ctrl = it->second;
    if (ctrl->terminal_sent) return true;  // cancelled while dequeuing
    ctrl->running = true;
    ctrl->started_steady = steady_seconds();
    ctrl->heartbeat_steady = ctrl->started_steady;
    JobStatus& st = status_[job.id];
    st.state = "running";
    st.queued_seconds = queued;
  }
  admission_->on_start(ctrl->tenant);
  m_queue_seconds_->observe(queued);
  m_inflight_->add(1);
  ctrl->stream->send(event_started(job.id, queued));
  if (!opts_.quiet) {
    auto fields = job_fields(job.id, job.spec.name);
    fields.push_back({"queued_seconds", Json(queued)});
    obs::log::info(kLogComponent, "job started", fields);
  }

  // Admission clamp: `workers` jobs may run concurrently, so a job asking
  // for more threads than its share of the machine would oversubscribe
  // every core the moment the queue fills. Cap threads at
  // hardware_threads / workers (at least 1) instead of failing the job.
  {
    const int budget =
        std::max(1, ThreadPool::hardware_threads() / opts_.workers);
    int& threads = job.spec.simulation.threads;
    if (threads > budget) {
      m_threads_clamped_->add(1);
      auto fields = job_fields(job.id, job.spec.name);
      fields.push_back({"requested_threads", Json(threads)});
      fields.push_back({"granted_threads", Json(budget)});
      fields.push_back({"workers", Json(opts_.workers)});
      obs::log::warn(kLogComponent, "thread request clamped", fields);
      threads = budget;
    }
  }

  // The stepping thread is this worker, so the sink writes straight to the
  // submitter's stream. A vanished client (send == false) stops the event
  // stream but not the job — status/gauges keep updating.
  obs::Gauge& mlups_gauge = obs::MetricsRegistry::shared().gauge(
      "pfc_job_mlups", "Live throughput of the most recent progress sample",
      {{"preset", job.spec.model.preset}});
  const app::ProgressSink sink = [&](const app::ProgressUpdate& u) {
    note_progress(job.id, u);
    mlups_gauge.set(u.mlups);
    ctrl->stream->send(event_progress(job.id, u));
  };

  const auto finish = [&](const char* state) {
    const double duration =
        seconds_between(started, std::chrono::steady_clock::now());
    m_inflight_->add(-1);
    m_duration_->observe(duration);
    m_busy_seconds_->add(duration);
    admission_->on_release(ctrl->tenant);
    cv_work_.notify_all();  // quota slot freed: queued peers may start
    std::lock_guard<std::mutex> lk(mutex_);
    JobStatus& st = status_[job.id];
    st.state = state;
    st.duration_seconds = duration;
    return duration;
  };
  const auto drop_control = [&] {
    std::lock_guard<std::mutex> lk(mutex_);
    controls_.erase(job.id);  // closes the submitter's connection
  };

  try {
    // Fault injection rides the same cooperative-cancel path real code
    // does: a hung or delayed worker still honours its token, so deadline
    // and watchdog recovery are exercised without unjoinable threads.
    const app::CancelToken* token = ctrl->token.get();
    if (fault_.hang_job == job.id) {
      obs::log::warn(kLogComponent, "fault: hanging worker",
                     job_fields(job.id, job.spec.name));
      hang_until_cancelled(token, 120.0);
    }
    if (fault_.delay_ms > 0) {
      hang_until_cancelled(token, double(fault_.delay_ms) / 1000.0);
    }
    if (token->requested()) {
      throw app::JobCancelled(token->kind(), token->reason());
    }

    const app::JobResult result = app::run_job(job.spec, sink, token);
    const double duration = finish("finished");
    const double mlups = result.run.mlups();
    const bool degraded = result.compile.fallback_attempts > 0;
    m_finished_->add(1);
    if (degraded) m_degraded_->add(1);
    mlups_gauge.set(mlups);
    {
      std::lock_guard<std::mutex> lk(mutex_);
      JobStatus& st = status_[job.id];
      st.step = result.steps;
      st.steps_total = result.steps;
      st.fraction = 1.0;
      st.mlups = mlups;
    }
    if (try_mark_terminal(job.id)) {
      ctrl->stream->send(
          event_finished(job.id, result.to_json(), duration, queued));
    }
    drop_control();
    if (!opts_.quiet) {
      auto fields = job_fields(job.id, job.spec.name);
      fields.push_back({"steps", Json(result.steps)});
      fields.push_back({"duration_seconds", Json(duration)});
      fields.push_back({"mlups", Json(mlups)});
      fields.push_back(
          {"cache", Json(result.compile.cache_used
                             ? (result.compile.cache_hit ? "hit" : "miss")
                             : "off")});
      fields.push_back({"backend_tier", Json(result.compile.backend_tier)});
      if (degraded) {
        fields.push_back(
            {"fallback_reason", Json(result.compile.fallback_reason)});
      }
      obs::log::info(kLogComponent, "job finished", fields);
    }
  } catch (const app::JobCancelled& c) {
    const bool watchdog = c.kind() == app::CancelKind::Watchdog;
    if (!try_mark_terminal(job.id)) {
      // The monitor beat us to the terminal event (watchdog kill). Our
      // bookkeeping was already settled there; this thread just retires
      // so the replacement worker keeps the pool at configured strength.
      drop_control();
      if (!opts_.quiet) {
        obs::log::info(kLogComponent, "worker recovered after watchdog kill",
                       job_fields(job.id, job.spec.name));
      }
      return !watchdog;
    }
    const double duration = finish(
        c.kind() == app::CancelKind::Deadline ? "deadline_exceeded"
                                              : "cancelled");
    set_state(job.id,
              c.kind() == app::CancelKind::Deadline ? "deadline_exceeded"
                                                    : "cancelled",
              c.what());
    if (c.kind() == app::CancelKind::Deadline) {
      m_deadline_->add(1);
      ctrl->stream->send(event_deadline_exceeded(job.id, c.cancel_reason(),
                                                 duration, queued));
    } else {
      m_cancelled_->add(1);
      ctrl->stream->send(
          event_cancelled(job.id, c.cancel_reason(), duration, queued));
    }
    drop_control();
    if (!opts_.quiet) {
      auto fields = job_fields(job.id, job.spec.name);
      fields.push_back({"duration_seconds", Json(duration)});
      fields.push_back({"kind", Json(app::cancel_kind_name(c.kind()))});
      fields.push_back({"reason", Json(c.cancel_reason())});
      obs::log::info(kLogComponent, "job cancelled", fields);
    }
    return !watchdog;
  } catch (const std::exception& e) {
    // Per-job isolation: one failing job reports and dies alone.
    if (!try_mark_terminal(job.id)) {
      drop_control();
      std::lock_guard<std::mutex> lk(mutex_);
      const auto it = status_.find(job.id);
      return !(it != status_.end() && it->second.state == "failed" &&
               it->second.error.rfind("watchdog", 0) == 0);
    }
    const double duration = finish("failed");
    m_failed_->add(1);
    set_state(job.id, "failed", e.what());
    ctrl->stream->send(event_error(job.id, e.what(), duration, queued));
    drop_control();
    auto fields = job_fields(job.id, job.spec.name);
    fields.push_back({"duration_seconds", Json(duration)});
    fields.push_back({"error", Json(e.what())});
    obs::log::error(kLogComponent, "job failed", fields);
  }
  return true;
}

// --- client ------------------------------------------------------------------

Client::Client(const std::string& endpoint, ClientOptions opts)
    : endpoint_(parse_endpoint(endpoint)), opts_(opts) {}

LineChannel Client::open() {
  RetryPolicy policy;
  policy.attempts = std::max(1, opts_.retries);
  policy.backoff_initial_seconds = opts_.backoff_initial_seconds;
  policy.backoff_max_seconds = opts_.backoff_max_seconds;
  policy.timeout_seconds = opts_.timeout_seconds;
  const int fd = connect_with_retry(endpoint_, policy);
  if (opts_.timeout_seconds > 0.0) set_io_timeout(fd, opts_.timeout_seconds);
  return LineChannel(fd);
}

bool Client::is_terminal_event(const Json& ev) {
  const Json* kind = ev.find("event");
  if (kind == nullptr || !kind->is_string()) return false;
  const std::string& k = kind->str();
  return k == "finished" || k == "error" || k == "rejected" ||
         k == "cancelled" || k == "deadline_exceeded";
}

Json Client::request_single(const Json& request) {
  LineChannel conn = open();
  if (!conn.write_json(request)) {
    throw TransportError("daemon closed the connection");
  }
  const Json reply = conn.read_json();
  if (!reply.is_object()) throw ProtocolError("daemon sent no reply");
  return reply;
}

Json Client::ping() { return request_single(Json::object().set("op", Json("ping"))); }

Json Client::list() { return request_single(Json::object().set("op", Json("list"))); }

Json Client::cancel(long long job) {
  return request_single(
      Json::object().set("op", Json("cancel")).set("job", Json(job)));
}

Json Client::metrics() {
  const Json reply =
      request_single(Json::object().set("op", Json("metrics")));
  const Json* snap = reply.find("snapshot");
  if (snap == nullptr || !snap->is_object()) {
    throw ProtocolError("malformed metrics reply: " + reply.dump(-1));
  }
  return *snap;
}

std::string Client::metrics_text() {
  const Json reply =
      request_single(Json::object().set("op", Json("metrics_text")));
  const Json* text = reply.find("text");
  if (text == nullptr || !text->is_string()) {
    throw ProtocolError("malformed metrics_text reply: " + reply.dump(-1));
  }
  return text->str();
}

Json Client::shutdown_server() {
  return request_single(Json::object().set("op", Json("shutdown")));
}

Json Client::tune(const Json& spec) {
  return request_single(
      Json::object().set("op", Json("tune")).set("spec", spec));
}

Json Client::submit(const Json& spec, std::vector<Json>* events) {
  return submit(spec, [events](const Json& ev) {
    if (events != nullptr) events->push_back(ev);
  });
}

Json Client::submit(const Json& spec,
                    const std::function<void(const Json&)>& on_event) {
  LineChannel conn = open();
  if (!conn.write_json(
          Json::object().set("op", Json("submit")).set("spec", spec))) {
    throw TransportError("daemon closed the connection");
  }
  for (;;) {
    const Json ev = conn.read_json();
    if (ev.kind() == Json::Kind::Null) {
      throw ProtocolError("daemon closed the stream before a terminal event");
    }
    const Json* kind = ev.find("event");
    if (kind == nullptr || !kind->is_string()) {
      throw ProtocolError("malformed event from daemon: " + ev.dump(-1));
    }
    if (is_terminal_event(ev)) return ev;
    if (on_event) on_event(ev);
  }
}

}  // namespace pfc::serve
