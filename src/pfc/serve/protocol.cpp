#include "pfc/serve/protocol.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "pfc/serve/transport.hpp"
#include "pfc/support/assert.hpp"

namespace pfc::serve {

namespace {

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  PFC_REQUIRE(path.size() < sizeof(addr.sun_path),
              "socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

int listen_unix(const std::string& path, int backlog) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  PFC_REQUIRE(fd >= 0, std::string("socket(): ") + std::strerror(errno));
  ::unlink(path.c_str());
  sockaddr_un addr = make_addr(path);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int e = errno;
    ::close(fd);
    throw Error("bind(" + path + "): " + std::strerror(e));
  }
  if (::listen(fd, backlog) != 0) {
    const int e = errno;
    ::close(fd);
    ::unlink(path.c_str());
    throw Error("listen(" + path + "): " + std::strerror(e));
  }
  return fd;
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  PFC_REQUIRE(fd >= 0, std::string("socket(): ") + std::strerror(errno));
  sockaddr_un addr = make_addr(path);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int e = errno;
    ::close(fd);
    throw Error("connect(" + path + "): " + std::strerror(e));
  }
  return fd;
}

LineChannel::~LineChannel() {
  if (fd_ >= 0) ::close(fd_);
}

LineChannel::LineChannel(LineChannel&& o) noexcept
    : fd_(o.fd_), buf_(std::move(o.buf_)) {
  o.fd_ = -1;
}

LineChannel& LineChannel::operator=(LineChannel&& o) noexcept {
  if (this != &o) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = o.fd_;
    buf_ = std::move(o.buf_);
    o.fd_ = -1;
  }
  return *this;
}

bool LineChannel::read_line(std::string& out) {
  PFC_REQUIRE(fd_ >= 0, "read_line on a closed channel");
  std::size_t scanned = 0;  // bytes of buf_ already known to hold no '\n'
  for (;;) {
    const auto nl = buf_.find('\n', scanned);
    if (nl != std::string::npos) {
      out = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    scanned = buf_.size();
    if (buf_.size() > kMaxLineBytes) {
      throw ProtocolError("protocol: line longer than " +
                          std::to_string(kMaxLineBytes) + " bytes");
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) return false;  // EOF (any partial line is dropped)
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_RCVTIMEO elapsed: the peer holds the connection open but
        // sends nothing (slow loris). Distinct from EOF and from hard
        // socket errors so callers can drop just this connection.
        throw TimeoutError("recv(): read deadline elapsed");
      }
      throw Error(std::string("recv(): ") + std::strerror(errno));
    }
    buf_.append(chunk, std::size_t(n));
  }
}

obs::Json LineChannel::read_json() {
  std::string line;
  if (!read_line(line)) return obs::Json();
  std::string err;
  obs::Json j = obs::Json::parse(line, &err);
  if (!err.empty()) throw ProtocolError("protocol: bad JSON line: " + err);
  return j;
}

bool LineChannel::write_json(const obs::Json& j) {
  PFC_REQUIRE(fd_ >= 0, "write_json on a closed channel");
  std::string line = j.dump(-1);
  line += '\n';
  std::size_t off = 0;
  // Fault injection: stop after the first half of the line, pause, then
  // resume — the peer must reassemble on '\n', not on packet boundaries.
  const std::size_t pause_at =
      fault_partial_write_ ? std::max<std::size_t>(1, line.size() / 2)
                           : line.size();
  bool paused = false;
  while (off < line.size()) {
    const std::size_t limit = paused ? line.size() : pause_at;
    // MSG_NOSIGNAL: a vanished client must not SIGPIPE the daemon.
    const ssize_t n =
        ::send(fd_, line.data() + off, limit - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) return false;
      // SO_SNDTIMEO elapsed: the peer stopped draining. Treat like a
      // vanished peer — the caller drops the stream, the job lives on.
      if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
      throw Error(std::string("send(): ") + std::strerror(errno));
    }
    off += std::size_t(n);
    if (!paused && off >= pause_at && off < line.size()) {
      paused = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  return true;
}

obs::Json event_pong() {
  return obs::Json::object()
      .set("event", obs::Json("pong"))
      .set("protocol", obs::Json(kProtocolVersion));
}

obs::Json event_accepted(long long job, const std::string& name) {
  return obs::Json::object()
      .set("event", obs::Json("accepted"))
      .set("job", obs::Json(job))
      .set("name", obs::Json(name));
}

obs::Json event_started(long long job, double queued_seconds) {
  obs::Json e = obs::Json::object()
                    .set("event", obs::Json("started"))
                    .set("job", obs::Json(job));
  if (queued_seconds >= 0.0) {
    e.set("queued_seconds", obs::Json(queued_seconds));
  }
  return e;
}

obs::Json event_progress(long long job, const app::ProgressUpdate& u) {
  return obs::Json::object()
      .set("event", obs::Json("progress"))
      .set("job", obs::Json(job))
      .set("step", obs::Json(u.step))
      .set("steps_total", obs::Json(u.steps_total))
      .set("fraction", obs::Json(u.fraction))
      .set("mlups", obs::Json(u.mlups))
      .set("eta_seconds", obs::Json(u.eta_seconds))
      .set("health_violations", obs::Json(u.health_violations));
}

obs::Json event_finished(long long job, obs::Json result,
                         double duration_seconds, double queued_seconds) {
  obs::Json e = obs::Json::object()
                    .set("event", obs::Json("finished"))
                    .set("job", obs::Json(job))
                    .set("result", std::move(result));
  if (duration_seconds >= 0.0) {
    e.set("duration_seconds", obs::Json(duration_seconds));
  }
  if (queued_seconds >= 0.0) {
    e.set("queued_seconds", obs::Json(queued_seconds));
  }
  return e;
}

obs::Json event_rejected(const std::string& reason) {
  return obs::Json::object()
      .set("event", obs::Json("rejected"))
      .set("reason", obs::Json(reason));
}

namespace {

obs::Json terminal_with_reason(const char* kind, long long job,
                               const std::string& reason,
                               double duration_seconds,
                               double queued_seconds) {
  obs::Json e = obs::Json::object()
                    .set("event", obs::Json(kind))
                    .set("job", obs::Json(job))
                    .set("reason", obs::Json(reason));
  if (duration_seconds >= 0.0) {
    e.set("duration_seconds", obs::Json(duration_seconds));
  }
  if (queued_seconds >= 0.0) {
    e.set("queued_seconds", obs::Json(queued_seconds));
  }
  return e;
}

}  // namespace

obs::Json event_cancelled(long long job, const std::string& reason,
                          double duration_seconds, double queued_seconds) {
  return terminal_with_reason("cancelled", job, reason, duration_seconds,
                              queued_seconds);
}

obs::Json event_deadline_exceeded(long long job, const std::string& reason,
                                  double duration_seconds,
                                  double queued_seconds) {
  return terminal_with_reason("deadline_exceeded", job, reason,
                              duration_seconds, queued_seconds);
}

obs::Json event_cancel_ack(long long job, const std::string& state) {
  return obs::Json::object()
      .set("event", obs::Json("cancel_ack"))
      .set("job", obs::Json(job))
      .set("state", obs::Json(state));
}

obs::Json event_error(long long job, const std::string& message,
                      double duration_seconds, double queued_seconds) {
  obs::Json e = obs::Json::object()
                    .set("event", obs::Json("error"))
                    .set("job", obs::Json(job))
                    .set("message", obs::Json(message));
  if (duration_seconds >= 0.0) {
    e.set("duration_seconds", obs::Json(duration_seconds));
  }
  if (queued_seconds >= 0.0) {
    e.set("queued_seconds", obs::Json(queued_seconds));
  }
  return e;
}

obs::Json event_metrics(obs::Json snapshot) {
  return obs::Json::object()
      .set("event", obs::Json("metrics"))
      .set("snapshot", std::move(snapshot));
}

obs::Json event_metrics_text(const std::string& text) {
  return obs::Json::object()
      .set("event", obs::Json("metrics_text"))
      .set("text", obs::Json(text));
}

obs::Json event_bye() {
  return obs::Json::object().set("event", obs::Json("bye"));
}

}  // namespace pfc::serve
