#include "pfc/serve/transport.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace pfc::serve {

namespace {

sockaddr_un unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  PFC_REQUIRE(path.size() < sizeof(addr.sun_path),
              "socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

[[noreturn]] void throw_errno(const char* what, const std::string& where,
                              int e) {
  const std::string msg =
      std::string(what) + "(" + where + "): " + std::strerror(e);
  if (e == ECONNREFUSED || e == ENOENT || e == EHOSTUNREACH ||
      e == ENETUNREACH) {
    throw ConnectError(msg);
  }
  if (e == ETIMEDOUT || e == EAGAIN || e == EWOULDBLOCK || e == EINPROGRESS) {
    throw TimeoutError(msg);
  }
  throw TransportError(msg);
}

/// getaddrinfo for one numeric-or-named IPv4/IPv6 host. The caller frees
/// with freeaddrinfo.
addrinfo* resolve_tcp(const std::string& host, int port, bool listening) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  if (listening) hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  const char* node = host.empty() ? (listening ? nullptr : "127.0.0.1")
                                  : host.c_str();
  const int rc = ::getaddrinfo(node, service.c_str(), &hints, &res);
  if (rc != 0) {
    throw ConnectError("resolve(" + (host.empty() ? "*" : host) + ":" +
                       service + "): " + ::gai_strerror(rc));
  }
  return res;
}

int tcp_port_of(int fd) {
  sockaddr_storage ss{};
  socklen_t len = sizeof(ss);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&ss), &len) != 0) {
    return 0;
  }
  if (ss.ss_family == AF_INET) {
    return ntohs(reinterpret_cast<sockaddr_in*>(&ss)->sin_port);
  }
  if (ss.ss_family == AF_INET6) {
    return ntohs(reinterpret_cast<sockaddr_in6*>(&ss)->sin6_port);
  }
  return 0;
}

/// connect() with an optional deadline via nonblocking + poll.
void connect_deadline(int fd, const sockaddr* addr, socklen_t len,
                      double timeout_seconds, const std::string& where) {
  if (timeout_seconds <= 0.0) {
    if (::connect(fd, addr, len) != 0) throw_errno("connect", where, errno);
    return;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, addr, len) != 0) {
    if (errno != EINPROGRESS) throw_errno("connect", where, errno);
    pollfd pfd{fd, POLLOUT, 0};
    const int rc = ::poll(&pfd, 1, int(timeout_seconds * 1000.0));
    if (rc == 0) {
      throw TimeoutError("connect(" + where + "): timed out after " +
                         std::to_string(timeout_seconds) + " s");
    }
    if (rc < 0) throw_errno("connect", where, errno);
    int err = 0;
    socklen_t errlen = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &errlen);
    if (err != 0) throw_errno("connect", where, err);
  }
  ::fcntl(fd, F_SETFL, flags);
}

/// Closes fd on scope exit unless released (exception safety around the
/// throw-happy connect paths).
struct FdGuard {
  int fd;
  ~FdGuard() {
    if (fd >= 0) ::close(fd);
  }
  int release() {
    const int f = fd;
    fd = -1;
    return f;
  }
};

}  // namespace

std::string Endpoint::describe() const {
  if (kind == Kind::Unix) return "unix:" + path;
  return "tcp:" + (host.empty() ? std::string("*") : host) + ":" +
         std::to_string(port);
}

Endpoint parse_endpoint(const std::string& spec) {
  PFC_REQUIRE(!spec.empty(), "endpoint must not be empty");
  Endpoint ep;
  if (spec.rfind("unix:", 0) == 0) {
    ep.path = spec.substr(5);
    PFC_REQUIRE(!ep.path.empty(), "unix endpoint needs a path: " + spec);
    return ep;
  }
  if (spec.rfind("tcp:", 0) != 0) {
    ep.path = spec;  // bare strings stay Unix paths (back-compat)
    return ep;
  }
  ep.kind = Endpoint::Kind::Tcp;
  const std::string rest = spec.substr(4);
  const auto colon = rest.rfind(':');
  PFC_REQUIRE(colon != std::string::npos,
              "tcp endpoint needs tcp:HOST:PORT, got \"" + spec + "\"");
  ep.host = rest.substr(0, colon);
  const std::string port = rest.substr(colon + 1);
  PFC_REQUIRE(!port.empty() &&
                  port.find_first_not_of("0123456789") == std::string::npos,
              "tcp endpoint port must be a number, got \"" + spec + "\"");
  const long long p = std::stoll(port);
  PFC_REQUIRE(p >= 0 && p <= 65535,
              "tcp endpoint port out of range: " + port);
  ep.port = int(p);
  return ep;
}

int listen_endpoint(const Endpoint& ep, int backlog, int* bound_port) {
  if (ep.kind == Endpoint::Kind::Unix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket", ep.describe(), errno);
    FdGuard guard{fd};
    // Bind and listen under a sibling name, then rename it into place: a
    // client that sees the path can connect (bind alone creates the file
    // before listen() accepts). A path too long for the sibling binds
    // directly.
    const std::string tmp = ep.path + ".new";
    const std::string& at =
        tmp.size() < sizeof(sockaddr_un::sun_path) ? tmp : ep.path;
    ::unlink(at.c_str());
    sockaddr_un addr = unix_addr(at);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      throw_errno("bind", ep.describe(), errno);
    }
    if (::listen(fd, backlog) != 0 ||
        (at != ep.path && ::rename(at.c_str(), ep.path.c_str()) != 0)) {
      const int e = errno;
      ::unlink(at.c_str());
      throw_errno("listen", ep.describe(), e);
    }
    if (bound_port != nullptr) *bound_port = 0;
    return guard.release();
  }

  addrinfo* res = resolve_tcp(ep.host, ep.port, /*listening=*/true);
  int last_errno = 0;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    FdGuard guard{fd};
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0 ||
        ::listen(fd, backlog) != 0) {
      last_errno = errno;
      continue;
    }
    if (bound_port != nullptr) *bound_port = tcp_port_of(fd);
    ::freeaddrinfo(res);
    return guard.release();
  }
  ::freeaddrinfo(res);
  throw_errno("listen", ep.describe(),
              last_errno != 0 ? last_errno : EADDRNOTAVAIL);
}

int connect_endpoint(const Endpoint& ep, double timeout_seconds) {
  if (ep.kind == Endpoint::Kind::Unix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket", ep.describe(), errno);
    FdGuard guard{fd};
    sockaddr_un addr = unix_addr(ep.path);
    connect_deadline(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr), timeout_seconds, ep.describe());
    return guard.release();
  }

  addrinfo* res = resolve_tcp(ep.host, ep.port, /*listening=*/false);
  std::exception_ptr last;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    FdGuard guard{fd};
    try {
      connect_deadline(fd, ai->ai_addr, ai->ai_addrlen, timeout_seconds,
                       ep.describe());
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::freeaddrinfo(res);
      return guard.release();
    } catch (...) {
      last = std::current_exception();
    }
  }
  ::freeaddrinfo(res);
  if (last) std::rethrow_exception(last);
  throw ConnectError("connect(" + ep.describe() + "): no usable address");
}

double retry_backoff_seconds(const RetryPolicy& policy, int attempt) {
  double base = policy.backoff_initial_seconds;
  for (int i = 0; i < attempt; ++i) base *= 2.0;
  base = std::min(base, policy.backoff_max_seconds);
  // Deterministic jitter in [1, 1.25): Knuth-hash the attempt index so
  // successive sleeps decorrelate without any global RNG state.
  const std::uint32_t h = std::uint32_t(attempt + 1) * 2654435761u;
  const double jitter = 1.0 + 0.25 * double((h >> 16) & 0xffu) / 256.0;
  return base * jitter;
}

int connect_with_retry(const Endpoint& ep, const RetryPolicy& policy) {
  const int attempts = std::max(1, policy.attempts);
  for (int attempt = 0;; ++attempt) {
    try {
      return connect_endpoint(ep, policy.timeout_seconds);
    } catch (const ConnectError&) {
      if (attempt + 1 >= attempts) throw;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(
        retry_backoff_seconds(policy, attempt)));
  }
}

void set_io_timeout(int fd, double seconds) {
  timeval tv{};
  if (seconds > 0.0) {
    tv.tv_sec = time_t(seconds);
    tv.tv_usec = suseconds_t((seconds - double(tv.tv_sec)) * 1e6);
  }
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace pfc::serve
