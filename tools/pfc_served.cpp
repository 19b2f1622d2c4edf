// The serve daemon: accepts pfc-jobspec-v2 jobs over a Unix-domain socket
// (and optionally TCP) and runs them concurrently on a worker pool,
// sharing one content-addressed kernel cache across jobs (DESIGN.md §9;
// hardening knobs in §12).
//
//   pfc_served --socket=PATH [--tcp-port=N] [--tcp-host=HOST]
//              [--port-file=PATH] [--workers=N]
//              [--max-queue=N] [--tenant-max-running=N]
//              [--tenant-max-queued=N] [--watchdog-seconds=S]
//              [--io-timeout-seconds=S] [--drain-seconds=S]
//              [--cache-dir=DIR] [--cache-mb=N] [--progress-every=N]
//              [--quiet] [--log-file=PATH]
//              [--log-level=debug|info|warn|error]
//
// Runs in the foreground until a client sends {"op":"shutdown"} or the
// process receives SIGTERM/SIGINT — the signals drain gracefully: stop
// accepting, give in-flight jobs --drain-seconds, cancel the rest, flush,
// exit 0. --tcp-port adds a TCP listener next to the Unix socket (0 picks
// an ephemeral port; --port-file writes the bound port for scripts).
// --max-queue / --tenant-max-* arm admission control, --watchdog-seconds
// the hung-job watchdog, --io-timeout-seconds the per-connection
// slow-loris deadline. --cache-dir enables the kernel cache for every job
// that does not configure its own; --cache-mb bounds it (LRU, 0 =
// unlimited). --log-file switches the structured log from human-readable
// stderr lines to JSON-lines in PATH.
#include <csignal>
#include <cstdio>

#include "pfc/obs/log.hpp"
#include "pfc/serve/server.hpp"
#include "pfc/support/argparse.hpp"

namespace {

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int sig) { g_signal = sig; }

}  // namespace

int main(int argc, char** argv) {
  using namespace pfc;
  serve::ServeOptions opts;
  opts.socket_path.clear();

  support::ArgParser args(
      "pfc_served",
      "pfc_served --socket=PATH [--tcp-port=N] [--tcp-host=HOST]\n"
      "           [--port-file=PATH] [--workers=N] [--max-queue=N]\n"
      "           [--tenant-max-running=N] [--tenant-max-queued=N]\n"
      "           [--watchdog-seconds=S] [--io-timeout-seconds=S]\n"
      "           [--drain-seconds=S] [--fault=PLAN]\n"
      "           [--cache-dir=DIR] [--cache-mb=N]\n"
      "           [--progress-every=N] [--quiet] [--log-file=PATH]\n"
      "           [--log-level=debug|info|warn|error]");
  args.value("socket", &opts.socket_path);
  long long tcp_port = -1;
  bool tcp = false;
  args.on_value("tcp-port", [&](const std::string& v) {
    tcp_port = support::parse_count(v, "--tcp-port");
    tcp = true;
  });
  args.value("tcp-host", &opts.tcp_host);
  std::string port_file;
  args.value("port-file", &port_file);
  int workers = 2;
  args.positive("workers", &workers);
  args.count("max-queue", &opts.admission.max_queue);
  args.count("tenant-max-running", &opts.admission.tenant_max_running);
  args.count("tenant-max-queued", &opts.admission.tenant_max_queued);
  args.seconds("watchdog-seconds", &opts.watchdog_seconds);
  args.seconds("io-timeout-seconds", &opts.io_timeout_seconds);
  args.seconds("drain-seconds", &opts.drain_seconds);
  // Deterministic fault injection for tests (fault.hpp grammar); the
  // PFC_SERVE_FAULT environment variable is the equivalent knob.
  args.value("fault", &opts.fault);
  args.value("cache-dir", &opts.cache.directory);
  long long cache_mb = -1;
  args.count("cache-mb", &cache_mb);
  args.count("progress-every", &opts.progress_every);
  args.flag("quiet", &opts.quiet);
  std::string log_file, log_level = "info";
  args.value("log-file", &log_file);
  args.value("log-level", &log_level);
  const auto pos = args.parse(argc, argv);

  if (!pos.empty()) args.fail("unexpected positional argument");
  if (opts.socket_path.empty()) args.fail("--socket=PATH is required");
  if (tcp && tcp_port > 65535) args.fail("--tcp-port must be <= 65535");
  opts.workers = workers;
  if (tcp) opts.tcp_port = int(tcp_port);
  if (cache_mb >= 0) opts.cache.max_bytes = std::uint64_t(cache_mb) << 20;
  try {
    obs::log::Logger::shared().configure(
        obs::log::level_from_string(log_level), log_file);
  } catch (const Error& e) {
    std::fprintf(stderr, "pfc_served: %s\n", e.what());
    return 1;
  }

  // A client that disconnects mid-stream must never kill the daemon:
  // writes already use MSG_NOSIGNAL, this covers any other stray pipe.
  std::signal(SIGPIPE, SIG_IGN);
  struct sigaction sa {};
  sa.sa_handler = on_signal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  serve::JobServer server(std::move(opts));
  try {
    server.start();
  } catch (const Error& e) {
    std::fprintf(stderr, "pfc_served: %s\n", e.what());
    return 1;
  }
  const serve::ServeOptions& o = server.options();
  if (!port_file.empty() && server.tcp_bound_port() > 0) {
    if (std::FILE* f = std::fopen(port_file.c_str(), "w")) {
      std::fprintf(f, "%d\n", server.tcp_bound_port());
      std::fclose(f);
    } else {
      std::fprintf(stderr, "pfc_served: cannot write %s\n",
                   port_file.c_str());
      return 1;
    }
  }
  if (!o.quiet) {
    std::vector<obs::log::Field> fields = {
        {"socket", obs::Json(o.socket_path)},
        {"workers", obs::Json(o.workers)},
        {"cache", obs::Json(o.cache.directory.empty() ? std::string("off")
                                                      : o.cache.directory)}};
    if (server.tcp_bound_port() > 0) {
      fields.push_back({"tcp_port", obs::Json(server.tcp_bound_port())});
    }
    if (o.watchdog_seconds > 0.0) {
      fields.push_back({"watchdog_seconds", obs::Json(o.watchdog_seconds)});
    }
    obs::log::info("pfc_served", "listening", fields);
  }

  // Foreground loop: a shutdown op stops the server from inside; SIGTERM/
  // SIGINT land here and drain gracefully (stop accepting, give in-flight
  // jobs --drain-seconds, cancel the rest, flush, exit 0).
  for (;;) {
    if (server.wait_for(0.2)) {
      server.wait();
      break;
    }
    if (g_signal != 0) {
      if (!o.quiet) {
        obs::log::info("pfc_served", "signal received, draining",
                       {{"signal", obs::Json(int(g_signal))}});
      }
      server.drain_and_stop();
      break;
    }
  }
  if (!o.quiet) obs::log::info("pfc_served", "shut down");
  return 0;
}
