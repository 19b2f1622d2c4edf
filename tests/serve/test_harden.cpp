// Hardening layer of the serve daemon (DESIGN.md §12): admission control
// and per-tenant quotas, cooperative cancellation (client, deadline,
// shutdown), the hung-job watchdog, the TCP transport, and the
// deterministic fault-injection plans that make every recovery path a
// plain ctest. The three cancel paths are driven end to end through real
// sockets; the daemon must survive every abuse here and still answer a
// ping afterwards.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "pfc/app/cancel.hpp"
#include "pfc/app/jobspec.hpp"
#include "pfc/backend/kernel_cache.hpp"
#include "pfc/serve/admission.hpp"
#include "pfc/serve/fault.hpp"
#include "pfc/serve/server.hpp"
#include "pfc/serve/transport.hpp"

#include "serve_testutil.hpp"

namespace pfc::serve {
namespace {

using obs::Json;

/// Polls `pred` every 10 ms for up to `seconds`; true when it held.
bool eventually(double seconds, const std::function<bool()>& pred) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

/// State of job `id` in the server's snapshot ("" when unknown).
std::string state_of(const JobServer& server, long long id) {
  for (const JobStatus& s : server.jobs()) {
    if (s.id == id) return s.state;
  }
  return "";
}

const Json& field(const Json& j, const char* key) {
  const Json* v = j.find(key);
  EXPECT_NE(v, nullptr) << "missing \"" << key << "\" in " << j.dump(-1);
  static const Json null_json;
  return v != nullptr ? *v : null_json;
}

/// A job small enough to finish in well under a second.
app::JobSpec quick_spec(const std::string& name) {
  app::JobSpec spec;
  spec.name = name;
  spec.steps = 3;
  spec.simulation.cells = {32, 32, 1};
  spec.simulation.threads = 1;
  return spec;
}

/// A job that runs for many seconds unless cancelled — the cancel token
/// is checked every step, so it stops within one step cadence.
app::JobSpec long_spec(const std::string& name) {
  app::JobSpec spec = quick_spec(name);
  spec.steps = 4000000;
  spec.progress_every = 1000;
  return spec;
}

ServeOptions quiet_options(const std::string& dir) {
  ServeOptions opts;
  opts.socket_path = dir + "/serve.sock";
  opts.workers = 1;
  opts.quiet = true;
  opts.monitor_period_seconds = 0.05;
  return opts;
}

/// Compiles quick_spec's kernels into `dir`/cache via a throwaway daemon.
/// Tests that arm a sub-second watchdog must pre-warm: the heartbeat only
/// starts with the first progress sample, so a cold JIT compile on a
/// loaded CI box would be indistinguishable from a hung worker — which is
/// exactly the documented ServeOptions::watchdog_seconds contract.
void warm_kernel_cache(const std::string& dir) {
  ServeOptions opts = quiet_options(dir);
  opts.socket_path = dir + "/warm.sock";
  opts.cache.directory = dir + "/cache";
  JobServer server(opts);
  server.start();
  Client client(opts.socket_path);
  const Json terminal = client.submit(quick_spec("cache-warm").to_json());
  ASSERT_EQ(terminal.find("event")->str(), "finished") << terminal.dump(-1);
  server.stop();
}

/// Runs client.submit on a background thread, capturing the terminal
/// event; join() before reading it.
struct AsyncSubmit {
  AsyncSubmit(const std::string& endpoint, const Json& spec)
      : thread([this, endpoint, spec] {
          try {
            Client client(endpoint);
            terminal = client.submit(spec);
          } catch (const Error& e) {
            error = e.what();
          }
        }) {}
  ~AsyncSubmit() {
    if (thread.joinable()) thread.join();
  }
  void join() { thread.join(); }

  Json terminal;
  std::string error;
  std::thread thread;
};

// --- fault plans -------------------------------------------------------------

TEST(HardenFault, ParsesEveryClause) {
  EXPECT_FALSE(ServeFaultPlan::parse("").any());
  const ServeFaultPlan one = ServeFaultPlan::parse("hang-worker");
  EXPECT_EQ(one.hang_job, 1);
  const ServeFaultPlan all = ServeFaultPlan::parse(
      "hang-worker@7, delay-ms=40, drop-connection@3, partial-write");
  EXPECT_EQ(all.hang_job, 7);
  EXPECT_EQ(all.delay_ms, 40);
  EXPECT_EQ(all.drop_after_writes, 3);
  EXPECT_TRUE(all.partial_write);
  EXPECT_TRUE(all.any());
}

TEST(HardenFault, RejectsJunkNamingTheClause) {
  EXPECT_THROW(ServeFaultPlan::parse("wibble"), Error);
  EXPECT_THROW(ServeFaultPlan::parse("delay-ms=soon"), Error);
  EXPECT_THROW(ServeFaultPlan::parse("hang-worker@"), Error);
  try {
    ServeFaultPlan::parse("delay-ms=40,wobble");
    FAIL() << "expected a parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("wobble"), std::string::npos);
  }
}

TEST(HardenFault, CooperativeHangEndsOnToken) {
  app::CancelToken token;
  std::thread killer([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token.request(app::CancelKind::Watchdog, "test");
  });
  EXPECT_TRUE(hang_until_cancelled(&token, 10.0));
  killer.join();
  EXPECT_FALSE(hang_until_cancelled(nullptr, 0.05));  // deadline path
}

// --- transport ---------------------------------------------------------------

TEST(HardenTransport, EndpointGrammar) {
  const Endpoint bare = parse_endpoint("a/b.sock");
  EXPECT_EQ(bare.kind, Endpoint::Kind::Unix);
  EXPECT_EQ(bare.path, "a/b.sock");
  const Endpoint ux = parse_endpoint("unix:/tmp/x.sock");
  EXPECT_EQ(ux.kind, Endpoint::Kind::Unix);
  EXPECT_EQ(ux.path, "/tmp/x.sock");
  const Endpoint tcp = parse_endpoint("tcp:localhost:1234");
  EXPECT_EQ(tcp.kind, Endpoint::Kind::Tcp);
  EXPECT_EQ(tcp.host, "localhost");
  EXPECT_EQ(tcp.port, 1234);
  const Endpoint wild = parse_endpoint("tcp::0");
  EXPECT_EQ(wild.host, "");
  EXPECT_EQ(wild.port, 0);
  EXPECT_THROW(parse_endpoint(""), Error);
  EXPECT_THROW(parse_endpoint("tcp:h:notaport"), Error);
  EXPECT_THROW(parse_endpoint("tcp:h:70000"), Error);
}

TEST(HardenTransport, RetryBackoffDeterministicWithJitter) {
  RetryPolicy policy;
  policy.attempts = 6;
  policy.backoff_initial_seconds = 0.05;
  policy.backoff_max_seconds = 0.4;
  double base = 0.05;
  for (int k = 0; k < 5; ++k) {
    const double s = retry_backoff_seconds(policy, k);
    EXPECT_EQ(s, retry_backoff_seconds(policy, k)) << "must be deterministic";
    EXPECT_GE(s, base);
    EXPECT_LT(s, base * 1.25) << "jitter stays in [1, 1.25)";
    base = std::min(base * 2.0, 0.4);
  }
}

TEST(HardenTransport, ConnectRefusedIsConnectError) {
  TempDir tmp;
  ClientOptions copts;
  copts.retries = 2;
  copts.backoff_initial_seconds = 0.01;
  Client client(tmp.path + "/nobody-home.sock", copts);
  EXPECT_THROW(client.ping(), ConnectError);
}

// --- admission control -------------------------------------------------------

TEST(HardenAdmission, QueueBoundAndTenantQuotas) {
  AdmissionLimits limits;
  limits.max_queue = 2;
  limits.tenant_max_running = 1;
  AdmissionControl ac(limits);
  std::string reason;
  EXPECT_TRUE(ac.try_admit("a", &reason));
  EXPECT_TRUE(ac.try_admit("a", &reason));
  EXPECT_FALSE(ac.try_admit("b", &reason)) << "total queue bound";
  EXPECT_NE(reason.find("queue full"), std::string::npos) << reason;

  // The running quota gates dispatch, not admission.
  EXPECT_TRUE(ac.can_start("a"));
  ac.on_start("a");
  EXPECT_FALSE(ac.can_start("a")) << "tenant at its concurrency limit";
  EXPECT_TRUE(ac.can_start("b"));
  ac.on_release("a");
  EXPECT_TRUE(ac.can_start("a"));
  EXPECT_EQ(ac.queued_total(), 1);
  EXPECT_EQ(ac.running_total(), 0);
  ac.on_discard("a");
  EXPECT_EQ(ac.queued_total(), 0);
}

TEST(HardenAdmission, PerTenantQueuedQuota) {
  AdmissionLimits limits;
  limits.tenant_max_queued = 1;
  AdmissionControl ac(limits);
  std::string reason;
  EXPECT_TRUE(ac.try_admit("a", &reason));
  EXPECT_FALSE(ac.try_admit("a", &reason));
  EXPECT_NE(reason.find("queued quota"), std::string::npos) << reason;
  EXPECT_TRUE(ac.try_admit("b", &reason)) << "quota is per tenant";
}

// --- cancellation matrix -----------------------------------------------------

TEST(HardenCancel, QueuedRunningAndFinishedJobs) {
  TempDir tmp;
  ServeOptions opts = quiet_options(tmp.path);
  JobServer server(opts);
  server.start();
  Client client(opts.socket_path);

  // Job 1 finishes; cancelling it afterwards acks its terminal state.
  ASSERT_EQ(field(client.submit(quick_spec("warm").to_json()), "event").str(),
            "finished");
  const Json done_ack = client.cancel(1);
  EXPECT_EQ(field(done_ack, "event").str(), "cancel_ack");
  EXPECT_EQ(field(done_ack, "state").str(), "finished");

  // Job 2 runs for minutes unless cancelled; job 3 sits behind it in the
  // queue (one worker).
  AsyncSubmit running(opts.socket_path, long_spec("long-running").to_json());
  ASSERT_TRUE(eventually(
      30.0, [&] { return state_of(server, 2) == "running"; }));
  AsyncSubmit queued(opts.socket_path, long_spec("stuck-behind").to_json());
  ASSERT_TRUE(eventually(
      10.0, [&] { return state_of(server, 3) == "queued"; }));

  // Cancel of a queued job is immediate: ack "cancelled", terminal event
  // on the submitter's stream, no worker ever touches it.
  const Json qack = client.cancel(3);
  EXPECT_EQ(field(qack, "event").str(), "cancel_ack");
  EXPECT_EQ(field(qack, "state").str(), "cancelled");
  queued.join();
  ASSERT_TRUE(queued.error.empty()) << queued.error;
  EXPECT_EQ(field(queued.terminal, "event").str(), "cancelled");
  EXPECT_EQ(state_of(server, 3), "cancelled");

  // Cancel of the running job acks "cancelling" and lands within one step
  // cadence — the token is checked every step.
  const auto t0 = std::chrono::steady_clock::now();
  const Json rack = client.cancel(2);
  EXPECT_EQ(field(rack, "event").str(), "cancel_ack");
  EXPECT_EQ(field(rack, "state").str(), "cancelling");
  running.join();
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_TRUE(running.error.empty()) << running.error;
  EXPECT_EQ(field(running.terminal, "event").str(), "cancelled");
  EXPECT_NE(field(running.terminal, "reason").str().find("client"),
            std::string::npos);
  EXPECT_LT(took, 10.0) << "cancel must not wait for the job to finish";
  EXPECT_EQ(state_of(server, 2), "cancelled");

  // Unknown ids are an error event, not a crash.
  EXPECT_EQ(field(client.cancel(999), "event").str(), "error");
  EXPECT_EQ(field(client.ping(), "event").str(), "pong");
  server.stop();
}

// --- deadlines ---------------------------------------------------------------

TEST(HardenDeadline, RunningJobExpiresAtStepGranularity) {
  TempDir tmp;
  ServeOptions opts = quiet_options(tmp.path);
  JobServer server(opts);
  server.start();
  Client client(opts.socket_path);

  app::JobSpec spec = long_spec("endless");
  spec.deadline_seconds = 0.4;
  const Json terminal = client.submit(spec.to_json());
  EXPECT_EQ(field(terminal, "event").str(), "deadline_exceeded")
      << terminal.dump(-1);
  EXPECT_NE(field(terminal, "reason").str().find("deadline"),
            std::string::npos);
  EXPECT_EQ(state_of(server, 1), "deadline_exceeded");
  EXPECT_EQ(field(client.ping(), "event").str(), "pong");
  server.stop();
}

TEST(HardenDeadline, ShorterThanCompileStillExpires) {
  // delay-ms stands in for a slow cold JIT compile: the deadline elapses
  // before the first step ever runs, and must still win.
  TempDir tmp;
  ServeOptions opts = quiet_options(tmp.path);
  opts.fault = "delay-ms=800";
  JobServer server(opts);
  server.start();
  Client client(opts.socket_path);

  app::JobSpec spec = quick_spec("slow-compile");
  spec.deadline_seconds = 0.2;
  const Json terminal = client.submit(spec.to_json());
  EXPECT_EQ(field(terminal, "event").str(), "deadline_exceeded")
      << terminal.dump(-1);
  server.stop();
}

// --- per-tenant quota cycle --------------------------------------------------

TEST(HardenQuota, ExhaustionGatesDispatchUntilRelease) {
  TempDir tmp;
  ServeOptions opts = quiet_options(tmp.path);
  opts.workers = 2;
  opts.admission.tenant_max_running = 1;
  JobServer server(opts);
  server.start();
  Client client(opts.socket_path);

  // Tenant "acme" may only run one job at a time: the second is admitted
  // but waits in the queue even though a worker is idle.
  app::JobSpec first = long_spec("acme-1");
  first.tenant = "acme";
  AsyncSubmit running(opts.socket_path, first.to_json());
  ASSERT_TRUE(eventually(
      30.0, [&] { return state_of(server, 1) == "running"; }));

  app::JobSpec second = quick_spec("acme-2");
  second.tenant = "acme";
  AsyncSubmit waiting(opts.socket_path, second.to_json());
  ASSERT_TRUE(eventually(
      10.0, [&] { return state_of(server, 2) == "queued"; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(state_of(server, 2), "queued")
      << "second acme job must not start while the first runs";

  // Another tenant is not affected by acme's quota.
  app::JobSpec other = quick_spec("globex-1");
  other.tenant = "globex";
  const Json other_terminal = Client(opts.socket_path).submit(other.to_json());
  EXPECT_EQ(field(other_terminal, "event").str(), "finished");
  EXPECT_EQ(state_of(server, 2), "queued");

  // Releasing the slot (cancel) lets the queued job through.
  EXPECT_EQ(field(client.cancel(1), "event").str(), "cancel_ack");
  running.join();
  waiting.join();
  ASSERT_TRUE(waiting.error.empty()) << waiting.error;
  EXPECT_EQ(field(waiting.terminal, "event").str(), "finished");
  server.stop();
}

TEST(HardenQuota, FullQueueShedsWithRejectedEvent) {
  TempDir tmp;
  ServeOptions opts = quiet_options(tmp.path);
  opts.admission.max_queue = 1;
  JobServer server(opts);
  server.start();
  Client client(opts.socket_path);

  AsyncSubmit running(opts.socket_path, long_spec("hog").to_json());
  ASSERT_TRUE(eventually(
      30.0, [&] { return state_of(server, 1) == "running"; }));
  AsyncSubmit queued(opts.socket_path, long_spec("last-slot").to_json());
  ASSERT_TRUE(eventually(
      10.0, [&] { return state_of(server, 2) == "queued"; }));

  // The queue is full: the next submit is shed with an explicit reason and
  // allocates no job id or status entry.
  const Json rejected = client.submit(long_spec("overflow").to_json());
  EXPECT_EQ(field(rejected, "event").str(), "rejected");
  EXPECT_NE(field(rejected, "reason").str().find("queue full"),
            std::string::npos);
  EXPECT_EQ(server.jobs().size(), 2u);

  client.cancel(2);
  client.cancel(1);
  running.join();
  queued.join();
  server.stop();
}

// --- watchdog ----------------------------------------------------------------

TEST(HardenWatchdog, KillsHungJobAndDaemonRecovers) {
  TempDir tmp;
  warm_kernel_cache(tmp.path);  // the fresh job must outrun the watchdog
  ServeOptions opts = quiet_options(tmp.path);
  opts.cache.directory = tmp.path + "/cache";
  opts.fault = "hang-worker@1";  // job 1's worker wedges before running
  opts.watchdog_seconds = 0.5;
  JobServer server(opts);
  server.start();
  Client client(opts.socket_path);

  const Json terminal = client.submit(quick_spec("wedged").to_json());
  EXPECT_EQ(field(terminal, "event").str(), "error") << terminal.dump(-1);
  EXPECT_NE(field(terminal, "message").str().find("watchdog"),
            std::string::npos);
  EXPECT_EQ(state_of(server, 1), "failed");

  // The replacement worker keeps the pool at full strength: a fresh job
  // must complete even though the original worker retired.
  const Json fresh = client.submit(quick_spec("fresh").to_json());
  EXPECT_EQ(field(fresh, "event").str(), "finished") << fresh.dump(-1);
  server.stop();
}

// --- client loss & stream faults --------------------------------------------

TEST(HardenStream, ClientVanishingMidStreamDoesNotKillDaemon) {
  // The SIGPIPE regression: connect raw, submit, read up to "started",
  // then slam the connection shut. Every later progress/terminal write
  // hits a dead peer (EPIPE) and the daemon must shrug it off.
  TempDir tmp;
  ServeOptions opts = quiet_options(tmp.path);
  JobServer server(opts);
  server.start();

  app::JobSpec spec = quick_spec("orphaned");
  spec.steps = 400;
  spec.progress_every = 10;
  std::string err;
  const Json request = Json::parse(
      "{\"op\":\"submit\",\"spec\":" + spec.to_json().dump(-1) + "}", &err);
  ASSERT_TRUE(err.empty()) << err;

  {
    Endpoint ep;
    ep.kind = Endpoint::Kind::Unix;
    ep.path = opts.socket_path;
    LineChannel conn(connect_endpoint(ep));
    ASSERT_TRUE(conn.write_json(request));
    bool started = false;
    for (int i = 0; i < 8 && !started; ++i) {
      const Json ev = conn.read_json();
      ASSERT_TRUE(ev.is_object()) << "stream ended before started";
      started = field(ev, "event").str() == "started";
    }
    ASSERT_TRUE(started);
  }  // ~LineChannel: the client vanishes mid-stream

  ASSERT_TRUE(eventually(
      30.0, [&] { return state_of(server, 1) == "finished"; }))
      << "job must run to completion for a vanished submitter";
  Client client(opts.socket_path);
  EXPECT_EQ(field(client.ping(), "event").str(), "pong");
  server.stop();
}

TEST(HardenStream, DropConnectionFaultJobStillCompletes) {
  // Same scenario from the daemon's side: the fault closes the event
  // stream after 2 writes (accepted, started). The client sees a torn
  // stream (ProtocolError), the job still finishes.
  TempDir tmp;
  ServeOptions opts = quiet_options(tmp.path);
  opts.fault = "drop-connection@2";
  JobServer server(opts);
  server.start();

  Client client(opts.socket_path);
  EXPECT_THROW(client.submit(quick_spec("dropped").to_json()), ProtocolError);
  EXPECT_TRUE(eventually(
      30.0, [&] { return state_of(server, 1) == "finished"; }));
  server.stop();
}

TEST(HardenStream, PartialWriteFaultReassemblesCleanly) {
  TempDir tmp;
  ServeOptions opts = quiet_options(tmp.path);
  opts.fault = "partial-write";
  JobServer server(opts);
  server.start();
  Client client(opts.socket_path);
  const Json terminal = client.submit(quick_spec("torn-frames").to_json());
  EXPECT_EQ(field(terminal, "event").str(), "finished") << terminal.dump(-1);
  server.stop();
}

// --- TCP & slow-loris --------------------------------------------------------

TEST(HardenTcp, EphemeralPortRoundTrip) {
  TempDir tmp;
  ServeOptions opts = quiet_options(tmp.path);
  opts.tcp_port = 0;  // kernel picks; tcp_bound_port() reports
  opts.tcp_host = "127.0.0.1";
  JobServer server(opts);
  server.start();
  ASSERT_GT(server.tcp_bound_port(), 0);

  Client tcp_client("tcp:127.0.0.1:" + std::to_string(server.tcp_bound_port()));
  EXPECT_EQ(field(tcp_client.ping(), "event").str(), "pong");
  const Json terminal = tcp_client.submit(quick_spec("over-tcp").to_json());
  EXPECT_EQ(field(terminal, "event").str(), "finished") << terminal.dump(-1);

  // The Unix socket keeps working next to the TCP listener.
  Client unix_client(opts.socket_path);
  EXPECT_EQ(field(unix_client.ping(), "event").str(), "pong");
  server.stop();
}

TEST(HardenTcp, SlowLorisConnectionIsDroppedDaemonLives) {
  TempDir tmp;
  ServeOptions opts = quiet_options(tmp.path);
  opts.io_timeout_seconds = 0.3;
  JobServer server(opts);
  server.start();

  // Connect and send nothing: the per-connection read deadline must drop
  // us instead of wedging the dispatcher.
  Endpoint ep;
  ep.kind = Endpoint::Kind::Unix;
  ep.path = opts.socket_path;
  LineChannel loris(connect_endpoint(ep));
  set_io_timeout(loris.fd(), 5.0);  // bound our own read below
  std::string line;
  EXPECT_FALSE(loris.read_line(line)) << "expected EOF from the daemon";

  Client client(opts.socket_path);
  EXPECT_EQ(field(client.ping(), "event").str(), "pong");
  server.stop();
}

TEST(HardenTcp, DeeplyNestedRequestIsRefusedDaemonLives) {
  TempDir tmp;
  JobServer server(quiet_options(tmp.path));
  server.start();

  // A 200000-byte line of '[' nests past the JSON parser's depth cap: a
  // bad line that drops this connection, not a stack overflow.
  Endpoint ep;
  ep.kind = Endpoint::Kind::Unix;
  ep.path = tmp.path + "/serve.sock";
  LineChannel deep(connect_endpoint(ep));
  set_io_timeout(deep.fd(), 5.0);
  const std::string request = std::string(200000, '[') + "\n";
  for (std::size_t off = 0; off < request.size();) {
    const ssize_t n = ::send(deep.fd(), request.data() + off,
                             request.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << "send failed";
    off += std::size_t(n);
  }
  std::string line;
  EXPECT_FALSE(deep.read_line(line)) << "expected EOF, got " << line;

  Client client(ep.path);
  EXPECT_EQ(field(client.ping(), "event").str(), "pong");
  server.stop();
}

TEST(HardenTcp, OverlongLineIsRefusedDaemonLives) {
  TempDir tmp;
  JobServer server(quiet_options(tmp.path));
  server.start();

  // One byte past the line cap and no newline: the daemon stops buffering
  // and drops the connection instead of growing without bound.
  Endpoint ep;
  ep.kind = Endpoint::Kind::Unix;
  ep.path = tmp.path + "/serve.sock";
  LineChannel flood(connect_endpoint(ep));
  set_io_timeout(flood.fd(), 5.0);
  const std::string request(kMaxLineBytes + 1, 'x');
  for (std::size_t off = 0; off < request.size();) {
    const ssize_t n = ::send(flood.fd(), request.data() + off,
                             request.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << "send failed";
    off += std::size_t(n);
  }
  std::string line;
  EXPECT_FALSE(flood.read_line(line)) << "expected EOF, got " << line;

  Client client(ep.path);
  EXPECT_EQ(field(client.ping(), "event").str(), "pong");
  server.stop();
}

// --- graceful drain ----------------------------------------------------------

TEST(HardenDrain, CancelsStragglersWithShutdownKind) {
  TempDir tmp;
  ServeOptions opts = quiet_options(tmp.path);
  opts.drain_seconds = 0.2;
  JobServer server(opts);
  server.start();

  AsyncSubmit running(opts.socket_path, long_spec("straggler").to_json());
  ASSERT_TRUE(eventually(
      30.0, [&] { return state_of(server, 1) == "running"; }));
  AsyncSubmit queued(opts.socket_path, long_spec("never-ran").to_json());
  ASSERT_TRUE(eventually(
      10.0, [&] { return state_of(server, 2) == "queued"; }));

  server.drain_and_stop();
  running.join();
  queued.join();
  ASSERT_TRUE(running.error.empty()) << running.error;
  EXPECT_EQ(field(running.terminal, "event").str(), "cancelled");
  EXPECT_NE(field(running.terminal, "reason").str().find("shut"),
            std::string::npos);
  ASSERT_TRUE(queued.error.empty()) << queued.error;
  EXPECT_EQ(field(queued.terminal, "event").str(), "cancelled");
}

// --- metrics -----------------------------------------------------------------

TEST(HardenMetrics, HardeningCountersMove) {
  // One compact overload story so this test stands alone under any
  // --gtest_filter: saturate the queue (reject), cancel a queued and a
  // running job, expire a deadline, hang a worker (watchdog). The shared
  // registry is cumulative, so all assertions are floors.
  TempDir tmp;
  warm_kernel_cache(tmp.path);  // keep the watchdog off honest jobs' backs
  ServeOptions opts = quiet_options(tmp.path);
  opts.cache.directory = tmp.path + "/cache";
  opts.admission.max_queue = 1;
  opts.watchdog_seconds = 0.5;
  opts.fault = "hang-worker@4";
  JobServer server(opts);
  server.start();
  Client client(opts.socket_path);

  AsyncSubmit running(opts.socket_path, long_spec("m-long").to_json());
  ASSERT_TRUE(eventually(
      30.0, [&] { return state_of(server, 1) == "running"; }));
  AsyncSubmit queued(opts.socket_path, long_spec("m-queued").to_json());
  ASSERT_TRUE(eventually(
      10.0, [&] { return state_of(server, 2) == "queued"; }));
  EXPECT_EQ(field(client.submit(long_spec("m-reject").to_json()), "event")
                .str(),
            "rejected");
  EXPECT_EQ(field(client.cancel(2), "event").str(), "cancel_ack");
  EXPECT_EQ(field(client.cancel(1), "event").str(), "cancel_ack");
  running.join();
  queued.join();

  app::JobSpec expiring = long_spec("m-deadline");
  expiring.deadline_seconds = 0.3;
  EXPECT_EQ(field(client.submit(expiring.to_json()), "event").str(),
            "deadline_exceeded");
  const Json hung = client.submit(quick_spec("m-hang").to_json());
  EXPECT_EQ(field(hung, "event").str(), "error") << hung.dump(-1);

  const Json snap = client.metrics();
  const Json& metrics = field(snap, "metrics");
  const auto total = [&](const char* name) {
    const Json* fam = metrics.find(name);
    EXPECT_NE(fam, nullptr) << "missing family " << name;
    if (fam == nullptr) return 0.0;
    double sum = 0.0;
    for (const Json& v : field(*fam, "values").elements()) {
      const Json* value = v.find("value");
      sum += value != nullptr ? value->number() : 0.0;
    }
    return sum;
  };
  EXPECT_GE(total("pfc_jobs_rejected_total"), 1.0);
  EXPECT_GE(total("pfc_jobs_cancelled_total"), 1.0);
  EXPECT_GE(total("pfc_jobs_deadline_exceeded_total"), 1.0);
  EXPECT_GE(total("pfc_jobs_watchdog_killed_total"), 1.0);
  const Json* tenant = metrics.find("pfc_tenant_inflight");
  ASSERT_NE(tenant, nullptr);
  bool labelled = false;
  for (const Json& v : field(*tenant, "values").elements()) {
    const Json* labels = v.find("labels");
    labelled = labelled ||
               (labels != nullptr && labels->find("tenant") != nullptr);
  }
  EXPECT_TRUE(labelled) << "pfc_tenant_inflight must carry a tenant label";
  server.stop();
}

}  // namespace
}  // namespace pfc::serve
