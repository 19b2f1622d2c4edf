#!/usr/bin/env bash
# Serve round-trip ctest: start pfc_served on a private socket with a fresh
# kernel-cache directory, run pfc_servectl selftest (submit the same spec
# twice, verify the second job is a kernel-cache hit with near-zero compile
# time and all runs are bitwise-identical), follow a third job's live
# progress stream, dump the telemetry snapshot (metrics.json) and the
# Prometheus exposition (metrics.prom) for the fixture-chained report_check
# tests, then shut the daemon down.
#
#   serve_roundtrip.sh <pfc_served> <pfc_servectl> <jobspec.json> <workdir>
set -u

SERVED=$1
SERVECTL=$2
JOBSPEC=$3
WORKDIR=$4

rm -rf "$WORKDIR"
mkdir -p "$WORKDIR"
SOCKET="$WORKDIR/serve.sock"

"$SERVED" --socket="$SOCKET" --workers=2 \
  --cache-dir="$WORKDIR/kernel_cache" --cache-mb=64 \
  --log-file="$WORKDIR/served.log" --log-level=info &
SERVED_PID=$!
trap 'kill "$SERVED_PID" 2>/dev/null; wait "$SERVED_PID" 2>/dev/null' EXIT

# Wait for the socket to come up (the daemon binds before it logs).
for _ in $(seq 1 100); do
  [ -S "$SOCKET" ] && break
  sleep 0.1
done
if ! [ -S "$SOCKET" ]; then
  echo "serve_roundtrip: daemon never bound $SOCKET" >&2
  exit 1
fi

"$SERVECTL" --socket="$SOCKET" ping || exit 1
"$SERVECTL" --socket="$SOCKET" selftest "$JOBSPEC"
STATUS=$?

# Third job with --follow: the daemon must stream live progress events and
# the client render them one line each ("... step N/M ...").
"$SERVECTL" --socket="$SOCKET" submit --follow "$JOBSPEC" \
  >"$WORKDIR/follow.out" 2>"$WORKDIR/follow.err"
if [ $? -ne 0 ]; then
  echo "serve_roundtrip: follow submit failed" >&2
  cat "$WORKDIR/follow.err" >&2
  exit 1
fi
STEPS=$(sed -n 's/.* step \([0-9][0-9]*\)\/[0-9].*/\1/p' "$WORKDIR/follow.err")
NPROGRESS=$(printf '%s\n' "$STEPS" | sed '/^$/d' | wc -l)
if [ "$NPROGRESS" -lt 3 ]; then
  echo "serve_roundtrip: expected >= 3 progress lines, got $NPROGRESS" >&2
  cat "$WORKDIR/follow.err" >&2
  exit 1
fi
SORTED=$(printf '%s\n' "$STEPS" | sed '/^$/d' | sort -n)
if [ "$STEPS" != "$SORTED" ]; then
  echo "serve_roundtrip: progress steps not monotone:" >&2
  printf '%s\n' "$STEPS" >&2
  exit 1
fi

# Dump both exposition formats while the daemon is still up; the
# metrics_schema_valid / prom_lint ctests validate these files.
"$SERVECTL" --socket="$SOCKET" metrics >"$WORKDIR/metrics.json" || exit 1
"$SERVECTL" --socket="$SOCKET" metrics --text >"$WORKDIR/metrics.prom" || exit 1

"$SERVECTL" --socket="$SOCKET" shutdown || exit 1
wait "$SERVED_PID"
DAEMON_STATUS=$?
trap - EXIT

if [ "$STATUS" -ne 0 ]; then
  echo "serve_roundtrip: selftest failed" >&2
  exit "$STATUS"
fi
if [ "$DAEMON_STATUS" -ne 0 ]; then
  echo "serve_roundtrip: daemon exited with $DAEMON_STATUS" >&2
  exit 1
fi

# Structured log: non-empty JSON-lines file with the expected keys and a
# job correlation id from at least one per-job record.
if ! [ -s "$WORKDIR/served.log" ]; then
  echo "serve_roundtrip: structured log is empty" >&2
  exit 1
fi
if ! grep -q '"component":"pfc_served"' "$WORKDIR/served.log"; then
  echo "serve_roundtrip: structured log lacks component field" >&2
  exit 1
fi
if ! grep -q '"correlation_id":"job-' "$WORKDIR/served.log"; then
  echo "serve_roundtrip: structured log lacks job correlation ids" >&2
  exit 1
fi

# Graceful signal handling: a second daemon gets SIGTERM instead of the
# shutdown op and must drain cleanly — exit code 0, no crash, no hang.
SOCKET2="$WORKDIR/serve2.sock"
"$SERVED" --socket="$SOCKET2" --workers=1 --drain-seconds=2 \
  --log-file="$WORKDIR/served2.log" --log-level=info &
SERVED2_PID=$!
# Until the SIGTERM check has reaped it, every exit stops this daemon too:
# a stray daemon keeps ctest's output pipe open, and ctest waits on it.
trap 'kill -KILL "$SERVED2_PID" 2>/dev/null; wait "$SERVED2_PID" 2>/dev/null' EXIT
for _ in $(seq 1 100); do
  [ -S "$SOCKET2" ] && break
  sleep 0.1
done
if ! [ -S "$SOCKET2" ]; then
  echo "serve_roundtrip: second daemon never bound $SOCKET2" >&2
  exit 1
fi
"$SERVECTL" --socket="$SOCKET2" ping >/dev/null || exit 1
kill -TERM "$SERVED2_PID"
# A drain that never ends fails the test instead of hanging it.
for _ in $(seq 1 200); do
  kill -0 "$SERVED2_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVED2_PID" 2>/dev/null; then
  echo "serve_roundtrip: daemon still running 20 s after SIGTERM" >&2
  exit 1
fi
wait "$SERVED2_PID"
SIGTERM_STATUS=$?
trap - EXIT
if [ "$SIGTERM_STATUS" -ne 0 ]; then
  echo "serve_roundtrip: SIGTERM shutdown exited $SIGTERM_STATUS (want 0)" >&2
  exit 1
fi
if [ -S "$SOCKET2" ]; then
  echo "serve_roundtrip: daemon left $SOCKET2 behind after SIGTERM" >&2
  exit 1
fi
echo "serve_roundtrip: OK ($NPROGRESS progress events, SIGTERM clean)"
