#!/usr/bin/env bash
# Serve hardening acceptance ctest (DESIGN.md §12), end to end over TCP:
#
#   1. queue fills      -> submit past --max-queue gets a "rejected" event
#   2. cancel           -> a running job stops within one step cadence on
#                          `pfc_servectl cancel` (queued jobs cancel too)
#   3. deadline         -> a 1 s-deadline job ends with "deadline_exceeded"
#   4. watchdog         -> --fault=hang-worker@N hangs a worker; the
#                          watchdog kills the job, the daemon then
#                          completes a fresh job on the replacement worker
#   5. metrics          -> the new counter families are nonzero in
#                          metrics.json, validated by report_check --metrics
#   6. SIGTERM          -> graceful drain, exit 0
#
# Job ids are deterministic (sequential, rejected submits allocate none):
#   1 warm  2 long-cancel  3+4 queued  5 deadline  6 hang  7 fresh
#
#   serve_harden.sh <pfc_served> <pfc_servectl> <report_check> <workdir>
set -u

SERVED=$1
SERVECTL=$2
REPORT_CHECK=$3
WORKDIR=$4

rm -rf "$WORKDIR"
mkdir -p "$WORKDIR"
SOCKET="$WORKDIR/serve.sock"
PORTFILE="$WORKDIR/tcp.port"

fail() {
  echo "serve_harden: $*" >&2
  [ -f "$WORKDIR/served.log" ] && tail -n 40 "$WORKDIR/served.log" >&2
  exit 1
}

# Polls `grep -q "$2" $1` for up to ~30 s.
wait_grep() {
  for _ in $(seq 1 300); do
    [ -f "$1" ] && grep -q "$2" "$1" && return 0
    sleep 0.1
  done
  return 1
}

# Jobspecs: "warm" finishes in well under a second (and pre-warms the
# kernel cache so later compiles are instant); "long" never finishes on
# its own within this test's lifetime.
spec() { # name steps extra-keys...
  local name=$1 steps=$2 extra=${3:-}
  cat >"$WORKDIR/$name.json" <<EOF
{
  "schema": "pfc-jobspec-v2",
  "name": "$name",
  "model": { "preset": "two_phase", "dims": 2, "overrides": { "dt": 0.01 } },
  "initial": { "kind": "disk" },
  "steps": $steps${extra:+,
  $extra}
}
EOF
}
spec warm 30
spec long 2000000
spec deadline 2000000 '"deadline_seconds": 1.0'

# Pre-warm the kernel cache with a throwaway daemon so the hardened
# daemon's watchdog — armed from its very first job — never races a cold
# JIT compile (the heartbeat starts with the first progress sample).
"$SERVED" --socket="$WORKDIR/warm.sock" --workers=1 \
  --cache-dir="$WORKDIR/kernel_cache" --cache-mb=64 \
  --log-file="$WORKDIR/warm.log" --log-level=warn &
WARM_PID=$!
trap 'kill "$WARM_PID" 2>/dev/null; wait "$WARM_PID" 2>/dev/null' EXIT
for _ in $(seq 1 300); do
  [ -S "$WORKDIR/warm.sock" ] && break
  sleep 0.1
done
"$SERVECTL" --socket="$WORKDIR/warm.sock" --timeout-seconds=120 --retries=5 \
  submit "$WORKDIR/warm.json" >/dev/null 2>&1 || fail "cache warm-up failed"
"$SERVECTL" --socket="$WORKDIR/warm.sock" shutdown >/dev/null \
  || fail "warm-up daemon shutdown failed"
wait "$WARM_PID" || fail "warm-up daemon exited non-zero"

# One worker + tiny queue so admission control is easy to saturate; the
# watchdog and per-connection io deadlines armed; job 6 hangs its worker.
"$SERVED" --socket="$SOCKET" --tcp-port=0 --tcp-host=127.0.0.1 \
  --port-file="$PORTFILE" --workers=1 --max-queue=2 \
  --watchdog-seconds=2 --io-timeout-seconds=30 --drain-seconds=2 \
  --fault=hang-worker@6 --progress-every=200 \
  --cache-dir="$WORKDIR/kernel_cache" --cache-mb=64 \
  --log-file="$WORKDIR/served.log" --log-level=info &
SERVED_PID=$!
trap 'kill "$SERVED_PID" 2>/dev/null; wait "$SERVED_PID" 2>/dev/null' EXIT

wait_grep "$PORTFILE" '[0-9]' || fail "daemon never wrote $PORTFILE"
PORT=$(cat "$PORTFILE")
CTL=("$SERVECTL" "--socket=tcp:127.0.0.1:$PORT" "--timeout-seconds=60" \
     "--retries=5")

"${CTL[@]}" ping >/dev/null || fail "ping over tcp failed"

# --- 0. warm job (id 1): the happy path over TCP (kernel-cache hit) ---------
"${CTL[@]}" submit "$WORKDIR/warm.json" >"$WORKDIR/job1.out" 2>/dev/null \
  || fail "warm job failed: $(cat "$WORKDIR/job1.out")"
grep -q '"finished"' "$WORKDIR/job1.out" || fail "warm job not finished"

# --- 1. saturate: 1 running + 2 queued, then the queue-full rejection -------
"${CTL[@]}" submit "$WORKDIR/long.json" \
  >"$WORKDIR/job2.out" 2>"$WORKDIR/job2.err" &
JOB2_PID=$!
wait_grep "$WORKDIR/job2.err" '"started"' || fail "job 2 never started"
"${CTL[@]}" submit "$WORKDIR/long.json" \
  >"$WORKDIR/job3.out" 2>"$WORKDIR/job3.err" &
JOB3_PID=$!
wait_grep "$WORKDIR/job3.err" '"accepted"' || fail "job 3 never accepted"
"${CTL[@]}" submit "$WORKDIR/long.json" \
  >"$WORKDIR/job4.out" 2>"$WORKDIR/job4.err" &
JOB4_PID=$!
wait_grep "$WORKDIR/job4.err" '"accepted"' || fail "job 4 never accepted"

"${CTL[@]}" submit "$WORKDIR/long.json" >"$WORKDIR/reject.out" 2>/dev/null
[ $? -eq 1 ] || fail "over-quota submit should exit 1"
grep -q '"rejected"' "$WORKDIR/reject.out" || fail "expected a rejected event"
grep -q 'queue full' "$WORKDIR/reject.out" || fail "expected a queue-full reason"

# Live snapshot while 3 jobs are in flight: the per-tenant gauge is hot.
"${CTL[@]}" metrics >"$WORKDIR/metrics_live.json" || fail "metrics (live) failed"
"$REPORT_CHECK" --metrics "$WORKDIR/metrics_live.json" \
  pfc_tenant_inflight >/dev/null || fail "live metrics validation failed"

# --- 2. cancel: queued jobs drop instantly, the running one within a step ---
"${CTL[@]}" cancel 3 >"$WORKDIR/cancel3.out" || fail "cancel 3 failed"
grep -q '"state":"cancelled"' "$WORKDIR/cancel3.out" \
  || fail "queued cancel should ack cancelled: $(cat "$WORKDIR/cancel3.out")"
"${CTL[@]}" cancel 4 >"$WORKDIR/cancel4.out" || fail "cancel 4 failed"

SECONDS=0
"${CTL[@]}" cancel 2 >"$WORKDIR/cancel2.out" || fail "cancel 2 failed"
grep -q '"state":"cancelling"' "$WORKDIR/cancel2.out" \
  || fail "running cancel should ack cancelling: $(cat "$WORKDIR/cancel2.out")"
wait "$JOB2_PID"
[ $? -eq 1 ] || fail "cancelled job 2 should exit 1"
[ "$SECONDS" -le 15 ] || fail "cancel of running job took ${SECONDS}s"
grep -q '"cancelled"' "$WORKDIR/job2.out" || fail "job 2 missing cancelled event"
wait "$JOB3_PID" 2>/dev/null
grep -q '"cancelled"' "$WORKDIR/job3.out" || fail "job 3 missing cancelled event"
wait "$JOB4_PID" 2>/dev/null
grep -q '"cancelled"' "$WORKDIR/job4.out" || fail "job 4 missing cancelled event"

# A cancel for an id the daemon never issued errors distinctly.
"${CTL[@]}" cancel 999 >"$WORKDIR/cancel999.out" 2>/dev/null
[ $? -eq 1 ] || fail "cancel of unknown job should exit 1"

# --- 3. deadline (id 5): 1 s wall budget on an endless job ------------------
"${CTL[@]}" submit "$WORKDIR/deadline.json" >"$WORKDIR/job5.out" 2>/dev/null
[ $? -eq 1 ] || fail "deadline job should exit 1"
grep -q '"deadline_exceeded"' "$WORKDIR/job5.out" \
  || fail "job 5 missing deadline_exceeded: $(cat "$WORKDIR/job5.out")"

# --- 4. watchdog (id 6): the worker hangs before running; the monitor kills
# the job, emits the terminal error itself, and a replacement worker takes
# over — proven by the fresh job (id 7) completing afterwards.
"${CTL[@]}" submit "$WORKDIR/warm.json" >"$WORKDIR/job6.out" 2>/dev/null
[ $? -eq 1 ] || fail "hung job should exit 1"
grep -q 'watchdog' "$WORKDIR/job6.out" \
  || fail "job 6 missing watchdog error: $(cat "$WORKDIR/job6.out")"

"${CTL[@]}" submit "$WORKDIR/warm.json" >"$WORKDIR/job7.out" 2>/dev/null \
  || fail "fresh job after watchdog kill failed: $(cat "$WORKDIR/job7.out")"
grep -q '"finished"' "$WORKDIR/job7.out" || fail "job 7 not finished"

# --- 5. metrics: every hardening family moved ------------------------------
"${CTL[@]}" metrics >"$WORKDIR/metrics.json" || fail "metrics dump failed"
"${CTL[@]}" metrics --text >"$WORKDIR/metrics.prom" || fail "prom dump failed"
"$REPORT_CHECK" --metrics "$WORKDIR/metrics.json" \
  pfc_jobs_submitted_total pfc_jobs_rejected_total pfc_jobs_cancelled_total \
  pfc_jobs_deadline_exceeded_total pfc_jobs_watchdog_killed_total \
  >/dev/null || fail "final metrics validation failed"

# --- 6. graceful SIGTERM: drain and exit 0 ---------------------------------
kill -TERM "$SERVED_PID"
wait "$SERVED_PID"
DAEMON_STATUS=$?
trap - EXIT
[ "$DAEMON_STATUS" -eq 0 ] || fail "daemon exited $DAEMON_STATUS on SIGTERM"
grep -q 'drain' "$WORKDIR/served.log" || fail "daemon log missing drain record"

echo "serve_harden: OK (reject, cancel, deadline, watchdog, metrics, sigterm)"
