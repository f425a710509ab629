#!/usr/bin/env bash
# Daemon-level crash-restart gate (docs/ANALYSIS.md §11, docs/STORAGE.md).
#
# Drives the durable corona-serverd over real loopback TCP, SIGKILLs it
# mid-flight, restarts it with --recover on the same data directory, and
# asserts the recovery contract end to end:
#   * the restarted daemon reports both recovered groups and >=1 log records;
#   * a fresh client joins the recovered groups;
#   * sequencing RESUMES where the durable log left off, in each group, from
#     the one shared log (group 7's post-crash message gets seq 4 after three
#     pre-crash messages, group 8's gets seq 3 after two — no reset, no gap);
#   * the data directory holds checkpoint files and shared-log segments.
#
# Usage: tools/ci/crash_restart_smoke.sh [build-dir] [port]
set -euo pipefail

BUILD_DIR=${1:-build}
PORT=${2:-7741}
SERVERD="$BUILD_DIR/examples/corona-serverd"
CLIENTD="$BUILD_DIR/examples/corona-clientd"
DATA_DIR=$(mktemp -d /tmp/corona_crash_smoke_data.XXXXXX)
LOG_DIR=$(mktemp -d /tmp/corona_crash_smoke_logs.XXXXXX)
SPID=""
S2PID=""

cleanup() {
  [[ -n "$SPID" ]] && kill -9 "$SPID" 2>/dev/null || true
  [[ -n "$S2PID" ]] && kill -9 "$S2PID" 2>/dev/null || true
  rm -rf "$DATA_DIR" "$LOG_DIR"
}
trap cleanup EXIT

fail() {
  echo "crash-restart: FAIL: $*" >&2
  for f in server1 server2 client1 client2; do
    if [[ -s "$LOG_DIR/$f.log" ]]; then
      echo "--- $f ---" >&2
      cat "$LOG_DIR/$f.log" >&2
    fi
  done
  exit 1
}

[[ -x "$SERVERD" && -x "$CLIENTD" ]] ||
  fail "daemons not built under $BUILD_DIR/examples"

# Life 1: durable server, one client creates a group and sends traffic.
"$SERVERD" --listen "127.0.0.1:$PORT" --data-dir "$DATA_DIR" \
  --flush-ms 20 --checkpoint-every 8 >"$LOG_DIR/server1.log" 2>&1 &
SPID=$!
sleep 1
{
  echo "create 7"; echo "create 8"; sleep 0.5
  echo "join 7"; echo "join 8"; sleep 0.5
  echo "send 7 1 pre-crash-one"
  echo "send 8 1 pre-crash-eight-one"
  echo "send 7 1 pre-crash-two"
  echo "send 8 2 pre-crash-eight-two"
  echo "send 7 2 pre-crash-three"
  sleep 1
} | timeout 60 "$CLIENTD" --server "127.0.0.1:$PORT" --node 100 \
  >"$LOG_DIR/client1.log" 2>&1 || fail "client 1 did not run to completion"
grep -q '\[deliver\] group 7 seq 3' "$LOG_DIR/client1.log" ||
  fail "pre-crash deliveries did not reach the client"
grep -q '\[deliver\] group 8 seq 2' "$LOG_DIR/client1.log" ||
  fail "pre-crash deliveries to group 8 did not reach the client"

# Let the 20 ms async flush commit the tail, then kill without warning.
sleep 1
kill -9 "$SPID"
wait "$SPID" 2>/dev/null || true
SPID=""

# Life 2: restart on the same directory; a NEW client must find both groups
# and each sequencer must resume where its group left off.
"$SERVERD" --listen "127.0.0.1:$PORT" --data-dir "$DATA_DIR" --recover \
  >"$LOG_DIR/server2.log" 2>&1 &
S2PID=$!
sleep 1
{
  echo "join 7"; echo "join 8"; sleep 0.5
  echo "send 7 1 post-crash"
  echo "send 8 1 post-crash-eight"; sleep 1
  echo "quit"
} | timeout 60 "$CLIENTD" --server "127.0.0.1:$PORT" --node 101 \
  >"$LOG_DIR/client2.log" 2>&1 || fail "client 2 did not run to completion"
kill "$S2PID" 2>/dev/null || true
wait "$S2PID" 2>/dev/null || true
S2PID=""

grep -Eq 'recovered 2 group\(s\), [1-9][0-9]* log record\(s\)' \
  "$LOG_DIR/server2.log" || fail "restart did not recover both groups' logs"
grep -q '\[joined\] group 7: ok' "$LOG_DIR/client2.log" ||
  fail "fresh client could not join recovered group 7"
grep -q '\[joined\] group 8: ok' "$LOG_DIR/client2.log" ||
  fail "fresh client could not join recovered group 8"
grep -q '\[deliver\] group 7 seq 4 obj 1 from node 101: post-crash' \
  "$LOG_DIR/client2.log" ||
  fail "group 7 did not resume at seq 4 after recovery"
grep -q '\[deliver\] group 8 seq 3 obj 1 from node 101: post-crash-eight' \
  "$LOG_DIR/client2.log" ||
  fail "group 8 did not resume at seq 3 after recovery"
ls "$DATA_DIR"/ckpt/*.ckpt >/dev/null 2>&1 ||
  fail "no checkpoint files in the data directory"
ls "$DATA_DIR"/log/seg-*.log >/dev/null 2>&1 ||
  fail "no shared-log segments in the data directory"
[[ ! -e "$DATA_DIR/groups" ]] ||
  fail "the data directory still has a per-group log tree"

echo "crash-restart: OK (recovered 2 groups from one log, rejoined, resumed at seq 4 and 3)"
