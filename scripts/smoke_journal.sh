#!/usr/bin/env bash
# Durability smoke test: boots a real adifod with -journal-dir, runs a
# job to completion, leaves more jobs in flight, SIGKILLs the process
# (no drain, no goodbye), restarts it on the same journal, and checks
# that (a) the finished job's /result bytes are identical across the
# crash, (b) the in-flight jobs rerun to completion under their
# original ids, and (c) an idempotency key used before the crash still
# dedupes after it. It then crashes twice more over a torn frame:
# after a SIGKILL it appends a frame header cut short to the newest
# segment, restarts, runs one more job to completion, SIGKILLs and
# restarts again, and checks that (d) that job's result bytes and (e)
# its idempotency key survive, since a torn frame ends only its own
# segment. This is the check that the write-ahead journal survives a
# real kill -9 of a released binary, not just an in-process test
# double.
#
# Usage: scripts/smoke_journal.sh
#   JOURNAL_DIR overrides the journal directory (CI sets it to a
#   workspace path so a failing run's journal is uploaded as an
#   artifact for offline replay). Everything else the script writes,
#   the journal too when JOURNAL_DIR is unset, lives in one temporary
#   directory that is removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

addr=127.0.0.1:8473
base="http://$addr"
work=$(mktemp -d)
daemon=
cleanup() {
  if [ -n "$daemon" ]; then
    kill "$daemon" 2>/dev/null || true
    wait "$daemon" 2>/dev/null || true
  fi
  rm -rf "$work"
}
trap cleanup EXIT
JOURNAL_DIR=${JOURNAL_DIR:-$work/journal}
mkdir -p "$JOURNAL_DIR"

go build -o "$work/adifod" ./cmd/adifod

start_daemon() {
  "$work/adifod" -addr "$addr" -journal-dir "$JOURNAL_DIR" \
    -jobs 1 -tenant-limits 'smoke=2:64' -log-level warn &
  daemon=$!
  for _ in $(seq 1 100); do
    curl -fsS "$base/healthz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "adifod did not come up" >&2
  return 1
}

submit() {
  curl -fsS -X POST -H 'Content-Type: application/json' -d "$1" "$base/v1/jobs" | jq -r .id
}
state_of() {
  curl -fsS "$base/v1/jobs/$1" | jq -r .state
}
wait_done() {
  local id=$1 state
  for _ in $(seq 1 300); do
    state=$(state_of "$id")
    case "$state" in
      done) return 0 ;;
      failed|cancelled) echo "job $id ended $state" >&2; return 1 ;;
    esac
    sleep 0.1
  done
  echo "job $id never finished" >&2
  return 1
}

start_daemon

# One job driven to completion before the crash; its result bytes are
# the durability oracle.
fast=$(submit '{"circuit":"c17","mode":"drop","tenant":"smoke","idempotency_key":"smoke-fast","patterns":{"random":{"n":256,"seed":1}}}')
wait_done "$fast"
pre=$work/pre
curl -fsS "$base/v1/jobs/$fast/result" > "$pre"

# Jobs of every kind left in flight (the single -jobs slot keeps most
# of them queued), then a SIGKILL mid-workload.
grade=$(submit '{"circuit":"c17","mode":"nodrop","tenant":"smoke","patterns":{"random":{"n":4096,"seed":2}}}')
atpg=$(submit '{"kind":"atpg","circuit":"c17","patterns":{"random":{"n":96,"seed":3}},"order":{"kind":"dynm"}}')
order=$(submit '{"kind":"adi_order","circuit":"c17","patterns":{"random":{"n":96,"seed":4}},"order":{"kind":"orig"}}')

kill -9 "$daemon"
wait "$daemon" 2>/dev/null || true

start_daemon

# (a) The finished job answers byte-identically across the crash.
post=$work/post
curl -fsS "$base/v1/jobs/$fast/result" > "$post"
cmp -s "$pre" "$post" || {
  echo "result bytes of $fast changed across the crash:" >&2
  diff "$pre" "$post" >&2 || true
  exit 1
}

# (b) In-flight jobs recover under their original ids and finish.
wait_done "$grade"
wait_done "$atpg"
wait_done "$order"

# (c) The idempotency key still names the pre-crash job.
dup=$(submit '{"circuit":"c17","mode":"drop","tenant":"smoke","idempotency_key":"smoke-fast","patterns":{"random":{"n":256,"seed":1}}}')
[ "$dup" = "$fast" ] || {
  echo "idempotency key lost across crash: resubmit got $dup, want $fast" >&2
  exit 1
}

# The journal shows up in the exposition and on disk.
metrics=$work/metrics
curl -fsS "$base/metrics" > "$metrics"
grep -qF 'adifo_journal_enabled 1' "$metrics" || {
  echo "adifo_journal_enabled not 1 on a journal-backed server" >&2
  exit 1
}
replayed=$(grep -E '^adifo_journal_replayed_records_total ' "$metrics" | awk '{print $2}')
[ "${replayed:-0}" -gt 0 ] || {
  echo "adifo_journal_replayed_records_total is $replayed after a restart with history" >&2
  exit 1
}
ls "$JOURNAL_DIR"/*.wal >/dev/null || {
  echo "no journal segments in $JOURNAL_DIR" >&2
  exit 1
}

# A second crash tears the frame header the daemon was writing, and
# the restarted daemon appends a segment after the torn one.
kill -9 "$daemon"
wait "$daemon" 2>/dev/null || true
newest=$(ls "$JOURNAL_DIR"/*.wal | sort | tail -n 1)
printf 'xyz' >> "$newest"
start_daemon

late_spec='{"circuit":"c17","mode":"ndetect","n":2,"tenant":"smoke","idempotency_key":"smoke-late","patterns":{"random":{"n":256,"seed":5}}}'
late=$(submit "$late_spec")
wait_done "$late"
late_pre=$work/late_pre
curl -fsS "$base/v1/jobs/$late/result" > "$late_pre"

kill -9 "$daemon"
wait "$daemon" 2>/dev/null || true
start_daemon

# (d) The job finished after the torn frame answers byte-identically.
late_post=$work/late_post
curl -fsS "$base/v1/jobs/$late/result" > "$late_post" || {
  echo "job $late, finished after a torn frame, is gone after the next crash" >&2
  exit 1
}
cmp -s "$late_pre" "$late_post" || {
  echo "result bytes of $late changed across the crash:" >&2
  diff "$late_pre" "$late_post" >&2 || true
  exit 1
}

# (e) Its idempotency key still names it.
dup=$(submit "$late_spec")
[ "$dup" = "$late" ] || {
  echo "idempotency key smoke-late lost across crash: resubmit got $dup, want $late" >&2
  exit 1
}

echo "journal smoke: OK (replayed $replayed records; segments: $(ls "$JOURNAL_DIR" | grep -c '\.wal$'))"
