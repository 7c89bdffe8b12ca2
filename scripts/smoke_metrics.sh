#!/usr/bin/env bash
# Observability smoke test: boots a real adifod, runs one job of every
# kind over the wire, scrapes GET /metrics from both the public and the
# -debug-addr listener, and fails on malformed exposition lines or
# missing required series. CI runs this on every push; it is the check
# that the metrics surface a dashboard would scrape actually exists on
# a released binary, not just in unit tests.
#
# Usage: scripts/smoke_metrics.sh
#   Everything the script writes lives in one temporary directory that
#   is removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

addr=127.0.0.1:8471
debug=127.0.0.1:8472
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

go build -o "$work/adifod" ./cmd/adifod

"$work/adifod" -version | grep -q '^adifod ' || {
  echo "adifod -version output malformed" >&2; exit 1
}

"$work/adifod" -addr "$addr" -debug-addr "$debug" -log-level warn &
daemon=$!

for _ in $(seq 1 50); do
  curl -fsS "$base/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -fsS "$base/healthz" >/dev/null

# One job per kind, driven to completion through the public wire.
submit() {
  curl -fsS -X POST -H 'Content-Type: application/json' -d "$1" "$base/v1/jobs" | jq -r .id
}
wait_done() {
  local id=$1 state
  for _ in $(seq 1 100); do
    state=$(curl -fsS "$base/v1/jobs/$id" | jq -r .state)
    case "$state" in
      done) return 0 ;;
      failed|cancelled) echo "job $id ended $state" >&2; return 1 ;;
    esac
    sleep 0.1
  done
  echo "job $id never finished" >&2
  return 1
}

grade=$(submit '{"circuit":"c17","mode":"nodrop","patterns":{"random":{"n":256,"seed":1}}}')
atpg=$(submit '{"kind":"atpg","circuit":"c17","patterns":{"random":{"n":96,"seed":2}},"order":{"kind":"dynm"}}')
order=$(submit '{"kind":"adi_order","circuit":"c17","patterns":{"random":{"n":96,"seed":3}},"order":{"kind":"orig"}}')
wait_done "$grade"
wait_done "$atpg"
wait_done "$order"

# Results must carry the per-phase timing record and a trace id, and
# every trace id must resolve on the flight recorder: the list view
# knows the job's kind, the per-trace view serves a non-empty span
# tree rooted in the job span.
for id in "$grade" "$atpg" "$order"; do
  result=$(curl -fsS "$base/v1/jobs/$id/result")
  phases=$(echo "$result" | jq -r '.timing.phases | keys | join(",")')
  [ -n "$phases" ] || { echo "job $id result has no timing.phases" >&2; exit 1; }
  tid=$(echo "$result" | jq -r '.trace_id')
  echo "$tid" | grep -qE '^[0-9a-f]{32}$' || {
    echo "job $id result trace_id malformed: $tid" >&2; exit 1
  }
  kind=$(echo "$result" | jq -r '.kind // "grade"')
  curl -fsS "http://$debug/debug/traces" \
    | jq -e --arg tid "$tid" --arg kind "$kind" \
        '.traces[] | select(.trace_id == $tid) | select(.kind == $kind)' >/dev/null || {
    echo "trace $tid ($kind) missing from /debug/traces list" >&2; exit 1
  }
  curl -fsS "http://$debug/debug/traces/$tid" \
    | jq -e --arg tid "$tid" --arg kind "$kind" \
        '.trace_id == $tid and .root == ("job." + $kind) and (.tree | length) == 1 and .spans >= 2' >/dev/null || {
    echo "trace $tid tree view malformed" >&2; exit 1
  }
done
curl -fsS "$base/v1/stats" | jq -e '.uptime_seconds > 0 and .version != ""' >/dev/null

metrics=$work/metrics
curl -fsS "$base/metrics" > "$metrics"

# Grammar check: every line is a comment or `name[{labels}] value`.
bad=$(grep -vE '^(#|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$)' "$metrics" || true)
if [ -n "$bad" ]; then
  echo "malformed exposition lines:" >&2
  echo "$bad" >&2
  exit 1
fi

# Required series: the catalog a capacity-planning dashboard consumes.
for series in \
  'adifo_build_info{' \
  'adifo_uptime_seconds ' \
  'adifo_jobs_submitted_total{kind="grade"}' \
  'adifo_jobs_total{kind="grade",status="done"} 1' \
  'adifo_jobs_total{kind="atpg",status="done"} 1' \
  'adifo_jobs_total{kind="adi_order",status="done"} 1' \
  'adifo_jobs_queued ' \
  'adifo_jobs_running ' \
  'adifo_queue_wait_seconds_bucket{kind="grade",le="+Inf"}' \
  'adifo_job_duration_seconds_bucket{kind="atpg",le="+Inf"}' \
  'adifo_sim_blocks_total ' \
  'adifo_registry_circuit_hits_total ' \
  'adifo_registry_good_misses_total ' \
  'adifo_http_write_errors_total ' \
  'adifo_draining 0' \
  'adifo_jobs_rejected_total{reason="overloaded"} 0' \
  'adifo_jobs_deduplicated_total ' \
  'adifo_tenant_queue_depth{tenant="default"}' \
  'adifo_journal_enabled 0' \
  'adifo_journal_appends_total 0' \
  'adifo_trace_spans_started_total ' \
  'adifo_trace_spans_finished_total ' \
  'adifo_trace_spans_dropped_total 0' \
  'adifo_trace_recorder_traces ' \
; do
  grep -qF "$series" "$metrics" || {
    echo "required series missing from /metrics: $series" >&2
    exit 1
  }
done

# The debug listener serves the same exposition plus pprof. (Buffer
# the body: grep -q on a pipe would close it early and trip pipefail.)
dbg=$work/dbg
curl -fsS "http://$debug/metrics" > "$dbg"
grep -qF 'adifo_build_info{' "$dbg"
curl -fsS "http://$debug/debug/pprof/cmdline" >/dev/null

echo "observability smoke: OK ($(grep -cv '^#' "$metrics") series)"
