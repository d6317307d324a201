#!/usr/bin/env bash
# Metrics smoke test: boot gve-serve, run one detection end to end,
# scrape /metrics, and assert the observability contract — the core
# metric families are present and every histogram's buckets are
# cumulative (monotone, ending at +Inf). Used by the metrics-smoke CI
# job; runnable locally with `bash scripts/metrics_smoke.sh`.
set -euo pipefail

cd "$(dirname "$0")/.."

PORT="${GVE_SMOKE_PORT:-7461}"
ADDR="127.0.0.1:${PORT}"
GVE="${GVE_BIN:-target/release/gve}"

if [[ ! -x "$GVE" ]]; then
  cargo build --release --bin gve
fi

"$GVE" serve --addr "$ADDR" --workers 1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT

# Wait for the accept loop to come up.
for _ in $(seq 1 50); do
  curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fsS "http://$ADDR/healthz" >/dev/null

# Register a generated graph and run one detection to completion.
"$GVE" client POST /graphs --addr "$ADDR" --body \
  '{"name":"smoke","generate":{"class":"sbm","vertices":2000,"communities":8,"intra_degree":12.0,"inter_degree":1.0,"seed":11}}' \
  >/dev/null
JOB=$("$GVE" client POST /graphs/smoke/detect --addr "$ADDR" \
  --body '{"objective":"modularity"}' | sed -n 's/.*"id":\([0-9]*\).*/\1/p')
STATE=queued
for _ in $(seq 1 150); do
  STATE=$("$GVE" client GET "/jobs/$JOB" --addr "$ADDR" |
    sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
  [[ "$STATE" == done ]] && break
  [[ "$STATE" == failed ]] && { echo "FAIL: detect job failed"; exit 1; }
  sleep 0.2
done
[[ "$STATE" == done ]] || { echo "FAIL: detect job never finished"; exit 1; }

METRICS=$(curl -fsS "http://$ADDR/metrics")

# Every core family the paper's evaluation needs must be exported.
for name in \
  gve_leiden_runs_total \
  gve_leiden_passes_total \
  gve_leiden_move_iterations_total \
  gve_leiden_pruning_processed_total \
  gve_leiden_pruning_skipped_total \
  gve_leiden_refine_moves_total \
  gve_leiden_aggregation_shrink_ratio \
  gve_leiden_phase_seconds_total \
  gve_cache_hits_total \
  gve_cache_misses_total \
  gve_jobs_submitted_total \
  gve_jobs_completed_total \
  gve_jobs_queue_depth \
  gve_jobs_queue_wait_seconds_bucket \
  gve_jobs_run_seconds_bucket \
  gve_http_connections_total \
  gve_http_rejected_connections_total \
  gve_http_request_seconds_bucket \
  gve_updates_batches_total; do
  grep -q "^$name" <<<"$METRICS" ||
    { echo "FAIL: missing metric $name"; echo "$METRICS"; exit 1; }
done

grep -q '^gve_leiden_runs_total 1$' <<<"$METRICS" ||
  { echo "FAIL: expected exactly one recorded run"; echo "$METRICS"; exit 1; }

# The workspace pool's totals carry no labels: `gve top` reads this exact
# sample for its workspaces row.
grep -q '^gve_workspace_checkouts_total 1$' <<<"$METRICS" ||
  { echo "FAIL: expected one unlabeled workspace checkout"; echo "$METRICS"; exit 1; }

# The detect's workspace is parked again, holding its arena.
grep -Eq '^gve_workspace_resident_bytes [1-9][0-9]*$' <<<"$METRICS" ||
  { echo "FAIL: expected a nonzero parked workspace footprint"; echo "$METRICS"; exit 1; }

# Histogram buckets must be cumulative: within one series (same family
# and labels apart from le), counts never decrease and end at +Inf.
awk '
  /_bucket\{/ {
    val = $NF + 0
    key = $0; sub(/le="[^"]*",?/, "", key); sub(/ [^ ]*$/, "", key)
    le = $0; sub(/.*le="/, "", le); sub(/".*/, "", le)
    if (key != prev_key) { prev = -1; prev_key = key }
    if (val < prev) { print "FAIL: non-monotone bucket: " $0; exit 1 }
    prev = val; last_le[key] = le
  }
  END {
    for (k in last_le)
      if (last_le[k] != "+Inf") { print "FAIL: " k " missing +Inf bucket"; exit 1 }
  }
' <<<"$METRICS"

echo "metrics smoke OK: core families present, histogram buckets monotone"
