#!/usr/bin/env bash
# End-to-end telemetry smoke: start delpropd with an ops listener, drive
# one solve over HTTP, scrape /metrics and assert the solver counters
# moved. CI runs this; it also works locally (needs curl).
set -euo pipefail

ADDR="${ADDR:-127.0.0.1:18080}"
OPS_ADDR="${OPS_ADDR:-127.0.0.1:19090}"
source "$(dirname "$0")/lib.sh"

build delpropd
start_daemon -pprof

# requestId prints the "requestId" of the JSON response on stdin.
requestId() { grep -o '"requestId":"[^"]*"' | head -n 1 | cut -d'"' -f4; }

# Fig. 1 running example, pinned to the brute-force search so the
# nodes-expanded and incumbent counters provably increment.
SOLVE1="$(curl -sf -X POST "http://$ADDR/solve" -H 'Content-Type: application/json' -d '{
  "database": "relation T1(AuName*, Journal*)\nT1(Joe, TKDE)\nT1(John, TKDE)\nrelation T2(Journal*, Topic*, Papers)\nT2(TKDE, XML, 30)\n",
  "queries": "Q4(x, y, z) :- T1(x, y), T2(y, z, w)",
  "deletions": "Q4(John, TKDE, XML)",
  "solver": "brute-force"
}')"
grep -q '"stats"' <<<"$SOLVE1" || { echo "solve response carries no stats"; exit 1; }

# A portfolio race: the parallel members share an incumbent bound and the
# response must carry the race snapshot.
SOLVE2="$(curl -sf -X POST "http://$ADDR/solve" -H 'Content-Type: application/json' -d '{
  "database": "relation T1(AuName*, Journal*)\nT1(Joe, TKDE)\nT1(John, TKDE)\nrelation T2(Journal*, Topic*, Papers)\nT2(TKDE, XML, 30)\n",
  "queries": "Q4(x, y, z) :- T1(x, y), T2(y, z, w)",
  "deletions": "Q4(John, TKDE, XML)",
  "solver": "portfolio-parallel"
}')"
grep -q '"race"' <<<"$SOLVE2" || { echo "portfolio solve response carries no race snapshot"; exit 1; }

# A batch of two instances through the bounded worker pool.
BATCH="$(curl -sf -X POST "http://$ADDR/solve/batch" -H 'Content-Type: application/json' -d '{
  "workers": 2,
  "items": [
    {"database": "relation T1(AuName*, Journal*)\nT1(Joe, TKDE)\nT1(John, TKDE)\nrelation T2(Journal*, Topic*, Papers)\nT2(TKDE, XML, 30)\n",
     "queries": "Q4(x, y, z) :- T1(x, y), T2(y, z, w)",
     "deletions": "Q4(John, TKDE, XML)"},
    {"database": "relation T1(AuName*, Journal*)\nT1(Joe, TKDE)\nT1(John, TKDE)\nrelation T2(Journal*, Topic*, Papers)\nT2(TKDE, XML, 30)\n",
     "queries": "Q4(x, y, z) :- T1(x, y), T2(y, z, w)",
     "deletions": "Q4(Joe, TKDE, XML)"}
  ]
}')"
grep -q '"completed":2' <<<"$BATCH" || { echo "batch solve did not complete both items"; exit 1; }

# One log line per single-solve request: the solve record carries the
# HTTP status, and no separate request line repeats the id. The batch
# keeps its own request line.
for resp in "$SOLVE1" "$SOLVE2"; do
    id="$(requestId <<<"$resp")"
    n="$(grep -c "requestId=$id " "$LOG" || true)"
    if [ -z "$id" ] || [ "$n" -ne 1 ] || ! grep "requestId=$id " "$LOG" | grep -q 'msg=solve .*status=200'; then
        echo "solve $id: want exactly one log line, a solve line with status=200 ($n found)"
        exit 1
    fi
done
id="$(requestId <<<"$BATCH")"
grep "requestId=$id " "$LOG" | grep -q 'msg=request .*path=/solve/batch status=200' \
    || { echo "batch $id: request log line missing"; exit 1; }

METRICS="$(curl -sf "http://$OPS_ADDR/metrics")"
fail=0
for want in \
    'delprop_solve_duration_seconds_count{solver="brute-force"} 1' \
    'delprop_solves_total{outcome="ok",solver="brute-force"} 1' \
    'delprop_http_requests_total{method="POST",path="/solve",status="200"} 2'
do
    if ! grep -qF "$want" <<<"$METRICS"; then
        echo "missing metric line: $want"
        fail=1
    fi
done
# Search counters must be present and nonzero.
for counter in \
    delprop_solver_nodes_expanded_total \
    delprop_solver_incumbent_updates_total \
    delprop_solver_checkpoints_total
do
    if ! grep -E "^${counter}\{solver=\"brute-force\"\} [1-9]" <<<"$METRICS" >/dev/null; then
        echo "counter absent or zero: $counter"
        fail=1
    fi
done
# Build identity: constant 1 with go version / VCS revision labels.
if ! grep -E '^delprop_build_info\{goversion="[^"]+",modified="[^"]+",revision="[^"]+"\} 1$' <<<"$METRICS" >/dev/null; then
    echo "missing or malformed delprop_build_info gauge"
    fail=1
fi
# Process runtime gauges, refreshed per scrape.
if ! grep -E '^delprop_process_uptime_seconds [0-9]' <<<"$METRICS" >/dev/null; then
    echo "missing delprop_process_uptime_seconds gauge"
    fail=1
fi
for gauge in delprop_goroutines delprop_heap_inuse_bytes; do
    if ! grep -E "^${gauge} [1-9]" <<<"$METRICS" >/dev/null; then
        echo "gauge absent or zero: $gauge"
        fail=1
    fi
done
# The smoke instance is key-preserving and brute force is exact, so the
# solve must certify an approximation ratio of exactly 1.
for want in \
    'delprop_solve_quality_ratio_count{solver="brute-force"} 1' \
    'delprop_solve_quality_ratio_bucket{solver="brute-force",le="1"} 1'
do
    if ! grep -qF "$want" <<<"$METRICS"; then
        echo "missing quality-ratio line: $want"
        fail=1
    fi
done
# Parallel solve engine: the portfolio race counter and the batch pool
# counters must have moved.
if ! grep -E '^delprop_parallel_races_total\{proven="(true|false)",winner="[^"]+"\} [1-9]' <<<"$METRICS" >/dev/null; then
    echo "missing or zero delprop_parallel_races_total"
    fail=1
fi
for want in \
    'delprop_parallel_batch_requests_total{partial="false"} 1' \
    'delprop_parallel_batch_items_total{outcome="ok"} 2' \
    'delprop_parallel_batch_duration_seconds_count 1'
do
    if ! grep -qF "$want" <<<"$METRICS"; then
        echo "missing batch metric line: $want"
        fail=1
    fi
done
if ! grep -E '^delprop_parallel_batch_worker_ms_total [0-9]' <<<"$METRICS" >/dev/null; then
    echo "missing delprop_parallel_batch_worker_ms_total counter"
    fail=1
fi
if [ "$fail" -ne 0 ]; then
    echo "---- /metrics ----"
    echo "$METRICS"
    exit 1
fi

curl -sf "http://$OPS_ADDR/debug/traces" | grep -q '"name":"solve"' \
    || { echo "/debug/traces carries no solve trace"; exit 1; }
curl -sf "http://$OPS_ADDR/debug/traces?solver=brute-force&format=text" | grep -q 'solver=brute-force' \
    || { echo "/debug/traces text/filter view missing the solve"; exit 1; }
curl -sf "http://$OPS_ADDR/debug/pprof/cmdline" >/dev/null \
    || { echo "pprof not mounted on ops listener"; exit 1; }

stop_daemon
echo "metrics smoke OK"
