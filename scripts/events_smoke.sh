#!/usr/bin/env bash
# End-to-end live-telemetry smoke: start delpropd, subscribe to the GET
# /events SSE stream (curl -N and delprop tail), drive a real solve, and
# assert the correlated lifecycle sequence solve_start -> phase ->
# incumbent -> solve_done arrives with the request id the /solve response
# reports, plus the delprop_events_* bus-health metrics. CI runs this; it
# also works locally (needs curl).
set -euo pipefail

ADDR="${ADDR:-127.0.0.1:18081}"
OPS_ADDR="${OPS_ADDR:-127.0.0.1:19091}"
source "$(dirname "$0")/lib.sh"
STREAM="$WORK/events.sse"
TAIL_OUT="$WORK/tail.txt"

build delpropd delprop
start_daemon

# Subscribe before solving so no lifecycle event is missed: the raw SSE
# stream via curl -N on the ops listener, and delprop tail (the reference
# consumer) in -json mode against the public listener, exiting on its own
# after the four lifecycle events it filters for.
curl -sN "http://$OPS_ADDR/events" >"$STREAM" &
CURL_PID=$!
"$WORK/delprop" tail -addr "http://$ADDR" \
    -type solve_start,incumbent,solve_done -json -n 3 >"$TAIL_OUT" &
TAIL_PID=$!
sleep 0.3

SOLVE="$(curl -sf -X POST "http://$ADDR/solve" -H 'Content-Type: application/json' -d '{
  "database": "relation T1(AuName*, Journal*)\nT1(Joe, TKDE)\nT1(John, TKDE)\nrelation T2(Journal*, Topic*, Papers)\nT2(TKDE, XML, 30)\n",
  "queries": "Q4(x, y, z) :- T1(x, y), T2(y, z, w)",
  "deletions": "Q4(John, TKDE, XML)",
  "solver": "brute-force"
}')"
REQ_ID="$(sed -n 's/.*"requestId":"\([^"]*\)".*/\1/p' <<<"$SOLVE")"
[ -n "$REQ_ID" ] || { echo "solve response carries no requestId: $SOLVE"; exit 1; }

# Give the streams a moment to flush, then stop the raw subscriber.
for _ in $(seq 1 50); do
    grep -q 'event: solve_done' "$STREAM" 2>/dev/null && break
    sleep 0.1
done
kill "$CURL_PID" 2>/dev/null || true
wait "$CURL_PID" 2>/dev/null || true

fail=0
# Lifecycle sequence: each stage must appear, in publication order (the
# SSE id line carries the bus sequence number).
prev_seq=0
for typ in solve_start phase incumbent solve_done; do
    if ! grep -q "event: $typ" "$STREAM"; then
        echo "stream missing $typ event"
        fail=1
        continue
    fi
    seq="$(grep -A1 "event: $typ" "$STREAM" | sed -n 's/^id: //p' | head -1)"
    if [ -z "$seq" ] || [ "$seq" -le "$prev_seq" ]; then
        echo "$typ out of order: id=$seq after $prev_seq"
        fail=1
    else
        prev_seq="$seq"
    fi
done
# Correlation: the lifecycle events carry the /solve response's request id.
for typ in solve_start solve_done; do
    if ! grep "\"$typ\"" "$STREAM" | grep -q "\"requestId\":\"$REQ_ID\""; then
        echo "$typ event not correlated with requestId $REQ_ID"
        fail=1
    fi
done
# Phase coverage: the five lifecycle phases all streamed.
for phase in parse views classify solve evaluate; do
    if ! grep '"type":"phase"' "$STREAM" | grep -q "\"phase\":\"$phase\""; then
        echo "no phase event for $phase"
        fail=1
    fi
done

# delprop tail consumed the same solve end to end.
for _ in $(seq 1 50); do
    kill -0 "$TAIL_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$TAIL_PID" 2>/dev/null; then
    echo "delprop tail did not exit after -n events"
    kill "$TAIL_PID"
    fail=1
fi
wait "$TAIL_PID" 2>/dev/null || true
for typ in solve_start incumbent solve_done; do
    if ! grep -q "\"type\":\"$typ\"" "$TAIL_OUT"; then
        echo "delprop tail output missing $typ: $(cat "$TAIL_OUT")"
        fail=1
    fi
done
if ! grep -q "\"requestId\":\"$REQ_ID\"" "$TAIL_OUT"; then
    echo "delprop tail output not correlated with requestId $REQ_ID"
    fail=1
fi
# Text rendering sanity: one line per event with key=value pairs.
"$WORK/delprop" tail -addr "http://$ADDR" -type solve_done -n 1 >"$WORK/tail_text.txt" &
TAIL2_PID=$!
sleep 0.3
curl -sf -X POST "http://$ADDR/solve" -H 'Content-Type: application/json' -d '{
  "database": "relation T1(AuName*, Journal*)\nT1(Joe, TKDE)\nT1(John, TKDE)\nrelation T2(Journal*, Topic*, Papers)\nT2(TKDE, XML, 30)\n",
  "queries": "Q4(x, y, z) :- T1(x, y), T2(y, z, w)",
  "deletions": "Q4(Joe, TKDE, XML)",
  "solver": "brute-force"
}' >/dev/null
wait "$TAIL2_PID" || { echo "delprop tail text run failed"; fail=1; }
if ! grep -Eq 'solve_done +req=r[0-9]+ .*solver=brute-force' "$WORK/tail_text.txt"; then
    echo "delprop tail text rendering off: $(cat "$WORK/tail_text.txt")"
    fail=1
fi

# Bus health metrics: published moved, subscribers gauge exists, dropped
# counter present (zero is fine on a healthy run).
METRICS="$(curl -sf "http://$OPS_ADDR/metrics")"
if ! grep -E '^delprop_events_published_total [1-9]' <<<"$METRICS" >/dev/null; then
    echo "delprop_events_published_total absent or zero"
    fail=1
fi
for metric in delprop_events_dropped_total delprop_events_subscribers; do
    if ! grep -E "^$metric [0-9]" <<<"$METRICS" >/dev/null; then
        echo "missing metric: $metric"
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "---- stream ----"
    cat "$STREAM"
    echo "---- tail ----"
    cat "$TAIL_OUT"
    exit 1
fi

stop_daemon
echo "events smoke OK"
