#!/usr/bin/env bash
# End-to-end rolling-series / SLO / flight-recorder smoke: start delpropd
# with the chaos solvers, a fast sampler tick and an SLO config bounding
# failed solves at zero; drive injected panics; and assert the full
# incident chain — a slo_breach event on GET /events, the windowed
# regression on GET /debug/series, the breach counter on /metrics, and a
# postmortem bundle on GET /debug/postmortems/{id} correlated to the
# failing request. CI runs this; it also works locally (needs curl).
set -euo pipefail

ADDR="${ADDR:-127.0.0.1:18082}"
OPS_ADDR="${OPS_ADDR:-127.0.0.1:19092}"
source "$(dirname "$0")/lib.sh"
STREAM="$WORK/breach.sse"

build delpropd delprop

cat >"$WORK/slo.json" <<'EOF'
{
  "rules": [
    {
      "name": "solve-failures",
      "window": "1m",
      "max": 0,
      "value": {
        "metric": "delprop_solves_total",
        "stat": "delta",
        "match": {"outcome": ["error", "timeout", "panic", "unstoppable"]}
      }
    }
  ]
}
EOF

start_daemon -fault-solvers \
    -series-interval 100ms -series-window 2m -slo "$WORK/slo.json" \
    -breaker-threshold 100

# Subscribe to the breach stream before any failure happens.
curl -sN "http://$OPS_ADDR/events?type=slo_breach" >"$STREAM" &
CURL_PID=$!
sleep 0.3

SOLVE_BODY='{
  "database": "relation T1(AuName*, Journal*)\nT1(Joe, TKDE)\nT1(John, TKDE)\nrelation T2(Journal*, Topic*, Papers)\nT2(TKDE, XML, 30)\n",
  "queries": "Q4(x, y, z) :- T1(x, y), T2(y, z, w)",
  "deletions": "Q4(John, TKDE, XML)"
}'

# One healthy solve populates the series, then injected panics push the
# failure window over its zero bound; keep failing until the watchdog
# (ticking every 100ms) publishes the breach.
curl -sf -X POST "http://$ADDR/solve" -H 'Content-Type: application/json' \
    -d "$SOLVE_BODY" >/dev/null
for _ in $(seq 1 60); do
    curl -s -X POST "http://$ADDR/solve" -H 'Content-Type: application/json' \
        -d "$(sed 's/"deletions"/"solver": "chaos-panic", "deletions"/' <<<"$SOLVE_BODY")" >/dev/null
    grep -q 'event: slo_breach' "$STREAM" 2>/dev/null && break
    sleep 0.1
done
kill "$CURL_PID" 2>/dev/null || true
wait "$CURL_PID" 2>/dev/null || true

fail=0
if ! grep -q 'event: slo_breach' "$STREAM"; then
    echo "no slo_breach event on /events"
    fail=1
fi
if ! grep -q '"rule":"solve-failures"' "$STREAM"; then
    echo "breach event does not name the rule"
    fail=1
fi
PM_ID="$(sed -n 's/.*"postmortemId":"\([^"]*\)".*/\1/p' "$STREAM" | head -1)"
if [ -z "$PM_ID" ]; then
    echo "breach event names no postmortem bundle"
    fail=1
fi
REQ_ID="$(sed -n 's/.*"requestId":"\([^"]*\)".*/\1/p' "$STREAM" | head -1)"

# Rolling series: the panic-outcome counter shows a positive 1m delta and
# the payload is well-formed (ticks moved, windows named).
SERIES="$(curl -sf "http://$OPS_ADDR/debug/series?metric=delprop_solves_total&window=1m")"
if ! grep -q '"name":"delprop_solves_total"' <<<"$SERIES"; then
    echo "/debug/series lacks the solves counter: $SERIES"
    fail=1
fi
if ! grep -q '"outcome":"panic"' <<<"$SERIES"; then
    echo "/debug/series lacks the panic-outcome series"
    fail=1
fi
if ! grep -Eq '"ticks":[1-9]' <<<"$SERIES"; then
    echo "/debug/series reports no ticks"
    fail=1
fi
if ! grep -q '"windows":\["1m"\]' <<<"$SERIES"; then
    echo "/debug/series window naming off: $SERIES"
    fail=1
fi

# Watchdog standings and the breach counter agree with the event.
if ! curl -sf "http://$OPS_ADDR/debug/slo" | grep -q '"breached":true'; then
    echo "/debug/slo does not show the rule breached"
    fail=1
fi
if ! curl -sf "http://$OPS_ADDR/metrics" |
    grep -E '^delprop_slo_breaches_total\{rule="solve-failures"\} [1-9]' >/dev/null; then
    echo "delprop_slo_breaches_total absent or zero"
    fail=1
fi

# Flight recorder: the listing holds bundles and the breach-named bundle
# carries the correlated trace, stats and event history.
LISTING="$(curl -sf "http://$OPS_ADDR/debug/postmortems")"
if ! grep -q '"kind":"solve_error"' <<<"$LISTING"; then
    echo "/debug/postmortems lacks solve_error captures: $LISTING"
    fail=1
fi
if [ -n "$PM_ID" ]; then
    BUNDLE="$(curl -sf "http://$OPS_ADDR/debug/postmortems/$PM_ID")"
    for key in '"kind":"slo_breach"' '"trace"' '"stats"' '"events"' '"breakers"'; do
        if ! grep -q "$key" <<<"$BUNDLE"; then
            echo "bundle $PM_ID lacks $key"
            fail=1
        fi
    done
    if [ -n "$REQ_ID" ] && ! grep -q "\"requestId\":\"$REQ_ID\"" <<<"$BUNDLE"; then
        echo "bundle $PM_ID not correlated with requestId $REQ_ID"
        fail=1
    fi
fi

# delprop top renders one frame off the same endpoints.
if ! "$WORK/delprop" top -addr "http://$OPS_ADDR" -n 1 -plain -window 1m >"$WORK/top.txt" 2>&1; then
    echo "delprop top failed: $(cat "$WORK/top.txt")"
    fail=1
fi
for want in 'delprop top' 'SLO RULE' 'solve-failures' 'RECENT POSTMORTEMS'; do
    if ! grep -q "$want" "$WORK/top.txt"; then
        echo "delprop top frame lacks '$want': $(cat "$WORK/top.txt")"
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "---- breach stream ----"
    cat "$STREAM"
    exit 1
fi

stop_daemon
echo "series smoke OK"
