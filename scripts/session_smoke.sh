#!/usr/bin/env bash
# End-to-end warm-session smoke: start delpropd, register a session, solve
# the same deletion twice warm and assert the hit counter moved, evict the
# session and assert the follow-up solve misses with 404. CI runs this; it
# also works locally (needs curl).
set -euo pipefail

ADDR="${ADDR:-127.0.0.1:18082}"
OPS_ADDR="${OPS_ADDR:-127.0.0.1:19092}"
source "$(dirname "$0")/lib.sh"

build delpropd
start_daemon -session-ttl 5m -max-sessions 8

# Register the Fig. 1 running example as a warm session.
REG="$(curl -sf -X POST "http://$ADDR/sessions" -H 'Content-Type: application/json' -d '{
  "database": "relation T1(AuName*, Journal*)\nT1(Joe, TKDE)\nT1(John, TKDE)\nrelation T2(Journal*, Topic*, Papers)\nT2(TKDE, XML, 30)\n",
  "queries": "Q4(x, y, z) :- T1(x, y), T2(y, z, w)"
}')"
grep -q '"sessionId"' <<<"$REG" || { echo "registration carries no sessionId: $REG"; exit 1; }
SID="$(sed -n 's/.*"sessionId":"\([^"]*\)".*/\1/p' <<<"$REG")"
[ -n "$SID" ] || { echo "could not extract session id from: $REG"; exit 1; }

# Two warm solves against the session: both must answer and carry the
# warm markers.
for i in 1 2; do
    OUT="$(curl -sf -X POST "http://$ADDR/sessions/$SID/solve" -H 'Content-Type: application/json' -d '{
      "deletions": "Q4(John, TKDE, XML)",
      "solver": "greedy"
    }')"
    grep -q '"warm":true' <<<"$OUT" || { echo "warm solve $i not marked warm: $OUT"; exit 1; }
    grep -q "\"session\":\"$SID\"" <<<"$OUT" || { echo "warm solve $i lost its session tag: $OUT"; exit 1; }
done

# /debug/sessions lists the entry; the hit counter covers both warm solves.
curl -sf "http://$OPS_ADDR/debug/sessions" | grep -q "\"id\":\"$SID\"" \
    || { echo "/debug/sessions does not list $SID"; exit 1; }
METRICS="$(curl -sf "http://$OPS_ADDR/metrics")"
grep -qE '^delprop_session_hits_total [2-9]' <<<"$METRICS" \
    || { echo "session hit counter did not reach 2"; grep delprop_session <<<"$METRICS" || true; exit 1; }
grep -qF 'delprop_session_misses_total 1' <<<"$METRICS" \
    || { echo "session miss counter is not 1 (the registration build)"; grep delprop_session <<<"$METRICS" || true; exit 1; }
grep -qF 'delprop_session_entries 1' <<<"$METRICS" \
    || { echo "session entries gauge is not 1"; grep delprop_session <<<"$METRICS" || true; exit 1; }
grep -qE '^delprop_session_warm_solve_seconds_count [2-9]' <<<"$METRICS" \
    || { echo "warm solve histogram did not record both solves"; grep delprop_session <<<"$METRICS" || true; exit 1; }

# Evict, then the session is gone: the solve must 404 as a miss.
curl -sf -X DELETE "http://$ADDR/sessions/$SID" | grep -q '"evicted":true' \
    || { echo "eviction not acknowledged"; exit 1; }
CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/sessions/$SID/solve" \
    -H 'Content-Type: application/json' -d '{"deletions": "Q4(John, TKDE, XML)"}')"
[ "$CODE" = "404" ] || { echo "solve after eviction returned $CODE, want 404"; exit 1; }

METRICS="$(curl -sf "http://$OPS_ADDR/metrics")"
grep -qF 'delprop_session_evictions_total{reason="explicit"} 1' <<<"$METRICS" \
    || { echo "explicit eviction not counted"; grep delprop_session <<<"$METRICS" || true; exit 1; }
grep -qF 'delprop_session_entries 0' <<<"$METRICS" \
    || { echo "entries gauge did not return to 0"; grep delprop_session <<<"$METRICS" || true; exit 1; }
grep -qE '^delprop_session_misses_total [2-9]' <<<"$METRICS" \
    || { echo "post-eviction solve did not count as a miss"; grep delprop_session <<<"$METRICS" || true; exit 1; }

stop_daemon
echo "session smoke OK"
