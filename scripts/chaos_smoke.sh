#!/usr/bin/env bash
# End-to-end chaos smoke: boot delpropd with the chaos solver registry and
# a tenant policy, then walk the resilience machinery through its whole
# arc — breaker trip on injected panics, reroute to the fallback solver,
# half-open probe recovery, a rate-limit shed, a forced downgrade under
# saturation, and an overload shed — asserting each step on the HTTP
# responses, /debug/breakers and /metrics. CI runs this; it also works
# locally (needs curl).
set -euo pipefail

ADDR="${ADDR:-127.0.0.1:18081}"
OPS_ADDR="${OPS_ADDR:-127.0.0.1:19091}"
source "$(dirname "$0")/lib.sh"
POLICY="$WORK/policy.json"

build delpropd

cat >"$POLICY" <<'EOF'
{
  "tenants": [
    {"name": "default"},
    {"name": "limited", "ratePerSec": 0.001, "burst": 1},
    {"name": "nodegrade", "degrade": false}
  ]
}
EOF

# One compute slot makes saturation trivial to stage; breaker threshold 3
# matches chaos-flaky's three injected panics, so the breaker opens at
# the exact moment the solver heals.
start_daemon -policy "$POLICY" \
    -fault-solvers -breaker-threshold 3 -breaker-cooldown 2s \
    -max-concurrent 1 -degraded-lanes 2 -shed-queue-wait 100ms

# solve POSTs the Fig. 1 running example; $1 = solver, $2 = tenant
# (empty for none), $3 = timeout. Prints "status body".
solve() {
    local solver=$1 tenant=$2 timeout=${3:-5s} hdr=()
    [ -n "$tenant" ] && hdr=(-H "X-Delprop-Tenant: $tenant")
    curl -s -o /tmp/chaos_body.$$ -w '%{http_code}' "${hdr[@]}" \
        -X POST "http://$ADDR/solve" -H 'Content-Type: application/json' -d '{
  "database": "relation T1(AuName*, Journal*)\nT1(Joe, TKDE)\nT1(John, TKDE)\nrelation T2(Journal*, Topic*, Papers)\nT2(TKDE, XML, 30)\n",
  "queries": "Q4(x, y, z) :- T1(x, y), T2(y, z, w)",
  "deletions": "Q4(John, TKDE, XML)",
  "solver": "'"$solver"'",
  "timeout": "'"$timeout"'"
}'
    echo " $(cat /tmp/chaos_body.$$)"
    rm -f /tmp/chaos_body.$$
}

# --- 1. Breaker arc: trip on three injected panics... ---------------------
for i in 1 2 3; do
    out=$(solve chaos-flaky "")
    grep -q '^500 ' <<<"$out" || { echo "flaky call $i: want contained 500, got: $out"; exit 1; }
done
curl -sf "http://$OPS_ADDR/debug/breakers" | grep -q '"solver":"chaos-flaky","state":"open"' \
    || { echo "breaker did not open after $i panics"; curl -s "http://$OPS_ADDR/debug/breakers"; exit 1; }

# ...reroute to the fallback while open... --------------------------------
out=$(solve chaos-flaky "")
grep -q '^200 .*"solver":"greedy"' <<<"$out" \
    || { echo "open breaker did not reroute to greedy: $out"; exit 1; }

# ...and recover through a half-open probe once the cooldown passes. The
# flaky solver healed on its third panic, so the probe must succeed and
# close the breaker; the next request runs on the real solver again.
sleep 2.5
out=$(solve chaos-flaky "")
grep -q '^200 .*"solver":"chaos-flaky"' <<<"$out" \
    || { echo "half-open probe did not run the healed solver: $out"; exit 1; }
out=$(solve chaos-flaky "")
grep -q '^200 .*"solver":"chaos-flaky"' <<<"$out" \
    || { echo "breaker did not close after probe success: $out"; exit 1; }
curl -sf "http://$OPS_ADDR/debug/breakers" | grep -q '"solver":"chaos-flaky","state":"closed"' \
    || { echo "breaker not closed after recovery"; curl -s "http://$OPS_ADDR/debug/breakers"; exit 1; }

# --- 2. Rate limit: the one-token bucket sheds the second request. --------
out=$(solve greedy limited)
grep -q '^200 ' <<<"$out" || { echo "first limited request: $out"; exit 1; }
out=$(solve greedy limited)
grep -q '^429 .*"rule":"rate-limit"' <<<"$out" \
    || { echo "over-rate request not shed with rate-limit rule: $out"; exit 1; }

# --- 3. Saturation: hold the single slot with a blocking chaos solve, ----
# then watch one request downgrade to greedy and a degrade-disabled
# tenant get shed with a computed Retry-After.
curl -s -X POST "http://$ADDR/solve" -H 'Content-Type: application/json' -d '{
  "database": "relation T1(AuName*, Journal*)\nT1(Joe, TKDE)\nT1(John, TKDE)\nrelation T2(Journal*, Topic*, Papers)\nT2(TKDE, XML, 30)\n",
  "queries": "Q4(x, y, z) :- T1(x, y), T2(y, z, w)",
  "deletions": "Q4(John, TKDE, XML)",
  "solver": "chaos-block",
  "timeout": "6s"
}' >/dev/null &
BLOCK=$!
for _ in $(seq 1 50); do
    curl -sf "http://$OPS_ADDR/metrics" \
        | grep -qF 'delprop_admission_inflight_requests{tenant="default"} 1' && break
    sleep 0.1
done

out=$(solve brute-force "")
grep -q '^200 .*"degraded":true' <<<"$out" \
    || { echo "saturated solve not downgraded: $out"; exit 1; }
grep -q '"degradedRule":"overload-degrade"' <<<"$out" \
    || { echo "degraded response carries no rule: $out"; exit 1; }
grep -q '"solver":"greedy"' <<<"$out" \
    || { echo "degraded solve did not run the cheap solver: $out"; exit 1; }

shed_headers=$(curl -s -D - -o /dev/null -H 'X-Delprop-Tenant: nodegrade' \
    -X POST "http://$ADDR/solve" -H 'Content-Type: application/json' -d '{
  "database": "relation T1(AuName*, Journal*)\nT1(Joe, TKDE)\nT1(John, TKDE)\nrelation T2(Journal*, Topic*, Papers)\nT2(TKDE, XML, 30)\n",
  "queries": "Q4(x, y, z) :- T1(x, y), T2(y, z, w)",
  "deletions": "Q4(John, TKDE, XML)",
  "solver": "greedy"
}')
grep -q '^HTTP/1.1 429' <<<"$shed_headers" \
    || { echo "degrade-disabled tenant not shed under saturation"; echo "$shed_headers"; exit 1; }
# Header lines end in CRLF; the value is the live p90 clamped to >= 1s.
grep -qiE $'^retry-after: [1-9][0-9]*\r?$' <<<"$shed_headers" \
    || { echo "shed response missing a computed Retry-After"; echo "$shed_headers"; exit 1; }

wait "$BLOCK" 2>/dev/null || true

# --- 4. Everything above must be visible on /metrics. ---------------------
METRICS="$(curl -sf "http://$OPS_ADDR/metrics")"
fail=0
for want in \
    'delprop_breaker_transitions_total{solver="chaos-flaky",to="open"} 1' \
    'delprop_breaker_transitions_total{solver="chaos-flaky",to="half-open"} 1' \
    'delprop_breaker_transitions_total{solver="chaos-flaky",to="closed"} 1' \
    'delprop_breaker_state{solver="chaos-flaky"} 0' \
    'delprop_breaker_rerouted_total{from="chaos-flaky",to="greedy"} 1' \
    'delprop_admission_decisions_total{decision="shed-rate-limit",tenant="limited"} 1' \
    'delprop_admission_decisions_total{decision="degraded",tenant="default"} 1' \
    'delprop_admission_degraded_solves_total{rule="overload-degrade",tenant="default"} 1' \
    'delprop_admission_decisions_total{decision="shed-overload",tenant="nodegrade"} 1'
do
    if ! grep -qF "$want" <<<"$METRICS"; then
        echo "missing metric line: $want"
        fail=1
    fi
done
if ! grep -E '^delprop_admission_solve_latency_seconds_count [1-9]' <<<"$METRICS" >/dev/null; then
    echo "aggregate solve-latency histogram never observed"
    fail=1
fi
if [ "$fail" -ne 0 ]; then
    echo "---- /metrics ----"
    echo "$METRICS"
    exit 1
fi

stop_daemon
echo "chaos smoke OK"
