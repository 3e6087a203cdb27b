# Shared setup of the scripts/*_smoke.sh end-to-end checks. A smoke
# script sets `set -euo pipefail`, ADDR and OPS_ADDR, then sources this
# file, which gives it:
#
#   WORK              a fresh temporary directory
#   LOG               $WORK/delpropd.log, the daemon's output
#   build CMD...      go build ./cmd/CMD into $WORK/CMD, for each CMD
#   start_daemon ARG...
#                     start $WORK/delpropd on $ADDR and $OPS_ADDR with the
#                     extra flags ARG..., logging to $LOG, and wait up to
#                     5 s for its /healthz; PID is its process id. From
#                     then on, a failing exit stops every background job
#                     the script started and prints $LOG.
#   stop_daemon       stop delpropd at the end of a passing run, without
#                     the log dump

WORK="$(mktemp -d)"
LOG="$WORK/delpropd.log"

build() {
    local cmd
    for cmd in "$@"; do
        go build -o "$WORK/$cmd" "./cmd/$cmd"
    done
}

start_daemon() {
    "$WORK/delpropd" -addr "$ADDR" -ops-addr "$OPS_ADDR" "$@" >"$LOG" 2>&1 &
    PID=$!
    trap smoke_failed EXIT
    for _ in $(seq 1 50); do
        curl -sf "http://$OPS_ADDR/healthz" >/dev/null 2>&1 && break
        sleep 0.1
    done
    curl -sf "http://$OPS_ADDR/healthz" >/dev/null
}

smoke_failed() {
    # Unquoted: one word per job.
    kill $(jobs -p) 2>/dev/null || true
    cat "$LOG"
}

stop_daemon() {
    kill "$PID"
    wait "$PID" 2>/dev/null || true
    trap - EXIT
}
