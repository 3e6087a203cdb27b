# delprop — build, test and experiment targets.

GO ?= go

.PHONY: all build test test-short race race-hot cover bench bench-json bench-diff experiments fuzz fuzz-smoke fmt vet lint bench-load-check audit smoke metrics-smoke chaos-smoke events-smoke series-smoke session-smoke clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# Focused -race pass over the concurrency-heavy packages (parallel
# portfolio, concurrent greedy scoring, the supervised solve goroutine,
# relation snapshots that alias the row array concurrent warm solves
# read, the evaluator's results over them, batch worker pool, event bus,
# tracer, admission engine, breakers, the warm-session registry and the
# delprop CLI's -batch workers); -count=2 defeats the test cache so the
# schedule differs between runs.
race-hot:
	$(GO) test -race -count=2 ./internal/core/ ./internal/view/ ./internal/relation/ ./internal/cq/ ./internal/server/ ./internal/session/ ./internal/telemetry/ ./internal/admission/ ./cmd/delprop/

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every paper table/figure/theorem experiment (E1..E20).
experiments:
	$(GO) run ./cmd/benchrunner

# Structured benchmark capture: run every experiment BENCH_REPEAT times
# and write a versioned BENCH JSON (internal/benchkit schema; see
# docs/OBSERVABILITY.md "Benchmark capture & regression workflow").
BENCH_REPEAT ?= 5
bench-json:
	mkdir -p out
	$(GO) run ./cmd/benchrunner -json out/BENCH_local.json -repeat $(BENCH_REPEAT)

# Compare a fresh capture against the committed baseline: exits nonzero
# on significant latency regressions or any guarantee-ratio violation.
bench-diff: bench-json
	$(GO) run ./cmd/benchdiff bench/baseline.json out/BENCH_local.json

# The fuzz targets, FUZZTIME each, on top of the checked-in seed corpora
# under internal/*/testdata/fuzz/.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run='^FuzzParse$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME) ./internal/cq/
	$(GO) test -run='^FuzzEvaluate$$' -fuzz='^FuzzEvaluate$$' -fuzztime=$(FUZZTIME) ./internal/cq/
	$(GO) test -run='^FuzzParseDatabase$$' -fuzz='^FuzzParseDatabase$$' -fuzztime=$(FUZZTIME) ./internal/textio/
	$(GO) test -run='^FuzzRelationOps$$' -fuzz='^FuzzRelationOps$$' -fuzztime=$(FUZZTIME) ./internal/relation/
	$(GO) test -run='^FuzzTraceFreeze$$' -fuzz='^FuzzTraceFreeze$$' -fuzztime=$(FUZZTIME) ./internal/telemetry/

# Short fuzz pass for CI: the same targets at 10s each.
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=10s

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# Build and run the repo's own vet suite (tools/lint is a separate,
# stdlib-only module) over both modules — the lint module holds itself
# to its own invariants — run the whole-module testonly pass over the
# root module (go vet sees one package at a time, so it cannot), then
# test the analyzers themselves. The invariant catalog is
# docs/STATIC_ANALYSIS.md.
lint:
	$(GO) -C tools/lint build -o bin/delproplint ./cmd/delproplint
	$(GO) vet -vettool=tools/lint/bin/delproplint ./...
	$(GO) -C tools/lint vet -vettool=$(CURDIR)/tools/lint/bin/delproplint ./...
	tools/lint/bin/delproplint -testonly ./...
	$(GO) -C tools/lint test ./...

# bench/load is its own module, so the root ./... never compiles it
# against the server and session APIs it drives: vet and test it here.
bench-load-check:
	$(GO) -C bench/load vet ./...
	$(GO) -C bench/load test ./...

# Static analysis + vulnerability scan. delproplint always runs (it
# builds offline); staticcheck/govulncheck skip gracefully when not
# installed (CI installs and runs both unconditionally).
audit: lint
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "audit: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "audit: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# The five end-to-end smoke scripts below, one after another.
smoke: metrics-smoke chaos-smoke events-smoke series-smoke session-smoke

# End-to-end telemetry check: boots delpropd, drives a solve, scrapes
# /metrics and asserts the search counters moved (docs/OBSERVABILITY.md).
metrics-smoke:
	./scripts/metrics_smoke.sh

# End-to-end resilience check: boots delpropd with the chaos solvers and
# a tenant policy, walks a circuit breaker through trip → reroute →
# half-open probe → recovery, and exercises the rate-limit/degrade/shed
# ladder (docs/OPERATIONS.md "Admission control and degradation").
chaos-smoke:
	./scripts/chaos_smoke.sh

# End-to-end live-telemetry check: boots delpropd, subscribes to the GET
# /events SSE stream (curl -N and delprop tail), drives a solve, and
# asserts the correlated solve_start → phase → incumbent → solve_done
# sequence plus the delprop_events_* bus metrics (docs/OBSERVABILITY.md
# "Live event stream").
events-smoke:
	./scripts/events_smoke.sh

# End-to-end observability-chain check: boots delpropd with chaos
# solvers, a fast sampler tick and an SLO config bounding failed solves
# at zero, drives injected panics, and asserts the slo_breach event on
# GET /events, the windowed regression on GET /debug/series, the breach
# counter on /metrics, the correlated postmortem bundle on GET
# /debug/postmortems/{id}, and one delprop top frame
# (docs/OBSERVABILITY.md "Rolling time-series store").
series-smoke:
	./scripts/series_smoke.sh

# End-to-end warm-session check: boots delpropd, registers a session,
# solves twice warm and asserts the hit counter moved, evicts and asserts
# the follow-up solve misses with 404 (docs/OPERATIONS.md "Warm
# sessions").
session-smoke:
	./scripts/session_smoke.sh

clean:
	$(GO) clean -testcache
