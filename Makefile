# delprop — build, test and experiment targets.

GO ?= go

.PHONY: all build test test-short race race-hot cover bench bench-json bench-diff experiments fuzz fuzz-smoke fmt vet lint lint-fix-check audit smoke chaos-smoke events-smoke series-smoke session-smoke clean

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
# batch worker pool, event bus, tracer, admission engine, breakers, the
# warm-session registry and the delprop CLI's -batch workers); -count=2
# defeats the test cache so the schedule differs between runs.
race-hot:
	$(GO) test -race -count=2 ./internal/core/ ./internal/view/ ./internal/server/ ./internal/session/ ./internal/telemetry/ ./internal/admission/ ./cmd/delprop/

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

fuzz:
	$(GO) test -run=FuzzParse -fuzz=FuzzParse -fuzztime=30s ./internal/cq/
	$(GO) test -run=FuzzParseDatabase -fuzz=FuzzParseDatabase -fuzztime=30s ./internal/textio/

# Short fuzz pass for CI: 10s per target on top of the checked-in seed
# corpora under internal/*/testdata/fuzz/.
fuzz-smoke:
	$(GO) test -run=FuzzParse -fuzz=FuzzParse -fuzztime=10s ./internal/cq/
	$(GO) test -run=FuzzParseDatabase -fuzz=FuzzParseDatabase -fuzztime=10s ./internal/textio/

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# Build and run the repo's own vet suite (tools/lint is a separate,
# stdlib-only module) over both modules — the lint module holds itself
# to its own invariants — then test the analyzers themselves. The
# invariant catalog is docs/STATIC_ANALYSIS.md.
lint:
	$(GO) -C tools/lint build -o bin/delproplint ./cmd/delproplint
	$(GO) vet -vettool=tools/lint/bin/delproplint ./...
	$(GO) -C tools/lint vet -vettool=$(CURDIR)/tools/lint/bin/delproplint ./...
	$(GO) -C tools/lint test ./...

# Assert the tree is lint-clean with no suppressions pending fixes: both
# modules vet clean under delproplint, which includes the lintdirective
# validation that every //delprop:guardedby names a sibling mutex field,
# every //delprop:holds names a receiver mutex, and every
# //delprop:nilsafe sits on a type declaration — a dangling directive
# anywhere fails this target.
lint-fix-check:
	$(GO) -C tools/lint build -o bin/delproplint ./cmd/delproplint
	$(GO) vet -vettool=tools/lint/bin/delproplint ./...
	$(GO) -C tools/lint vet -vettool=$(CURDIR)/tools/lint/bin/delproplint ./...
	@echo "lint-fix-check: both modules are delproplint-clean (directives validated)"

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

# End-to-end telemetry check: boots delpropd, drives a solve, scrapes
# /metrics and asserts the search counters moved (docs/OBSERVABILITY.md).
smoke:
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
