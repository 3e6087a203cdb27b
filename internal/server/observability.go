package server

import (
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"delprop/internal/admission"
	"delprop/internal/core"
	"delprop/internal/telemetry"
)

// Metric families exported by the server. docs/OBSERVABILITY.md is the
// operator-facing contract for these names; renaming one is a breaking
// change for dashboards.
const (
	metricHTTPRequests     = "delprop_http_requests_total"
	metricHTTPInFlight     = "delprop_http_in_flight_requests"
	metricDraining         = "delprop_draining"
	metricSolveDuration    = "delprop_solve_duration_seconds"
	metricSolvesTotal      = "delprop_solves_total"
	metricNodesExpanded    = "delprop_solver_nodes_expanded_total"
	metricBranchesPruned   = "delprop_solver_branches_pruned_total"
	metricCheckpoints      = "delprop_solver_checkpoints_total"
	metricIncumbentUpdates = "delprop_solver_incumbent_updates_total"
	metricRestarts         = "delprop_solver_restarts_total"
	metricQualityRatio     = "delprop_solve_quality_ratio"
	metricBuildInfo        = "delprop_build_info"
	metricUptime           = "delprop_process_uptime_seconds"
	metricGoroutines       = "delprop_goroutines"
	metricHeapInuse        = "delprop_heap_inuse_bytes"

	// Parallel solve engine (portfolio races + batch worker pool).
	metricParallelRaces     = "delprop_parallel_races_total"
	metricParallelCancelled = "delprop_parallel_cancelled_losers_total"
	metricBatchWorkersBusy  = "delprop_parallel_batch_workers_busy"
	metricBatchWorkerMs     = "delprop_parallel_batch_worker_ms_total"
	metricBatchItems        = "delprop_parallel_batch_items_total"
	metricBatchRequests     = "delprop_parallel_batch_requests_total"

	// Tenant admission control + degradation ladder.
	metricAdmissionDecisions = "delprop_admission_decisions_total"
	metricAdmissionInflight  = "delprop_admission_inflight_requests"
	metricAdmissionQueueWait = "delprop_admission_queue_wait_seconds"
	metricAdmissionLatency   = "delprop_admission_solve_latency_seconds"
	metricDegradedSolves     = "delprop_admission_degraded_solves_total"

	// Per-solver circuit breakers.
	metricBreakerState       = "delprop_breaker_state"
	metricBreakerTransitions = "delprop_breaker_transitions_total"
	metricBreakerRerouted    = "delprop_breaker_rerouted_total"

	// Live telemetry bus behind GET /events.
	metricEventsPublished   = "delprop_events_published_total"
	metricEventsDropped     = "delprop_events_dropped_total"
	metricEventsSubscribers = "delprop_events_subscribers"

	// SLO watchdog (series.go).
	metricSLOBreaches = "delprop_slo_breaches_total"

	// Warm session registry (session.go).
	metricSessionHits      = "delprop_session_hits_total"
	metricSessionMisses    = "delprop_session_misses_total"
	metricSessionEvictions = "delprop_session_evictions_total"
	metricSessionEntries   = "delprop_session_entries"
	metricSessionWarmSolve = "delprop_session_warm_solve_seconds"
)

// qualityRatioBuckets lays out the approximation-ratio histogram: ratio 1
// is an exact solve, and the paper's guarantees for the instances the
// server accepts fall well inside the tail buckets.
var qualityRatioBuckets = []float64{1, 1.05, 1.1, 1.25, 1.5, 2, 3, 5, 10, 25, 100}

// observeHTTP records one finished HTTP request. Path and method arrive
// straight off the wire, so both are normalized through the mounted
// route table before they become label values: a client probing
// /wp-admin ten thousand times must not mint ten thousand series.
func (a *api) observeHTTP(method, path string, status int, dur time.Duration) {
	route := routeLabel(path)
	verb := methodLabel(method)
	a.metrics.Counter(metricHTTPRequests,
		"HTTP requests served, by path, method and status.",
		telemetry.Labels{"path": route, "method": verb, "status": httpStatusLabel(status)}).Inc()
	a.metrics.Histogram("delprop_http_request_duration_seconds",
		"HTTP request latency in seconds, by path.",
		nil, telemetry.Labels{"path": route}).Observe(dur.Seconds())
}

// routeLabel collapses a request path into the bounded set of mounted
// routes (mirroring Handler's mux table); anything else — typos, scans,
// 404 probes — shares one "other" series.
func routeLabel(path string) string {
	switch path {
	case "/solve":
		return "/solve"
	case "/solve/batch":
		return "/solve/batch"
	case "/classify":
		return "/classify"
	case "/lineage":
		return "/lineage"
	case "/resilience":
		return "/resilience"
	case "/healthz":
		return "/healthz"
	case "/metrics":
		return "/metrics"
	case "/debug/traces":
		return "/debug/traces"
	case "/debug/breakers":
		return "/debug/breakers"
	case "/debug/series":
		return "/debug/series"
	case "/debug/slo":
		return "/debug/slo"
	case "/events":
		return "/events"
	case "/sessions":
		return "/sessions"
	case "/debug/sessions":
		return "/debug/sessions"
	}
	// Session ids are server-minted but still collapse to one series per
	// sub-route.
	if strings.HasPrefix(path, "/sessions/") {
		if strings.HasSuffix(path, "/solve") {
			return "/sessions/{id}/solve"
		}
		return "/sessions/{id}"
	}
	if strings.HasPrefix(path, "/debug/pprof") {
		return "/debug/pprof"
	}
	// The {id} suffix is client-chosen, so every bundle fetch shares one
	// series.
	if strings.HasPrefix(path, "/debug/postmortems") {
		return "/debug/postmortems"
	}
	return "other"
}

// methodLabel bounds the method label to the verbs the server routes;
// arbitrary verbs in the request line collapse to "other".
func methodLabel(method string) string {
	switch method {
	case http.MethodGet:
		return http.MethodGet
	case http.MethodPost:
		return http.MethodPost
	case http.MethodHead:
		return http.MethodHead
	case http.MethodOptions:
		return http.MethodOptions
	}
	return "other"
}

// httpStatusLabel keeps status label cardinality bounded even if a handler
// writes an exotic code.
func httpStatusLabel(status int) string {
	if status >= 100 && status < 600 {
		return strconv.Itoa(status)
	}
	return "other"
}

// observeSolve records one finished (or interrupted) solve that ran: the
// latency histogram per solver, the outcome counter, the search-progress
// counters aggregated from the solve's Stats, the race summary, the
// breaker outcome and the degraded-solve count.
func (a *api) observeSolve(rec *solveRecord) {
	reg := a.metrics
	solver, outcome, snap := rec.solver, rec.outcome, rec.stats
	dur := *rec.phase(telemetry.PhaseSolve)
	reg.Histogram(metricSolveDuration,
		"Solve latency in seconds, by solver.",
		nil, telemetry.Labels{"solver": solver}).Observe(dur.Seconds())
	reg.Counter(metricSolvesTotal,
		"Solves finished, by solver and outcome (ok, partial, error, timeout, canceled, panic, unstoppable).",
		telemetry.Labels{"solver": solver, "outcome": outcome}).Inc()
	lb := telemetry.Labels{"solver": solver}
	reg.Counter(metricNodesExpanded,
		"Search nodes expanded (branch-and-bound subtrees, brute-force masks, greedy probes).",
		lb).Add(snap.NodesExpanded)
	reg.Counter(metricBranchesPruned,
		"Search branches cut by a bound before expansion.",
		lb).Add(snap.BranchesPruned)
	reg.Counter(metricCheckpoints,
		"Cooperative cancellation checkpoints hit during solves.",
		lb).Add(snap.Checkpoints)
	reg.Counter(metricIncumbentUpdates,
		"Best-so-far incumbent improvements recorded during solves.",
		lb).Add(snap.IncumbentUpdates)
	reg.Counter(metricRestarts,
		"Outer-loop restarts (local-search passes, τ-sweep iterations, portfolio members).",
		lb).Add(snap.Restarts)
	if snap.QualityRatio != nil {
		reg.Histogram(metricQualityRatio,
			"Observed approximation ratio (achieved objective / proven lower bound) per solve, by solver. Ratio 1 is a certified-optimal solve.",
			qualityRatioBuckets, lb).Observe(*snap.QualityRatio)
	}
	// The unlabeled aggregate feeds Retry-After hints (retryAfterSeconds);
	// per-solver histograms cannot be merged quantile-correctly at read time.
	a.latencyAll.Observe(dur.Seconds())
	if rec.race != nil {
		a.observeRace(*rec.race)
	}
	a.breakers.Record(solver, rec.breakerOutcome())
	if rec.degraded {
		reg.Counter(metricDegradedSolves,
			"Solves forced onto the degrade solver, by tenant and the rule that fired.",
			telemetry.Labels{"tenant": rec.tenant, "rule": rec.rule}).Inc()
	}
}

// observeAdmission counts one admission-ladder decision for a tenant and
// mirrors it onto the live event bus. decision is one of admitted,
// queued, degraded, or shed-<rule>.
func (a *api) observeAdmission(reqID, tenant, decision string) {
	a.metrics.Counter(metricAdmissionDecisions,
		"Admission-ladder decisions, by tenant and decision (admitted, queued, degraded, shed-<rule>).",
		telemetry.Labels{"tenant": tenant, "decision": decision}).Inc()
	a.publish(nil, admissionEvent(reqID, tenant, decision))
}

// admissionEvent reports one admission-ladder decision.
func admissionEvent(reqID, tenant, decision string) telemetry.Event {
	return telemetry.Event{Type: eventAdmission, RequestID: reqID, Tenant: tenant,
		Fields: telemetry.Fields{{Key: "decision", Value: decision}}}
}

// retryAfterSeconds derives the Retry-After hint for shed responses from
// solve latency: the p90 solve time is how long a running request
// plausibly keeps its slot, so retrying sooner mostly burns the client's
// rate budget. The estimate prefers the rolling 1m window (what solves
// cost *now*) and falls back to the lifetime aggregate histogram only
// while the window is empty — a long-running daemon's morning traffic no
// longer pollutes its evening shed hints. Clamped to [1, 60] whole
// seconds (no data → 1, matching the old hardcoded hint).
func (a *api) retryAfterSeconds() int {
	p90, ok := a.sampler.Quantile(metricAdmissionLatency, nil, time.Minute, 0.9)
	if !ok {
		p90 = a.latencyAll.Quantile(0.9)
	}
	secs := int(math.Ceil(p90))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// registerBreakerMetrics wires the breaker set's transition hook to the
// per-solver state gauge (0 closed, 1 half-open, 2 open) and transition
// counter. Called once at mount time; the hook runs with the breaker lock
// held, so it must stay allocation-light and never call back into the set.
func (a *api) registerBreakerMetrics() {
	if a.breakers == nil {
		return
	}
	reg := a.metrics
	a.breakers.SetTransitionHook(func(solver string, to admission.BreakerState) {
		reg.Gauge(metricBreakerState,
			"Circuit breaker state per solver: 0 closed, 1 half-open, 2 open.",
			telemetry.Labels{"solver": solver}).Set(float64(to))
		reg.Counter(metricBreakerTransitions,
			"Circuit breaker state transitions, by solver and destination state.",
			telemetry.Labels{"solver": solver, "to": to.String()}).Inc()
		a.publish(nil, breakerEvent(solver, to))
	})
}

// breakerEvent reports a solver's circuit breaker entering state to.
func breakerEvent(solver string, to admission.BreakerState) telemetry.Event {
	return telemetry.Event{Type: eventBreaker, Solver: solver,
		Fields: telemetry.Fields{{Key: "state", Value: to.String()}}}
}

// registerEventMetrics wires the live event bus's health hooks to the
// delprop_events_* family: published and dropped counters plus the
// current subscriber gauge. Like the breaker hook, these run inline on
// the publish path and stay allocation-light (the metric handles are
// resolved once here).
func (a *api) registerEventMetrics() {
	reg := a.metrics
	published := reg.Counter(metricEventsPublished,
		"Events published onto the live telemetry bus (whether or not anyone was subscribed).", nil)
	dropped := reg.Counter(metricEventsDropped,
		"Events evicted from a slow /events subscriber's bounded buffer instead of delaying a solve.", nil)
	subscribers := reg.Gauge(metricEventsSubscribers,
		"Current /events subscriptions.", nil)
	a.events.SetHooks(telemetry.BusHooks{
		OnPublish:     published.Inc,
		OnDrop:        dropped.Inc,
		OnSubscribers: func(n int) { subscribers.Set(float64(n)) },
	})
}

// observeBreakerReroute counts one request routed to the fallback solver
// because the requested solver's breaker was open.
func (a *api) observeBreakerReroute(from, to string) {
	a.metrics.Counter(metricBreakerRerouted,
		"Requests rerouted to a fallback solver because the requested solver's breaker was open, by solver pair.",
		telemetry.Labels{"from": from, "to": to}).Inc()
}

// observeRace records one finished portfolio race: who won (and whether
// the win was a proven-optimality early cancellation) and how many losing
// members were cancelled before completion.
func (a *api) observeRace(rs core.RaceSnapshot) {
	winner := rs.Winner
	if winner == "" {
		winner = "none"
	}
	a.metrics.Counter(metricParallelRaces,
		"Portfolio races finished, by winning solver and whether the win was a proven-optimality early exit.",
		telemetry.Labels{"winner": winner, "proven": strconv.FormatBool(rs.Proven)}).Inc()
	a.metrics.Counter(metricParallelCancelled,
		"Portfolio members cancelled (or skipped) before completion because another member already held a provably optimal solution.",
		nil).Add(int64(rs.CancelledLosers))
}

// observeBatch records one finished POST /solve/batch request.
func (a *api) observeBatch(resp BatchResponse, dur time.Duration) {
	reg := a.metrics
	reg.Counter(metricBatchRequests,
		"Batch solve requests finished, by completeness (full or partial).",
		telemetry.Labels{"partial": strconv.FormatBool(resp.Partial)}).Inc()
	for _, c := range []struct {
		outcome string
		n       int
	}{{"ok", resp.Completed}, {"error", resp.Failed}, {"skipped", resp.Skipped}} {
		if c.n > 0 {
			reg.Counter(metricBatchItems,
				"Batch items processed, by outcome (ok, error, skipped).",
				telemetry.Labels{"outcome": c.outcome}).Add(int64(c.n))
		}
	}
	reg.Histogram("delprop_parallel_batch_duration_seconds",
		"Wall-clock latency of whole batch requests in seconds.",
		nil, nil).Observe(dur.Seconds())
}

// registerBuildInfo publishes the delprop_build_info gauge (constant 1,
// with the build identity as labels — the standard Prometheus pattern for
// joining dashboards against versions) and initializes the process-level
// runtime gauges the sampler tick (or, before the first tick, each
// /metrics scrape) refreshes.
func (a *api) registerBuildInfo() {
	labels := telemetry.Labels{"goversion": runtime.Version(), "revision": "unknown", "modified": "false"}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				labels["revision"] = s.Value
			case "vcs.modified":
				labels["modified"] = s.Value
			}
		}
	}
	a.metrics.Gauge(metricBuildInfo,
		"Build identity (constant 1; the labels carry go version and VCS revision).",
		labels).Set(1)
	a.updateRuntimeGauges()
}

// updateRuntimeGauges refreshes the per-scrape process gauges: uptime,
// goroutine count and heap in use.
func (a *api) updateRuntimeGauges() {
	reg := a.metrics
	reg.Gauge(metricUptime,
		"Seconds since this server was constructed.", nil).Set(time.Since(a.start).Seconds())
	reg.Gauge(metricGoroutines,
		"Current goroutine count.", nil).Set(float64(runtime.NumGoroutine()))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	reg.Gauge(metricHeapInuse,
		"Bytes of heap memory in use (runtime.MemStats.HeapInuse).", nil).Set(float64(ms.HeapInuse))
}

// handleMetrics renders the registry in the Prometheus text exposition
// format. Once the sampler is ticking, the runtime gauges refresh on its
// tick (initSeries) so /metrics and /debug/series report the same
// values; until the first tick — embedders that never drive the sampler
// — each scrape refreshes them itself, preserving the old behavior.
func (a *api) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if a.sampler.Ticks() == 0 {
		a.updateRuntimeGauges()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	a.metrics.WritePrometheus(w)
}

// TracesResponse is the /debug/traces payload.
type TracesResponse struct {
	Traces []telemetry.TraceJSON `json:"traces"`
}

// handleTraces returns solve traces, oldest first. Query parameters:
// ?state=finished (default) serves the ring of completed traces,
// ?state=live serves the solves still in flight (open spans render with
// zero duration, the trace carries live:true and its elapsed time), and
// ?state=all concatenates both. ?solver=<name> and ?tenant=<name> keep
// only traces whose attribute matches, and ?format=text renders a
// human-readable listing instead of the default JSON.
func (a *api) handleTraces(w http.ResponseWriter, r *http.Request) {
	var snap []telemetry.TraceJSON
	switch state := r.URL.Query().Get("state"); state {
	case "", "finished":
		snap = a.tracer.Snapshot()
	case "live":
		snap = a.tracer.LiveSnapshot()
	case "all":
		snap = append(a.tracer.Snapshot(), a.tracer.LiveSnapshot()...)
	default:
		writeErr(w, http.StatusBadRequest, codeInvalidRequest,
			fmt.Errorf("state: unknown value %q (want finished, live or all)", state), requestID(r))
		return
	}
	if snap == nil {
		snap = []telemetry.TraceJSON{}
	}
	for _, attr := range []string{"solver", "tenant"} {
		want := r.URL.Query().Get(attr)
		if want == "" {
			continue
		}
		kept := make([]telemetry.TraceJSON, 0, len(snap))
		for _, t := range snap {
			if t.Attrs[attr] == want {
				kept = append(kept, t)
			}
		}
		snap = kept
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, TracesResponse{Traces: snap})
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeTracesText(w, snap)
	default:
		writeErr(w, http.StatusBadRequest, codeInvalidRequest,
			fmt.Errorf("format: unknown value %q (want json or text)", format), requestID(r))
	}
}

// writeTracesText renders traces one per line with sorted attributes (map
// order must never leak into output) and indented spans.
func writeTracesText(w http.ResponseWriter, traces []telemetry.TraceJSON) {
	for _, t := range traces {
		fmt.Fprintf(w, "#%d %s %.3fms", t.ID, t.Name, t.DurationMs)
		keys := make([]string, 0, len(t.Attrs))
		for k := range t.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%s", k, t.Attrs[k])
		}
		fmt.Fprintln(w)
		for _, s := range t.Spans {
			fmt.Fprintf(w, "  %-10s +%.3fms %.3fms\n", s.Name, s.OffsetMs, s.DurationMs)
		}
	}
}

// BreakersResponse is the /debug/breakers payload: every solver that has
// ever recorded a failure, sorted by name.
type BreakersResponse struct {
	Breakers []admission.BreakerStatus `json:"breakers"`
}

// handleBreakers reports the live circuit-breaker states for operators
// debugging a tripped solver.
func (a *api) handleBreakers(w http.ResponseWriter, r *http.Request) {
	snap := a.breakers.Snapshot()
	if snap == nil {
		snap = []admission.BreakerStatus{}
	}
	writeJSON(w, http.StatusOK, BreakersResponse{Breakers: snap})
}

// handleHealthz answers liveness probes; once draining it flips to 503 so
// load balancers stop routing before the shutdown grace period expires.
func (a *api) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if a.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// OpsHandler returns the operational endpoint mux intended for a separate,
// non-public listener (delpropd's -ops-addr): /metrics, /debug/traces,
// /events, /healthz, and — when enablePprof is set — the net/http/pprof
// profiling handlers under /debug/pprof/. pprof is opt-in because profiles
// can stall the process and leak internals; never expose this mux to
// untrusted clients.
func (s *Server) OpsHandler(enablePprof bool) http.Handler {
	a := s.api
	mux := http.NewServeMux()
	a.mountReads(mux)
	if enablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}
