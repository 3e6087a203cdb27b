package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"delprop/internal/admission"
	"delprop/internal/session"
	"delprop/internal/telemetry"
)

// Config tunes the hardening middleware around the handlers. The zero
// value of any field falls back to the package default, so callers can set
// only what they care about.
type Config struct {
	// DefaultSolveTimeout bounds a solve when the request names none.
	DefaultSolveTimeout time.Duration
	// MaxSolveTimeout caps the request's own timeout field: clients may
	// ask for less time than the default, never more than this.
	MaxSolveTimeout time.Duration
	// MaxBodyBytes bounds request bodies (http.MaxBytesReader) on the
	// classic compute endpoints (/solve, /classify, /lineage, ...).
	MaxBodyBytes int64
	// MaxSessionBodyBytes bounds POST /sessions registration bodies. A
	// registration uploads a whole database, so its limit is much larger
	// than the solve-sized MaxBodyBytes.
	MaxSessionBodyBytes int64
	// MaxSessionSolveBodyBytes bounds POST /sessions/{id}/solve bodies. A
	// warm deletion request names view tuples only — no database — so its
	// limit is much smaller than MaxBodyBytes: a session solve cannot
	// smuggle a database-sized payload.
	MaxSessionSolveBodyBytes int64
	// SessionTTL is the idle lifetime of a registered session; reads
	// extend it (see internal/session).
	SessionTTL time.Duration
	// MaxSessions bounds resident sessions (LRU eviction beyond it).
	MaxSessions int
	// MaxConcurrent bounds simultaneously-running compute requests; excess
	// requests enter the graceful-degradation ladder (bounded queue for
	// high-priority tenants, downgrade to the cheap solver, then 429).
	MaxConcurrent int
	// MaxResilienceBudget caps the per-request resilience candidate
	// budget (the exact hitting-set search is exponential in it).
	MaxResilienceBudget int
	// MaxBatchItems caps how many instances one POST /solve/batch request
	// may carry.
	MaxBatchItems int
	// MaxBatchWorkers caps a batch's concurrent item solves (and is the
	// default when the request names no worker count).
	MaxBatchWorkers int
	// Admission enforces the tenant policy (rates, quotas, deadline caps,
	// solver allow-lists, priorities); nil installs the permissive
	// DefaultPolicy so the server runs unchanged without a policy file.
	Admission *admission.Engine
	// ShedQueueDepth bounds how many high-priority requests may wait for a
	// slot when the server is saturated (ladder rung 1).
	ShedQueueDepth int
	// ShedQueueWait bounds how long a queued high-priority request waits
	// before falling through to the next ladder rung.
	ShedQueueWait time.Duration
	// DegradedLanes bounds concurrently-running downgraded solves (ladder
	// rung 2); they run outside the MaxConcurrent semaphore because the
	// cheap solver under a tight deadline costs little.
	DegradedLanes int
	// BreakerThreshold is how many consecutive hard solver failures
	// (panic, timeout, unstoppable) trip that solver's circuit breaker;
	// negative disables breakers entirely, 0 means the default.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before
	// half-open probes test recovery.
	BreakerCooldown time.Duration
	// Logger receives structured request logs; nil means slog.Default().
	Logger *slog.Logger
	// Metrics receives the server's counters, gauges and histograms; nil
	// means a fresh registry per handler (exposed on GET /metrics).
	Metrics *telemetry.Registry
	// Tracer records per-solve phase traces; nil means a fresh tracer
	// with DefaultTraceBuffer capacity (exposed on GET /debug/traces).
	Tracer *telemetry.Tracer
	// Events is the live telemetry bus GET /events streams from; nil
	// means a fresh bus. Publishing is non-blocking: a slow subscriber
	// loses its oldest buffered events, never delays a solve.
	Events *telemetry.Bus
	// EventBuffer is each /events subscriber's ring capacity (events kept
	// while the consumer catches up); 0 means DefaultEventBuffer.
	EventBuffer int
	// EventHeartbeat is how often an idle /events stream emits a
	// heartbeat event (carrying the subscriber's drop counter); 0 means
	// DefaultEventHeartbeat.
	EventHeartbeat time.Duration
	// SeriesInterval is the rolling time-series sampler's tick period; 0
	// means telemetry.DefaultSeriesInterval. The sampler only ticks while
	// something drives it (delpropd runs Server.RunSampler; tests call
	// Server.Sampler().Tick()), so embedding the handler without either
	// costs nothing.
	SeriesInterval time.Duration
	// SeriesMaxWindow bounds how far back /debug/series windows can
	// reach (ring retention); 0 means telemetry.DefaultSeriesWindow.
	SeriesMaxWindow time.Duration
	// SLO holds the watchdog rules evaluated against the rolling windows
	// on every sampler tick (delpropd's -slo file). No rules, no
	// watchdog.
	SLO telemetry.SLOConfig
	// PostmortemCapacity bounds the flight recorder's bundle ring; 0
	// means DefaultPostmortemCapacity, negative disables capture.
	PostmortemCapacity int
	// PostmortemSlowSolve is the duration at or above which a successful
	// solve still captures a postmortem ("why was that slow"); 0 derives
	// it from the strictest SLO latency bound, negative disables
	// slow-solve capture.
	PostmortemSlowSolve time.Duration
}

// Defaults applied by withDefaults.
const (
	DefaultSolveTimeout    = 30 * time.Second
	DefaultMaxSolveTimeout = 2 * time.Minute
	DefaultMaxBodyBytes    = 4 << 20
	// DefaultMaxSessionBodyBytes admits database uploads on POST /sessions
	// (16x the solve limit); DefaultMaxSessionSolveBodyBytes bounds warm
	// deletion requests, which carry no database text.
	DefaultMaxSessionBodyBytes      = 64 << 20
	DefaultMaxSessionSolveBodyBytes = 1 << 20
	DefaultMaxConcurrent            = 64
	DefaultResilienceBudget         = 24
	DefaultMaxResilienceLimit       = 28
	DefaultMaxBatchItems            = 64
	DefaultMaxBatchWorkers          = 4
	DefaultShedQueueDepth           = 16
	DefaultShedQueueWait            = 500 * time.Millisecond
	DefaultDegradedLanes            = 4
	DefaultEventBuffer              = telemetry.DefaultSubscriberBuffer
	DefaultEventHeartbeat           = 15 * time.Second
	// DefaultPostmortemCapacity bounds the flight recorder's ring: deep
	// enough to cover an incident review, bounded because every bundle
	// pins a trace, a stats snapshot and an event slice.
	DefaultPostmortemCapacity = 64
)

func (c Config) withDefaults() Config {
	if c.DefaultSolveTimeout <= 0 {
		c.DefaultSolveTimeout = DefaultSolveTimeout
	}
	if c.MaxSolveTimeout <= 0 {
		c.MaxSolveTimeout = DefaultMaxSolveTimeout
	}
	if c.MaxSolveTimeout < c.DefaultSolveTimeout {
		c.DefaultSolveTimeout = c.MaxSolveTimeout
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.MaxSessionBodyBytes <= 0 {
		c.MaxSessionBodyBytes = DefaultMaxSessionBodyBytes
	}
	if c.MaxSessionSolveBodyBytes <= 0 {
		c.MaxSessionSolveBodyBytes = DefaultMaxSessionSolveBodyBytes
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = session.DefaultTTL
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = session.DefaultMaxEntries
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = DefaultMaxConcurrent
	}
	if c.MaxResilienceBudget <= 0 {
		c.MaxResilienceBudget = DefaultMaxResilienceLimit
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = DefaultMaxBatchItems
	}
	if c.MaxBatchWorkers <= 0 {
		c.MaxBatchWorkers = DefaultMaxBatchWorkers
	}
	if c.Admission == nil {
		c.Admission = admission.NewEngine(nil)
	}
	if c.ShedQueueDepth <= 0 {
		c.ShedQueueDepth = DefaultShedQueueDepth
	}
	if c.ShedQueueWait <= 0 {
		c.ShedQueueWait = DefaultShedQueueWait
	}
	if c.DegradedLanes <= 0 {
		c.DegradedLanes = DefaultDegradedLanes
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = admission.DefaultBreakerThreshold
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = admission.DefaultBreakerCooldown
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Metrics == nil {
		c.Metrics = telemetry.NewRegistry()
	}
	if c.Tracer == nil {
		c.Tracer = telemetry.NewTracer(0)
	}
	if c.Events == nil {
		c.Events = telemetry.NewBus()
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = DefaultEventBuffer
	}
	if c.EventHeartbeat <= 0 {
		c.EventHeartbeat = DefaultEventHeartbeat
	}
	if c.SeriesInterval <= 0 {
		c.SeriesInterval = telemetry.DefaultSeriesInterval
	}
	if c.SeriesMaxWindow <= 0 {
		c.SeriesMaxWindow = telemetry.DefaultSeriesWindow
	}
	if c.PostmortemCapacity == 0 {
		c.PostmortemCapacity = DefaultPostmortemCapacity
	}
	return c
}

// api holds the mounted configuration and the shared concurrency
// semaphores: sem bounds full-fidelity compute requests, queueSlots bounds
// high-priority waiters, and degradedSem bounds downgraded solves.
type api struct {
	cfg         Config
	sem         chan struct{}
	queueSlots  chan struct{}
	degradedSem chan struct{}
	breakers    *admission.BreakerSet
	// latencyAll aggregates solve latency across solvers; Retry-After
	// hints fall back to its p90 when the rolling 1m window is empty
	// (see retryAfterSeconds).
	latencyAll *telemetry.Histogram
	// sampler drives the rolling time-series rings behind /debug/series
	// and the SLO watchdog; watchdog is nil without SLO rules.
	sampler  *telemetry.Sampler
	watchdog *telemetry.Watchdog
	// recorder holds the finished-solve records and postmortem bundles
	// (nil when capture is disabled).
	recorder *flightRecorder
	// sessions is the warm-solve registry behind POST /sessions (see
	// internal/session and session.go in this package).
	sessions *session.Registry
	// slowSolve is the resolved over-SLO solve capture threshold
	// (Config.PostmortemSlowSolve, possibly derived; 0 disables).
	slowSolve time.Duration
	nextID    atomic.Uint64
	draining  atomic.Bool
	// start anchors the delprop_process_uptime_seconds gauge.
	start time.Time
}

// requestIDKey carries the request id through the request context.
type requestIDKey struct{}

func contextWithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// requestID returns the id minted for this request ("" outside the
// middleware chain).
func requestID(r *http.Request) string {
	id, _ := r.Context().Value(requestIDKey{}).(string)
	return id
}

// statusRecorder captures the response status for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

// Flush forwards streaming support so SSE handlers (GET /events) work
// through the instrumentation wrapper.
func (s *statusRecorder) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument is the outermost middleware: mints a request id, recovers
// panics into 500 JSON responses, and writes one structured log line per
// request with latency and outcome.
func (a *api) instrument(next http.Handler) http.Handler {
	inflight := a.cfg.Metrics.Gauge(metricHTTPInFlight,
		"HTTP requests currently being served.", nil)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := "r" + strconv.FormatUint(a.nextID.Add(1), 10)
		r = r.WithContext(contextWithRequestID(r.Context(), id))
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		inflight.Add(1)
		defer func() {
			if v := recover(); v != nil {
				a.cfg.Logger.Error("panic serving request",
					"requestId", id, "path", r.URL.Path,
					"panic", fmt.Sprint(v), "stack", string(debug.Stack()))
				// Best effort: if the handler already wrote, this is a no-op
				// on the status line but the connection is torn down anyway.
				writeErr(rec, http.StatusInternalServerError, codeInternal,
					fmt.Errorf("internal error (request %s)", id), id)
			}
			inflight.Add(-1)
			a.observeHTTP(r.Method, r.URL.Path, rec.status, time.Since(start))
			a.cfg.Logger.Info("request",
				"requestId", id,
				"method", r.Method,
				"path", r.URL.Path,
				"status", rec.status,
				"durationMs", time.Since(start).Milliseconds())
		}()
		next.ServeHTTP(rec, r)
	})
}

// limitBody bounds the request body to n bytes; oversized bodies surface
// as *http.MaxBytesError during decode and map to 413. Each endpoint
// class carries its own limit: solve-shaped payloads get
// Config.MaxBodyBytes, session registrations (database uploads) the much
// larger MaxSessionBodyBytes, and warm session solves the much smaller
// MaxSessionSolveBodyBytes.
func (a *api) limitBody(next http.Handler, n int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, n)
		next.ServeHTTP(w, r)
	})
}

// shedResponse writes one 429 with the rule that fired and a Retry-After
// in whole seconds.
func (a *api) shedResponse(w http.ResponseWriter, r *http.Request, rule string, retryAfter int, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	writeJSON(w, http.StatusTooManyRequests, errorResponse{
		Error: err.Error(), Code: codeOverloaded, Rule: rule, RequestID: requestID(r)})
}

// admit replaces the old binary load shedder with tenant-aware admission
// plus a graceful-degradation ladder. Per request:
//
//  1. Classify the tenant from the policy header (unknown values collapse
//     to the default tenant) and run its token-bucket rate limit and
//     concurrency quota — violations are shed immediately with 429 and a
//     rule name.
//  2. Try the full-fidelity semaphore; on success the request runs
//     normally.
//  3. Saturated: high-priority tenants may wait in a bounded queue for a
//     slot (rung 1). If no slot frees within ShedQueueWait, fall through.
//  4. Degradable endpoints (solve, batch) with downgrade-permitted tenants
//     run in a bounded degraded lane: the solve path swaps in the cheap
//     solver under a tightened deadline and flags the response
//     degraded=true with the rule name (rung 2).
//  5. Otherwise 429, code overloaded, with Retry-After computed from the
//     live solve-latency histogram instead of a hardcoded constant
//     (rung 3).
func (a *api) admit(next http.Handler, degradable bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		eng := a.cfg.Admission
		claimed := r.Header.Get(eng.TenantHeader())
		tenant, pol, explicit := eng.Resolve(claimed)
		dec := eng.Admit(tenant)
		if !dec.OK {
			a.observeAdmission(requestID(r), dec.Tenant, "shed-"+dec.Rule)
			retry := int(dec.RetryAfter / time.Second)
			if retry < 1 {
				retry = a.retryAfterSeconds()
			}
			a.shedResponse(w, r, dec.Rule, retry,
				fmt.Errorf("tenant %q rejected by %s", dec.Tenant, dec.Rule))
			return
		}
		defer dec.Release()
		inflight := a.cfg.Metrics.Gauge(metricAdmissionInflight,
			"Compute requests currently admitted, by tenant.",
			telemetry.Labels{"tenant": dec.Tenant})
		inflight.Add(1)
		defer inflight.Add(-1)

		info := &admission.RequestInfo{Tenant: dec.Tenant, Priority: pol.Priority, Explicit: explicit}
		r = r.WithContext(admission.WithRequestInfo(r.Context(), info))

		// Full-fidelity fast path.
		select {
		case a.sem <- struct{}{}:
			a.observeAdmission(requestID(r), dec.Tenant, "admitted")
			defer func() { <-a.sem }()
			next.ServeHTTP(w, r)
			return
		default:
		}

		// Rung 1: bounded short queue for high-priority tenants.
		if pol.Priority == admission.PriorityHigh {
			if done := a.queueForSlot(w, r, dec.Tenant, next); done {
				return
			}
		}

		// Rung 2: downgrade to the cheap solver in a bounded lane.
		if degradable && pol.Degrade {
			select {
			case a.degradedSem <- struct{}{}:
				info.Degraded = true
				info.Rule = admission.RuleOverloadDegrade
				a.observeAdmission(requestID(r), dec.Tenant, "degraded")
				defer func() { <-a.degradedSem }()
				next.ServeHTTP(w, r)
				return
			default:
			}
		}

		// Rung 3: shed, with a live Retry-After estimate.
		a.observeAdmission(requestID(r), dec.Tenant, "shed-"+admission.RuleOverload)
		a.shedResponse(w, r, admission.RuleOverload, a.retryAfterSeconds(),
			fmt.Errorf("server at capacity (%d concurrent requests)", a.cfg.MaxConcurrent))
	})
}

// queueForSlot parks a high-priority request in the bounded queue until a
// full-fidelity slot frees, the wait budget expires, or the client goes
// away. It reports whether the request was fully handled here.
func (a *api) queueForSlot(w http.ResponseWriter, r *http.Request, tenant string, next http.Handler) bool {
	select {
	case a.queueSlots <- struct{}{}:
	default:
		return false // queue full: fall through the ladder
	}
	start := time.Now()
	timer := time.NewTimer(a.cfg.ShedQueueWait)
	defer timer.Stop()
	select {
	case a.sem <- struct{}{}:
		<-a.queueSlots
		a.cfg.Metrics.Histogram(metricAdmissionQueueWait,
			"Seconds high-priority requests waited in the bounded overload queue before getting a slot.",
			nil, nil).Observe(time.Since(start).Seconds())
		a.observeAdmission(requestID(r), tenant, "queued")
		defer func() { <-a.sem }()
		next.ServeHTTP(w, r)
		return true
	case <-timer.C:
		<-a.queueSlots
		return false // wait budget spent: fall through the ladder
	case <-r.Context().Done():
		<-a.queueSlots
		// The client is gone; nothing to write, but the request is done.
		return true
	}
}

// compute wires the middleware that applies to CPU-bound POST endpoints.
// degradable marks endpoints the overload ladder may downgrade to the
// cheap solver instead of shedding (solve and batch; classify, lineage and
// resilience have no solver to swap).
func (a *api) compute(h http.HandlerFunc, degradable bool) http.Handler {
	return a.computeLimited(h, degradable, a.cfg.MaxBodyBytes)
}

// computeLimited is compute with a per-endpoint body limit.
func (a *api) computeLimited(h http.HandlerFunc, degradable bool, bodyLimit int64) http.Handler {
	return a.admit(a.limitBody(h, bodyLimit), degradable)
}
