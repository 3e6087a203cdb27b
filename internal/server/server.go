// Package server exposes the deletion-propagation library over HTTP with
// JSON payloads: solve instances, classify query sets, and explain view
// tuple lineage. The cmd/delpropd binary mounts it; tests drive it through
// httptest. Inputs reuse the textio database format and datalog query
// syntax, so files accepted by the CLI can be POSTed verbatim.
//
// The handler chain is hardened for untrusted traffic: every compute
// request runs under a deadline (default + per-request "timeout" field,
// capped server-side), bodies are size-limited, panics become 500 JSON
// responses carrying a request id, and solves interrupted by their
// deadline degrade to the solver's incumbent solution when one exists.
// Admission is tenant-aware (internal/admission): a policy file attaches
// rate limits, quotas, deadline caps, solver allow-lists and priorities
// per tenant, and saturation walks a graceful-degradation ladder (bounded
// queue, forced cheap-solver downgrade, computed-Retry-After 429) instead
// of shedding outright. Per-solver circuit breakers isolate solvers that
// keep panicking or timing out. See docs/OPERATIONS.md for the
// operational contract.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"delprop/internal/admission"
	"delprop/internal/classify"
	"delprop/internal/core"
	"delprop/internal/cq"
	"delprop/internal/lineage"
	"delprop/internal/relation"
	"delprop/internal/session"
	"delprop/internal/telemetry"
	"delprop/internal/textio"
	"delprop/internal/view"
)

// Server is the mounted API: an http.Handler plus the operational surface
// (drain flag, admission engine, sampler and janitor loops, ops mux) that
// delpropd wires to flags and signals.
type Server struct {
	api     *api
	handler http.Handler
}

// NewHandler mounts the routes under cfg (zero fields take defaults).
func NewHandler(cfg Config) *Server {
	a := &api{
		cfg:     cfg.withDefaults(),
		metrics: telemetry.NewRegistry(),
		tracer:  telemetry.NewTracer(0),
		events:  telemetry.NewBus(),
		start:   time.Now(),
	}
	a.sem = make(chan struct{}, a.cfg.MaxConcurrent)
	a.queueSlots = make(chan struct{}, a.cfg.ShedQueueDepth)
	a.degradedSem = make(chan struct{}, a.cfg.DegradedLanes)
	if a.cfg.BreakerThreshold > 0 {
		// Negative thresholds disable breakers: a nil BreakerSet allows
		// everything and records nothing.
		a.breakers = admission.NewBreakerSet(admission.BreakerConfig{
			Threshold: a.cfg.BreakerThreshold,
			Cooldown:  a.cfg.BreakerCooldown,
		})
	}
	a.latencyAll = a.metrics.Histogram(metricAdmissionLatency,
		"Solve latency in seconds aggregated across solvers; shed responses derive Retry-After from its p90.",
		nil, nil)
	a.registerBreakerMetrics()
	a.registerEventMetrics()
	a.registerBuildInfo()
	a.initSessions()
	a.initSeries()
	mux := http.NewServeMux()
	// solve and batch are degradable: the overload ladder may downgrade
	// them to the tenant's cheap solver instead of shedding. The other
	// compute endpoints have no solver to swap, so they queue or shed.
	mux.Handle("POST /solve", a.compute(a.handleSolve, true))
	mux.Handle("POST /solve/batch", a.compute(a.handleSolveBatch, true))
	mux.Handle("POST /classify", a.compute(a.handleClassify, false))
	mux.Handle("POST /lineage", a.compute(a.handleLineage, false))
	mux.Handle("POST /resilience", a.compute(a.handleResilience, false))
	// Session registration uploads a database, so it runs under its own
	// (much larger) body limit; warm session solves name view tuples only
	// and get a much smaller one — a deletion request cannot smuggle a
	// database-sized payload. Warm solves are degradable like /solve.
	mux.Handle("POST /sessions", a.computeLimited(a.handleSessionRegister, false, DefaultMaxSessionBodyBytes))
	mux.Handle("POST /sessions/{id}/solve", a.computeLimited(a.handleSessionSolve, true, DefaultMaxSessionSolveBodyBytes))
	// Eviction is a cheap registry operation, not compute.
	mux.HandleFunc("DELETE /sessions/{id}", a.handleSessionDelete)
	a.mountReads(mux)
	return &Server{api: a, handler: a.instrument(mux)}
}

// mountReads registers liveness and the observability reads — metrics,
// traces, breakers, rolling series, SLO standing, the postmortem flight
// recorder, resident sessions and the live event stream. They stay
// outside the shedder, so a saturated server still answers probes and
// scrapes and an operator can watch it; the ops listener (OpsHandler)
// mounts the same set.
func (a *api) mountReads(mux *http.ServeMux) {
	mux.HandleFunc("GET /healthz", a.handleHealthz)
	mux.HandleFunc("GET /metrics", a.handleMetrics)
	mux.HandleFunc("GET /debug/traces", a.handleTraces)
	mux.HandleFunc("GET /debug/breakers", a.handleBreakers)
	mux.HandleFunc("GET /debug/series", a.handleSeries)
	mux.HandleFunc("GET /debug/slo", a.handleSLO)
	mux.HandleFunc("GET /debug/postmortems", a.handlePostmortems)
	mux.HandleFunc("GET /debug/postmortems/{id}", a.handlePostmortem)
	mux.HandleFunc("GET /debug/sessions", a.handleDebugSessions)
	mux.HandleFunc("GET /events", a.handleEvents)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// SetDraining flips the drain flag: once set, GET /healthz answers 503
// {"status":"draining"} so load balancers stop routing new traffic while
// in-flight requests finish. delpropd sets it on SIGINT/SIGTERM before
// calling http.Server.Shutdown.
func (s *Server) SetDraining(v bool) {
	s.api.draining.Store(v)
	// The session registry mirrors the drain flag: new registrations and
	// warm acquisitions are refused while in-flight warm solves run to
	// completion against their pinned entries.
	s.api.sessions.SetDraining(v)
	g := s.api.metrics.Gauge(metricDraining,
		"1 once SIGTERM drain has begun, 0 while serving normally.", nil)
	if v {
		g.Set(1)
		// End the live /events subscriptions: each stream writes a terminal
		// stream_end event (with its drop count) and closes, so open SSE
		// connections never hold http.Server.Shutdown hostage.
		s.api.events.Shutdown()
	} else {
		g.Set(0)
	}
}

// Admission returns the server's admission engine — delpropd holds it to
// hot-reload the policy on SIGHUP.
func (s *Server) Admission() *admission.Engine { return s.api.cfg.Admission }

// Sampler returns the rolling time-series sampler behind GET
// /debug/series. It takes no samples until RunSampler (or a direct
// Tick) drives it.
func (s *Server) Sampler() *telemetry.Sampler { return s.api.sampler }

// RunSampler ticks the rolling time-series sampler at its configured
// interval until ctx is done. delpropd runs it in a goroutine for the
// daemon's lifetime; embedders that skip it keep the pre-series
// behavior (per-scrape runtime gauges, lifetime-histogram Retry-After,
// no windowed data).
func (s *Server) RunSampler(ctx context.Context) { s.api.sampler.Run(ctx) }

// RunSessionJanitor sweeps expired sessions at a quarter of the session
// TTL until ctx is done. delpropd runs it in a goroutine; embedders that
// skip it still evict lazily (an expired entry misses on its next read)
// but idle entries linger until then.
func (s *Server) RunSessionJanitor(ctx context.Context) {
	interval := s.api.cfg.SessionTTL / 4
	if interval < time.Second {
		interval = time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-tick.C:
			s.api.sessions.Sweep(now)
		}
	}
}

// InstanceRequest is the common instance payload: textio database, datalog
// queries, and (for solve) a textio deletion request.
type InstanceRequest struct {
	Database  string `json:"database"`
	Queries   string `json:"queries"`
	Deletions string `json:"deletions,omitempty"`
	// Solver names a core solver ("auto" default; see cmd/delprop).
	Solver string `json:"solver,omitempty"`
	// Weights maps "Qname(v1,v2,...)" view tuples to preservation
	// weights.
	Weights map[string]float64 `json:"weights,omitempty"`
	// Timeout is a Go duration ("500ms", "10s") bounding the solve; it is
	// clamped to the server's maximum. Empty means the server default.
	Timeout string `json:"timeout,omitempty"`
	// ResilienceBudget bounds the exact hitting-set search of /resilience
	// (capped server-side; 0 means the default).
	ResilienceBudget int `json:"resilienceBudget,omitempty"`
	// Tenant optionally names the tenant for clients that cannot set the
	// admission header. The header wins when it matches a configured
	// tenant; this field only refines request shaping (solver allow-list,
	// deadline and budget caps) — rate and quota admission already ran in
	// the middleware, before the body was decoded.
	Tenant string `json:"tenant,omitempty"`
}

// TupleJSON is one source tuple in responses.
type TupleJSON struct {
	Relation string   `json:"relation"`
	Values   []string `json:"values"`
}

// SolveResponse reports a computed deletion.
type SolveResponse struct {
	Solver       string      `json:"solver"`
	Deleted      []TupleJSON `json:"deleted"`
	Feasible     bool        `json:"feasible"`
	SideEffect   float64     `json:"sideEffect"`
	Collateral   []string    `json:"collateral,omitempty"`
	BadRemaining int         `json:"badRemaining"`
	Balanced     float64     `json:"balanced"`
	LowerBound   *float64    `json:"lowerBound,omitempty"`
	// Partial marks a solution recovered from a solver interrupted by its
	// deadline: the best incumbent found in time, not a completed run.
	Partial bool `json:"partial,omitempty"`
	// Interrupted names why a partial solve stopped ("deadline" or
	// "canceled").
	Interrupted string `json:"interrupted,omitempty"`
	RequestID   string `json:"requestId,omitempty"`
	// Stats carries the solve's search-progress counters (nodes expanded,
	// branches pruned, checkpoints, incumbent updates, restarts) — the
	// same numbers the CLI -stats flag and the bench harness report.
	Stats *core.StatsSnapshot `json:"stats,omitempty"`
	// PhaseMs maps lifecycle phases (parse, views, classify, solve,
	// evaluate) to their duration in fractional milliseconds.
	PhaseMs map[string]float64 `json:"phaseMs,omitempty"`
	// Race reports how a portfolio race went (winner, cancelled losers,
	// per-member counters); absent when the solver ran no portfolio.
	Race *core.RaceSnapshot `json:"race,omitempty"`
	// Tenant is the admission-resolved tenant the solve was accounted to.
	Tenant string `json:"tenant,omitempty"`
	// Degraded marks a solve the overload ladder downgraded to the
	// tenant's cheap solver under a tightened deadline; DegradedRule names
	// the policy rule that fired.
	Degraded     bool   `json:"degraded,omitempty"`
	DegradedRule string `json:"degradedRule,omitempty"`
	// Session names the warm session that served the solve and Warm marks
	// it as amortized (POST /sessions/{id}/solve); both absent on the
	// cold /solve path.
	Session string `json:"session,omitempty"`
	Warm    bool   `json:"warm,omitempty"`
}

// Machine-readable error codes (see docs/OPERATIONS.md for the taxonomy).
const (
	codeInvalidRequest    = "invalid_request"
	codeUnknownSolver     = "unknown_solver"
	codeSolverFailed      = "solver_failed"
	codeBodyTooLarge      = "body_too_large"
	codeOverloaded        = "overloaded"
	codeDeadlineExceeded  = "deadline_exceeded"
	codeCanceled          = "canceled"
	codeInternal          = "internal"
	codeNotFound          = "not_found"
	codeSolverUnstoppable = "solver_unstoppable"
	codeBatchTooLarge     = "batch_too_large"
	codeSolverDenied      = "solver_denied"
	codeSessionNotFound   = "session_not_found"
	codeSessionLimit      = "session_limit"
)

type errorResponse struct {
	Error     string `json:"error"`
	Code      string `json:"code,omitempty"`
	RequestID string `json:"requestId,omitempty"`
	// Rule names the admission-policy rule behind a 429 (rate-limit,
	// tenant-concurrency, overload). A 403 carries none: its code,
	// solver_denied, already names the allow-list.
	Rule string `json:"rule,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code string, err error, reqID string) {
	writeJSON(w, status, errorResponse{Error: err.Error(), Code: code, RequestID: reqID})
}

// decodeJSON decodes a request body, translating the body-limit error to
// 413 and malformed JSON to 400. It reports whether decoding succeeded.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit), requestID(r))
			return false
		}
		writeErr(w, http.StatusBadRequest, codeInvalidRequest, fmt.Errorf("decode: %w", err), requestID(r))
		return false
	}
	return true
}

// tenantShaping resolves the policy that shapes a request: the
// middleware's header-resolved tenant, refined by the body's tenant field
// when the header did not explicitly match a configured tenant. pol is
// nil outside the admission middleware (direct library embedding).
func (a *api) tenantShaping(ctx context.Context, bodyTenant string) (string, *admission.TenantPolicy, *admission.RequestInfo) {
	info := admission.InfoFromContext(ctx)
	if info == nil {
		return "", nil, nil
	}
	tenant := info.Tenant
	_, pol, _ := a.cfg.Admission.Resolve(tenant)
	if !info.Explicit && bodyTenant != "" {
		if name, p2, explicit := a.cfg.Admission.Resolve(bodyTenant); explicit {
			tenant, pol = name, p2
		}
	}
	return tenant, pol, info
}

// solveDeadline resolves a request's timeout spec against the configured
// default, the server-wide cap and the tenant's deadline cap, in one
// place so no caller can recombine them inconsistently. The contract:
//
//   - empty spec means the server default, NOT "no limit" — and the
//     default is still subject to the tenant cap below;
//   - an explicit "0" (or any non-positive duration) is an error, never
//     "unlimited": a spec that parses to zero must not outlive a tenant
//     whose cap is finite;
//   - every resolution is the min of (spec-or-default, MaxSolveTimeout,
//     tenant MaxDeadline): clamps only ever tighten, so a tenant's cap is
//     never widened by any spec.
//
// pol may be nil (no admission policy in play).
func (a *api) solveDeadline(spec string, pol *admission.TenantPolicy) (time.Duration, error) {
	d, err := a.parseTimeout(spec)
	if err != nil {
		return 0, err
	}
	if d == 0 {
		d = min(a.cfg.DefaultSolveTimeout, a.cfg.MaxSolveTimeout)
	}
	if pol != nil && pol.MaxDeadline > 0 && d > pol.MaxDeadline {
		d = pol.MaxDeadline
	}
	return d, nil
}

// parseTimeout parses a request's timeout spec, clamped to
// MaxSolveTimeout. Empty gives 0 (unset); a malformed or non-positive
// spec is an error.
func (a *api) parseTimeout(spec string) (time.Duration, error) {
	if spec == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(spec)
	if err != nil {
		return 0, fmt.Errorf("timeout: %w", err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("timeout: must be positive, got %v", d)
	}
	return min(d, a.cfg.MaxSolveTimeout), nil
}

// parseInstance is the parse phase of the shared instance payload: text to
// database, queries and deletion request, no view materialization yet.
func parseInstance(req *InstanceRequest) (*relation.Instance, []*cq.Query, *view.Deletion, error) {
	db, queries, err := parseSources(req.Database, req.Queries)
	if err != nil {
		return nil, nil, nil, err
	}
	var delta *view.Deletion
	if req.Deletions != "" {
		delta, err = textio.ParseDeletions(req.Deletions, queries)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("deletions: %w", err)
		}
	}
	return db, queries, delta, nil
}

// parseSources parses the database and query program every instance
// payload carries: /solve's, a session's, and classify, lineage and
// resilience's. A program with no query is malformed.
func parseSources(database, program string) (*relation.Instance, []*cq.Query, error) {
	db, err := textio.ParseDatabase(database)
	if err != nil {
		return nil, nil, fmt.Errorf("database: %w", err)
	}
	queries, err := cq.ParseProgram(program)
	if err != nil {
		return nil, nil, fmt.Errorf("queries: %w", err)
	}
	if len(queries) == 0 {
		return nil, nil, errors.New("queries: empty program")
	}
	return db, queries, nil
}

// applyWeights sets the preservation weights named by "Qname(v1,...)"
// specs on p. Specs are parsed in sorted order, and two specs naming one
// view tuple must agree on its weight: the parser trims arguments, so
// "Q(a, b)" and "Q(a,b)" are the same tuple, and a conflict resolved by
// map order would make the same request answer differently. Weights must
// be non-negative: a negative one rewards destroying the tuple, so the
// side effect could fall below the dual lower bound.
func applyWeights(p *core.Problem, weights map[string]float64, queries []*cq.Query) error {
	specs := make([]string, 0, len(weights))
	for spec := range weights {
		specs = append(specs, spec)
	}
	sort.Strings(specs)
	seen := make(map[string]string, len(specs))
	for _, spec := range specs {
		if weights[spec] < 0 {
			return fmt.Errorf("weights: %q has negative weight %v", spec, weights[spec])
		}
		del, err := textio.ParseDeletions(spec, queries)
		if err != nil {
			return fmt.Errorf("weights: %w", err)
		}
		for _, ref := range del.Refs() {
			if prev, ok := seen[ref.Key()]; ok && weights[prev] != weights[spec] {
				return fmt.Errorf("weights: %q and %q name the same tuple with different weights (%v, %v)",
					prev, spec, weights[prev], weights[spec])
			}
			seen[ref.Key()] = spec
			p.SetWeight(ref, weights[spec])
		}
	}
	return nil
}

// solveError is a failed solve ready for HTTP rendering: status, machine
// code, and the underlying error. Batch items reuse it without a
// ResponseWriter in hand.
type solveError struct {
	status int
	code   string
	err    error
}

func (e *solveError) write(w http.ResponseWriter, reqID string) {
	writeErr(w, e.status, e.code, e.err, reqID)
}

func (a *api) handleSolve(w http.ResponseWriter, r *http.Request) {
	reqID := requestID(r)
	var req InstanceRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	resp, serr := a.solveInstance(r.Context(), reqID, &req)
	if serr != nil {
		serr.write(w, reqID)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// solveSource describes one solve for the engine: the requested solver,
// timeout and weights, the body's tenant hint, how to parse the request,
// and — for warm solves — the session entry serving it.
type solveSource struct {
	requested string             // requested solver name; empty means "auto"
	timeout   string             // the request's timeout spec
	tenant    string             // body/session tenant hint for tenantShaping
	weights   map[string]float64 // preservation weights by view tuple spec
	entry     *session.Entry     // the warm session serving the solve; nil on the cold path
	// parse is the parse phase: the whole instance on the cold path, the
	// deletion request alone on the warm path. It returns the queries the
	// weights name tuples of and the views phase, which builds the
	// problem: view materialization when cold, skeleton specialization
	// when warm.
	parse func() ([]*cq.Query, func() (*core.Problem, error), error)
}

// solveInstance runs one cold solve end to end — parse, materialize,
// classify, supervised solve, evaluate — under ctx plus the request's own
// deadline. It is the path behind POST /solve (ctx = the request context)
// and each POST /solve/batch item (ctx = the batch context, reqID =
// "<batch>.<i>"); POST /sessions/{id}/solve shares the engine with a warm
// solveSource.
func (a *api) solveInstance(ctx context.Context, reqID string, req *InstanceRequest) (*SolveResponse, *solveError) {
	return a.runInstance(ctx, reqID, solveSource{
		requested: req.Solver,
		timeout:   req.Timeout,
		tenant:    req.Tenant,
		weights:   req.Weights,
		parse: func() ([]*cq.Query, func() (*core.Problem, error), error) {
			db, queries, delta, err := parseInstance(req)
			return queries, func() (*core.Problem, error) { return core.NewProblem(db, queries, delta) }, err
		},
	})
}

// runInstance wraps core.Run, the one solve path, in what is HTTP's own:
// deadline resolution, tenant shaping, the parse and views phases, the
// solver allow-list, classification-driven solver selection and breaker
// rerouting. It fills one solveRecord as it goes; every observability
// surface derives from that record (record.go). Cold and warm paths
// differ only in their solveSource.
func (a *api) runInstance(ctx context.Context, reqID string, src solveSource) (*SolveResponse, *solveError) {
	tenant, pol, info := a.tenantShaping(ctx, src.tenant)
	deadline, err := a.solveDeadline(src.timeout, pol)
	if err != nil {
		return nil, &solveError{http.StatusBadRequest, codeInvalidRequest, err}
	}
	rec := &solveRecord{reqID: reqID, log: solveLog(ctx, reqID), tenant: tenant, requested: src.requested, solver: src.requested}
	if src.requested == "" {
		rec.requested, rec.solver = "auto", "auto"
	}
	if src.entry != nil {
		rec.session = src.entry.ID
	}
	// A request the overload ladder downgraded runs the tenant's cheap
	// solver under its tightened deadline, whatever the body asked for.
	if info != nil && info.Degraded {
		rec.degraded, rec.rule = true, info.Rule
		if dd := pol.DegradeDeadlineOrDefault(); deadline > dd {
			deadline = dd
		}
	}
	rec.deadline = deadline
	rec.trace = a.tracer.Start("solve")
	// Every exit below goes through finish, which finishes the trace; the
	// deferred call covers a panic escaping to the handler middleware.
	defer rec.trace.Finish()
	rec.annotate()
	a.publish(rec.trace, rec.startEvent())

	phase := func(name string) func() { return a.beginPhase(rec, name) }
	end := phase(telemetry.PhaseParse)
	queries, build, err := src.parse()
	end()
	var p *core.Problem
	if err == nil {
		end = phase(telemetry.PhaseViews)
		if p, err = build(); err == nil {
			err = applyWeights(p, src.weights, queries)
		}
		end()
	}
	if err != nil {
		return nil, a.finish(rec, outcomeRejected, &solveError{http.StatusBadRequest, codeInvalidRequest, err})
	}
	rec.dbSize, rec.queries, rec.deltaSize = p.DB.Size(), len(p.Queries), p.DeltaLen()

	// The allow-list matches the *requested* name ("auto" included), so
	// operators reason about what clients ask for, not what the router
	// resolves it to.
	if !pol.AllowsSolver(rec.requested) {
		return nil, a.finish(rec, outcomeRejected, &solveError{http.StatusForbidden, codeSolverDenied,
			fmt.Errorf("tenant %q may not request solver %q", tenant, rec.requested)})
	}
	name := rec.requested
	if rec.degraded {
		name = pol.DegradeSolverName()
	}
	end = phase(telemetry.PhaseClassify)
	solver, err := PickSolver(name, p)
	if err == nil {
		rec.solver = solver.Name() // before end(): the classify event names it
	}
	end()
	if err != nil {
		return nil, a.finish(rec, outcomeRejected, &solveError{http.StatusBadRequest, codeUnknownSolver, err})
	}
	// An open circuit breaker routes the request to the tenant's fallback
	// solver while half-open probes test recovery. If the fallback resolves
	// to the same (broken) solver there is nothing cheaper to run, so the
	// request proceeds and its outcome is ignored by the open breaker.
	if !a.breakers.Allow(rec.solver) {
		if fb, ferr := PickSolver(pol.DegradeSolverName(), p); ferr == nil && fb.Name() != rec.solver {
			a.observeBreakerReroute(rec.solver, fb.Name())
			a.cfg.Logger.Warn("breaker open; rerouting to fallback solver",
				"requestId", reqID, "solver", rec.solver, "fallback", fb.Name())
			solver, rec.solver = fb, fb.Name()
		}
	}
	rec.annotate()

	res, err := core.Run(ctx, solver, p, deadline, core.RunHooks{
		Phase: phase,
		// Stream solver progress live: incumbent improvements, lower-bound
		// certificates and race member lifecycle flow straight from the
		// solver goroutines onto the (non-blocking) bus. The callback only
		// reads record fields that are fixed before the solve starts.
		Progress: func(pe core.ProgressEvent) { a.publish(rec.trace, rec.progressEvent(pe)) },
	})
	rec.stats = res.Stats
	if err != nil {
		outcome, serr := a.solveFailure(reqID, err)
		return nil, a.finish(rec, outcome, serr)
	}
	resp := &SolveResponse{
		Feasible:     res.Report.Feasible,
		SideEffect:   res.Report.SideEffect,
		BadRemaining: res.Report.BadRemaining,
		Balanced:     res.Report.Balanced,
		LowerBound:   res.LowerBound,
		Partial:      res.Partial,
		Interrupted:  res.Interrupted,
	}
	for _, id := range res.Solution.Deleted {
		resp.Deleted = append(resp.Deleted, toTupleJSON(id))
	}
	for _, ref := range res.Report.Collateral {
		resp.Collateral = append(resp.Collateral, ref.String())
	}
	rec.race = res.Race
	outcome := "ok"
	if res.Partial {
		outcome = "partial"
	}
	a.finish(rec, outcome, nil)
	rec.fill(resp)
	return resp, nil
}

// solveFailure maps a failed solve to its record outcome and HTTP error;
// handleResilience shares it. Panics and abandoned solvers are logged
// here, where the request id is known.
func (a *api) solveFailure(reqID string, err error) (string, *solveError) {
	var pe *core.PanicError
	var ue *core.UnstoppableError
	switch {
	case errors.As(err, &pe):
		a.cfg.Logger.Error("solver panic",
			"requestId", reqID, "solver", pe.Solver,
			"panic", fmt.Sprint(pe.Value), "stack", string(pe.Stack))
		return "panic", &solveError{http.StatusInternalServerError, codeInternal,
			fmt.Errorf("internal error (request %s)", reqID)}
	case errors.As(err, &ue):
		a.cfg.Logger.Warn("solver ignored its context; abandoning goroutine",
			"requestId", reqID, "solver", ue.Solver)
		return "unstoppable", &solveError{http.StatusGatewayTimeout, codeSolverUnstoppable, err}
	}
	switch core.InterruptCause(err) {
	case "canceled":
		// The client is gone; the response is written for the log's
		// benefit only.
		return "canceled", &solveError{statusClientClosedRequest, codeCanceled, err}
	case "deadline":
		return "timeout", &solveError{http.StatusGatewayTimeout, codeDeadlineExceeded, err}
	}
	return "error", &solveError{http.StatusUnprocessableEntity, codeSolverFailed, err}
}

// statusClientClosedRequest is nginx's non-standard 499: the client
// disconnected before the response. It never reaches a client (the
// connection is gone) but keeps the request log truthful.
const statusClientClosedRequest = 499

func toTupleJSON(id relation.TupleID) TupleJSON {
	vals := make([]string, len(id.Tuple))
	for i, v := range id.Tuple {
		vals[i] = string(v)
	}
	return TupleJSON{Relation: id.Relation, Values: vals}
}

// ClassifyResponse reports per-query properties and the multi-query class.
type ClassifyResponse struct {
	Queries []QueryClassification `json:"queries"`
	Multi   MultiClassification   `json:"multi"`
}

// QueryClassification is the per-query result.
type QueryClassification struct {
	Query            string `json:"query"`
	ProjectFree      bool   `json:"projectFree"`
	SelectFree       bool   `json:"selectFree"`
	SelfJoinFree     bool   `json:"selfJoinFree"`
	KeyPreserving    bool   `json:"keyPreserving"`
	HeadDomination   bool   `json:"headDomination"`
	FDHeadDomination bool   `json:"fdHeadDomination"`
	HasTriad         bool   `json:"hasTriad"`
	SourceClass      string `json:"sourceSideEffect"`
	ViewClass        string `json:"viewSideEffect"`
}

// MultiClassification is the paper's multi-query result.
type MultiClassification struct {
	AllProjectFree   bool     `json:"allProjectFree"`
	AllKeyPreserving bool     `json:"allKeyPreserving"`
	Forest           bool     `json:"forest"`
	Class            string   `json:"class"`
	Guarantees       []string `json:"guarantees"`
}

func (a *api) handleClassify(w http.ResponseWriter, r *http.Request) {
	reqID := requestID(r)
	var req InstanceRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	db, queries, err := parseSources(req.Database, req.Queries)
	if err != nil {
		writeErr(w, http.StatusBadRequest, codeInvalidRequest, err, reqID)
		return
	}
	schemas := cq.InstanceSchemas(db)
	var resp ClassifyResponse
	for _, q := range queries {
		deps, err := classify.VariableFDs(q, schemas)
		if err != nil {
			writeErr(w, http.StatusBadRequest, codeInvalidRequest, err, reqID)
			return
		}
		props, err := classify.Analyze(q, schemas, deps)
		if err != nil {
			writeErr(w, http.StatusBadRequest, codeInvalidRequest, err, reqID)
			return
		}
		resp.Queries = append(resp.Queries, QueryClassification{
			Query:            q.String(),
			ProjectFree:      props.ProjectFree,
			SelectFree:       props.SelectFree,
			SelfJoinFree:     props.SelfJoinFree,
			KeyPreserving:    props.KeyPreserving,
			HeadDomination:   props.HeadDomination,
			FDHeadDomination: props.FDHeadDomination,
			HasTriad:         props.HasTriad,
			SourceClass:      string(classify.SourceSideEffect(props, true)),
			ViewClass:        string(classify.ViewSideEffect(props, true)),
		})
	}
	multi, err := classify.MultiQuery(queries, schemas)
	if err != nil {
		writeErr(w, http.StatusBadRequest, codeInvalidRequest, err, reqID)
		return
	}
	resp.Multi = MultiClassification{
		AllProjectFree:   multi.AllProjectFree,
		AllKeyPreserving: multi.AllKeyPreserving,
		Forest:           multi.Forest,
		Class:            string(multi.Class),
		Guarantees:       multi.Guarantees,
	}
	writeJSON(w, http.StatusOK, resp)
}

// LineageRequest asks for the provenance of one view tuple, named in the
// textio deletion syntax ("Q3(John, XML)").
type LineageRequest struct {
	Database string `json:"database"`
	Queries  string `json:"queries"`
	Tuple    string `json:"tuple"`
}

// LineageResponse carries the rendered report plus structured witnesses.
type LineageResponse struct {
	Report    string        `json:"report"`
	Witnesses [][]TupleJSON `json:"witnesses"`
}

func (a *api) handleLineage(w http.ResponseWriter, r *http.Request) {
	reqID := requestID(r)
	var req LineageRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	db, queries, err := parseSources(req.Database, req.Queries)
	if err != nil {
		writeErr(w, http.StatusBadRequest, codeInvalidRequest, err, reqID)
		return
	}
	del, err := textio.ParseDeletions(req.Tuple, queries)
	if err != nil {
		writeErr(w, http.StatusBadRequest, codeInvalidRequest, fmt.Errorf("tuple: %w", err), reqID)
		return
	}
	if del.Len() != 1 {
		writeErr(w, http.StatusBadRequest, codeInvalidRequest,
			fmt.Errorf("tuple: want exactly one view tuple reference, got %d", del.Len()), reqID)
		return
	}
	views, err := view.Materialize(queries, db)
	if err != nil {
		writeErr(w, http.StatusBadRequest, codeInvalidRequest, err, reqID)
		return
	}
	rep, err := lineage.Explain(views, del.Refs()[0])
	if err != nil {
		writeErr(w, http.StatusNotFound, codeNotFound, err, reqID)
		return
	}
	resp := LineageResponse{Report: rep.String()}
	for _, wit := range rep.Why {
		var row []TupleJSON
		for _, id := range wit {
			row = append(row, toTupleJSON(id))
		}
		resp.Witnesses = append(resp.Witnesses, row)
	}
	writeJSON(w, http.StatusOK, resp)
}

// ResilienceResponse reports per-query resilience values.
type ResilienceResponse struct {
	Queries []QueryResilience `json:"queries"`
}

// QueryResilience is one query's resilience with a witness deletion.
type QueryResilience struct {
	Query      string      `json:"query"`
	Resilience int         `json:"resilience"`
	Witness    []TupleJSON `json:"witness"`
	// Method is "bipartite-vertex-cover" (PTime) or "exact-hitting-set".
	Method string `json:"method"`
}

func (a *api) handleResilience(w http.ResponseWriter, r *http.Request) {
	reqID := requestID(r)
	var req InstanceRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	// Tenant caps tighten (never widen) the server-wide caps; the deadline
	// clamp lives entirely inside solveDeadline.
	_, pol, _ := a.tenantShaping(r.Context(), req.Tenant)
	deadline, err := a.solveDeadline(req.Timeout, pol)
	if err != nil {
		writeErr(w, http.StatusBadRequest, codeInvalidRequest, err, reqID)
		return
	}
	budget := req.ResilienceBudget
	if budget <= 0 {
		budget = DefaultResilienceBudget
	}
	budget = min(budget, a.cfg.MaxResilienceBudget)
	if pol != nil && pol.MaxResilienceBudget > 0 {
		budget = min(budget, pol.MaxResilienceBudget)
	}
	db, queries, err := parseSources(req.Database, req.Queries)
	if err != nil {
		writeErr(w, http.StatusBadRequest, codeInvalidRequest, err, reqID)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()
	var resp ResilienceResponse
	for _, q := range queries {
		sol, method, err := core.Resilience(ctx, q, db, budget)
		if err != nil {
			_, serr := a.solveFailure(reqID, fmt.Errorf("%s: %w", q.Name, err))
			serr.write(w, reqID)
			return
		}
		qr := QueryResilience{Query: q.String(), Resilience: len(sol.Deleted), Method: method}
		for _, id := range sol.Deleted {
			qr.Witness = append(qr.Witness, toTupleJSON(id))
		}
		resp.Queries = append(resp.Queries, qr)
	}
	writeJSON(w, http.StatusOK, resp)
}

// PickSolver resolves a solver by name for the HTTP API and the delprop
// CLI alike. Fixed names resolve through the core registry (so tests can
// mount fault-injection solvers); "auto" routes on the instance's
// structure.
func PickSolver(name string, p *core.Problem) (core.Solver, error) {
	if name != "auto" {
		return core.NewSolver(name)
	}
	if !p.IsKeyPreserving() {
		// The Table IV tractable case: single sj-free head-dominated
		// query with a single-tuple request gets the exact unidimensional
		// algorithm. Applicable checks the preconditions without solving,
		// so the instance is not solved twice per request.
		uni := &core.Unidimensional{}
		if uni.Applicable(p) == nil {
			return uni, nil
		}
		return &core.Greedy{}, nil
	}
	if p.DeltaLen() == 1 {
		return &core.SingleTupleExact{}, nil
	}
	if core.IsPivotForest(p) {
		return &core.DPTree{}, nil
	}
	return &core.RedBlue{}, nil
}
