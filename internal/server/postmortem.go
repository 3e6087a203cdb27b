package server

import (
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"delprop/internal/admission"
	"delprop/internal/core"
	"delprop/internal/telemetry"
)

// Postmortem flight recorder. When something goes wrong — an SLO breach,
// a hard solve failure, or a solve over the latency SLO — the server
// freezes a bounded-ring bundle of everything an incident review needs:
// the request's trace, its final core.Stats snapshot, the events
// recorded on that trace, the admission decision, the breaker
// states and the process's goroutine/heap counts at capture time. GET
// /debug/postmortems lists the bundles newest first; /debug/postmortems/
// {id} serves one in full. The answer to "why was that solve slow at
// 3am" survives until the ring wraps, not until the logs rotate.

// Postmortem capture kinds.
const (
	postmortemSLOBreach  = "slo_breach"
	postmortemSolveError = "solve_error"
	postmortemSlowSolve  = "slow_solve"
)

// AdmissionJSON is the admission outcome frozen into a bundle.
type AdmissionJSON struct {
	Tenant   string `json:"tenant,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
	Rule     string `json:"rule,omitempty"`
}

// Postmortem is one captured bundle.
type Postmortem struct {
	ID         string               `json:"id"`
	Kind       string               `json:"kind"`
	At         time.Time            `json:"at"`
	RequestID  string               `json:"requestId,omitempty"`
	TraceID    uint64               `json:"traceId,omitempty"`
	Solver     string               `json:"solver,omitempty"`
	Outcome    string               `json:"outcome,omitempty"`
	DurationMs float64              `json:"durationMs,omitempty"`
	Breach     *telemetry.SLOBreach `json:"breach,omitempty"`
	Admission  *AdmissionJSON       `json:"admission,omitempty"`
	// Trace is the correlated solve trace.
	Trace *telemetry.TraceJSON `json:"trace,omitempty"`
	Stats *core.StatsSnapshot  `json:"stats,omitempty"`
	// Events are the events recorded on the correlated trace (or, for
	// breaches with no correlated solve, the newest finished traces'
	// events at capture time).
	Events         []telemetry.Event         `json:"events,omitempty"`
	Breakers       []admission.BreakerStatus `json:"breakers,omitempty"`
	Goroutines     int                       `json:"goroutines"`
	HeapInuseBytes uint64                    `json:"heapInuseBytes"`
}

// PostmortemSummary is one ring entry in the /debug/postmortems listing.
type PostmortemSummary struct {
	ID         string    `json:"id"`
	Kind       string    `json:"kind"`
	At         time.Time `json:"at"`
	RequestID  string    `json:"requestId,omitempty"`
	Solver     string    `json:"solver,omitempty"`
	Tenant     string    `json:"tenant,omitempty"`
	Outcome    string    `json:"outcome,omitempty"`
	Rule       string    `json:"rule,omitempty"`
	DurationMs float64   `json:"durationMs,omitempty"`
}

func (p *Postmortem) summary() PostmortemSummary {
	s := PostmortemSummary{
		ID:         p.ID,
		Kind:       p.Kind,
		At:         p.At,
		RequestID:  p.RequestID,
		Solver:     p.Solver,
		Outcome:    p.Outcome,
		DurationMs: p.DurationMs,
	}
	if p.Admission != nil {
		s.Tenant = p.Admission.Tenant
	}
	if p.Breach != nil {
		s.Rule = p.Breach.Rule
	}
	return s
}

// flightRecorder keeps the bounded history postmortems draw on: the
// finished-solve records SLO breaches (which fire on the sampler tick,
// after the fact) correlate back to a request, and the captured bundles.
// Each record pins its trace, so the record ring is no deeper than the
// tracer's finished ring.
type flightRecorder struct {
	mu      sync.Mutex
	solves  telemetry.Ring[*solveRecord] //delprop:guardedby mu
	bundles telemetry.Ring[*Postmortem]  //delprop:guardedby mu
	nextID  uint64                       //delprop:guardedby mu
}

func newFlightRecorder(capacity int) *flightRecorder {
	return &flightRecorder{
		solves:  telemetry.NewRing[*solveRecord](telemetry.DefaultTraceBuffer),
		bundles: telemetry.NewRing[*Postmortem](capacity),
	}
}

func (f *flightRecorder) addSolve(rec *solveRecord) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.solves.Push(rec)
}

// match returns the newest record matching a breach's By/Target scoping:
// per-solver rules match on the resolved solver, per-tenant rules on the
// tenant, anything else takes the newest record outright. Scanning newest
// first makes the newest matching record — almost always the trigger —
// win. A nil recorder (capture disabled) matches nothing.
func (f *flightRecorder) match(by, target string) *solveRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := f.solves.Len() - 1; i >= 0; i-- {
		rec := f.solves.At(i)
		switch {
		case by == "solver" && target != "":
			if rec.solver == target {
				return rec
			}
		case by == "tenant" && target != "":
			if rec.tenant == target {
				return rec
			}
		default:
			return rec
		}
	}
	return nil
}

// addBundle assigns the bundle its id, stores it, and returns the id.
func (f *flightRecorder) addBundle(p *Postmortem) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nextID++
	p.ID = "pm-" + strconv.FormatUint(f.nextID, 10)
	f.bundles.Push(p)
	return p.ID
}

// list returns bundle summaries, newest first.
func (f *flightRecorder) list() []PostmortemSummary {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]PostmortemSummary, 0, f.bundles.Len())
	for i := f.bundles.Len() - 1; i >= 0; i-- {
		out = append(out, f.bundles.At(i).summary())
	}
	return out
}

// get returns the bundle by id, or nil once it has been evicted.
func (f *flightRecorder) get(id string) *Postmortem {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := 0; i < f.bundles.Len(); i++ {
		if p := f.bundles.At(i); p.ID == id {
			return p
		}
	}
	return nil
}

// recordSolve notes one finished solve and captures a postmortem when the
// outcome warrants one: hard failures always, successful solves when they
// ran over the latency SLO.
func (a *api) recordSolve(rec *solveRecord) {
	if a.recorder == nil {
		return
	}
	a.recorder.addSolve(rec)
	switch rec.outcome {
	case "error", "timeout", "panic", "unstoppable":
		a.capturePostmortem(postmortemSolveError, rec, nil)
	case "ok", "partial":
		if a.slowSolve > 0 && *rec.phase(telemetry.PhaseSolve) >= a.slowSolve {
			a.capturePostmortem(postmortemSlowSolve, rec, nil)
		}
	}
}

// capturePostmortem freezes one bundle — the record plus its trace and
// the events recorded on it — and returns its id ("" when capture is
// disabled). rec may be nil (a breach with no correlatable solve): the
// bundle then carries the newest finished traces' events. breach is set
// for slo_breach captures only.
func (a *api) capturePostmortem(kind string, rec *solveRecord, breach *telemetry.SLOBreach) string {
	if a.recorder == nil {
		return ""
	}
	p := &Postmortem{
		Kind:       kind,
		At:         time.Now(),
		Breach:     breach,
		Breakers:   a.breakers.Snapshot(),
		Goroutines: runtime.NumGoroutine(),
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	p.HeapInuseBytes = mem.HeapInuse
	if rec != nil {
		p.RequestID = rec.reqID
		p.TraceID = rec.trace.ID()
		p.Solver = rec.solver
		p.Outcome = rec.outcome
		p.DurationMs = millis(*rec.phase(telemetry.PhaseSolve))
		stats := rec.stats // a copy: the bundle must not pin the record and its trace
		p.Stats = &stats
		p.Admission = &AdmissionJSON{Tenant: rec.tenant, Degraded: rec.degraded, Rule: rec.rule}
		p.Trace = rec.trace.Render()
		p.Events = rec.trace.Events()
	} else {
		p.Events = a.tracer.RecentEvents(uncorrelatedEvents)
	}
	return a.recorder.addBundle(p)
}

// uncorrelatedEvents bounds the event history a breach with no correlated
// solve carries.
const uncorrelatedEvents = 64

// PostmortemsResponse is the /debug/postmortems listing payload.
type PostmortemsResponse struct {
	Postmortems []PostmortemSummary `json:"postmortems"`
}

// handlePostmortems lists captured bundles, newest first.
func (a *api) handlePostmortems(w http.ResponseWriter, r *http.Request) {
	var list []PostmortemSummary
	if a.recorder != nil {
		list = a.recorder.list()
	}
	if list == nil {
		list = []PostmortemSummary{}
	}
	writeJSON(w, http.StatusOK, PostmortemsResponse{Postmortems: list})
}

// handlePostmortem serves one full bundle by id.
func (a *api) handlePostmortem(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var p *Postmortem
	if a.recorder != nil {
		p = a.recorder.get(id)
	}
	if p == nil {
		writeErr(w, http.StatusNotFound, codeNotFound,
			fmt.Errorf("postmortem %q not found (evicted or never captured)", id), requestID(r))
		return
	}
	writeJSON(w, http.StatusOK, p)
}
