package server

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"delprop/internal/core"
	"delprop/internal/cq"
	"delprop/internal/session"
	"delprop/internal/telemetry"
	"delprop/internal/textio"
	"delprop/internal/view"
)

// Session API: POST /sessions registers a (database, queries) pair once
// and returns a session id; POST /sessions/{id}/solve serves successive
// deletion requests against the warm skeleton — parsed problem, live
// provenance index, memoized classification and pivot forest. docs/FORMATS.md documents the schema, docs/OPERATIONS.md
// the lifecycle.

// SessionRequest registers an instance for warm solves.
type SessionRequest struct {
	Database string `json:"database"`
	Queries  string `json:"queries"`
	// Tenant optionally names the tenant warm solves are charged to when
	// the solve request itself names none (header and body still win).
	Tenant string `json:"tenant,omitempty"`
}

// SessionResponse reports a registered (or reused) session.
type SessionResponse struct {
	SessionID   string `json:"sessionId"`
	Fingerprint string `json:"fingerprint"`
	// Reused is true when the fingerprint was already resident: the
	// registration cost nothing and extended the entry's TTL.
	Reused        bool      `json:"reused"`
	ExpiresAt     time.Time `json:"expiresAt"`
	DBSize        int       `json:"dbSize"`
	Queries       int       `json:"queries"`
	ViewSize      int       `json:"viewSize"`
	KeyPreserving bool      `json:"keyPreserving"`
	RequestID     string    `json:"requestId,omitempty"`
}

// SessionSolveRequest is a warm deletion request: no database, no queries
// — only what changes per request.
type SessionSolveRequest struct {
	// Deletions is the textio deletion request against the session's
	// views.
	Deletions string `json:"deletions"`
	// Solver, Weights, Timeout and Tenant mean exactly what they mean on
	// POST /solve.
	Solver  string             `json:"solver,omitempty"`
	Weights map[string]float64 `json:"weights,omitempty"`
	Timeout string             `json:"timeout,omitempty"`
	Tenant  string             `json:"tenant,omitempty"`
}

// SessionEvictResponse acknowledges DELETE /sessions/{id}.
type SessionEvictResponse struct {
	SessionID string `json:"sessionId"`
	Evicted   bool   `json:"evicted"`
}

// SessionsDebugResponse is the /debug/sessions payload.
type SessionsDebugResponse struct {
	Sessions []session.Snapshot `json:"sessions"`
}

// initSessions builds the registry and wires its lifecycle hooks to the
// delprop_session_* metric family and the session_* event types. Handles
// are resolved once here; the hooks run inline on registry transitions
// and stay allocation-light.
func (a *api) initSessions() {
	reg := a.metrics
	hits := reg.Counter(metricSessionHits,
		"Warm session lookups served from a resident entry (registrations finding their fingerprint cached, and warm solves).", nil)
	misses := reg.Counter(metricSessionMisses,
		"Session lookups that found nothing warm: first-sight registrations, unknown or expired session ids.", nil)
	entries := reg.Gauge(metricSessionEntries,
		"Sessions currently resident in the registry.", nil)
	a.sessions = session.NewRegistry(session.Config{
		TTL:        a.cfg.SessionTTL,
		MaxEntries: a.cfg.MaxSessions,
		Hooks: session.Hooks{
			OnHit: func(id string) {
				hits.Inc()
				a.publish(nil, sessionEvent(eventSessionHit, id, ""))
			},
			OnMiss: func(id string) {
				misses.Inc()
				a.publish(nil, sessionEvent(eventSessionMiss, id, ""))
			},
			OnEvict: func(id, reason string) {
				// reason is one of the five session.Evict* constants, so the
				// label stays bounded.
				reg.Counter(metricSessionEvictions,
					"Sessions removed from the registry, by reason (ttl, capacity, explicit, drain, error).",
					telemetry.Labels{"reason": reason}).Inc()
				a.publish(nil, sessionEvent(eventSessionEvicted, id, reason))
			},
			OnEntries: func(n int) { entries.Set(float64(n)) },
		},
	})
}

// sessionEvent reports one registry transition on session id; reason is
// set only on evictions.
func sessionEvent(typ, id, reason string) telemetry.Event {
	if reason == "" {
		return telemetry.Event{Type: typ, Fields: telemetry.Fields{{Key: "sessionId", Value: id}}}
	}
	return telemetry.Event{Type: typ, Fields: telemetry.Fields{{Key: "sessionId", Value: id}, {Key: "reason", Value: reason}}}
}

// handleSessionRegister builds (or reuses) the warm entry for the posted
// instance. The parse and view-materialization work happens exactly once
// per fingerprint — concurrent registrations single-flight on the build.
func (a *api) handleSessionRegister(w http.ResponseWriter, r *http.Request) {
	reqID := requestID(r)
	var req SessionRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	tenant, _, _ := a.tenantShaping(r.Context(), req.Tenant)
	tr := a.tracer.Start("session_register")
	defer tr.Finish()
	tr.SetAttr("requestId", reqID)
	if tenant != "" {
		tr.SetAttr("tenant", tenant)
	}
	fp := session.Fingerprint(req.Database, req.Queries)
	tr.SetAttr("fingerprint", fp)
	e, reused, err := a.sessions.Register(r.Context(), fp, tenant, func() (*core.Problem, error) {
		// The build runs once per fingerprint under the registering
		// request's spans; waiters on the single-flight latch pay nothing.
		endParse := tr.Span(telemetry.PhaseParse)
		db, queries, perr := parseSources(req.Database, req.Queries)
		endParse()
		if perr != nil {
			return nil, perr
		}
		defer tr.Span(telemetry.PhaseViews)()
		return core.NewProblem(db, queries, nil)
	})
	if err != nil {
		writeSessionErr(w, reqID, "", err)
		return
	}
	p := e.Problem()
	tr.SetAttr("session", e.ID)
	writeJSON(w, http.StatusOK, SessionResponse{
		SessionID:     e.ID,
		Fingerprint:   e.Fingerprint,
		Reused:        reused,
		ExpiresAt:     e.ExpiresAt().UTC(),
		DBSize:        p.DB.Size(),
		Queries:       len(p.Queries),
		ViewSize:      p.TotalViewSize(),
		KeyPreserving: p.IsKeyPreserving(),
		RequestID:     reqID,
	})
}

// writeSessionErr renders a registry error from registering or acquiring
// session id.
func writeSessionErr(w http.ResponseWriter, reqID, id string, err error) {
	switch {
	case errors.Is(err, session.ErrDraining):
		writeErr(w, http.StatusServiceUnavailable, codeOverloaded, err, reqID)
	case errors.Is(err, session.ErrFull):
		writeErr(w, http.StatusTooManyRequests, codeSessionLimit, err, reqID)
	case errors.Is(err, session.ErrNotFound):
		writeErr(w, http.StatusNotFound, codeSessionNotFound,
			fmt.Errorf("session %q not found (expired, evicted, or never registered)", id), reqID)
	default:
		writeErr(w, http.StatusBadRequest, codeInvalidRequest, err, reqID)
	}
}

// handleSessionSolve serves one deletion request against a warm session:
// acquire (extends the TTL and pins the entry against eviction), parse
// only the delta, specialize the shared skeleton, and run the standard
// solve engine.
func (a *api) handleSessionSolve(w http.ResponseWriter, r *http.Request) {
	reqID := requestID(r)
	start := time.Now()
	id := r.PathValue("id")
	var req SessionSolveRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	e, err := a.sessions.Acquire(r.Context(), id)
	if err != nil {
		writeSessionErr(w, reqID, id, err)
		return
	}
	// The entry stays pinned until the solve finishes: Sweep and Evict
	// mark a busy entry dying instead of removing it, and the Release
	// below finalizes any deferred eviction.
	defer a.sessions.Release(e)

	skel := e.Problem()
	// Warm solves are charged to the solve request's tenant when it names
	// one, else to the tenant the session was registered under.
	tenant := req.Tenant
	if tenant == "" {
		tenant = e.Tenant
	}
	resp, serr := a.runInstance(r.Context(), reqID, solveSource{
		requested: req.Solver,
		timeout:   req.Timeout,
		tenant:    tenant,
		weights:   req.Weights,
		entry:     e,
		parse: func() ([]*cq.Query, func() (*core.Problem, error), error) {
			// The warm parse phase covers only the deletion request — the
			// database and queries were parsed at registration — and the
			// views phase only specializes the shared skeleton.
			var delta *view.Deletion
			var err error
			if req.Deletions != "" {
				if delta, err = textio.ParseDeletions(req.Deletions, skel.Queries); err != nil {
					err = fmt.Errorf("deletions: %w", err)
				}
			}
			return skel.Queries, func() (*core.Problem, error) { return skel.Specialize(delta) }, err
		},
	})
	if serr != nil {
		serr.write(w, reqID)
		return
	}
	a.metrics.Histogram(metricSessionWarmSolve,
		"End-to-end latency of warm session solves in seconds (request decode through response).",
		nil, nil).Observe(time.Since(start).Seconds())
	writeJSON(w, http.StatusOK, resp)
}

// handleSessionDelete evicts a session. A busy entry is marked dying and
// removed when its last in-flight solve releases it; the response still
// acknowledges the eviction.
func (a *api) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	reqID := requestID(r)
	id := r.PathValue("id")
	if !a.sessions.Evict(id, session.EvictExplicit) {
		writeErr(w, http.StatusNotFound, codeSessionNotFound,
			fmt.Errorf("session %q not found", id), reqID)
		return
	}
	writeJSON(w, http.StatusOK, SessionEvictResponse{SessionID: id, Evicted: true})
}

// handleDebugSessions reports every resident session for operators.
func (a *api) handleDebugSessions(w http.ResponseWriter, r *http.Request) {
	snaps := a.sessions.Snapshot()
	if snaps == nil {
		snaps = []session.Snapshot{}
	}
	writeJSON(w, http.StatusOK, SessionsDebugResponse{Sessions: snaps})
}
