package server

import (
	"strconv"
	"time"

	"delprop/internal/admission"
	"delprop/internal/core"
	"delprop/internal/telemetry"
)

// outcomeRejected marks a solve refused before any solver ran (bad
// deletions or weights, a denied or unknown solver).
const outcomeRejected = "rejected"

// solveRecord is everything one solve learned about itself. runInstance
// fills it in through core.Prepare, PickSolver and core.Run, and one
// function each derives the trace attributes, events, metrics, log line,
// postmortem and response.
type solveRecord struct {
	reqID string
	// log is the request's log record when the solve is the request's
	// own, so the log line waits for the HTTP status; nil for a batch
	// item, which logs its line when it finishes.
	log       *requestLog
	trace     *telemetry.Trace
	tenant    string
	session   string // non-empty marks a warm session solve
	requested string // the client's solver name, "auto" included
	solver    string // the requested solver until classify resolves it
	degraded  bool
	rule      string
	deadline  time.Duration
	dbSize    int
	queries   int
	deltaSize int
	phases    [len(telemetry.Phases)]time.Duration
	outcome   string
	stats     core.StatsSnapshot
	race      *core.RaceSnapshot
}

// phase points at the named phase's duration (0 until the phase ran).
func (rec *solveRecord) phase(name string) *time.Duration {
	for i, p := range telemetry.Phases {
		if p == name {
			return &rec.phases[i]
		}
	}
	panic("server: unknown phase " + name)
}

// millis converts a duration to fractional milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// annotate stamps the trace with what the record knows so far, so live
// traces are filterable mid-solve.
func (rec *solveRecord) annotate() {
	tr := rec.trace
	tr.SetAttr("requestId", rec.reqID)
	if rec.tenant != "" {
		tr.SetAttr("tenant", rec.tenant)
	}
	if rec.degraded {
		tr.SetAttr("degraded", "true")
		tr.SetAttr("rule", rec.rule)
	}
	if rec.session != "" {
		tr.SetAttr("session", rec.session)
		tr.SetAttr("warm", "true")
	}
	if rec.dbSize > 0 || rec.queries > 0 { // |D|, m queries, Σ|ΔVi|
		tr.SetAttr("dbSize", strconv.Itoa(rec.dbSize))
		tr.SetAttr("queries", strconv.Itoa(rec.queries))
		tr.SetAttr("deltaSize", strconv.Itoa(rec.deltaSize))
	}
	tr.SetAttr("solver", rec.solver)
	if rec.outcome != "" {
		tr.SetAttr("outcome", rec.outcome)
	}
}

// event builds one of the solve's events, correlated by request and trace
// id with the response, the log line and /debug/traces.
func (rec *solveRecord) event(typ string, fields telemetry.Fields) telemetry.Event {
	return telemetry.Event{
		Type:      typ,
		RequestID: rec.reqID,
		TraceID:   rec.trace.ID(),
		Tenant:    rec.tenant,
		Solver:    rec.solver,
		Fields:    fields,
	}
}

func (rec *solveRecord) startEvent() telemetry.Event {
	fields := make(telemetry.Fields, 0, 3)
	fields = append(fields,
		telemetry.Field{Key: "deadlineMs", Value: millis(rec.deadline)},
		telemetry.Field{Key: "degraded", Value: rec.degraded})
	if rec.session != "" {
		fields = append(fields, telemetry.Field{Key: "session", Value: rec.session})
	}
	return rec.event(eventSolveStart, fields)
}

func (rec *solveRecord) doneEvent() telemetry.Event {
	fields := make(telemetry.Fields, 0, 7)
	fields = append(fields,
		telemetry.Field{Key: "outcome", Value: rec.outcome},
		telemetry.Field{Key: "durationMs", Value: millis(*rec.phase(telemetry.PhaseSolve))},
		telemetry.Field{Key: "nodes", Value: rec.stats.NodesExpanded},
		telemetry.Field{Key: "incumbents", Value: rec.stats.IncumbentUpdates})
	if rec.stats.Objective != nil {
		fields = append(fields, telemetry.Field{Key: "objective", Value: *rec.stats.Objective})
	}
	if rec.degraded {
		fields = append(fields,
			telemetry.Field{Key: "degraded", Value: true},
			telemetry.Field{Key: "rule", Value: rec.rule})
	}
	return rec.event(eventSolveDone, fields)
}

// progressEvent renders one core progress notification as a bus event.
func (rec *solveRecord) progressEvent(pe core.ProgressEvent) telemetry.Event {
	var fields telemetry.Fields
	switch pe.Kind {
	case core.ProgressIncumbent:
		fields = telemetry.Fields{{Key: "objective", Value: pe.Objective}, {Key: "deleted", Value: pe.Deleted}}
	case core.ProgressLowerBound:
		fields = telemetry.Fields{{Key: "bound", Value: pe.Objective}}
	case core.ProgressRaceMemberStart, core.ProgressRaceMemberDone:
		if pe.Outcome == "" {
			fields = telemetry.Fields{{Key: "member", Value: pe.Member}}
		} else {
			fields = telemetry.Fields{{Key: "member", Value: pe.Member},
				{Key: "outcome", Value: pe.Outcome}, {Key: "objective", Value: pe.Objective}}
		}
	}
	return rec.event(pe.Kind, fields)
}

// phaseEvent reports one finished lifecycle phase and its duration.
func (rec *solveRecord) phaseEvent(name string, d time.Duration) telemetry.Event {
	return rec.event(eventPhase, telemetry.Fields{{Key: "phase", Value: name}, {Key: "durationMs", Value: millis(d)}})
}

// logArgs derives the structured request-log line's key/value pairs.
func (rec *solveRecord) logArgs() []any {
	args := []any{
		"requestId", rec.reqID,
		"solver", rec.solver,
		"outcome", rec.outcome,
		"tenant", rec.tenant,
		"degraded", rec.degraded,
		"rule", rec.rule,
		"dbSize", rec.dbSize,
		"queries", rec.queries,
		"deltaSize", rec.deltaSize,
	}
	for i, name := range telemetry.Phases {
		args = append(args, name+"Ms", millis(rec.phases[i]))
	}
	return append(args,
		"nodes", rec.stats.NodesExpanded,
		"pruned", rec.stats.BranchesPruned,
		"checkpoints", rec.stats.Checkpoints,
		"incumbents", rec.stats.IncumbentUpdates,
		"restarts", rec.stats.Restarts)
}

// breakerOutcome classifies the outcome for the solver's breaker: only
// hard failures (the solver broke, not the input) count against it, so a
// misbehaving client cannot trip a healthy solver's breaker.
func (rec *solveRecord) breakerOutcome() admission.Outcome {
	switch rec.outcome {
	case "panic", "timeout", "unstoppable":
		return admission.OutcomeFailure
	case "ok", "partial":
		return admission.OutcomeSuccess
	}
	return admission.OutcomeNeutral
}

// fill copies the record's facts into a response whose answer fields
// (deletion, objective, bound) the evaluate phase already set.
func (rec *solveRecord) fill(resp *SolveResponse) {
	resp.Solver = rec.solver
	resp.RequestID = rec.reqID
	resp.Stats = &rec.stats
	resp.PhaseMs = make(map[string]float64, len(telemetry.Phases))
	for i, name := range telemetry.Phases {
		resp.PhaseMs[name] = millis(rec.phases[i])
	}
	resp.Race = rec.race
	resp.Tenant = rec.tenant
	resp.Degraded = rec.degraded
	resp.DegradedRule = rec.rule
	resp.Session = rec.session
	resp.Warm = rec.session != ""
}

// publish puts ev on the live bus and records the stamped copy on the
// producing solve's trace (nil for admission, breaker, session and SLO
// events), where postmortems find it.
func (a *api) publish(tr *telemetry.Trace, ev telemetry.Event) {
	tr.AddEvent(a.events.Publish(ev))
}

// beginPhase opens the named phase's span; the returned closure ends it,
// stores its duration on the record and publishes the phase event.
func (a *api) beginPhase(rec *solveRecord, name string) func() {
	end := rec.trace.Span(name)
	return func() {
		end()
		d := rec.trace.SpanDuration(name)
		*rec.phase(name) = d
		a.publish(rec.trace, rec.phaseEvent(name, d))
	}
}

// finish closes a started solve exactly once with outcome: trace outcome,
// solve_done, then metrics, breaker and flight recorder for solves that
// ran, then the log line, or the request's log record for instrument to
// write. It returns serr for tail calls.
func (a *api) finish(rec *solveRecord, outcome string, serr *solveError) *solveError {
	rec.outcome = outcome
	rec.annotate()
	a.publish(rec.trace, rec.doneEvent())
	rec.trace.Finish()
	if outcome != outcomeRejected {
		// Rejections stay out: client-chosen solver names would be
		// unbounded labels, and their 0ms would drag the Retry-After p90.
		a.observeSolve(rec)
		a.recordSolve(rec)
	}
	if rec.log != nil {
		// The flight recorder keeps the record after the request ends;
		// only the request's log record may hold the fields.
		rec.log.solve, rec.log = rec.logArgs(), nil
	} else {
		a.cfg.Logger.Info("solve", rec.logArgs()...)
	}
	return serr
}
