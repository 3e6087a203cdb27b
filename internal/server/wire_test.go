package server

import (
	"encoding/json"
	"testing"
	"time"

	"delprop/internal/admission"
	"delprop/internal/core"
	"delprop/internal/telemetry"
)

// wireEvents builds one event of every type in docs/OBSERVABILITY.md's
// table through its real producer, covering each optional field both
// present and absent, and stamps each with a fixed time (and the bus
// events with a fixed sequence number) so the encoding is reproducible.
func wireEvents(t *testing.T) []struct {
	name string
	ev   telemetry.Event
} {
	t.Helper()
	objective := 3.0
	rec := &solveRecord{
		reqID:    "r7",
		trace:    telemetry.NewTracer(0).Start("solve"),
		tenant:   "acme",
		solver:   "brute-force",
		deadline: 30 * time.Second,
		outcome:  "ok",
		stats:    core.StatsSnapshot{NodesExpanded: 12, IncumbentUpdates: 2},
	}
	*rec.phase(telemetry.PhaseSolve) = 1250 * time.Microsecond
	warm := *rec
	warm.session = "s-0123abcd"
	rich := *rec
	rich.outcome = "partial"
	rich.stats.Objective = &objective
	rich.degraded = true
	rich.rule = "overload"
	objOnly := *rec
	objOnly.stats.Objective = &objective
	degOnly := *rec
	degOnly.degraded = true
	degOnly.rule = "overload"

	// The SLO events go through onSLOBreach itself: the breach's
	// postmortemId is appended after the event is built.
	app := NewHandler(Config{})
	sub := app.Events().Subscribe(telemetry.Filter{}, 16)
	defer sub.Close()
	breach := telemetry.SLOBreach{Rule: "solve-p95", By: "solver", Target: "greedy",
		Window: "1m", Value: 0.0000125, Threshold: 1e21, Bound: "max"}
	app.api.onSLOBreach(breach)
	breach.Recovered = true
	app.api.onSLOBreach(breach)
	slo := sub.Drain(0)
	if len(slo) != 2 {
		t.Fatalf("SLO events = %+v, want a breach and a recovery", slo)
	}

	cases := []struct {
		name string
		ev   telemetry.Event
	}{
		{"solve_start", rec.startEvent()},
		{"solve_start/session", warm.startEvent()},
		{"phase", rec.phaseEvent(telemetry.PhaseViews, 375*time.Microsecond)},
		{"incumbent", rec.progressEvent(core.ProgressEvent{Kind: core.ProgressIncumbent, Objective: 4, Deleted: 2})},
		{"lower_bound", rec.progressEvent(core.ProgressEvent{Kind: core.ProgressLowerBound, Objective: 2.5})},
		{"race_member_start", rec.progressEvent(core.ProgressEvent{Kind: core.ProgressRaceMemberStart, Member: "greedy"})},
		{"race_member_done", rec.progressEvent(core.ProgressEvent{Kind: core.ProgressRaceMemberDone, Member: "greedy", Outcome: "ok", Objective: 3})},
		{"race_member_done/no-outcome", rec.progressEvent(core.ProgressEvent{Kind: core.ProgressRaceMemberDone, Member: "exact"})},
		{"solve_done", rec.doneEvent()},
		{"solve_done/objective", objOnly.doneEvent()},
		{"solve_done/degraded", degOnly.doneEvent()},
		{"solve_done/objective+degraded", rich.doneEvent()},
		{"admission", admissionEvent("r8", "acme", "shed-rate-limit")},
		{"breaker", breakerEvent("greedy", admission.BreakerOpen)},
		{"session_hit", sessionEvent(eventSessionHit, "s<1>&2", "")},
		{"session_miss", sessionEvent(eventSessionMiss, "s-0123abcd", "")},
		{"session_evicted", sessionEvent(eventSessionEvicted, "s-0123abcd", "ttl")},
		{"heartbeat", streamEvent(eventHeartbeat, 0)},
		{"stream_end", streamEvent(eventStreamEnd, 17)},
		{"slo_breach", slo[0]},
		{"slo_recovered", slo[1]},
	}
	at := time.Date(2026, 1, 2, 3, 4, 5, 600000000, time.UTC)
	for i := range cases {
		ev := &cases[i].ev
		if ev.Type != eventHeartbeat && ev.Type != eventStreamEnd {
			ev.Seq = uint64(40 + i) // stream-control events bypass the bus
		}
		ev.Time = at
	}
	return cases
}

// wireGolden holds each wireEvents case's JSON encoding. Consumers of
// /events and /debug/postmortems parse these bytes (docs/OBSERVABILITY.md
// is the schema contract), so they must not change.
var wireGolden = map[string]string{
	"solve_start":                   `{"seq":40,"time":"2026-01-02T03:04:05.6Z","type":"solve_start","requestId":"r7","traceId":1,"tenant":"acme","solver":"brute-force","fields":{"deadlineMs":30000,"degraded":false}}`,
	"solve_start/session":           `{"seq":41,"time":"2026-01-02T03:04:05.6Z","type":"solve_start","requestId":"r7","traceId":1,"tenant":"acme","solver":"brute-force","fields":{"deadlineMs":30000,"degraded":false,"session":"s-0123abcd"}}`,
	"phase":                         `{"seq":42,"time":"2026-01-02T03:04:05.6Z","type":"phase","requestId":"r7","traceId":1,"tenant":"acme","solver":"brute-force","fields":{"durationMs":0.375,"phase":"views"}}`,
	"incumbent":                     `{"seq":43,"time":"2026-01-02T03:04:05.6Z","type":"incumbent","requestId":"r7","traceId":1,"tenant":"acme","solver":"brute-force","fields":{"deleted":2,"objective":4}}`,
	"lower_bound":                   `{"seq":44,"time":"2026-01-02T03:04:05.6Z","type":"lower_bound","requestId":"r7","traceId":1,"tenant":"acme","solver":"brute-force","fields":{"bound":2.5}}`,
	"race_member_start":             `{"seq":45,"time":"2026-01-02T03:04:05.6Z","type":"race_member_start","requestId":"r7","traceId":1,"tenant":"acme","solver":"brute-force","fields":{"member":"greedy"}}`,
	"race_member_done":              `{"seq":46,"time":"2026-01-02T03:04:05.6Z","type":"race_member_done","requestId":"r7","traceId":1,"tenant":"acme","solver":"brute-force","fields":{"member":"greedy","objective":3,"outcome":"ok"}}`,
	"race_member_done/no-outcome":   `{"seq":47,"time":"2026-01-02T03:04:05.6Z","type":"race_member_done","requestId":"r7","traceId":1,"tenant":"acme","solver":"brute-force","fields":{"member":"exact"}}`,
	"solve_done":                    `{"seq":48,"time":"2026-01-02T03:04:05.6Z","type":"solve_done","requestId":"r7","traceId":1,"tenant":"acme","solver":"brute-force","fields":{"durationMs":1.25,"incumbents":2,"nodes":12,"outcome":"ok"}}`,
	"solve_done/objective":          `{"seq":49,"time":"2026-01-02T03:04:05.6Z","type":"solve_done","requestId":"r7","traceId":1,"tenant":"acme","solver":"brute-force","fields":{"durationMs":1.25,"incumbents":2,"nodes":12,"objective":3,"outcome":"ok"}}`,
	"solve_done/degraded":           `{"seq":50,"time":"2026-01-02T03:04:05.6Z","type":"solve_done","requestId":"r7","traceId":1,"tenant":"acme","solver":"brute-force","fields":{"degraded":true,"durationMs":1.25,"incumbents":2,"nodes":12,"outcome":"ok","rule":"overload"}}`,
	"solve_done/objective+degraded": `{"seq":51,"time":"2026-01-02T03:04:05.6Z","type":"solve_done","requestId":"r7","traceId":1,"tenant":"acme","solver":"brute-force","fields":{"degraded":true,"durationMs":1.25,"incumbents":2,"nodes":12,"objective":3,"outcome":"partial","rule":"overload"}}`,
	"admission":                     `{"seq":52,"time":"2026-01-02T03:04:05.6Z","type":"admission","requestId":"r8","tenant":"acme","fields":{"decision":"shed-rate-limit"}}`,
	"breaker":                       `{"seq":53,"time":"2026-01-02T03:04:05.6Z","type":"breaker","solver":"greedy","fields":{"state":"open"}}`,
	"session_hit":                   `{"seq":54,"time":"2026-01-02T03:04:05.6Z","type":"session_hit","fields":{"sessionId":"s\u003c1\u003e\u00262"}}`,
	"session_miss":                  `{"seq":55,"time":"2026-01-02T03:04:05.6Z","type":"session_miss","fields":{"sessionId":"s-0123abcd"}}`,
	"session_evicted":               `{"seq":56,"time":"2026-01-02T03:04:05.6Z","type":"session_evicted","fields":{"reason":"ttl","sessionId":"s-0123abcd"}}`,
	"heartbeat":                     `{"seq":0,"time":"2026-01-02T03:04:05.6Z","type":"heartbeat","fields":{"dropped":0}}`,
	"stream_end":                    `{"seq":0,"time":"2026-01-02T03:04:05.6Z","type":"stream_end","fields":{"dropped":17}}`,
	"slo_breach":                    `{"seq":59,"time":"2026-01-02T03:04:05.6Z","type":"slo_breach","solver":"greedy","fields":{"bound":"max","postmortemId":"pm-1","rule":"solve-p95","target":"greedy","threshold":1e+21,"value":0.0000125,"window":"1m"}}`,
	"slo_recovered":                 `{"seq":60,"time":"2026-01-02T03:04:05.6Z","type":"slo_recovered","solver":"greedy","fields":{"bound":"max","rule":"solve-p95","target":"greedy","threshold":1e+21,"value":0.0000125,"window":"1m"}}`,
}

// TestEventWireGolden pins the JSON bytes of every event type — the SSE
// data: lines, the postmortem bundles' event lists and the stream-control
// frames all carry this encoding — and checks that decoding a line into
// telemetry.Event and re-encoding it reproduces the same bytes, and that
// a finished trace, which postmortems read, gives back the same bytes.
func TestEventWireGolden(t *testing.T) {
	cases := wireEvents(t)
	tr := telemetry.NewTracer(0).Start("solve")
	for _, c := range cases {
		tr.AddEvent(c.ev)
	}
	tr.Finish()
	frozen := tr.Events()
	if len(frozen) != len(cases) {
		t.Fatalf("finished trace holds %d events, want %d", len(frozen), len(cases))
	}
	for i, ev := range frozen {
		got, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("%s: %v", cases[i].name, err)
		}
		if want := wireGolden[cases[i].name]; string(got) != want {
			t.Errorf("%s from a finished trace:\n got %s\nwant %s", cases[i].name, got, want)
		}
	}
	for _, c := range cases {
		want, ok := wireGolden[c.name]
		if !ok {
			t.Fatalf("%s: no golden line", c.name)
		}
		got, err := json.Marshal(c.ev)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if string(got) != want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, want)
		}
		var back telemetry.Event
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", c.name, err)
		}
		if string(again) != string(got) {
			t.Errorf("%s: round trip changed the bytes:\n got %s\nwant %s", c.name, again, got)
		}
	}
}

// TestPhaseEventAllocs: a phase event, published five times per solve,
// allocates only its payload slice and its two boxed values.
func TestPhaseEventAllocs(t *testing.T) {
	rec := &solveRecord{reqID: "r7", trace: telemetry.NewTracer(0).Start("solve"), tenant: "acme", solver: "greedy"}
	name := telemetry.PhaseViews
	var ev telemetry.Event
	allocs := testing.AllocsPerRun(100, func() { ev = rec.phaseEvent(name, 375*time.Microsecond) })
	if allocs > 3 {
		t.Errorf("phaseEvent allocates %.0f times, want <= 3", allocs)
	}
	if ev.Fields.Get("phase") != name {
		t.Fatalf("phase event fields = %v", ev.Fields)
	}
}
