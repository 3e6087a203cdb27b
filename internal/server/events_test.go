package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"delprop/internal/telemetry"
)

// streamEvents opens GET /events on the test server and collects decoded
// events in the background until stop returns true for one of them, the
// stream ends, or the context is canceled. The returned wait function
// blocks for the collector and yields everything received.
func streamEvents(ctx context.Context, t *testing.T, srv *httptest.Server, query string, stop func(telemetry.Event) bool) func() []telemetry.Event {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/events"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("/events status = %d", resp.StatusCode)
	}
	// Receiving the 200 headers means the handler has subscribed: events
	// published after this point reach the stream.
	var mu sync.Mutex
	var got []telemetry.Event
	done := make(chan struct{})
	errStop := errors.New("stop")
	go func() {
		defer close(done)
		defer resp.Body.Close()
		_ = telemetry.ReadSSE(resp.Body, func(m telemetry.SSEMessage) error {
			var ev telemetry.Event
			if err := json.Unmarshal([]byte(m.Data), &ev); err != nil {
				return err
			}
			mu.Lock()
			got = append(got, ev)
			mu.Unlock()
			if stop != nil && stop(ev) {
				return errStop
			}
			return nil
		})
	}()
	return func() []telemetry.Event {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("event stream did not finish")
		}
		mu.Lock()
		defer mu.Unlock()
		return append([]telemetry.Event(nil), got...)
	}
}

// TestEventsStreamDuringSolve drives a real solve while subscribed to
// /events and checks the correlated lifecycle: solve_start, the phase
// events, at least one incumbent, then solve_done — all carrying the same
// request id as the /solve response.
func TestEventsStreamDuringSolve(t *testing.T) {
	app := New()
	srv := httptest.NewServer(app)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wait := streamEvents(ctx, t, srv, "", func(ev telemetry.Event) bool {
		return ev.Type == "solve_done"
	})

	resp, body := post(t, srv, "/solve", projectFreeSolve())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d: %s", resp.StatusCode, body)
	}
	out := decodeSolve(t, body)
	if out.RequestID == "" {
		t.Fatal("solve response has no request id")
	}

	evs := wait()
	byType := make(map[string][]telemetry.Event)
	for _, ev := range evs {
		byType[ev.Type] = append(byType[ev.Type], ev)
	}
	for _, typ := range []string{"solve_start", "phase", "incumbent", "solve_done"} {
		if len(byType[typ]) == 0 {
			t.Fatalf("no %s event in stream: %v", typ, byType)
		}
	}
	// Correlation: every lifecycle event carries the response's request id
	// and a nonzero trace id.
	for _, typ := range []string{"solve_start", "incumbent", "solve_done"} {
		for _, ev := range byType[typ] {
			if ev.RequestID != out.RequestID {
				t.Errorf("%s requestId = %q, want %q", typ, ev.RequestID, out.RequestID)
			}
			if ev.TraceID == 0 {
				t.Errorf("%s has no trace id", typ)
			}
		}
	}
	// Ordering: start before done, incumbent between them (Seq is the bus
	// publication order).
	start, doneEv := byType["solve_start"][0], byType["solve_done"][0]
	if start.Seq >= doneEv.Seq {
		t.Errorf("solve_start seq %d not before solve_done seq %d", start.Seq, doneEv.Seq)
	}
	if inc := byType["incumbent"][0]; inc.Seq <= start.Seq || inc.Seq >= doneEv.Seq {
		t.Errorf("incumbent seq %d outside (%d, %d)", inc.Seq, start.Seq, doneEv.Seq)
	}
	// Phase events name the lifecycle phases with timings.
	phases := make(map[string]bool)
	for _, ev := range byType["phase"] {
		name, _ := ev.Fields.Get("phase").(string)
		phases[name] = true
	}
	for _, want := range telemetry.Phases {
		if !phases[want] {
			t.Errorf("no phase event for %q: %v", want, phases)
		}
	}
	if doneEv.Solver != "brute-force" {
		t.Errorf("solve_done solver = %q, want brute-force", doneEv.Solver)
	}
	if outcome, _ := doneEv.Fields.Get("outcome").(string); outcome != "ok" {
		t.Errorf("solve_done outcome = %v", doneEv.Fields.Get("outcome"))
	}
}

// TestEventsTypeFilter: ?type= restricts the stream to the named types.
func TestEventsTypeFilter(t *testing.T) {
	app := New()
	srv := httptest.NewServer(app)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wait := streamEvents(ctx, t, srv, "?type=solve_done", func(ev telemetry.Event) bool {
		return ev.Type == "solve_done"
	})
	if resp, body := post(t, srv, "/solve", projectFreeSolve()); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d: %s", resp.StatusCode, body)
	}
	for _, ev := range wait() {
		if ev.Type != "solve_done" {
			t.Errorf("filtered stream leaked %q event", ev.Type)
		}
	}
}

// TestEventsStalledSubscriber: a subscriber that never drains must not
// delay a concurrent solve; its losses surface as drop counts on /metrics
// and in the terminal stream_end event. Run under -race in CI.
func TestEventsStalledSubscriber(t *testing.T) {
	app := NewHandler(Config{EventBuffer: 1})
	srv := httptest.NewServer(app)
	defer srv.Close()

	// The raw subscription stands in for a consumer that never reads.
	stalled := app.Events().Subscribe(telemetry.Filter{}, 1)
	defer stalled.Close()

	// The SSE variant: connect but do not read the body until after the
	// drain, so buffered frames and the terminal event arrive together.
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/events status = %d", resp.StatusCode)
	}

	// A real solve must complete promptly regardless of the stalled
	// consumers.
	solveDone := make(chan time.Duration, 1)
	go func() {
		begin := time.Now()
		post(t, srv, "/solve", projectFreeSolve())
		solveDone <- time.Since(begin)
	}()
	select {
	case <-solveDone:
	case <-time.After(10 * time.Second):
		t.Fatal("solve blocked behind a stalled event subscriber")
	}

	// Burst well past every ring bound: drops must accrue somewhere.
	for i := 0; i < 5000; i++ {
		app.Events().Publish(telemetry.Event{Type: "phase"})
	}
	if stalled.Dropped() == 0 {
		t.Error("stalled subscription recorded no drops after burst")
	}
	if status, metrics := get(t, srv, "/metrics"); status != http.StatusOK ||
		!strings.Contains(metrics, "delprop_events_dropped_total") {
		t.Errorf("/metrics missing delprop_events_dropped_total (status %d)", status)
	} else {
		for _, line := range strings.Split(metrics, "\n") {
			if strings.HasPrefix(line, "delprop_events_dropped_total ") &&
				strings.TrimPrefix(line, "delprop_events_dropped_total ") == "0" {
				t.Errorf("dropped counter still zero: %s", line)
			}
		}
	}

	// Drain: the subscription ends and the handler writes the terminal
	// stream_end event carrying the SSE subscriber's own drop count.
	app.SetDraining(true)
	defer app.SetDraining(false)
	var last telemetry.Event
	if err := telemetry.ReadSSE(resp.Body, func(m telemetry.SSEMessage) error {
		return json.Unmarshal([]byte(m.Data), &last)
	}); err != nil {
		t.Fatal(err)
	}
	if last.Type != "stream_end" {
		t.Fatalf("terminal event = %q, want stream_end", last.Type)
	}
	if dropped, ok := last.Fields.Get("dropped").(float64); !ok || dropped <= 0 {
		t.Errorf("stream_end dropped = %v, want > 0", last.Fields.Get("dropped"))
	}
}

// TestEventsMetricsFamilies: the three bus-health series exist and move.
func TestEventsMetricsFamilies(t *testing.T) {
	app := New()
	srv := httptest.NewServer(app)
	defer srv.Close()

	if resp, body := post(t, srv, "/solve", projectFreeSolve()); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d: %s", resp.StatusCode, body)
	}
	status, metrics := get(t, srv, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status = %d", status)
	}
	for _, want := range []string{
		"# TYPE delprop_events_published_total counter",
		"# TYPE delprop_events_dropped_total counter",
		"# TYPE delprop_events_subscribers gauge",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// A solve publishes lifecycle events even with no subscribers.
	if strings.Contains(metrics, "\ndelprop_events_published_total 0\n") {
		t.Error("published counter did not move during a solve")
	}
}

// TestEventsOnOpsListener: the stream is mounted on the ops mux too.
func TestEventsOnOpsListener(t *testing.T) {
	app := New()
	ops := httptest.NewServer(app.OpsHandler(false))
	defer ops.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wait := streamEvents(ctx, t, ops, "", nil)
	app.Events().Publish(telemetry.Event{Type: "phase"})
	time.Sleep(50 * time.Millisecond)
	cancel()
	evs := wait()
	if len(evs) == 0 {
		t.Fatal("ops-listener stream received nothing")
	}
	if evs[0].Type != "phase" {
		t.Errorf("event type = %q", evs[0].Type)
	}
}

// TestTracesLiveState: /debug/traces?state=live shows in-flight traces
// with live:true and open spans, and they move to the finished ring after
// Finish.
func TestTracesLiveState(t *testing.T) {
	app := New()
	srv := httptest.NewServer(app)
	defer srv.Close()

	tr := app.Tracer().Start("solve")
	tr.SetAttr("solver", "greedy")
	tr.SetAttr("tenant", "acme")
	end := tr.Span("solve")
	_ = end

	status, body := get(t, srv, "/debug/traces?state=live")
	if status != http.StatusOK {
		t.Fatalf("live traces status = %d: %s", status, body)
	}
	var live TracesResponse
	if err := json.Unmarshal([]byte(body), &live); err != nil {
		t.Fatal(err)
	}
	if len(live.Traces) != 1 {
		t.Fatalf("live traces = %d, want 1", len(live.Traces))
	}
	got := live.Traces[0]
	if !got.Live || got.ID != tr.ID() {
		t.Errorf("live trace = %+v", got)
	}
	if len(got.Spans) != 1 || got.Spans[0].DurationMs != 0 {
		t.Errorf("open span = %+v, want zero duration", got.Spans)
	}

	// Attr filters apply to live traces too.
	if _, body := get(t, srv, "/debug/traces?state=live&tenant=acme"); !strings.Contains(body, `"tenant":"acme"`) {
		t.Errorf("tenant-filtered live traces = %s", body)
	}
	if _, body := get(t, srv, "/debug/traces?state=live&tenant=other"); strings.Contains(body, `"id"`) {
		t.Errorf("mismatched tenant filter leaked traces: %s", body)
	}

	// Unknown state is a 400.
	if status, _ := get(t, srv, "/debug/traces?state=bogus"); status != http.StatusBadRequest {
		t.Errorf("bogus state status = %d, want 400", status)
	}

	// The default view excludes in-flight traces; ?state=all includes them.
	if _, body := get(t, srv, "/debug/traces"); strings.Contains(body, `"live":true`) {
		t.Errorf("finished view leaked a live trace: %s", body)
	}
	if _, body := get(t, srv, "/debug/traces?state=all"); !strings.Contains(body, `"live":true`) {
		t.Errorf("all view missing the live trace: %s", body)
	}

	end()
	tr.Finish()
	if _, body := get(t, srv, "/debug/traces?state=live"); strings.Contains(body, `"id"`) {
		t.Errorf("finished trace still listed live: %s", body)
	}
	if _, body := get(t, srv, "/debug/traces"); !strings.Contains(body, `"solver":"greedy"`) {
		t.Errorf("finished ring missing the trace: %s", body)
	}
}

// TestRejectedSolveClosesLifecycle: a solve refused before any solver ran
// still closes its solve_start with exactly one solve_done (outcome
// rejected, same request id), and feeds no solve metrics.
func TestRejectedSolveClosesLifecycle(t *testing.T) {
	cases := []struct {
		name   string
		req    InstanceRequest
		status int
	}{
		{"bad deletion", InstanceRequest{Database: fig1DB, Queries: "Q4(x, y, z) :- T1(x, y), T2(y, z, w)",
			Deletions: "Q4(Nobody, X, Y)"}, http.StatusBadRequest},
		{"unknown solver", InstanceRequest{Database: fig1DB, Queries: "Q4(x, y, z) :- T1(x, y), T2(y, z, w)",
			Deletions: "Q4(John, TKDE, XML)", Solver: "nope"}, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			app := New()
			srv := httptest.NewServer(app)
			defer srv.Close()
			sub := app.Events().Subscribe(telemetry.Filter{
				Types: map[string]bool{eventSolveStart: true, eventSolveDone: true}}, 16)
			defer sub.Close()

			resp, body := post(t, srv, "/solve", c.req)
			if resp.StatusCode != c.status {
				t.Fatalf("status = %d, want %d: %s", resp.StatusCode, c.status, body)
			}
			reqID := decodeErr(t, body).RequestID
			evs := sub.Drain(0)
			if len(evs) != 2 || evs[0].Type != eventSolveStart || evs[1].Type != eventSolveDone {
				t.Fatalf("events = %+v, want solve_start then solve_done", evs)
			}
			for _, ev := range evs {
				if ev.RequestID != reqID || ev.TraceID == 0 {
					t.Errorf("%s correlation = req %q trace %d, want req %q", ev.Type, ev.RequestID, ev.TraceID, reqID)
				}
			}
			if outcome := evs[1].Fields.Get("outcome"); outcome != outcomeRejected {
				t.Errorf("solve_done outcome = %v, want %s", outcome, outcomeRejected)
			}
			if _, metrics := get(t, srv, "/metrics"); strings.Contains(metrics, metricSolvesTotal+"{") {
				t.Errorf("rejected solve fed %s", metricSolvesTotal)
			}
			var traces TracesResponse
			getJSON(t, srv, "/debug/traces", &traces)
			if len(traces.Traces) != 1 || traces.Traces[0].Attrs["outcome"] != outcomeRejected {
				t.Errorf("trace = %+v, want one trace with outcome %s", traces.Traces, outcomeRejected)
			}
		})
	}
}
