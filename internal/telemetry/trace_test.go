package telemetry

import (
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestTraceSpansAndSnapshot(t *testing.T) {
	tr := NewTracer(4)
	x := tr.Start("solve")
	x.SetAttr("solver", "greedy")
	done := x.Span("parse")
	time.Sleep(time.Millisecond)
	done()
	done()                  // idempotent
	open := x.Span("solve") // left open: Finish must close it
	_ = open
	x.Finish()
	x.Finish() // idempotent

	snap := tr.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot len = %d, want 1", len(snap))
	}
	got := snap[0]
	if got.Name != "solve" || got.ID != 1 {
		t.Errorf("trace = %+v", got)
	}
	if got.Attrs["solver"] != "greedy" {
		t.Errorf("attrs = %v", got.Attrs)
	}
	if len(got.Spans) != 2 || got.Spans[0].Name != "parse" || got.Spans[1].Name != "solve" {
		t.Fatalf("spans = %+v", got.Spans)
	}
	if got.Spans[0].DurationMs <= 0 {
		t.Errorf("parse duration = %v, want > 0", got.Spans[0].DurationMs)
	}
	if got.DurationMs < got.Spans[0].DurationMs {
		t.Errorf("trace duration %v < span duration %v", got.DurationMs, got.Spans[0].DurationMs)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(2)
	for i := 0; i < 5; i++ {
		tr.Start("t").Finish()
	}
	snap := tr.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("ring len = %d, want 2", len(snap))
	}
	// Oldest first: the last two of the five traces survive.
	if snap[0].ID != 4 || snap[1].ID != 5 {
		t.Errorf("ring ids = %d, %d, want 4, 5", snap[0].ID, snap[1].ID)
	}
}

func TestSpanDuration(t *testing.T) {
	tr := NewTracer(0)
	x := tr.Start("solve")
	if d := x.SpanDuration("missing"); d != 0 {
		t.Errorf("missing span duration = %v", d)
	}
	done := x.Span("parse")
	if d := x.SpanDuration("parse"); d != 0 {
		t.Errorf("unfinished span duration = %v, want 0", d)
	}
	time.Sleep(time.Millisecond)
	done()
	if d := x.SpanDuration("parse"); d <= 0 {
		t.Errorf("finished span duration = %v, want > 0", d)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	x := tr.Start("solve") // nil trace
	x.SetAttr("k", "v")
	x.Span("parse")()
	if d := x.SpanDuration("parse"); d != 0 {
		t.Errorf("nil trace span duration = %v", d)
	}
	x.Finish()
	if snap := tr.Snapshot(); snap != nil {
		t.Errorf("nil tracer snapshot = %v", snap)
	}
}

func TestLiveSnapshot(t *testing.T) {
	tr := NewTracer(4)
	a := tr.Start("solve")
	a.SetAttr("solver", "greedy")
	doneParse := a.Span("parse")
	doneParse()
	a.Span("solve") // deliberately left open

	b := tr.Start("solve")

	if a.ID() != 1 || b.ID() != 2 {
		t.Errorf("ids = %d, %d, want 1, 2", a.ID(), b.ID())
	}
	var nilTr *Trace
	if nilTr.ID() != 0 {
		t.Errorf("nil trace ID = %d", nilTr.ID())
	}

	time.Sleep(time.Millisecond)
	live := tr.LiveSnapshot()
	if len(live) != 2 {
		t.Fatalf("live snapshot len = %d, want 2", len(live))
	}
	// Sorted oldest first by id.
	if live[0].ID != 1 || live[1].ID != 2 {
		t.Errorf("live ids = %d, %d, want 1, 2", live[0].ID, live[1].ID)
	}
	got := live[0]
	if !got.Live {
		t.Error("in-flight trace not marked live")
	}
	if got.DurationMs <= 0 {
		t.Errorf("live trace DurationMs = %v, want elapsed > 0", got.DurationMs)
	}
	if got.Attrs["solver"] != "greedy" {
		t.Errorf("live attrs = %v", got.Attrs)
	}
	if len(got.Spans) != 2 {
		t.Fatalf("live spans = %+v", got.Spans)
	}
	if got.Spans[0].Name != "parse" || got.Spans[0].DurationMs < 0 {
		t.Errorf("finished span = %+v", got.Spans[0])
	}
	// An open span has no end time yet: it renders with zero duration.
	if got.Spans[1].Name != "solve" || got.Spans[1].DurationMs != 0 {
		t.Errorf("open span = %+v, want DurationMs 0", got.Spans[1])
	}

	// Finishing moves the trace from the live set to the ring.
	a.Finish()
	if got := tr.LiveSnapshot(); len(got) != 1 || got[0].ID != 2 {
		t.Errorf("live after finish = %+v, want only id 2", got)
	}
	snap := tr.Snapshot()
	if len(snap) != 1 || snap[0].ID != 1 || snap[0].Live {
		t.Errorf("ring after finish = %+v, want finished id 1 with live=false", snap)
	}
	b.Finish()
	if got := tr.LiveSnapshot(); len(got) != 0 {
		t.Errorf("live after all finished = %+v", got)
	}
	if nilSnap := (*Tracer)(nil).LiveSnapshot(); nilSnap != nil {
		t.Errorf("nil tracer live snapshot = %v", nilSnap)
	}
}

// TestTracerConcurrent exercises concurrent Start/Span/Finish/Snapshot
// under -race.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				x := tr.Start("solve")
				done := x.Span("phase")
				x.SetAttr("j", "v")
				done()
				x.Finish()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 100; j++ {
			tr.Snapshot()
			tr.LiveSnapshot()
		}
	}()
	wg.Wait()
	if got := len(tr.Snapshot()); got != 8 {
		t.Errorf("final ring len = %d, want 8", got)
	}
}

// TestTraceEvents: a trace keeps its newest maxTraceEvents events, drops
// events added after Finish, and the tracer serves the newest finished
// traces' events in publication order.
func TestTraceEvents(t *testing.T) {
	tr := NewTracer(4)
	a := tr.Start("solve")
	for i := 1; i <= maxTraceEvents+3; i++ {
		a.AddEvent(Event{Seq: uint64(i), Type: "incumbent"})
	}
	got := a.Events()
	if len(got) != maxTraceEvents || got[0].Seq != 4 || got[len(got)-1].Seq != maxTraceEvents+3 {
		t.Fatalf("events = %d (first %d), want the newest %d", len(got), got[0].Seq, maxTraceEvents)
	}
	a.Finish()
	a.AddEvent(Event{Seq: 999})
	if n := len(a.Events()); n != maxTraceEvents {
		t.Fatalf("event added after Finish was kept: %d events", n)
	}

	// Two overlapping traces: RecentEvents merges by Seq and trims to the
	// newest.
	b, c := tr.Start("solve"), tr.Start("solve")
	b.AddEvent(Event{Seq: 100})
	c.AddEvent(Event{Seq: 101})
	b.AddEvent(Event{Seq: 102})
	c.Finish()
	b.Finish()
	recent := tr.RecentEvents(3)
	if len(recent) != 3 || recent[0].Seq != 100 || recent[1].Seq != 101 || recent[2].Seq != 102 {
		t.Fatalf("RecentEvents(3) = %+v, want seqs 100,101,102", recent)
	}

	var nilTr *Trace
	nilTr.AddEvent(Event{})
	if nilTr.Events() != nil || nilTr.Render() != nil || (*Tracer)(nil).RecentEvents(5) != nil {
		t.Fatal("nil trace/tracer not a no-op")
	}
}

// TestTraceStorageConcurrent races the writers of one trace's attributes,
// spans and events against its readers and against Finish, which freezes
// the trace; the readers go on reading the finished trace and the
// tracer's ring of finished traces. Run it under -race. Each attribute
// key stays listed once, with one of the values written to it.
func TestTraceStorageConcurrent(t *testing.T) {
	tr := NewTracer(4)
	keys := []string{"solver", "outcome", "tenant"}
	for round := 0; round < 20; round++ {
		x := tr.Start("solve")
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 50; j++ {
					x.SetAttr(keys[(g+j)%len(keys)], strconv.Itoa(g))
					end := x.Span(PhaseSolve)
					x.AddEvent(Event{Seq: uint64(j), Type: "phase", Fields: Fields{{Key: "phase", Value: "solve"}}})
					end()
					if j == 25 && g == 0 {
						x.Finish()
					}
				}
			}()
		}
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 50; j++ {
					x.Render()
					x.Events()
					x.SpanDuration(PhaseSolve)
					tr.Snapshot()
					tr.RecentEvents(16)
				}
			}()
		}
		wg.Wait()
		attrs := x.Render().Attrs
		if len(attrs) != len(keys) {
			t.Fatalf("attrs = %v, want one value per key %v", attrs, keys)
		}
		if n := len(x.Events()); n == 0 || n > maxTraceEvents {
			t.Fatalf("trace kept %d events, want 1..%d", n, maxTraceEvents)
		}
		x.mu.Lock()
		frozen := x.live == nil
		x.mu.Unlock()
		if !frozen {
			t.Fatal("finished trace was not frozen")
		}
	}
}
