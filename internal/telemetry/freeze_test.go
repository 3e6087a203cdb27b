package telemetry

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// jsonOf encodes v, or names the error encoding it returned.
func jsonOf(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return "error: " + err.Error()
	}
	return string(data)
}

// finishAndCompare finishes tr, the only trace its tracer has started,
// runs after on it, and checks that the finished trace reads as the
// trace held before Finish, closed at Finish's end time: the same JSON
// from Render, Snapshot, Events and RecentEvents, every event time in
// the same location, and every Fields payload nil or not and every
// value of the same Go type. It returns
// whether Finish froze the trace.
func finishAndCompare(t testing.TB, tracer *Tracer, tr *Trace, after func(*Trace)) (frozen bool) {
	t.Helper()
	tr.mu.Lock()
	ref := &traceState{
		attrs:  slices.Clone(tr.live.attrs),
		spans:  slices.Clone(tr.live.spans),
		events: NewRing[Event](maxTraceEvents),
	}
	for _, ev := range tr.live.events.Slice() {
		ev.Fields = slices.Clone(ev.Fields)
		ref.events.Push(ev)
	}
	tr.mu.Unlock()

	tr.Finish()
	if after != nil {
		after(tr)
	}
	tr.mu.Lock()
	frozen = tr.live == nil
	ref.close(tr.state().end)
	tr.mu.Unlock()
	want := &Trace{id: tr.id, name: tr.name, start: tr.start, live: ref}
	wantTracer := NewTracer(1)
	wantTracer.mu.Lock()
	wantTracer.ring.Push(want)
	wantTracer.mu.Unlock()

	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"Render", tr.Render(), want.Render()},
		{"Snapshot", tracer.Snapshot(), wantTracer.Snapshot()},
		{"Events", tr.Events(), want.Events()},
		{"RecentEvents(1)", tracer.RecentEvents(1), wantTracer.RecentEvents(1)},
		{"RecentEvents(64)", tracer.RecentEvents(64), wantTracer.RecentEvents(64)},
	} {
		if got, want := jsonOf(c.got), jsonOf(c.want); got != want {
			t.Errorf("%s after Finish:\n got %s\nwant %s", c.name, got, want)
		}
	}
	got, exp := tr.Events(), want.Events()
	if len(got) != len(exp) {
		t.Fatalf("%d events after Finish, want %d", len(got), len(exp))
	}
	for i := range got {
		// Local and UTC times encode alike where the zone is UTC.
		if g, w := got[i].Time, exp[i].Time; !g.Equal(w) || g.Location() != w.Location() {
			t.Errorf("event %d: time %v, want %v", i, g, w)
		}
		if (got[i].Fields == nil) != (exp[i].Fields == nil) || len(got[i].Fields) != len(exp[i].Fields) {
			t.Errorf("event %d: fields %#v, want %#v", i, got[i].Fields, exp[i].Fields)
			continue
		}
		for j, f := range got[i].Fields {
			if g, w := reflect.TypeOf(f.Value), reflect.TypeOf(exp[i].Fields[j].Value); g != w {
				t.Errorf("event %d field %s: type %v, want %v", i, f.Key, g, w)
			}
		}
	}
	return frozen
}

// TestTraceFreezeRoundTrip: Finish freezes a trace into its compact form
// without losing or changing anything a reader sees, whatever its
// attributes, spans and events hold.
func TestTraceFreezeRoundTrip(t *testing.T) {
	local := time.Now()
	utc := time.Date(2026, 1, 2, 3, 4, 5, 600000000, time.UTC)
	cases := []struct {
		name   string
		build  func(tr *Trace)
		after  func(tr *Trace)
		frozen bool
	}{
		{name: "attrs overwritten", frozen: true, build: func(tr *Trace) {
			tr.SetAttr("solver", "auto")
			tr.SetAttr("requestId", "r1")
			tr.SetAttr("solver", "greedy")
			tr.SetAttr("outcome", "")
			tr.Span(PhaseParse)()
			tr.AddEvent(Event{Seq: 1, Time: local, Type: "solve_start", RequestID: "r1", TraceID: tr.ID(),
				Fields: Fields{{Key: "deadlineMs", Value: 30000.0}, {Key: "degraded", Value: false}}})
		}},
		{name: "ring wrapped", frozen: true, build: func(tr *Trace) {
			for i := range maxTraceEvents + 5 {
				tr.AddEvent(Event{Seq: uint64(100 + i), Time: local.Add(time.Duration(i) * time.Microsecond),
					Type: "incumbent", RequestID: "r2", Solver: "greedy",
					Fields: Fields{{Key: "objective", Value: float64(i) / 3}, {Key: "deleted", Value: i}}})
			}
		}},
		{name: "correlation changes", frozen: true, build: func(tr *Trace) {
			evs := []Event{
				{Type: "solve_start", RequestID: "r3", TraceID: 7, Tenant: "acme", Solver: "auto"},
				{Type: "phase", RequestID: "r3", TraceID: 7, Tenant: "acme", Solver: "auto"},
				{Type: "phase", RequestID: "r3", TraceID: 7, Tenant: "acme", Solver: "red-blue"},
				{Type: "admission", RequestID: "r4", Tenant: "other"},
				{Type: "breaker", Solver: "greedy"},
				{Type: "solve_done", RequestID: "r3", TraceID: 7, Tenant: "acme", Solver: "red-blue"},
			}
			for i, ev := range evs {
				// Seq runs backwards once, as events of a concurrent trace can.
				ev.Seq, ev.Time = uint64(10+3*i)%13, local.Add(-time.Duration(i)*time.Millisecond)
				tr.AddEvent(ev)
			}
		}},
		{name: "nil and empty fields", frozen: true, build: func(tr *Trace) {
			tr.AddEvent(Event{Seq: 1, Time: local, Type: "heartbeat"})
			tr.AddEvent(Event{Seq: 2, Time: local, Type: "heartbeat", Fields: Fields{}})
			tr.AddEvent(Event{Seq: 3, Time: local, Type: "heartbeat", Fields: Fields{{Key: "member", Value: nil}}})
		}},
		{name: "values", frozen: true, build: func(tr *Trace) {
			tr.AddEvent(Event{Seq: math.MaxUint64, Time: utc, Type: "slo_breach", Fields: Fields{
				{Key: "threshold", Value: 1e21}, {Key: "value", Value: 1.25e-5},
				{Key: "target", Value: "a<b>&c"}, {Key: "nodes", Value: int64(-12)},
				{Key: "deleted", Value: -3}, {Key: "degraded", Value: true},
				{Key: "max", Value: int64(math.MaxInt64)}, {Key: "min", Value: math.MinInt},
				{Key: "inf", Value: math.Inf(1)}, {Key: "é", Value: "日本"},
			}})
			tr.AddEvent(Event{Seq: 0, Type: "stream_end", Fields: Fields{{Key: "dropped", Value: int64(17)}}})
			tr.AddEvent(Event{Seq: 5, Time: local, Type: "phase", Fields: Fields{{Key: "phase", Value: "views"}, {Key: "phase2", Value: "views"}}})
		}},
		{name: "span open at Finish", frozen: true, build: func(tr *Trace) {
			tr.Span(PhaseParse)()
			tr.Span(PhaseViews)
			time.Sleep(time.Millisecond)
		}},
		{name: "writes after Finish", frozen: true, build: func(tr *Trace) {
			tr.SetAttr("outcome", "ok")
			tr.AddEvent(Event{Seq: 1, Time: local, Type: "solve_done"})
			tr.Span(PhaseSolve)
		}, after: func(tr *Trace) {
			tr.AddEvent(Event{Seq: 2, Time: local, Type: "incumbent"})
			tr.SetAttr("outcome", "late")
			tr.SetAttr("late", "true")
			tr.Span(PhaseEvaluate)()
		}},
		{name: "session_register", frozen: true, build: func(tr *Trace) {
			tr.SetAttr("requestId", "r9")
			tr.SetAttr("tenant", "acme")
			tr.SetAttr("fingerprint", "4f2a9c0d")
			tr.Span(PhaseParse)()
			tr.Span(PhaseViews)()
			tr.SetAttr("session", "s-0123abcd")
		}},
		{name: "empty", frozen: true, build: func(*Trace) {}},
		// What the block has no encoding for keeps the mutable form.
		{name: "uint64 value", build: func(tr *Trace) {
			tr.AddEvent(Event{Seq: 1, Time: local, Type: "phase", Fields: Fields{{Key: "n", Value: uint64(3)}}})
		}},
		{name: "fixed-zone time", build: func(tr *Trace) {
			tr.AddEvent(Event{Seq: 1, Time: local.In(time.FixedZone("X", 3600)), Type: "phase"})
		}},
		{name: "time out of range", build: func(tr *Trace) {
			tr.AddEvent(Event{Seq: 1, Time: time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC), Type: "phase"})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tracer := NewTracer(4)
			tr := tracer.Start("solve")
			c.build(tr)
			if frozen := finishAndCompare(t, tracer, tr, c.after); frozen != c.frozen {
				t.Errorf("frozen = %v, want %v", frozen, c.frozen)
			}
		})
	}
}

// fuzzOps decodes a byte string into trace operations, reading 0 once
// it runs out.
type fuzzOps struct{ data []byte }

func (o *fuzzOps) next() byte {
	if len(o.data) == 0 {
		return 0
	}
	b := o.data[0]
	o.data = o.data[1:]
	return b
}

func (o *fuzzOps) pick(from []string) string { return from[int(o.next())%len(from)] }

// fuzzStrings is the alphabet of FuzzTraceFreeze's keys, names and
// values, so strings repeat within a trace.
var fuzzStrings = []string{"", "solver", "greedy", "a<b>&c", "é", "requestId", "r1", "phase", "durationMs", strings.Repeat("x", 200)}

// event decodes one event: Seq, time, type, the correlation fields and
// a payload of typed values.
func (o *fuzzOps) event(base time.Time) Event {
	ev := Event{Seq: uint64(o.next()) * 1000, Type: o.pick(fuzzStrings)}
	switch t := base.Add(time.Duration(int8(o.next())) * time.Millisecond); o.next() % 4 {
	case 1:
		ev.Time = t
	case 2:
		ev.Time = t.UTC()
	case 3:
		ev.Time = t.In(time.FixedZone("X", 3600))
	}
	if b := o.next(); b&1 != 0 {
		ev.RequestID, ev.TraceID = o.pick(fuzzStrings), uint64(o.next())
	} else if b&2 != 0 {
		ev.Tenant, ev.Solver = o.pick(fuzzStrings), o.pick(fuzzStrings)
	}
	n := int(o.next() % 6)
	if n == 5 {
		return ev
	}
	ev.Fields = Fields{}
	for range n {
		f := Field{Key: o.pick(fuzzStrings)}
		switch b := o.next(); b % 8 {
		case 1:
			f.Value = b&8 != 0
		case 2:
			f.Value = int(int8(o.next())) << (o.next() % 64)
		case 3:
			f.Value = int64(int8(o.next())) << (o.next() % 64)
		case 4:
			var bits uint64
			for range 8 {
				bits = bits<<8 | uint64(o.next())
			}
			f.Value = math.Float64frombits(bits)
		case 5:
			f.Value = o.pick(fuzzStrings)
		case 6:
			f.Value = uint64(o.next())
		}
		ev.Fields = append(ev.Fields, f)
	}
	return ev
}

// run applies operations to tr until the input ends or decodes a
// Finish. An operation is a byte, whose value mod 5 picks SetAttr, Span,
// the end of an opened span, AddEvent or Finish, then its arguments:
// indexes into fuzzStrings and numbers.
func (o *fuzzOps) run(tr *Trace, ends *[]func()) {
	for len(o.data) > 0 {
		switch o.next() % 5 {
		case 0:
			tr.SetAttr(o.pick(fuzzStrings), o.pick(fuzzStrings))
		case 1:
			*ends = append(*ends, tr.Span(o.pick(fuzzStrings)))
		case 2:
			if len(*ends) > 0 {
				(*ends)[int(o.next())%len(*ends)]()
			}
		case 3:
			tr.AddEvent(o.event(tr.start))
		case 4:
			return
		}
	}
}

// FuzzTraceFreeze runs a decoded sequence of SetAttr, Span, span ends
// and AddEvent calls with typed payloads on a trace, finishes it, runs
// the operations after the Finish on the finished trace, and checks the
// finished trace against the trace before Finish as
// TestTraceFreezeRoundTrip does. Its seed corpus is under
// testdata/fuzz/FuzzTraceFreeze.
func FuzzTraceFreeze(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := &fuzzOps{data: data}
		tracer := NewTracer(2)
		tr := tracer.Start("solve")
		var ends []func()
		ops.run(tr, &ends)
		finishAndCompare(t, tracer, tr, func(tr *Trace) { ops.run(tr, &ends) })
	})
}

// BenchmarkTraceFinish measures one solve trace from Start to Finish,
// shaped as a /solve of the paper's Fig. 1 instance records it: seven
// attributes, five phase spans and eight events, which Finish freezes.
func BenchmarkTraceFinish(b *testing.B) {
	tracer := NewTracer(DefaultTraceBuffer)
	attrs := [][2]string{
		{"requestId", "r1"}, {"tenant", "default"}, {"solver", "single-tuple-exact"},
		{"dbSize", "7"}, {"queries", "1"}, {"deltaSize", "1"}, {"outcome", "ok"},
	}
	events := []Event{
		{Type: "solve_start", Solver: "auto", Fields: Fields{{"deadlineMs", 30000}, {"degraded", false}}},
		{Type: "phase", Solver: "auto", Fields: Fields{{"phase", "parse"}, {"durationMs", 0.017862}}},
		{Type: "phase", Solver: "auto", Fields: Fields{{"phase", "views"}, {"durationMs", 0.032968}}},
		{Type: "phase", Fields: Fields{{"phase", "classify"}, {"durationMs", 0.000665}}},
		{Type: "incumbent", Fields: Fields{{"objective", 1}, {"deleted", 1}}},
		{Type: "phase", Fields: Fields{{"phase", "solve"}, {"durationMs", 0.025413}}},
		{Type: "lower_bound", Fields: Fields{{"bound", 0.5}}},
		{Type: "solve_done", Fields: Fields{{"outcome", "ok"}, {"durationMs", 0.025413}, {"nodes", 2}, {"incumbents", 1}, {"objective", 1}}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := tracer.Start("solve")
		for _, name := range Phases {
			tr.Span(name)()
		}
		for j, ev := range events {
			ev.Seq, ev.Time, ev.RequestID, ev.TraceID, ev.Tenant = uint64(j+1), time.Now(), "r1", tr.ID(), "default"
			if ev.Solver == "" {
				ev.Solver = "single-tuple-exact"
			}
			tr.AddEvent(ev)
		}
		for _, a := range attrs {
			tr.SetAttr(a[0], a[1])
		}
		tr.Finish()
	}
}
