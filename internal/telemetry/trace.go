package telemetry

import (
	"sort"
	"sync"
	"time"
)

// Tracer records traces — one per solve lifecycle — into a fixed-size
// ring buffer of the most recent finished traces, and tracks the traces
// still in flight so long solves are visible before they finish
// (/debug/traces?state=live). A nil *Tracer is a valid no-op tracer, so
// instrumented code needs no guards.
//
//delprop:nilsafe
type Tracer struct {
	mu sync.Mutex
	// ring holds the most recent finished traces, oldest first.
	ring   Ring[*Trace]      //delprop:guardedby mu
	live   map[uint64]*Trace //delprop:guardedby mu
	nextID uint64            //delprop:guardedby mu
}

// DefaultTraceBuffer is the ring capacity when NewTracer gets 0.
const DefaultTraceBuffer = 64

// NewTracer returns a tracer keeping the last capacity finished traces;
// the server passes 0 (DefaultTraceBuffer), so capacity is a test seam.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceBuffer
	}
	return &Tracer{ring: NewRing[*Trace](capacity)}
}

// The solve lifecycle phases, in execution order. The daemon's trace
// spans, phase events, response phaseMs and request log line and the
// CLI's -stats report all use these names.
const (
	PhaseParse    = "parse"
	PhaseViews    = "views"
	PhaseClassify = "classify"
	PhaseSolve    = "solve"
	PhaseEvaluate = "evaluate"
)

// Phases lists the lifecycle phases in execution order.
var Phases = [...]string{PhaseParse, PhaseViews, PhaseClassify, PhaseSolve, PhaseEvaluate}

// maxTraceEvents caps the events one trace keeps (the oldest are
// dropped), so a chatty solver cannot grow a trace without bound.
const maxTraceEvents = 32

// Trace is one in-flight or finished trace: a named operation with
// attributes, an ordered list of phase spans and the events the
// operation published. A running trace keeps them in a traceState;
// Finish freezes them into one compact, immutable block (freeze.go), and
// reading a finished trace decodes it. A nil *Trace (from a nil Tracer)
// is a valid no-op.
//
//delprop:nilsafe
type Trace struct {
	tracer *Tracer
	// id, name and start are set once at Start and never mutated, so
	// lock-free reads (ID, the live-snapshot sort) are safe.
	id    uint64
	name  string
	start time.Time

	mu sync.Mutex
	// live holds a running trace's contents. Finish swaps it for frozen,
	// or, when an event holds a value the block cannot encode, keeps it
	// with its end set.
	live   *traceState //delprop:guardedby mu
	frozen string      //delprop:guardedby mu
}

// traceState is a trace's contents in their mutable form.
type traceState struct {
	end    time.Time // zero while the trace runs
	attrs  []attr
	spans  []span
	events Ring[Event]
}

// attr is one trace attribute; a trace keeps each key once, in the order
// first set.
type attr struct {
	key, value string
}

type span struct {
	name  string
	start time.Time
	end   time.Time
}

// Start begins a trace and registers it as live. Finish must be called
// to commit it to the ring (and drop it from the live set).
func (t *Tracer) Start(name string) *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	// A solve trace holds one span per lifecycle phase.
	tr := &Trace{tracer: t, id: id, name: name, start: time.Now(),
		live: &traceState{spans: make([]span, 0, len(Phases)), events: NewRing[Event](maxTraceEvents)}}
	if t.live == nil {
		t.live = make(map[uint64]*Trace)
	}
	t.live[id] = tr
	t.mu.Unlock()
	return tr
}

// ID returns the trace's tracer-assigned id (0 for a nil trace) — the
// same id /debug/traces reports, so live event streams can correlate.
func (tr *Trace) ID() uint64 {
	if tr == nil {
		return 0
	}
	return tr.id
}

// running returns the contents of a trace that has not finished, nil
// once it has.
//
//delprop:holds mu
func (tr *Trace) running() *traceState {
	if st := tr.live; st != nil && st.end.IsZero() {
		return st
	}
	return nil
}

// state returns the trace's contents: the live form, or a decoding of
// the frozen one.
//
//delprop:holds mu
func (tr *Trace) state() *traceState {
	if tr.live != nil {
		return tr.live
	}
	return thaw(tr.frozen, tr.start)
}

// SetAttr attaches a key/value attribute (solver name, instance sizes),
// replacing the key's earlier value in place. A finished trace is
// immutable: SetAttr then does nothing.
func (tr *Trace) SetAttr(key, value string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	st := tr.running()
	if st == nil {
		return
	}
	for i := range st.attrs {
		if st.attrs[i].key == key {
			st.attrs[i].value = value
			return
		}
	}
	st.attrs = append(st.attrs, attr{key, value})
}

// Span opens a named phase and returns the closure that ends it. Typical
// use:
//
//	done := tr.Span("parse")
//	... phase work ...
//	done()
//
// Finish ends the spans still open; a span opened or ended after Finish
// changes nothing.
func (tr *Trace) Span(name string) func() {
	if tr == nil {
		return func() {}
	}
	tr.mu.Lock()
	st := tr.running()
	if st == nil {
		tr.mu.Unlock()
		return func() {}
	}
	st.spans = append(st.spans, span{name: name, start: time.Now()})
	i := len(st.spans) - 1
	tr.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			tr.mu.Lock()
			if tr.running() == st {
				st.spans[i].end = time.Now()
			}
			tr.mu.Unlock()
		})
	}
}

// SpanDuration returns the duration of the most recent finished span with
// the given name (0 when absent or unfinished) — used for phase-timing
// logs without re-walking the snapshot.
func (tr *Trace) SpanDuration(name string) time.Duration {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	spans := tr.state().spans
	for i := len(spans) - 1; i >= 0; i-- {
		s := spans[i]
		if s.name == name && !s.end.IsZero() {
			return s.end.Sub(s.start)
		}
	}
	return 0
}

// AddEvent records one published event on the trace. Events arriving
// after Finish are dropped, so a solver goroutine abandoned past its
// deadline cannot keep growing a trace the tracer already retired.
func (tr *Trace) AddEvent(ev Event) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if st := tr.running(); st != nil {
		st.events.Push(ev)
	}
}

// Events returns the trace's retained events, oldest first.
func (tr *Trace) Events() []Event {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.state().events.Slice()
}

// Render returns the trace in the /debug/traces schema, live-form when it
// has not finished yet (nil for a nil trace).
func (tr *Trace) Render() *TraceJSON {
	if tr == nil {
		return nil
	}
	tj := tr.render(time.Now())
	return &tj
}

// Finish ends the trace, ending its open spans, freezes its contents and
// commits it to the tracer's ring buffer, evicting the oldest entry when
// full. Idempotent.
func (tr *Trace) Finish() {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	st := tr.running()
	if st == nil {
		tr.mu.Unlock()
		return
	}
	st.close(time.Now())
	if block, ok := st.freeze(tr.start); ok {
		tr.live, tr.frozen = nil, block
	}
	t := tr.tracer
	tr.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.live, tr.id)
	t.ring.Push(tr)
}

// close ends the trace at end, and with it every span still open.
func (st *traceState) close(end time.Time) {
	st.end = end
	for i := range st.spans {
		if st.spans[i].end.IsZero() {
			st.spans[i].end = end
		}
	}
}

// SpanJSON is one phase of a trace in the /debug/traces schema.
type SpanJSON struct {
	Name       string  `json:"name"`
	OffsetMs   float64 `json:"offsetMs"`
	DurationMs float64 `json:"durationMs"`
}

// TraceJSON is one finished or in-flight trace in the /debug/traces
// schema. Live (unfinished) traces report the elapsed time so far as
// DurationMs; their still-open spans render with DurationMs 0 (there is
// no end time yet).
type TraceJSON struct {
	ID         uint64    `json:"id"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationMs float64   `json:"durationMs"`
	// Live marks a trace whose solve is still running.
	Live  bool              `json:"live,omitempty"`
	Attrs map[string]string `json:"attrs,omitempty"`
	Spans []SpanJSON        `json:"spans"`
}

// Snapshot returns the finished traces in the ring, oldest first.
func (t *Tracer) Snapshot() []TraceJSON {
	if t == nil {
		return nil
	}
	ring := t.finished()
	out := make([]TraceJSON, 0, len(ring))
	for _, tr := range ring {
		out = append(out, tr.render(time.Time{}))
	}
	return out
}

// finished copies the ring of finished traces, oldest first.
func (t *Tracer) finished() []*Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Slice()
}

// RecentEvents returns up to limit of the newest events recorded on the
// finished traces, oldest first.
func (t *Tracer) RecentEvents(limit int) []Event {
	if t == nil {
		return nil
	}
	ring := t.finished()
	var out []Event
	for i := len(ring) - 1; i >= 0 && len(out) < limit; i-- {
		out = append(out, ring[i].Events()...)
	}
	// Traces overlap in time: restore publication order before trimming.
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	if len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// LiveSnapshot returns the traces still in flight, oldest first (by id).
// Each is a point-in-time copy: the trace keeps running after the
// snapshot.
func (t *Tracer) LiveSnapshot() []TraceJSON {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	live := make([]*Trace, 0, len(t.live))
	for _, tr := range t.live {
		live = append(live, tr)
	}
	t.mu.Unlock()
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	out := make([]TraceJSON, 0, len(live))
	for _, tr := range live {
		out = append(out, tr.render(now))
	}
	return out
}

// render copies the trace into the JSON schema. A nonzero now marks a
// live rendering: the trace-level duration is the elapsed time at now,
// and open spans keep a zero duration.
func (tr *Trace) render(now time.Time) TraceJSON {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	st := tr.state()
	tj := TraceJSON{
		ID:    tr.id,
		Name:  tr.name,
		Start: tr.start,
	}
	if !now.IsZero() && st.end.IsZero() {
		tj.Live = true
		tj.DurationMs = ms(now.Sub(tr.start))
	} else {
		tj.DurationMs = ms(st.end.Sub(tr.start))
	}
	if len(st.attrs) > 0 {
		tj.Attrs = make(map[string]string, len(st.attrs))
		for _, a := range st.attrs {
			tj.Attrs[a.key] = a.value
		}
	}
	for _, s := range st.spans {
		sj := SpanJSON{
			Name:     s.name,
			OffsetMs: ms(s.start.Sub(tr.start)),
		}
		if !s.end.IsZero() {
			sj.DurationMs = ms(s.end.Sub(s.start))
		}
		tj.Spans = append(tj.Spans, sj)
	}
	return tj
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
