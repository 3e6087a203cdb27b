package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Event is one live telemetry notification flowing through the Bus: a
// solve starting, a phase finishing, an incumbent improving, a race
// member launching, an admission decision, a breaker transition. The
// correlation fields (RequestID, TraceID, Tenant, Solver) let a consumer
// join the stream against the /solve response, the structured log line
// and /debug/traces; Fields carries the type-specific payload.
// docs/OBSERVABILITY.md is the schema contract.
type Event struct {
	// Seq is the bus-assigned publication sequence number (monotone per
	// bus). Gaps visible to one subscriber mean its buffer dropped events.
	Seq uint64 `json:"seq"`
	// Time is when the event was published.
	Time time.Time `json:"time"`
	// Type names the event kind: solve_start, phase, incumbent,
	// lower_bound, race_member_start, race_member_done, solve_done,
	// admission, breaker, heartbeat, stream_end.
	Type string `json:"type"`
	// RequestID correlates the event with the HTTP request that produced
	// it (the same id the /solve response and log line carry).
	RequestID string `json:"requestId,omitempty"`
	// TraceID correlates with the /debug/traces entry for the solve.
	TraceID uint64 `json:"traceId,omitempty"`
	// Tenant is the admission-resolved tenant of the producing request.
	Tenant string `json:"tenant,omitempty"`
	// Solver names the solver involved (requested or resolved, per type).
	Solver string `json:"solver,omitempty"`
	// Fields carries the type-specific payload (objective, phase name,
	// outcome, ...), encoded as a JSON object with sorted keys.
	Fields Fields `json:"fields,omitempty"`
}

// Filter selects the events a subscriber receives. Zero-value fields
// match everything; set fields must match the event exactly (Types is an
// OR over event type names).
type Filter struct {
	Tenant string
	Solver string
	Types  map[string]bool
}

// Match reports whether the event passes the filter.
func (f Filter) Match(ev Event) bool {
	if f.Tenant != "" && ev.Tenant != f.Tenant {
		return false
	}
	if f.Solver != "" && ev.Solver != f.Solver {
		return false
	}
	if len(f.Types) > 0 && !f.Types[ev.Type] {
		return false
	}
	return true
}

// BusHooks lets the owner observe bus health without the bus importing
// the metrics registry: the server wires these to the delprop_events_*
// metric family. Hooks run inline on the publish path and must stay
// allocation-light and never call back into the bus.
type BusHooks struct {
	// OnPublish fires once per published event (after fan-out).
	OnPublish func()
	// OnDrop fires once per event evicted from some subscriber's buffer.
	OnDrop func()
	// OnSubscribers fires with the new subscriber count whenever a
	// subscription opens or closes.
	OnSubscribers func(n int)
}

// DefaultSubscriberBuffer is the per-subscriber ring capacity when
// Subscribe gets 0.
const DefaultSubscriberBuffer = 256

// Bus is a typed, bounded, non-blocking event fan-out. Publish never
// blocks: each subscriber owns a fixed-capacity ring buffer, and when a
// slow consumer lets its ring fill, the oldest buffered event is evicted
// (the subscriber keeps the most recent events and a count of what it
// lost). Publishing with no subscribers costs a sequence stamp and the
// OnPublish hook. A nil *Bus is a valid no-op, so instrumented code needs
// no guards.
//
//delprop:nilsafe
type Bus struct {
	mu     sync.Mutex
	subs   map[*Subscription]struct{} //delprop:guardedby mu
	hooks  BusHooks                   //delprop:guardedby mu
	closed bool                       //delprop:guardedby mu

	seq atomic.Uint64
}

// NewBus returns an empty bus.
func NewBus() *Bus {
	return &Bus{subs: make(map[*Subscription]struct{})}
}

// SetHooks installs the health hooks (replacing any previous set). Call
// before traffic flows; hooks are read under the bus lock.
func (b *Bus) SetHooks(h BusHooks) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.hooks = h
	b.mu.Unlock()
}

// Publish stamps the event (sequence number, and time when unset) and
// fans it out to every matching subscriber's buffer. It never blocks on
// a consumer and is safe for concurrent use. The stamped event is
// returned so callers can record it on the producing trace.
func (b *Bus) Publish(ev Event) Event {
	if b == nil {
		return ev
	}
	ev.Seq = b.seq.Add(1)
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	b.mu.Lock()
	onPublish, onDrop := b.hooks.OnPublish, b.hooks.OnDrop
	drops := 0
	for s := range b.subs {
		if s.filter.Match(ev) {
			if s.push(ev) {
				drops++
			}
		}
	}
	b.mu.Unlock()
	if onPublish != nil {
		onPublish()
	}
	if onDrop != nil {
		for i := 0; i < drops; i++ {
			onDrop()
		}
	}
	return ev
}

// Subscribe registers a consumer with its own ring buffer of the given
// capacity (DefaultSubscriberBuffer when <= 0). The caller must Close the
// subscription when done. Subscribing to a shut-down bus returns an
// already-done subscription.
func (b *Bus) Subscribe(filter Filter, buffer int) *Subscription {
	if buffer <= 0 {
		buffer = DefaultSubscriberBuffer
	}
	s := &Subscription{
		bus:    b,
		filter: filter,
		buf:    NewRing[Event](buffer),
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	if b == nil {
		// Born done, but through closeOnce so a caller's Close stays safe.
		s.closeOnce.Do(func() { close(s.done) })
		return s
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		s.closeOnce.Do(func() { close(s.done) })
		return s
	}
	b.subs[s] = struct{}{}
	n, hook := len(b.subs), b.hooks.OnSubscribers
	b.mu.Unlock()
	if hook != nil {
		hook(n)
	}
	return s
}

// Shutdown ends every current subscription (their Done channels close)
// and makes future Subscribe calls return already-done subscriptions.
// Publish keeps working — events simply reach nobody — so producers need
// no drain-awareness. Idempotent.
func (b *Bus) Shutdown() {
	if b == nil {
		return
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	// Swap the set out so each Close (which re-locks the bus) sees an
	// empty registry; close order is irrelevant — every subscription gets
	// exactly one Done close.
	subs := b.subs
	b.subs = make(map[*Subscription]struct{})
	hook := b.hooks.OnSubscribers
	b.mu.Unlock()
	for s := range subs {
		s.Close()
	}
	if hook != nil {
		hook(0)
	}
}

// Subscription is one consumer's bounded view of the bus. The consumer
// waits on Notify, drains with Drain, and watches Done for shutdown; the
// publisher never waits for it.
type Subscription struct {
	bus    *Bus
	filter Filter

	mu sync.Mutex
	// buf holds pending events, oldest first.
	buf     Ring[Event] //delprop:guardedby mu
	dropped int64       //delprop:guardedby mu

	notify    chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// push appends under the bus lock's fan-out; it reports whether an event
// was evicted to make room.
func (s *Subscription) push(ev Event) (evicted bool) {
	s.mu.Lock()
	// A full buffer evicts its oldest event: a lagging tail wants the
	// newest state, and the Seq gap plus the drop counter make the loss
	// visible.
	if evicted = s.buf.Push(ev); evicted {
		s.dropped++
	}
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
	return evicted
}

// Notify signals (coalesced) that events are buffered. After receiving,
// call Drain until it returns nothing.
func (s *Subscription) Notify() <-chan struct{} { return s.notify }

// Done closes when the subscription ends (Close or bus Shutdown).
func (s *Subscription) Done() <-chan struct{} { return s.done }

// Drain pops up to max buffered events (all of them when max <= 0),
// oldest first.
func (s *Subscription) Drain(max int) []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Drain(max)
}

// Dropped returns how many events this subscription lost to its buffer
// bound.
func (s *Subscription) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close unregisters the subscription and closes Done. Idempotent and
// safe to call concurrently with a bus Shutdown.
func (s *Subscription) Close() {
	s.closeOnce.Do(func() {
		if b := s.bus; b != nil {
			b.mu.Lock()
			delete(b.subs, s)
			n, hook, closed := len(b.subs), b.hooks.OnSubscribers, b.closed
			b.mu.Unlock()
			if hook != nil && !closed {
				hook(n)
			}
		}
		close(s.done)
	})
}
