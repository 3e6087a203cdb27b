package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func drainAll(s *Subscription) []Event {
	var out []Event
	for {
		batch := s.Drain(0)
		if len(batch) == 0 {
			return out
		}
		out = append(out, batch...)
	}
}

func TestBusPublishSubscribe(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(Filter{}, 8)
	defer sub.Close()

	b.Publish(Event{Type: "solve_start", RequestID: "r1"})
	b.Publish(Event{Type: "solve_done", RequestID: "r1"})

	select {
	case <-sub.Notify():
	case <-time.After(time.Second):
		t.Fatal("no notify after publish")
	}
	evs := drainAll(sub)
	if len(evs) != 2 {
		t.Fatalf("drained %d events, want 2", len(evs))
	}
	if evs[0].Type != "solve_start" || evs[1].Type != "solve_done" {
		t.Errorf("order = %q, %q", evs[0].Type, evs[1].Type)
	}
	if evs[0].Seq == 0 || evs[1].Seq != evs[0].Seq+1 {
		t.Errorf("seq not monotone: %d, %d", evs[0].Seq, evs[1].Seq)
	}
	if evs[0].Time.IsZero() {
		t.Error("publish did not stamp Time")
	}
	if b.Published() != 2 {
		t.Errorf("Published = %d, want 2", b.Published())
	}
	if b.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0", b.Dropped())
	}
}

func TestBusFilter(t *testing.T) {
	b := NewBus()
	byTenant := b.Subscribe(Filter{Tenant: "acme"}, 8)
	bySolver := b.Subscribe(Filter{Solver: "greedy"}, 8)
	byType := b.Subscribe(Filter{Types: map[string]bool{"incumbent": true}}, 8)
	defer byTenant.Close()
	defer bySolver.Close()
	defer byType.Close()

	b.Publish(Event{Type: "incumbent", Tenant: "acme", Solver: "greedy"})
	b.Publish(Event{Type: "phase", Tenant: "acme", Solver: "red-blue"})
	b.Publish(Event{Type: "incumbent", Tenant: "other", Solver: "greedy"})

	if got := len(drainAll(byTenant)); got != 2 {
		t.Errorf("tenant filter delivered %d, want 2", got)
	}
	if got := len(drainAll(bySolver)); got != 2 {
		t.Errorf("solver filter delivered %d, want 2", got)
	}
	if got := len(drainAll(byType)); got != 2 {
		t.Errorf("type filter delivered %d, want 2", got)
	}
}

func TestFilterMatch(t *testing.T) {
	ev := Event{Type: "phase", Tenant: "acme", Solver: "greedy"}
	cases := []struct {
		name string
		f    Filter
		want bool
	}{
		{"empty matches all", Filter{}, true},
		{"tenant match", Filter{Tenant: "acme"}, true},
		{"tenant mismatch", Filter{Tenant: "zzz"}, false},
		{"solver match", Filter{Solver: "greedy"}, true},
		{"solver mismatch", Filter{Solver: "exact"}, false},
		{"type match", Filter{Types: map[string]bool{"phase": true}}, true},
		{"type mismatch", Filter{Types: map[string]bool{"incumbent": true}}, false},
		{"all fields", Filter{Tenant: "acme", Solver: "greedy", Types: map[string]bool{"phase": true}}, true},
	}
	for _, c := range cases {
		if got := c.f.Match(ev); got != c.want {
			t.Errorf("%s: Match = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSubscriptionDropOldest(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(Filter{}, 3)
	defer sub.Close()

	for i := 0; i < 5; i++ {
		b.Publish(Event{Type: "phase"})
	}
	evs := drainAll(sub)
	if len(evs) != 3 {
		t.Fatalf("buffered %d events, want 3 (capacity)", len(evs))
	}
	// The survivors must be the newest three: seqs 3, 4, 5.
	if evs[0].Seq != 3 || evs[2].Seq != 5 {
		t.Errorf("kept seqs %d..%d, want 3..5", evs[0].Seq, evs[2].Seq)
	}
	if sub.Dropped() != 2 {
		t.Errorf("sub.Dropped = %d, want 2", sub.Dropped())
	}
	if b.Dropped() != 2 {
		t.Errorf("bus.Dropped = %d, want 2", b.Dropped())
	}
}

func TestBusNonBlockingWithStalledSubscriber(t *testing.T) {
	// A subscriber that never drains must not slow publishing: every
	// Publish returns promptly, evicting the stalled ring's oldest entry.
	b := NewBus()
	stalled := b.Subscribe(Filter{}, 4)
	defer stalled.Close()

	const n = 10_000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			b.Publish(Event{Type: "phase"})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publishing blocked on a stalled subscriber")
	}
	if got := stalled.Dropped(); got != n-4 {
		t.Errorf("stalled.Dropped = %d, want %d", got, n-4)
	}
}

func TestBusConcurrentPublishDrain(t *testing.T) {
	// -race exercises publisher/consumer/closer interleavings.
	b := NewBus()
	var wg sync.WaitGroup
	var received atomic.Int64
	for c := 0; c < 4; c++ {
		sub := b.Subscribe(Filter{}, 16)
		wg.Add(1)
		go func(s *Subscription) {
			defer wg.Done()
			defer s.Close()
			for {
				select {
				case <-s.Notify():
					received.Add(int64(len(s.Drain(0))))
				case <-s.Done():
					received.Add(int64(len(s.Drain(0))))
					return
				}
			}
		}(sub)
	}
	var pubs sync.WaitGroup
	for p := 0; p < 4; p++ {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			for i := 0; i < 500; i++ {
				b.Publish(Event{Type: "phase"})
			}
		}()
	}
	pubs.Wait()
	b.Shutdown()
	wg.Wait()
	if b.Published() != 2000 {
		t.Errorf("Published = %d, want 2000", b.Published())
	}
	// delivered + dropped accounts for every fan-out across 4 subscribers.
	if got := received.Load() + b.Dropped(); got != 4*2000 {
		t.Errorf("delivered %d + dropped %d = %d, want %d",
			received.Load(), b.Dropped(), got, 4*2000)
	}
}

func TestBusShutdown(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(Filter{}, 4)
	b.Publish(Event{Type: "phase"})
	b.Shutdown()
	b.Shutdown() // idempotent

	select {
	case <-sub.Done():
	case <-time.After(time.Second):
		t.Fatal("Done not closed by Shutdown")
	}
	// Buffered events stay drainable after shutdown.
	if got := len(drainAll(sub)); got != 1 {
		t.Errorf("post-shutdown drain = %d events, want 1", got)
	}
	// Publish keeps working (events reach nobody).
	b.Publish(Event{Type: "phase"})
	if b.Published() != 2 {
		t.Errorf("Published after shutdown = %d, want 2", b.Published())
	}
	// New subscriptions are born done.
	late := b.Subscribe(Filter{}, 4)
	select {
	case <-late.Done():
	case <-time.After(time.Second):
		t.Fatal("post-shutdown Subscribe not already done")
	}
	late.Close() // still safe
}

func TestBusHooks(t *testing.T) {
	b := NewBus()
	var published, dropped atomic.Int64
	var lastSubs atomic.Int64
	b.SetHooks(BusHooks{
		OnPublish:     func() { published.Add(1) },
		OnDrop:        func() { dropped.Add(1) },
		OnSubscribers: func(n int) { lastSubs.Store(int64(n)) },
	})
	sub := b.Subscribe(Filter{}, 2)
	if lastSubs.Load() != 1 {
		t.Errorf("OnSubscribers after subscribe = %d, want 1", lastSubs.Load())
	}
	for i := 0; i < 5; i++ {
		b.Publish(Event{Type: "phase"})
	}
	if published.Load() != 5 {
		t.Errorf("OnPublish fired %d times, want 5", published.Load())
	}
	if dropped.Load() != 3 {
		t.Errorf("OnDrop fired %d times, want 3", dropped.Load())
	}
	sub.Close()
	if lastSubs.Load() != 0 {
		t.Errorf("OnSubscribers after close = %d, want 0", lastSubs.Load())
	}
	if b.Subscribers() != 0 {
		t.Errorf("Subscribers = %d, want 0", b.Subscribers())
	}
}

func TestNilBusSafe(t *testing.T) {
	var b *Bus
	b.Publish(Event{Type: "phase"})
	b.SetHooks(BusHooks{})
	b.Shutdown()
	if b.Published() != 0 || b.Dropped() != 0 || b.Subscribers() != 0 {
		t.Error("nil bus counters not zero")
	}
	sub := b.Subscribe(Filter{}, 4)
	select {
	case <-sub.Done():
	case <-time.After(time.Second):
		t.Fatal("nil-bus subscription not already done")
	}
	if evs := sub.Drain(0); len(evs) != 0 {
		t.Errorf("nil-bus drain = %d events", len(evs))
	}
	sub.Close()
}

func TestSubscriptionDrainMax(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(Filter{}, 8)
	defer sub.Close()
	for i := 0; i < 5; i++ {
		b.Publish(Event{Type: "phase"})
	}
	if got := len(sub.Drain(2)); got != 2 {
		t.Errorf("Drain(2) = %d events", got)
	}
	if got := len(sub.Drain(0)); got != 3 {
		t.Errorf("Drain(0) after partial = %d events, want 3", got)
	}
}

// TestPublishReturnsStampedEvent: Bus.Publish hands back the event with
// its assigned sequence and timestamp, so the copy a trace records is
// exactly what subscribers saw.
func TestPublishReturnsStampedEvent(t *testing.T) {
	b := NewBus()
	defer b.Shutdown()
	tr := NewTracer(0).Start("solve")
	sub := b.Subscribe(Filter{}, 16)
	defer sub.Close()
	for i := 0; i < 3; i++ {
		ev := b.Publish(Event{Type: "tick", RequestID: fmt.Sprintf("r%d", i)})
		if ev.Seq == 0 || ev.Time.IsZero() {
			t.Fatalf("published event not stamped: %+v", ev)
		}
		tr.AddEvent(ev)
	}
	delivered := sub.Drain(0)
	recorded := tr.Events()
	if len(delivered) != 3 || len(recorded) != 3 {
		t.Fatalf("delivered %d, recorded %d, want 3/3", len(delivered), len(recorded))
	}
	for i := range delivered {
		if delivered[i].Seq != recorded[i].Seq || delivered[i].RequestID != recorded[i].RequestID {
			t.Fatalf("trace diverged from the bus at %d: %+v vs %+v", i, recorded[i], delivered[i])
		}
	}
}

// Published returns the total number of events published to the bus.
func (b *Bus) Published() int64 {
	if b == nil {
		return 0
	}
	return b.published.Load()
}

// Dropped returns the total number of events evicted from subscriber
// buffers across the bus's lifetime.
func (b *Bus) Dropped() int64 {
	if b == nil {
		return 0
	}
	return b.dropped.Load()
}

// Subscribers returns the current subscription count.
func (b *Bus) Subscribers() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}
