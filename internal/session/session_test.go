package session

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"delprop/internal/core"
	"delprop/internal/textio"
	"delprop/internal/workload"
)

// fakeClock is an injectable clock for TTL tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// counterHooks tallies hook invocations behind a lock.
type counterHooks struct {
	mu           sync.Mutex
	hits, misses int
	evicts       map[string]int // by reason
	entries      int
}

func newCounterHooks() *counterHooks { return &counterHooks{evicts: make(map[string]int)} }

func (h *counterHooks) hooks() Hooks {
	return Hooks{
		OnHit:  func(string) { h.mu.Lock(); h.hits++; h.mu.Unlock() },
		OnMiss: func(string) { h.mu.Lock(); h.misses++; h.mu.Unlock() },
		OnEvict: func(_, reason string) {
			h.mu.Lock()
			h.evicts[reason]++
			h.mu.Unlock()
		},
		OnEntries: func(n int) { h.mu.Lock(); h.entries = n; h.mu.Unlock() },
	}
}

// fig1Build returns a build func over the Fig. 1 running example.
func fig1Build(t *testing.T) func() (*core.Problem, error) {
	t.Helper()
	w := workload.Fig1()
	return func() (*core.Problem, error) {
		return core.NewProblem(w.DB, w.Queries, nil)
	}
}

func TestFingerprintDeterministic(t *testing.T) {
	a := Fingerprint("db", "q")
	if a != Fingerprint("db", "q") {
		t.Fatal("fingerprint must be deterministic")
	}
	if a == Fingerprint("db2", "q") || a == Fingerprint("db", "q2") {
		t.Fatal("different inputs must fingerprint differently")
	}
	// The separator prevents boundary ambiguity: ("ab","c") != ("a","bc").
	if Fingerprint("ab", "c") == Fingerprint("a", "bc") {
		t.Fatal("fingerprint must separate database from queries")
	}
}

func TestRegisterMissThenHit(t *testing.T) {
	clock := newFakeClock()
	h := newCounterHooks()
	r := NewRegistry(Config{TTL: time.Minute, Now: clock.Now, Hooks: h.hooks()})
	ctx := context.Background()
	fp := Fingerprint("db", "q")

	builds := 0
	build := func() (*core.Problem, error) {
		builds++
		return fig1Build(t)()
	}
	e1, reused, err := r.Register(ctx, fp, "", build)
	if err != nil || reused {
		t.Fatalf("first register: reused=%v err=%v", reused, err)
	}
	if e1.Problem() == nil {
		t.Fatal("registered entry must expose the skeleton")
	}
	e2, reused, err := r.Register(ctx, fp, "", build)
	if err != nil || !reused {
		t.Fatalf("second register: reused=%v err=%v", reused, err)
	}
	if e1 != e2 || builds != 1 {
		t.Fatalf("fingerprint must dedupe: entries %p/%p builds=%d", e1, e2, builds)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.misses != 1 || h.hits != 1 || h.entries != 1 {
		t.Errorf("hooks: misses=%d hits=%d entries=%d", h.misses, h.hits, h.entries)
	}
}

func TestRegisterBuildErrorNotCached(t *testing.T) {
	r := NewRegistry(Config{})
	ctx := context.Background()
	boom := errors.New("boom")
	_, _, err := r.Register(ctx, Fingerprint("x", "y"), "", func() (*core.Problem, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want build error, got %v", err)
	}
	if r.Len() != 0 {
		t.Fatal("failed build must not leave a placeholder behind")
	}
	// The fingerprint can be registered again after the failure.
	if _, _, err := r.Register(ctx, Fingerprint("x", "y"), "", fig1Build(t)); err != nil {
		t.Fatalf("re-register after failure: %v", err)
	}
}

func TestAcquireExtendsTTL(t *testing.T) {
	clock := newFakeClock()
	h := newCounterHooks()
	r := NewRegistry(Config{TTL: time.Minute, Now: clock.Now, Hooks: h.hooks()})
	ctx := context.Background()
	e, _, err := r.Register(ctx, Fingerprint("a", "b"), "", fig1Build(t))
	if err != nil {
		t.Fatal(err)
	}
	// 40s + 40s crosses the 60s TTL, but the read at 40s extends it.
	clock.Advance(40 * time.Second)
	got, err := r.Acquire(ctx, e.ID)
	if err != nil {
		t.Fatalf("acquire within TTL: %v", err)
	}
	r.Release(got)
	clock.Advance(40 * time.Second)
	if got, err = r.Acquire(ctx, e.ID); err != nil {
		t.Fatalf("extend-on-read failed: %v", err)
	}
	r.Release(got)
	// Past the (extended) TTL the entry misses and is evicted.
	clock.Advance(2 * time.Minute)
	if _, err := r.Acquire(ctx, e.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound after expiry, got %v", err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.evicts[EvictTTL] != 1 {
		t.Errorf("want 1 ttl eviction, got %v", h.evicts)
	}
}

func TestSweepRespectsInflight(t *testing.T) {
	clock := newFakeClock()
	h := newCounterHooks()
	r := NewRegistry(Config{TTL: time.Minute, Now: clock.Now, Hooks: h.hooks()})
	ctx := context.Background()
	e, _, err := r.Register(ctx, Fingerprint("a", "b"), "", fig1Build(t))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Acquire(ctx, e.ID)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(5 * time.Minute)
	r.Sweep(clock.Now())
	if r.Len() != 1 {
		t.Fatal("sweep must not remove an entry with a solve in flight")
	}
	// The solve still runs against valid warm state.
	if got.Problem() == nil {
		t.Fatal("in-flight entry lost its skeleton")
	}
	r.Release(got)
	if r.Len() != 0 {
		t.Fatal("release of a dying entry must finalize the eviction")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.evicts[EvictTTL] != 1 {
		t.Errorf("want 1 ttl eviction, got %v", h.evicts)
	}
}

func TestCapacityEvictsLRU(t *testing.T) {
	clock := newFakeClock()
	h := newCounterHooks()
	r := NewRegistry(Config{TTL: time.Hour, MaxEntries: 2, Now: clock.Now, Hooks: h.hooks()})
	ctx := context.Background()
	build := fig1Build(t)
	e1, _, _ := r.Register(ctx, Fingerprint("1", "q"), "", build)
	clock.Advance(time.Second)
	e2, _, _ := r.Register(ctx, Fingerprint("2", "q"), "", build)
	clock.Advance(time.Second)
	// Touch e1 so e2 becomes LRU.
	if got, err := r.Acquire(ctx, e1.ID); err != nil {
		t.Fatal(err)
	} else {
		r.Release(got)
	}
	clock.Advance(time.Second)
	if _, _, err := r.Register(ctx, Fingerprint("3", "q"), "", build); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Acquire(ctx, e2.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("LRU entry must be gone, got %v", err)
	}
	if got, err := r.Acquire(ctx, e1.ID); err != nil {
		t.Fatalf("recently-used entry must survive: %v", err)
	} else {
		r.Release(got)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.evicts[EvictCapacity] != 1 {
		t.Errorf("want 1 capacity eviction, got %v", h.evicts)
	}
}

func TestCapacityFullWhenAllBusy(t *testing.T) {
	r := NewRegistry(Config{MaxEntries: 1})
	ctx := context.Background()
	e, _, err := r.Register(ctx, Fingerprint("1", "q"), "", fig1Build(t))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Acquire(ctx, e.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Register(ctx, Fingerprint("2", "q"), "", fig1Build(t)); !errors.Is(err, ErrFull) {
		t.Fatalf("want ErrFull with all entries busy, got %v", err)
	}
	r.Release(got)
	if _, _, err := r.Register(ctx, Fingerprint("2", "q"), "", fig1Build(t)); err != nil {
		t.Fatalf("after release the slot must free up: %v", err)
	}
}

func TestEvictBusyDefersToRelease(t *testing.T) {
	h := newCounterHooks()
	r := NewRegistry(Config{Hooks: h.hooks()})
	ctx := context.Background()
	e, _, err := r.Register(ctx, Fingerprint("1", "q"), "", fig1Build(t))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Acquire(ctx, e.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Evict(e.ID, EvictExplicit) {
		t.Fatal("evict of a known id must succeed")
	}
	if r.Len() != 1 {
		t.Fatal("busy entry must not be removed before release")
	}
	// A dying entry no longer serves acquisitions.
	if _, err := r.Acquire(ctx, e.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("dying entry must miss, got %v", err)
	}
	r.Release(got)
	if r.Len() != 0 {
		t.Fatal("release must finalize the deferred eviction")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.evicts[EvictExplicit] != 1 {
		t.Errorf("want 1 explicit eviction, got %v", h.evicts)
	}
}

func TestSingleFlightRegistration(t *testing.T) {
	r := NewRegistry(Config{})
	ctx := context.Background()
	fp := Fingerprint("db", "q")
	var mu sync.Mutex
	builds := 0
	gate := make(chan struct{})
	w := workload.Fig1()
	build := func() (*core.Problem, error) {
		mu.Lock()
		builds++
		mu.Unlock()
		<-gate // hold every waiter on the latch until we open it
		return core.NewProblem(w.DB, w.Queries, nil)
	}
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	entries := make([]*Entry, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			entries[i], _, errs[i] = r.Register(ctx, fp, "", build)
		}(i)
	}
	// Let the goroutines pile up on the latch, then release the build.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if builds != 1 {
		t.Fatalf("single-flight violated: %d builds", builds)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if entries[i] != entries[0] {
			t.Fatal("all goroutines must share one entry")
		}
	}
}

func TestDrainingRefusesNewWork(t *testing.T) {
	r := NewRegistry(Config{})
	ctx := context.Background()
	e, _, err := r.Register(ctx, Fingerprint("1", "q"), "", fig1Build(t))
	if err != nil {
		t.Fatal(err)
	}
	r.SetDraining(true)
	if _, _, err := r.Register(ctx, Fingerprint("2", "q"), "", fig1Build(t)); !errors.Is(err, ErrDraining) {
		t.Fatalf("want ErrDraining on register, got %v", err)
	}
	if _, err := r.Acquire(ctx, e.ID); !errors.Is(err, ErrDraining) {
		t.Fatalf("want ErrDraining on acquire, got %v", err)
	}
	r.SetDraining(false)
	if got, err := r.Acquire(ctx, e.ID); err != nil {
		t.Fatalf("un-drain must restore service: %v", err)
	} else {
		r.Release(got)
	}
}

// TestDualBoundCertificateCache: Entry.DualBound is a pass-through to
// core.DualBound that never reports a cache hit. The name predates the
// removal of the certificate cache.
func TestDualBoundCertificateCache(t *testing.T) {
	r := NewRegistry(Config{})
	ctx := context.Background()
	w := workload.Fig1()
	// Q4 is key-preserving, so DualBound applies.
	fp := Fingerprint("fig1", "q4")
	e, _, err := r.Register(ctx, fp, "", func() (*core.Problem, error) {
		return core.NewProblem(w.DB, w.Queries[1:], nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	delta, err := textio.ParseDeletions("Q4(John, TKDE, XML)", w.Queries[1:])
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Problem().Specialize(delta)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.DualBound(p)
	if err != nil {
		t.Fatal(err)
	}
	// The entry caches no certificates: every call, repeats included,
	// passes through to core.DualBound and reports no hit.
	for i := 0; i < 2; i++ {
		lb, hit, err := e.DualBound(p, DefaultMaxBoundCerts)
		if err != nil {
			t.Fatal(err)
		}
		if hit || lb != direct {
			t.Fatalf("call %d: DualBound = %v (hit=%v), want %v with no hit", i, lb, hit, direct)
		}
	}
}

func TestSnapshotReportsState(t *testing.T) {
	clock := newFakeClock()
	r := NewRegistry(Config{TTL: time.Minute, Now: clock.Now})
	ctx := context.Background()
	e, _, err := r.Register(ctx, Fingerprint("1", "q"), "acme", fig1Build(t))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Acquire(ctx, e.ID)
	if err != nil {
		t.Fatal(err)
	}
	snaps := r.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("want 1 snapshot, got %d", len(snaps))
	}
	s := snaps[0]
	if s.ID != e.ID || s.Tenant != "acme" || !s.Ready || s.InFlight != 1 || s.Hits != 1 {
		t.Errorf("snapshot mismatch: %+v", s)
	}
	if s.DBSize == 0 || s.Queries == 0 || s.ViewSize == 0 {
		t.Errorf("snapshot must carry instance dimensions: %+v", s)
	}
	r.Release(got)
}

// Len reports the resident entry count.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}
