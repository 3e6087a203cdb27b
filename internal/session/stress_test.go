package session

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"delprop/internal/core"
	"delprop/internal/workload"
)

// TestStressConcurrentLifecycle hammers one registry from many goroutines
// mixing register, acquire+solve+release, sweep-driven TTL expiry and
// explicit eviction. Run under -race (make race-hot) it proves the
// guardedby discipline holds under contention; the invariants checked are
// (a) no acquired entry ever loses its skeleton mid-solve and (b) every
// acquire is matched by a release so drain can finish.
func TestStressConcurrentLifecycle(t *testing.T) {
	clock := newFakeClock()
	var evictions atomic.Int64
	r := NewRegistry(Config{
		TTL:        50 * time.Millisecond,
		MaxEntries: 4,
		Now:        clock.Now,
		Hooks: Hooks{
			OnEvict: func(string, string) { evictions.Add(1) },
		},
	})
	ctx := context.Background()
	w := workload.Fig1()
	build := func() (*core.Problem, error) {
		return core.NewProblem(w.DB, w.Queries, nil)
	}

	const (
		workers = 8
		iters   = 150
	)
	var wg sync.WaitGroup
	var solves atomic.Int64
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Workers share 3 fingerprints so registrations collide, with
			// capacity 4 forcing LRU churn alongside TTL expiry.
			fp := Fingerprint(fmt.Sprintf("db-%d", g%3), "q")
			for i := 0; i < iters; i++ {
				e, _, err := r.Register(ctx, fp, "", build)
				if err != nil {
					if errors.Is(err, ErrFull) || errors.Is(err, ErrDraining) {
						continue
					}
					t.Errorf("register: %v", err)
					return
				}
				got, err := r.Acquire(ctx, e.ID)
				if err != nil {
					// The entry raced with TTL expiry or an eviction —
					// legitimate; re-register next iteration.
					continue
				}
				p := got.Problem()
				if p == nil || p.DB == nil {
					t.Error("acquired entry lost its skeleton")
					r.Release(got)
					return
				}
				// A tiny warm solve exercises the shared skeleton.
				delta := workload.SampleDeletion(p.Views, 1, int64(g*iters+i))
				if sp, err := p.Specialize(delta); err == nil {
					if _, err := (&core.Greedy{}).Solve(ctx, sp); err == nil {
						solves.Add(1)
					}
				}
				r.Release(got)
				switch i % 10 {
				case 3:
					clock.Advance(20 * time.Millisecond)
				case 7:
					r.Sweep(clock.Now())
				case 9:
					r.Evict(e.ID, EvictExplicit)
				}
			}
		}(g)
	}
	wg.Wait()
	if solves.Load() == 0 {
		t.Fatal("stress run never completed a warm solve")
	}
	// Every acquire was released.
	if n := r.inflightTotal(); n != 0 {
		t.Fatalf("%d solves still in flight after stress", n)
	}
	if evictions.Load() == 0 {
		t.Fatal("stress run never evicted (TTL/capacity paths unexercised)")
	}
}

// inflightTotal sums in-flight solves across entries.
func (r *Registry) inflightTotal() int {
	total := 0
	for _, e := range r.sortedEntries() {
		e.mu.Lock()
		total += e.inflight
		e.mu.Unlock()
	}
	return total
}
