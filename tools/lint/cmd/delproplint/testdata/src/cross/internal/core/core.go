// Package core is the cross-analyzer fixture: one file violating every
// analyzer in the suite, pinning diagnostic positions across loader and
// driver changes. The module path puts it in solveloop's entry scope and
// golife's daemon scope.
package core

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"

	"delprop/internal/telemetry"
)

type counters struct { // want `no non-test file references core\.counters`
	hits atomic.Int64
}

func (c *counters) mixed() int64 { // want `no non-test file references core\.counters\.mixed`
	n := c.hits // want `atomic field hits must be accessed through its methods`
	return n.Load()
}

func Misordered(n int, ctx context.Context) {} // want `context.Context must be the first parameter` `no non-test file references core\.Misordered`

func spawn() { // want `no non-test file references core\.spawn`
	go func() { // want `goroutine has no bounded lifetime`
		for {
		}
	}()
}

type guarded struct { // want `no non-test file references core\.guarded`
	mu sync.Mutex
	n  int //delprop:guardedby mu
}

func (g *guarded) unlocked() int { // want `no non-test file references core\.guarded\.unlocked`
	return g.n // want `field guarded.n is guarded by mu`
}

func keys(m map[string]int) []string { // want `no non-test file references core\.keys`
	var out []string
	for k := range m {
		out = append(out, k) // want `out is appended to in map iteration order`
	}
	return out
}

func observe(reg *telemetry.Registry, r *http.Request) { // want `no non-test file references core\.observe`
	reg.Count("requests", telemetry.Labels{
		"path": r.URL.Path, // want `label values must come from a bounded set`
	})
}

// Recorder promises nil-safety but Bump dereferences unguarded.
//
//delprop:nilsafe
type Recorder struct { // want `no non-test file references core\.Recorder`
	n int
}

// Bump increments without the contract's nil guard.
func (r *Recorder) Bump() { // want `method Recorder.Bump dereferences its receiver outside a nil guard` `no non-test file references core\.Recorder\.Bump`
	r.n++
}

// Solve is a solveloop root: the search loop below never polls ctx.
func Solve(ctx context.Context, n int) int { // want `no non-test file references core\.Solve`
	total := 0
	for { // want `no cancellation checkpoint`
		total++
		if total > n {
			return total
		}
	}
}
