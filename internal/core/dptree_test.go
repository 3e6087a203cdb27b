package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"delprop/internal/workload"
)

// dpAnswer renders both DP objectives' answers on p, deletion order
// included, with their evaluation.
func dpAnswer(t *testing.T, p *Problem) string {
	t.Helper()
	var out string
	for _, s := range []*DPTree{{}, {Balanced: true}} {
		sol, err := s.Solve(context.Background(), p)
		if err != nil {
			t.Error(err)
			return ""
		}
		out += fmt.Sprintf("%s %v %s\n", s.Name(), sol.Deleted, p.Evaluate(sol))
	}
	return out
}

// TestDPTreeConcurrentWarmSolves: goroutines specializing one pivot
// skeleton with their own deltas and weights all read its shared forest,
// and each answer is byte-identical to a cold NewProblem solve of the
// same request (run under -race by make race-hot).
func TestDPTreeConcurrentWarmSolves(t *testing.T) {
	w := workload.Pivot(workload.PivotConfig{Seed: 5, Roots: 4, ChildrenPerRoot: 3, GrandPerChild: 3, Depth3: true})
	skel, err := NewProblem(w.DB, w.Queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := int64(0); g < 12; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			delta := workload.SampleDeletion(skel.Views, 2+int(g%4), 100+g)
			weights := workload.SampleWeights(skel.Views, delta, 6, 200+g)
			warm, err := skel.Specialize(delta)
			if err != nil {
				t.Error(err)
				return
			}
			setWeights(warm, weights)
			cold, err := NewProblem(w.DB, w.Queries, delta)
			if err != nil {
				t.Error(err)
				return
			}
			setWeights(cold, weights)
			if got, want := dpAnswer(t, warm), dpAnswer(t, cold); got != want {
				t.Errorf("goroutine %d: warm\n%s!= cold\n%s", g, got, want)
			}
		}()
	}
	wg.Wait()
}

// TestDPTreeForestHoldsNoRequest: the pattern of TestDPTreeExactOnDepth3Pivot
// — classify, then specialize to a new request and weights — must solve each
// request exactly as a problem built with it does, so the memoized forest
// holds nothing request-specific.
func TestDPTreeForestHoldsNoRequest(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		w := workload.Pivot(workload.PivotConfig{Seed: seed, Roots: 3, ChildrenPerRoot: 3, GrandPerChild: 2, Depth3: true})
		p, err := NewProblem(w.DB, w.Queries, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !IsPivotForest(p) {
			t.Fatalf("seed %d: pivot workload not detected", seed)
		}
		for req := int64(0); req < 2; req++ {
			delta := workload.SampleDeletion(p.Views, 2+int(req), seed+40+req)
			weights := workload.SampleWeights(p.Views, delta, 4, seed+50+req)
			warm := respecialize(t, p, delta)
			setWeights(warm, weights)
			fresh, err := NewProblem(w.DB, w.Queries, delta)
			if err != nil {
				t.Fatal(err)
			}
			setWeights(fresh, weights)
			if got, want := dpAnswer(t, warm), dpAnswer(t, fresh); got != want {
				t.Errorf("seed %d request %d: after replacing the request\n%s!= fresh\n%s", seed, req, got, want)
			}
		}
	}
}
