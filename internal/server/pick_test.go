package server

import (
	"testing"

	"delprop/internal/core"
	"delprop/internal/workload"
)

// TestPickSolverReusesPivotForest: "auto" classifies a key-preserving
// request by the skeleton's memoized pivot-forest verdict, negative ones
// included, so once one request has built it, routing a fresh Specialize
// derivative allocates next to nothing instead of rebuilding the forest.
func TestPickSolverReusesPivotForest(t *testing.T) {
	cases := []struct {
		name string
		w    *workload.Workload
		want string
	}{
		{"pivot", workload.Pivot(workload.PivotConfig{Seed: 3, Roots: 6, ChildrenPerRoot: 4, GrandPerChild: 3}), "dp-tree"},
		{"chain", workload.Chain(workload.ChainConfig{Seed: 3, Length: 4, Domain: 4, RowsPerRelation: 12, Queries: 3, MaxSpan: 2}), "red-blue"},
	}
	for _, tc := range cases {
		skel, err := core.NewProblem(tc.w.DB, tc.w.Queries, nil)
		if err != nil {
			t.Fatal(err)
		}
		first, err := skel.Specialize(workload.SampleDeletion(skel.Views, 3, 1))
		if err != nil {
			t.Fatal(err)
		}
		if s, err := PickSolver("auto", first); err != nil || s.Name() != tc.want {
			t.Fatalf("%s: PickSolver = %v, %v; want %s", tc.name, s, err, tc.want)
		}
		p, err := skel.Specialize(workload.SampleDeletion(skel.Views, 4, 2))
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := PickSolver("auto", p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 5 {
			t.Errorf("%s: PickSolver on a warm skeleton: %v allocs per run, want <= 5", tc.name, allocs)
		}
	}
}
