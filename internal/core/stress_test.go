package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"delprop/internal/workload"
)

// TestStressDifferential is the consolidated invariant net: across every
// workload family, seed and deletion size it checks
//
//  1. exact solvers agree (BruteForce == RedBlueExact),
//  2. no approximation beats the optimum and all are feasible,
//  3. DualBound ≤ optimum,
//  4. balanced optimum ≤ standard optimum,
//  5. DPTree == optimum whenever the pivot structure is detected,
//  6. provenance evaluation == re-evaluation on every produced solution.
//
// Skipped under -short.
func TestStressDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short")
	}
	type instance struct {
		family string
		p      *Problem
	}
	var instances []instance
	for seed := int64(10); seed < 22; seed++ {
		for _, nDel := range []int{1, 3, 5} {
			w := workload.Star(workload.StarConfig{
				Seed: seed, Relations: 4, HubValues: 3, RowsPerRelation: 4,
				Queries: 3, AtomsPerQuery: 2,
			})
			if p, err := NewProblem(w.DB, w.Queries, nil); err == nil {
				p = respecialize(t, p, workload.SampleDeletion(p.Views, nDel, seed))
				instances = append(instances, instance{"star", p})
			}
			w = workload.Chain(workload.ChainConfig{
				Seed: seed, Length: 4, Domain: 3, RowsPerRelation: 4,
				Queries: 3, MaxSpan: 3,
			})
			if p, err := NewProblem(w.DB, w.Queries, nil); err == nil {
				p = respecialize(t, p, workload.SampleDeletion(p.Views, nDel, seed))
				instances = append(instances, instance{"chain", p})
			}
			w = workload.Pivot(workload.PivotConfig{
				Seed: seed, Roots: 2, ChildrenPerRoot: 3, GrandPerChild: 2,
			})
			if p, err := NewProblem(w.DB, w.Queries, nil); err == nil {
				p = respecialize(t, p, workload.SampleDeletion(p.Views, nDel, seed))
				instances = append(instances, instance{"pivot", p})
			}
			w = workload.SelfJoin(workload.SelfJoinConfig{
				Seed: seed, Nodes: 4, Edges: 7, Queries: 2, MaxLen: 2,
			})
			if p, err := NewProblem(w.DB, w.Queries, nil); err == nil {
				p = respecialize(t, p, workload.SampleDeletion(p.Views, nDel, seed))
				instances = append(instances, instance{"selfjoin", p})
			}
		}
	}
	checked := 0
	for _, in := range instances {
		p := in.p
		if p.DeltaLen() == 0 {
			continue
		}
		bf, err := (&BruteForce{}).Solve(context.Background(), p)
		if err != nil {
			if errors.Is(err, ErrTooLarge) {
				continue
			}
			t.Fatalf("%s: brute: %v", in.family, err)
		}
		opt := p.Evaluate(bf)
		if !opt.Feasible {
			t.Fatalf("%s: brute infeasible", in.family)
		}
		// (1) exact agreement.
		rbe, err := (&RedBlueExact{}).Solve(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: red-blue-exact: %v", in.family, err)
		}
		if got := p.Evaluate(rbe).SideEffect; got != opt.SideEffect {
			t.Errorf("%s: exacts disagree: %v vs %v", in.family, got, opt.SideEffect)
		}
		// (2) approximations.
		solutions := []*Solution{bf, rbe}
		for _, s := range ApproxSolvers() {
			sol, err := s.Solve(context.Background(), p)
			if err != nil {
				t.Fatalf("%s: %s: %v", in.family, s.Name(), err)
			}
			rep := p.Evaluate(sol)
			if !rep.Feasible {
				t.Errorf("%s: %s infeasible", in.family, s.Name())
			}
			if rep.SideEffect < opt.SideEffect-1e-9 {
				t.Errorf("%s: %s beats optimum: %v < %v", in.family, s.Name(), rep.SideEffect, opt.SideEffect)
			}
			solutions = append(solutions, sol)
		}
		// (3) dual bound.
		lb, err := DualBound(p)
		if err != nil {
			t.Fatalf("%s: dual bound: %v", in.family, err)
		}
		if lb > opt.SideEffect+1e-9 {
			t.Errorf("%s: dual bound %v exceeds optimum %v", in.family, lb, opt.SideEffect)
		}
		// (4) balanced ≤ standard.
		bb, err := (&BruteForce{Balanced: true}).Solve(context.Background(), p)
		if err == nil {
			if bal := p.Evaluate(bb).Balanced; bal > opt.SideEffect+1e-9 {
				t.Errorf("%s: balanced optimum %v exceeds standard %v", in.family, bal, opt.SideEffect)
			}
		}
		// (5) DP exactness when applicable.
		if IsPivotForest(p) {
			dp, err := (&DPTree{}).Solve(context.Background(), p)
			if err != nil {
				t.Fatalf("%s: dp: %v", in.family, err)
			}
			if got := p.Evaluate(dp).SideEffect; got != opt.SideEffect {
				t.Errorf("%s: DP %v != optimum %v", in.family, got, opt.SideEffect)
			}
		}
		// (6) provenance vs re-evaluation on every produced solution.
		for _, sol := range solutions {
			a := p.Evaluate(sol)
			b, err := p.EvaluateByReevaluation(sol)
			if err != nil {
				t.Fatal(err)
			}
			if a.Feasible != b.Feasible || math.Abs(a.SideEffect-b.SideEffect) > 1e-9 {
				t.Errorf("%s: evaluation mismatch: %+v vs %+v", in.family, a, b)
			}
		}
		checked++
	}
	if checked < 20 {
		t.Errorf("stress test only checked %d instances", checked)
	}
	t.Logf("stress-checked %d instances", checked)
}
