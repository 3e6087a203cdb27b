package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"delprop/internal/relation"
)

// TestLocalSearchNeverWorse: across families and seeds, the wrapped
// solver's solution is feasible and at most the inner solver's cost.
func TestLocalSearchNeverWorse(t *testing.T) {
	makers := map[string]func(*testing.T, int64, int) *Problem{
		"star":  starProblem,
		"chain": chainProblem,
		"pivot": pivotProblem,
	}
	for name, mk := range makers {
		for seed := int64(1); seed <= 5; seed++ {
			p := mk(t, seed, 4)
			if p.DeltaLen() == 0 {
				continue
			}
			inner := &Greedy{}
			base, err := inner.Solve(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			ls := &LocalSearch{Inner: inner}
			sol, err := ls.Solve(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			br, lr := p.Evaluate(base), p.Evaluate(sol)
			if !lr.Feasible {
				t.Fatalf("%s/%d: local search infeasible", name, seed)
			}
			if lr.SideEffect > br.SideEffect+1e-9 {
				t.Errorf("%s/%d: local search %v worse than inner %v", name, seed, lr.SideEffect, br.SideEffect)
			}
		}
	}
}

// TestLocalSearchImprovesSomewhere: over a sweep of seeds the optimizer
// improves the greedy at least once (otherwise it would be dead code).
func TestLocalSearchImprovesSomewhere(t *testing.T) {
	improved := false
	for seed := int64(1); seed <= 20 && !improved; seed++ {
		for _, mk := range []func(*testing.T, int64, int) *Problem{starProblem, chainProblem} {
			p := mk(t, seed, 5)
			if p.DeltaLen() == 0 {
				continue
			}
			base, err := (&Greedy{}).Solve(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := (&LocalSearch{}).Solve(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			if p.Evaluate(sol).SideEffect < p.Evaluate(base).SideEffect-1e-9 {
				improved = true
				break
			}
		}
	}
	if !improved {
		t.Log("local search never improved greedy in this sweep (acceptable but unusual)")
	}
}

// TestLocalSearchRespectsOptimum: it never beats the exact optimum.
func TestLocalSearchRespectsOptimum(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p := starProblem(t, seed, 3)
		if p.DeltaLen() == 0 {
			continue
		}
		opt, err := (&RedBlueExact{}).Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := (&LocalSearch{}).Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if p.Evaluate(sol).SideEffect < p.Evaluate(opt).SideEffect-1e-9 {
			t.Errorf("seed %d: local search beat the optimum", seed)
		}
	}
}

// TestLocalSearchDropRedundant: a solution padded with a useless deletion
// gets trimmed — also when the padding repeats a tuple and adds one no
// derivation uses, which has no tuple id: its drop move costs one node,
// always succeeds and records no incumbent.
func TestLocalSearchDropRedundant(t *testing.T) {
	p := fig1Q4Problem(t)
	cands := p.CandidateTuples()
	unused := relation.TupleID{Relation: "T1", Tuple: tup("Zelda", "TKDE")}
	for _, tc := range []struct {
		name       string
		deleted    []relation.TupleID
		nodes      int64
		incumbents []IncumbentEvent
	}{
		{"candidates", cands, 5, []IncumbentEvent{{Objective: 2, Deleted: 1}, {Objective: 1, Deleted: 1}}},
		{"duplicate and unused", append([]relation.TupleID{unused, cands[1]}, cands...), 6, []IncumbentEvent{{Objective: 2, Deleted: 2}, {Objective: 1, Deleted: 1}}},
	} {
		ctx, st := WithStats(context.Background())
		ls := &LocalSearch{Inner: &fixedSolver{sol: &Solution{Deleted: tc.deleted}}}
		sol, err := ls.Solve(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		rep := p.Evaluate(sol)
		if !rep.Feasible {
			t.Fatalf("%s: infeasible", tc.name)
		}
		// Both candidates deleted costs 2; the optimum keeps one tuple at
		// cost 1.
		if rep.SideEffect != 1 || len(sol.Deleted) != 1 {
			t.Errorf("%s: trimmed solution: %s (side effect %v)", tc.name, sol, rep.SideEffect)
		}
		snap := st.Snapshot()
		for i := range snap.Incumbents {
			snap.Incumbents[i].At = time.Time{}
		}
		if snap.NodesExpanded != tc.nodes || !reflect.DeepEqual(snap.Incumbents, tc.incumbents) {
			t.Errorf("%s: nodes %d, incumbents %+v; want %d, %+v", tc.name, snap.NodesExpanded, snap.Incumbents, tc.nodes, tc.incumbents)
		}
	}
}

// fixedSolver returns a canned solution.
type fixedSolver struct{ sol *Solution }

func (f *fixedSolver) Name() string { return "fixed" }
func (f *fixedSolver) Solve(context.Context, *Problem) (*Solution, error) {
	return f.sol, nil
}

func TestLocalSearchName(t *testing.T) {
	if got := (&LocalSearch{}).Name(); got != "local-search(greedy)" {
		t.Errorf("Name = %q", got)
	}
}
